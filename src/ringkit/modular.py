"""Integer modular helpers: inverses, CRT, symmetric lifting, and the
modular gcd loop over Z.

Residue arithmetic itself is plain Python int arithmetic (`a * b % p`) in the
ring descriptors; these are the operations that need more than one step.
`modular_gcd` is the one CRT loop behind the univariate and multivariate
gcds over Z: the callers supply the gcd modulo a prime and the trial
division, the loop picks primes, discards unlucky images, combines the
rest and stops at the first candidate that divides both inputs.
"""

import math
import threading

from .errors import NonInvertibleError
from .primes import next_prime

# modular gcds take the primes above this; below 2^30 a residue is one
# 30-bit CPython digit and a product of two residues is two digits
PRIME_FLOOR = 1 << 29
_CRT_PRIMES = []  # the primes above PRIME_FLOOR found so far, ascending
_CRT_GROW = threading.Lock()  # a prime appended twice would break the CRT


def _crt_primes():
    """The primes above PRIME_FLOOR in increasing order; each is searched
    once per process and then read from the shared list."""
    i = 0
    while True:
        if i == len(_CRT_PRIMES):
            with _CRT_GROW:
                if i == len(_CRT_PRIMES):
                    last = _CRT_PRIMES[-1] if i else PRIME_FLOOR
                    _CRT_PRIMES.append(next_prime(last))
        yield _CRT_PRIMES[i]
        i += 1


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m; raises NonInvertibleError carrying the gcd."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertibleError(
            "%d is not invertible mod %d" % (a % m, m), gcd=math.gcd(a, m)
        ) from None


def crt_pair(r1: int, m1: int, r2: int, m2: int):
    """Combine a = r1 (mod m1), a = r2 (mod m2) for coprime m1, m2.

    Returns (x, m1*m2) with 0 <= x < m1*m2.
    """
    # inverse call doubles as the coprimality check
    t = mod_inverse(m1 % m2, m2)
    x = r1 + m1 * (((r2 - r1) * t) % m2)
    m = m1 * m2
    return x % m, m


def symmetric_lift(x: int, m: int) -> int:
    """Representative of x mod m in the symmetric range (-m/2, m/2]."""
    x %= m
    return x - m if x > m // 2 else x


def gcd_coeff_bound(gamma, *inputs):
    """Bound on the coefficients of gamma * gcd / lc(gcd) over Z.

    Each input is (coefficients, sum of its per-variable degrees) of one
    operand f; a factor of f has coefficients at most 2^(sum of degrees)
    times its Mahler measure, which is at most ||f||_2.
    """
    return gamma * min(
        (math.isqrt(sum(c * c for c in cs)) + 1) << d for cs, d in inputs
    )


def modular_gcd(image, key, divides, gamma, lcs, bound):
    """Primitive gcd over Z as {monomial: int} with a positive lead, or {}
    when the gcd is a unit.

    `image(p)` is the monic gcd modulo p as {monomial: residue}, or None
    when it is 1; primes dividing an entry of `lcs` are skipped.  Images
    are scaled by gamma, the gcd of the leading coefficients, so that
    they agree across primes; an image whose leading monomial under `key`
    exceeds the best one seen comes from an unlucky prime and is dropped,
    a smaller one restarts the accumulation.  After every prime the
    symmetric lift, made primitive, goes to `divides(terms)`; the loop
    raises ArithmeticError once the modulus passes 2 * `bound`, a bound on
    the coefficients of the scaled gcd, without a candidate accepted.
    """
    acc, mod, lead = None, 1, None
    for p in _crt_primes():
        if any(c % p == 0 for c in lcs):
            continue
        img = image(p)
        if img is None:
            return {}
        le = key(max(img, key=key))
        img = {e: c * gamma % p for e, c in img.items()}
        if lead is None or le < lead:
            acc, mod, lead = img, p, le
        elif le > lead:
            continue
        else:
            acc = {
                e: crt_pair(acc.get(e, 0), mod, img.get(e, 0), p)[0]
                for e in acc.keys() | img.keys()
            }
            mod *= p
        terms = _primitive_lift(acc, mod, key)
        if terms and divides(terms):
            return terms
        if mod > 2 * bound:
            raise ArithmeticError("modular gcd passed its coefficient bound")


def _primitive_lift(acc, mod, key):
    """Symmetric lift of the residues, content removed, lead made positive."""
    terms = {}
    for e, r in acc.items():
        v = symmetric_lift(r, mod)
        if v:
            terms[e] = v
    if not terms:
        return terms
    ct = math.gcd(*terms.values())
    if terms[max(terms, key=key)] < 0:
        ct = -ct
    if ct != 1:
        terms = {e: v // ct for e, v in terms.items()}
    return terms
