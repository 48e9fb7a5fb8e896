"""Univariate polynomial factorization.

Finite fields: squarefree split, distinct-degree split, then Cantor-
Zassenhaus equal-degree splitting ((q^d-1)/2 powers for odd q, trace maps
in characteristic 2).  Every q-th power in these steps and in Rabin's test
is an image of one FrobeniusMap (von zur Gathen and Shoup 1992), built
once per squarefree part, not a fresh power: only x^q mod f and the short
power r^((q-1)/2) are computed by repeated squaring.  The distinct-degree
split batches its degrees in blocks (Shoup 1995): one gcd of the unsplit
part with the product of the block's x^(q^d) - x mod f, and a per-degree
split only inside a block whose gcd is nontrivial; a two-root quadratic
over an odd prime field splits by the quadratic formula.  Over Z: factor an
image modulo a prime whose residue products sum inside one 64-bit slot
(28-31 bits, by degree), Hensel-lift to the Mignotte bound of a factor of
half the degree (every split has such a side), and recombine subsets by
trial division after the constant-term test, each division by the side of
degree at most half.
"""

import math
import random
from itertools import combinations

from . import rings
from .errors import UnsupportedRingError
from .modular import symmetric_lift
from .primes import factor_integer, next_prime
from .unipoly import (
    FrobeniusMap,
    PolyModContext,
    UniPoly,
    _poly,
    uni_add,
    uni_derivative,
    uni_divrem,
    uni_exact_div,
    uni_extended_gcd,
    uni_gcd,
    uni_monic,
    uni_mul,
    uni_primitive,
    uni_squarefree,
    uni_sub,
)


def _coeff_key(c):
    if isinstance(c, UniPoly):
        return tuple(c.coeffs)
    if isinstance(c, rings.Rational):
        return (_coeff_key(c.num), _coeff_key(c.den))
    return c


def _sort_key(f: UniPoly):
    return (f.degree, tuple(_coeff_key(c) for c in f.coeffs))


def factor_unipoly(R, f: UniPoly):
    """(unit, [(factor, exponent), ...]) with canonical, sorted factors."""
    K = R.cring
    f = R.of(f)
    if f.is_zero():
        raise ArithmeticError("cannot factor the zero polynomial")
    if K.is_field and K.is_finite:
        return factor_finite(f)
    if isinstance(K, rings.IntegerRing):
        return factor_over_z(f)
    if K == rings.QQ:
        return _factor_over_q(K, f)
    raise UnsupportedRingError(
        "univariate factorization supports finite fields, Z, and Q; not %s" % (K,)
    )


# -------------------------------------------------------------- finite fields


def uni_is_irreducible(f: UniPoly) -> bool:
    """Rabin's test over a finite coefficient field.

    f of degree n is irreducible iff x^(q^n) = x mod f and, for each prime
    t dividing n, gcd(x^(q^(n/t)) - x, f) = 1.  The powers x^(q^j) are
    successive images of one FrobeniusMap of f.
    """
    K = f.ring
    if not (K.is_field and K.is_finite):
        raise UnsupportedRingError("irreducibility test needs a finite field")
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    f = uni_monic(f)
    frobenius = FrobeniusMap(f)
    x = _poly(K, [K.zero, K.one])
    frob = [x]  # frob[j] = x^(q^j) mod f
    for _ in range(n):
        frob.append(frobenius(frob[-1]))
    if frob[n] != x:
        return False
    for t in factor_integer(n):
        h = uni_sub(frob[n // t], x)
        if uni_gcd(f, h).degree != 0:
            return False
    return True


def factor_finite(f: UniPoly, seed: int = 0):
    """Complete factorization over a finite field; factors monic, sorted."""
    K = f.ring
    unit = _poly(K, [f.lc()])
    _, parts = uni_squarefree(f)
    rng = random.Random(seed)
    out = []
    for g, mult in parts:
        frob = FrobeniusMap(g)
        for prod, d in _distinct_degree(g, frob):
            for h in _equal_degree(prod, d, rng, frob):
                out.append((h, mult))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return unit, out


def _distinct_degree(f: UniPoly, frob):
    """[(product of irreducible factors of degree d, d)] for monic squarefree
    f, with `frob` the FrobeniusMap of f.

    Shoup's interval batching: the degrees run in blocks of about
    sqrt(deg f / 2).  A block multiplies the h_d - x, h_d = x^(q^d) mod f,
    of its degrees mod f, with the map's own context, and takes one gcd of
    that product with the part `cur` of f not yet split off (cur divides f,
    so the product mod f has the same gcd).  That gcd holds the factors
    whose degree lies in the block, since the lower ones are gone; only a
    nontrivial block gcd is split degree by degree.  Degrees stop at
    deg(cur) / 2: what remains then is irreducible.
    """
    K = f.ring
    x = _poly(K, [K.zero, K.one])
    width = max(1, math.isqrt(f.degree // 2))
    ctx = frob.context
    out = []
    h = x
    cur = f
    d = 0
    while cur.degree >= 2 * (d + 1):
        prod = _poly(K, [K.one])
        block = []
        for d in range(d + 1, min(d + width, cur.degree // 2) + 1):
            h = frob(h)
            block.append((h, d))
            prod = ctx.mulmod(prod, uni_sub(h, x))
        g = uni_gcd(prod, cur)
        if g.degree > 0:
            cur = uni_exact_div(cur, g)
            out.extend(_split_block(g, block, x))
    if cur.degree > 0:
        out.append((cur, cur.degree))
    return out


def _split_block(g: UniPoly, block, x):
    """Split g, the product of the factors whose degrees lie in `block`, a
    list of (x^(q^d) mod f, d) by increasing d, by degree."""
    out = []
    for h, d in block:
        if g.degree < 2 * d:
            break
        gd = uni_gcd(uni_sub(h, x), g)
        if gd.degree > 0:
            out.append((gd, d))
            g = uni_exact_div(g, gd)
    if g.degree > 0:
        # deg g < 2d and every factor left has degree >= d: g is irreducible
        out.append((g, g.degree))
    return out


def _equal_degree(f: UniPoly, d: int, rng, frob):
    """Split a monic product of degree-d irreducibles into its factors.

    `frob` is the FrobeniusMap of a multiple of f, so the recursive splits
    share it: an image mod f is its image reduced mod f.  A product of two
    linear factors over Zp with p odd splits by the quadratic formula;
    GF(p^k) and characteristic 2 always take the random splitting.
    """
    K = f.ring
    n = f.degree
    if n == d:
        return [f]
    q = K.cardinality
    if n == 2 and isinstance(K, rings.ZpRing) and q % 2:
        c, b, _ = f.coeffs
        return [_poly(K, [K.neg(r), K.one]) for r in _quadratic_roots(b, c, q)]
    ctx = PolyModContext(f)
    one = _poly(K, [K.one])
    while True:
        r = _poly(K, [K.random_element(rng) for _ in range(n)])
        if r.degree < 1:
            continue
        if K.characteristic == 2:
            # T = r + r^2 + ... + r^(2^(k-1)) mod f for q = 2^k, then the
            # trace to F_2 is s = T + T^q + ... + T^(q^(d-1))
            t = u = ctx.rem(r)
            for _ in range(q.bit_length() - 2):
                t = ctx.mulmod(t, t)
                u = uni_add(u, t)
            s = u
            for _ in range(d - 1):
                u = ctx.rem(frob(u))
                s = uni_add(s, u)
            g = uni_gcd(s, f)
        else:
            # s = r^((q^d-1)/2) = t * t^q * ... * t^(q^(d-1)), t = r^((q-1)/2)
            t = s = ctx.powmod(r, (q - 1) // 2)
            for _ in range(d - 1):
                t = ctx.rem(frob(t))
                s = ctx.mulmod(s, t)
            g = uni_gcd(uni_sub(s, one), f)
        if 0 < g.degree < n:
            return _equal_degree(g, d, rng, frob) + _equal_degree(
                uni_exact_div(f, g), d, rng, frob
            )


def _sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None when a is not a
    square (Euler's criterion); Tonelli-Shanks unless p = 3 mod 4."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s, q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots(b: int, c: int, p: int):
    """The distinct roots of x^2 + b*x + c modulo an odd prime p, ascending."""
    s = _sqrt_mod(b * b - 4 * c, p)
    if s is None:
        return []
    half = (p + 1) // 2
    return sorted({(s - b) * half % p, (-s - b) * half % p})


# ------------------------------------------------------------------- over Z


def factor_over_z(f: UniPoly):
    """Factor over Z: content primes as constants, primitive irreducibles."""
    Z = f.ring
    lead, parts = uni_squarefree(f)  # lead carries the signed content
    content = lead.constant()
    unit = 1 if content > 0 else -1
    out = []
    for prime, e in sorted(factor_integer(abs(content)).items()):
        out.append((_poly(Z, [prime]), e))
    for g, mult in parts:
        for h in _factor_primitive_squarefree_z(g):
            out.append((h, mult))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return _poly(Z, [unit]), out


def _factor_primitive_squarefree_z(f: UniPoly):
    """Irreducible factors of a primitive squarefree poly with positive lc."""
    if f.degree <= 1:
        return [f]
    p = _good_prime(f)
    zp = rings.ZpRing(p)
    fp = _poly(zp, [c % p for c in f.coeffs])
    _, parts = factor_finite(fp)
    modular = [g for g, _ in parts]
    if len(modular) == 1:
        return [f]
    lifted = _hensel_lift(p, _mignotte_exponent(f, p), f, modular)
    return _recombine(f, lifted)


def _good_prime(f: UniPoly) -> int:
    """Smallest b-bit prime keeping f squarefree and degree-preserving.

    b = (64 - bitlen(deg f)) // 2 is the largest prime size whose sums of
    deg f products of residues fit one 64-bit slot, so every packed product
    of the factorization mod p runs on 8-byte slots (`unipoly._slot_bytes`):
    31 bits up to degree 3, 30 to 15, 29 to 63, 28 to 255.
    """
    b = (64 - f.degree.bit_length()) // 2
    p = 1 << (b - 1)
    while True:
        p = next_prime(p)
        if f.lc() % p == 0:
            continue
        zp = rings.ZpRing(p)
        fp = _poly(zp, [c % p for c in f.coeffs])
        if uni_gcd(fp, uni_derivative(fp)).degree == 0:
            return p


def _mignotte_exponent(f: UniPoly, p: int) -> int:
    """Least ell with p^ell > 2 * 2^(deg/2) * l2norm * |lc|.

    A factor h of degree k has lc(f)/lc(h) * h below 2^k * l2norm * |lc|
    (Mignotte).  Every split of f has a side of degree at most deg/2, the
    side `_recombine` forms; the constant terms it tests are smaller still.
    """
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return _exponent_above(p, (1 << (f.degree // 2)) * norm * abs(f.lc()))


def _exponent_above(p: int, bound: int) -> int:
    """Least ell >= 1 with p^ell > 2 * bound: residues mod p^ell then
    determine every integer of absolute value at most bound."""
    ell, pe = 1, p
    while pe <= 2 * bound:
        pe, ell = pe * p, ell + 1
    return ell


class _HenselNode:
    """One split f = g*h with Bezout data s*g + t*h = 1 (mod p^current)."""

    __slots__ = ("g", "h", "s", "t", "left", "right")

    def __init__(self, g, h, s, t, left, right):
        self.g, self.h, self.s, self.t = g, h, s, t
        self.left, self.right = left, right


def _build_tree(factors):
    """Balanced product tree over monic Zp factors; returns (root, product)."""
    if len(factors) == 1:
        return None, factors[0]
    mid = len(factors) // 2
    left, g = _build_tree(factors[:mid])
    right, h = _build_tree(factors[mid:])
    one, s, t = uni_extended_gcd(g, h)
    assert one.degree == 0
    return _HenselNode(g, h, s, t, left, right), uni_mul(g, h)


def _lift_node(node, f, last):
    """One quadratic step from valid data mod m to f's modulus m_new | m^2.

    The node's data are residues mod m, so they are already canonical
    residues mod m_new and only change ring.  The `last` step lifts g and
    h only: no later step reads the Bezout pair s, t.
    """
    K = f.ring
    g, h, s, t = (UniPoly(K, x.coeffs) for x in (node.g, node.h, node.s, node.t))
    e = uni_sub(f, uni_mul(g, h))
    q, r = uni_divrem(uni_mul(s, e), h)
    g_new = uni_add(g, uni_add(uni_mul(t, e), uni_mul(q, g)))
    h_new = uni_add(h, r)
    node.g, node.h = g_new, h_new
    if not last:
        b = uni_sub(uni_add(uni_mul(s, g_new), uni_mul(t, h_new)), _poly(K, [K.one]))
        c, d = uni_divrem(uni_mul(s, b), h_new)
        node.s = uni_sub(s, d)
        node.t = uni_sub(t, uni_add(uni_mul(t, b), uni_mul(c, g_new)))
    if node.left is not None:
        _lift_node(node.left, g_new, last)
    if node.right is not None:
        _lift_node(node.right, h_new, last)


def _hensel_lift(p, ell, f, modular_factors):
    """Monic factors over Z/p^ell whose product is f/lc(f) mod p^ell.

    Quadratic steps on a balanced tree of the factors, the last without
    the Bezout update; at ell = 1 the factors mod p themselves.
    """
    if ell == 1:
        return modular_factors
    root, _ = _build_tree(modular_factors)
    cur = 1
    while cur < ell:
        nxt = min(2 * cur, ell)
        K = rings.ZmRing(p**nxt)
        _lift_node(root, uni_monic(_poly(K, [K.of(c) for c in f.coeffs])), nxt == ell)
        cur = nxt
    return _leaves(root, None)


def _leaves(node, g):
    """The factors at the leaves below a tree node whose product is g."""
    if node is None:
        return [g]
    return _leaves(node.left, node.g) + _leaves(node.right, node.h)


def _recombine(f: UniPoly, lifted):
    """Subset recombination by trial division over Z, each subset first
    passing the constant-term test (Abbott, Shoup and Zimmermann 2000).

    A subset S's candidate is lc(f) * prod g_i mod p^ell, symmetrically
    lifted, with lc(f) of the input f.  For a true factor h of the part of f
    not yet split off it is (lc(f) / lc(h)) * h, and its constant term c
    divides lc(f) * (that part)(0), as lc(h) divides lc(f) and h(0) divides
    the part's constant term.  The test runs first, on S: a c that is zero
    or does not divide rejects S before any product (the test is off while
    the part's constant term is 0).  When S holds more than half the part's
    degree, the candidate is its complement's, the side that
    `_mignotte_exponent` bounds, and the quotient is S's factor.  Subsets
    run by size, so each found factor is irreducible.
    """
    Z = f.ring
    K = lifted[0].ring
    modulus = K.coeff_modulus
    lead = f.lc()
    lc = _poly(K, [K.of(lead)])
    consts = [g.constant() for g in lifted]
    remaining = list(range(len(lifted)))
    found = []
    k = 1
    while 2 * k <= len(remaining):
        bound = lead * f.constant()
        hit = None
        for subset in combinations(remaining, k):
            if bound:
                c = symmetric_lift(lead * math.prod(consts[i] for i in subset), modulus)
                if not c or bound % c:
                    continue
            side = subset
            if 2 * sum(lifted[i].degree for i in subset) > f.degree:
                side = [i for i in remaining if i not in subset]
            prod = lc
            for i in side:
                prod = uni_mul(prod, lifted[i])
            cand = _poly(Z, [symmetric_lift(c, modulus) for c in prod.coeffs])
            _, cand = uni_primitive(cand)
            try:
                quotient = uni_exact_div(f, cand)
            except ArithmeticError:
                continue
            if side is not subset:
                cand, quotient = quotient, cand
            hit = (subset, cand, quotient)
            break
        if hit is None:
            k += 1
            continue
        subset, cand, quotient = hit
        found.append(cand)
        f = quotient
        remaining = [i for i in remaining if i not in subset]
    if f.degree >= 1:
        found.append(f)
    return found


# ------------------------------------------------------------------- over Q


def _factor_over_q(K, f: UniPoly):
    """Monic factors over Q = Frac(Z); the unit soaks up all constants."""
    _, nums = K.clear_denominators(f.coeffs)
    _, facs = factor_over_z(_poly(K.inner, nums))
    unit = f.lc()
    out = []
    for g, e in facs:
        if g.degree == 0:
            continue  # constant over Q, already part of the unit
        gq = _poly(K, [K.from_inner(c) for c in g.coeffs])
        out.append((uni_monic(gq), e))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return _poly(K, [unit]), out
