"""Univariate polynomial factorization.

Finite fields: squarefree split, distinct-degree split, then Cantor-
Zassenhaus equal-degree splitting ((q^d-1)/2 powers for odd q, trace maps
in characteristic 2).  Over Z: factor an image modulo a 31-bit prime,
Hensel-lift to the Mignotte bound, recombine subsets by trial division.
"""

import math
import random
from itertools import combinations

from . import rings
from .errors import UnsupportedRingError
from .modular import mod_inverse, symmetric_lift
from .primes import factor_integer, next_prime
from .unipoly import (
    PolyModContext,
    UniPoly,
    _kara_int,
    _poly,
    _school_int,
    KARATSUBA_THRESHOLD,
    uni_add,
    uni_derivative,
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
    if f.is_zero():
        raise ArithmeticError("cannot factor the zero polynomial")
    if K.is_field and K.is_finite:
        return factor_finite(f)
    if isinstance(K, rings.IntegerRing):
        return factor_over_z(f)
    if isinstance(K, rings.FractionField) and isinstance(K.inner, rings.IntegerRing):
        return _factor_over_q(K, f)
    raise UnsupportedRingError(
        "univariate factorization supports finite fields, Z, and Q; not %s" % (K,)
    )


# -------------------------------------------------------------- finite fields


def uni_is_irreducible(f: UniPoly) -> bool:
    """Rabin's test over a finite coefficient field."""
    K = f.ring
    if not (K.is_field and K.is_finite):
        raise UnsupportedRingError("irreducibility test needs a finite field")
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    q = K.cardinality
    ctx = PolyModContext(uni_monic(f))
    x = _poly(K, [K.zero, K.one])
    frob = [x]  # frob[j] = x^(q^j) mod f
    for _ in range(n):
        frob.append(ctx.powmod(frob[-1], q))
    if frob[n] != ctx.rem(x):
        return False
    for t in factor_integer(n):
        h = uni_sub(frob[n // t], x)
        if uni_gcd(uni_monic(f), h).degree != 0:
            return False
    return True


def factor_finite(f: UniPoly, seed: int = 0):
    """Complete factorization over a finite field; factors monic, sorted."""
    K = f.ring
    unit = _poly(K, [f.lc()])
    lead, parts = uni_squarefree(f)
    rng = random.Random(seed)
    out = []
    for g, mult in parts:
        for prod, d in _distinct_degree(g):
            for h in _equal_degree(prod, d, rng):
                out.append((h, mult))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return unit, out


def _distinct_degree(f: UniPoly):
    """[(product of irreducible factors of degree d, d)] for monic squarefree f."""
    K = f.ring
    q = K.cardinality
    ctx = PolyModContext(f)
    x = _poly(K, [K.zero, K.one])
    out = []
    h = x
    cur = f
    d = 0
    while cur.degree > 0:
        d += 1
        if cur.degree < 2 * d:
            out.append((cur, cur.degree))
            break
        h = ctx.powmod(h, q)
        g = uni_gcd(uni_sub(h, x), cur)
        if g.degree > 0:
            out.append((g, d))
            cur = uni_exact_div(cur, g)
    return out


def _equal_degree(f: UniPoly, d: int, rng):
    """Split a monic product of degree-d irreducibles into its factors."""
    K = f.ring
    n = f.degree
    if n == d:
        return [f]
    q = K.cardinality
    ctx = PolyModContext(f)
    one = _poly(K, [K.one])
    while True:
        r = _poly(K, [K.random_element(rng) for _ in range(n)])
        if r.degree < 1:
            continue
        if K.characteristic == 2:
            # trace to F_2: u = r + r^2 + r^4 + ... + r^(2^(d*k - 1)) mod f
            k = q.bit_length() - 1
            t = ctx.rem(r)
            u = t
            for _ in range(d * k - 1):
                t = ctx.mulmod(t, t)
                u = uni_add(u, t)
            g = uni_gcd(u, f)
        else:
            e = (q**d - 1) // 2
            s = ctx.powmod(r, e)
            g = uni_gcd(uni_sub(s, one), f)
        if 0 < g.degree < n:
            return _equal_degree(g, d, rng) + _equal_degree(
                uni_exact_div(f, g), d, rng
            )


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
    ell = _mignotte_exponent(f, p)
    lifted = _hensel_lift(p, ell, f, modular)
    return _recombine(f, lifted, p**ell)


def _good_prime(f: UniPoly) -> int:
    """Smallest 31-bit prime keeping f squarefree and degree-preserving."""
    p = 1 << 30
    while True:
        p = next_prime(p)
        if f.lc() % p == 0:
            continue
        zp = rings.ZpRing(p)
        fp = _poly(zp, [c % p for c in f.coeffs])
        if uni_gcd(fp, uni_derivative(fp)).degree == 0:
            return p


def _mignotte_exponent(f: UniPoly, p: int) -> int:
    # any factor's coefficients are below 2^deg * l2norm * |lc|
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    bound = (1 << f.degree) * norm * abs(f.lc())
    ell = 1
    pe = p
    while pe <= 2 * bound:
        pe *= p
        ell += 1
    return ell


# polynomial helpers over Z/m for composite m = p^ell: plain int lists


def _pm_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _pm_mul(a, b, m):
    if not a or not b:
        return []
    raw = (
        _school_int(a, b)
        if min(len(a), len(b)) <= KARATSUBA_THRESHOLD
        else _kara_int(a, b)
    )
    return _pm_trim([c % m for c in raw])


def _pm_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _pm_trim(out)


def _pm_sub(a, b, m):
    out = a[:] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _pm_trim(out)


def _pm_divrem_monic(a, b, m):
    """Division by monic b over Z/m."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], a[:]
    r = a[:]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = r[i + db] % m
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % m
    return _pm_trim(q), _pm_trim(r[:db])


class _HenselNode:
    """One split f = g*h with Bezout data s*g + t*h = 1 (mod p^current)."""

    __slots__ = ("g", "h", "s", "t", "left", "right")

    def __init__(self, g, h, s, t, left, right):
        self.g = g
        self.h = h
        self.s = s
        self.t = t
        self.left = left
        self.right = right


def _build_tree(zp, factors):
    """Balanced product tree over monic Zp factor polys (as int lists)."""
    if len(factors) == 1:
        return None, factors[0]
    mid = len(factors) // 2
    left, g = _build_tree(zp, factors[:mid])
    right, h = _build_tree(zp, factors[mid:])
    gp = _poly(zp, g[:])
    hp = _poly(zp, h[:])
    one, s, t = uni_extended_gcd(gp, hp)
    assert one.degree == 0
    prod = uni_mul(gp, hp)
    return (
        _HenselNode(g, h, s.coeffs[:], t.coeffs[:], left, right),
        prod.coeffs[:],
    )


def _lift_node(node, f, m_new):
    """One quadratic step: from valid data mod m to mod m_new | m^2."""
    g, h, s, t = node.g, node.h, node.s, node.t
    e = _pm_sub(f, _pm_mul(g, h, m_new), m_new)
    q, r = _pm_divrem_monic(_pm_mul(s, e, m_new), h, m_new)
    g_new = _pm_add(g, _pm_add(_pm_mul(t, e, m_new), _pm_mul(q, g, m_new), m_new), m_new)
    h_new = _pm_add(h, r, m_new)
    b = _pm_sub(
        _pm_add(_pm_mul(s, g_new, m_new), _pm_mul(t, h_new, m_new), m_new),
        [1],
        m_new,
    )
    c, d = _pm_divrem_monic(_pm_mul(s, b, m_new), h_new, m_new)
    s_new = _pm_sub(s, d, m_new)
    t_new = _pm_sub(t, _pm_add(_pm_mul(t, b, m_new), _pm_mul(c, g_new, m_new), m_new), m_new)
    node.g, node.h, node.s, node.t = g_new, h_new, s_new, t_new
    if node.left is not None:
        _lift_node(node.left, g_new, m_new)
    if node.right is not None:
        _lift_node(node.right, h_new, m_new)


def _hensel_lift(p, ell, f, modular_factors):
    """Monic factor lists mod p^ell whose product is f/lc(f) mod p^ell."""
    zp = rings.ZpRing(p)
    factors = [g.coeffs[:] for g in modular_factors]
    if len(factors) == 1:
        return factors
    root, _ = _build_tree(zp, factors)
    cur = 1
    while cur < ell:
        # long gaps jump quadratically, short ones step linearly
        nxt = min(2 * cur, ell) if ell - cur > 4 else cur + 1
        m_new = p**nxt
        lc_inv = mod_inverse(f.coeffs[-1], m_new)
        f_monic = [c * lc_inv % m_new for c in f.coeffs]
        _lift_node(root, f_monic, m_new)
        cur = nxt
    out = []

    def collect(node):
        if node.left is None:
            out.append(node.g)
        else:
            collect(node.left)
        if node.right is None:
            out.append(node.h)
        else:
            collect(node.right)

    collect(root)
    return out


def _recombine(f: UniPoly, lifted, modulus):
    """Naive subset recombination with exact trial division over Z."""
    Z = f.ring
    remaining = list(range(len(lifted)))
    found = []
    k = 1
    while 2 * k <= len(remaining):
        hit = None
        for subset in combinations(remaining, k):
            prod = [f.lc() % modulus]
            for i in subset:
                prod = _pm_mul(prod, lifted[i], modulus)
            cand = _poly(Z, [symmetric_lift(c, modulus) for c in prod])
            _, cand = uni_primitive(cand)
            if cand.degree >= 1:
                try:
                    quotient = uni_exact_div(f, cand)
                except ArithmeticError:
                    continue
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
