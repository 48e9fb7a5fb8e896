import random

import pytest

from ringkit import unipoly as up
from ringkit.errors import UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.rings import ZZ, QQ, ZpRing
from ringkit.primes import factor_integer
from ringkit.unifactor import (
    factor_finite,
    factor_over_z,
    factor_unipoly,
    uni_is_irreducible,
)

Z17 = ZpRing(17)


def P(K, *cs):
    return up._poly(K, [K.of(c) for c in cs])


def multiply_back(unit, parts):
    out = unit
    for g, m in parts:
        out = up.uni_mul(out, up.uni_pow(g, m))
    return out


def test_x_squared_plus_one_over_z17():
    # roots of -1 mod 17 are 4 and 13, found by scanning all residues
    unit, parts = factor_finite(P(Z17, 1, 0, 1))
    assert unit == P(Z17, 1)
    assert parts == [(P(Z17, 4, 1), 1), (P(Z17, 13, 1), 1)]


def test_finite_factors_are_monic_sorted_irreducible():
    rng = random.Random(7)
    for trial in range(25):
        f = P(Z17, rng.randrange(1, 17))
        for _ in range(rng.randrange(1, 5)):
            g = up.uni_random(Z17, rng.randrange(1, 6), rng)
            f = up.uni_mul(f, up.uni_pow(g, rng.randrange(1, 3)))
        unit, parts = factor_finite(f)
        assert multiply_back(unit, parts) == f
        assert unit.degree == 0
        for g, m in parts:
            assert g.lc() == Z17.one
            assert uni_is_irreducible(g)
        keys = [(g.degree, tuple(g.coeffs)) for g, _ in parts]
        assert keys == sorted(keys)


def test_char2_equal_degree_splitting():
    # char 2 exercises the trace-map splitter instead of the odd-q power trick
    Z2 = ZpRing(2)
    rng = random.Random(8)
    for trial in range(20):
        f = up.uni_random(Z2, rng.randrange(2, 14), rng)
        unit, parts = factor_finite(f)
        assert multiply_back(unit, parts) == f
        for g, m in parts:
            assert uni_is_irreducible(g)


def test_factor_over_extension_fields():
    rng = random.Random(9)
    for F in (GFRing(2, 3), GFRing(3, 2), GFRing(17, 2)):
        R = up.UniRing(F, "x")
        for trial in range(8):
            f = up.uni_random(F, rng.randrange(2, 8), rng)
            unit, parts = factor_unipoly(R, f)
            assert multiply_back(unit, parts) == f
            for g, m in parts:
                assert uni_is_irreducible(g)


def test_irreducibility_known_cases():
    assert uni_is_irreducible(P(Z17, 3, 1))  # linear
    assert not uni_is_irreducible(P(Z17, 1, 0, 1))  # splits at 4, 13
    assert uni_is_irreducible(P(Z17, 3, 0, 1))  # -3 is a non-residue mod 17
    assert not uni_is_irreducible(P(Z17, 5))  # constants are not irreducible
    Z2 = ZpRing(2)
    assert uni_is_irreducible(P(Z2, 1, 1, 0, 1))
    assert uni_is_irreducible(P(Z2, 1, 0, 1, 1))
    assert not uni_is_irreducible(P(Z2, 1, 0, 0, 1))  # (x+1)(x^2+x+1)


def test_irreducibility_counts_match_moebius():
    # number of monic irreducible quadratics over F_p is p(p-1)/2
    for p in (2, 3, 5, 7):
        K = ZpRing(p)
        count = sum(
            uni_is_irreducible(P(K, c0, c1, 1))
            for c0 in range(p)
            for c1 in range(p)
        )
        assert count == p * (p - 1) // 2


def test_deterministic_output():
    f = up.uni_random(Z17, 40, random.Random(123))
    assert factor_finite(f) == factor_finite(f)


# ------------------------------------------------------- Frobenius map


FROBENIUS_FIELDS = (
    ZpRing(2),
    Z17,
    ZpRing(1000003),
    ZpRing(2**61 - 1),
    GFRing(3, 2),
    GFRing(2, 3),
)


def _random_monic(K, n, rng):
    return up._poly(K, [K.random_element(rng) for _ in range(n)] + [K.one])


def test_frobenius_map_is_the_qth_power():
    rng = random.Random(31)
    for K in FROBENIUS_FIELDS:
        for n in (1, 2, 5, 34):
            f = _random_monic(K, n, rng)
            frob = up.FrobeniusMap(f)
            ctx = up.PolyModContext(f)
            for _ in range(2):
                h = up.uni_random(K, n - 1, rng)
                assert frob(h) == ctx.powmod(h, K.cardinality), (K, n)
            assert frob(up._poly(K, [])) == up._poly(K, [])


def test_frobenius_image_mod_a_divisor():
    # one map of f serves every divisor g: reduce its image mod g
    rng = random.Random(32)
    for K in FROBENIUS_FIELDS:
        g = _random_monic(K, 6, rng)
        f = up.uni_mul(g, _random_monic(K, 30, rng))
        frob = up.FrobeniusMap(f)
        ctx = up.PolyModContext(g)
        for _ in range(3):
            h = up.uni_random(K, 5, rng)
            assert ctx.rem(frob(h)) == ctx.powmod(h, K.cardinality), K


def _rabin_reference(f):
    """Rabin's test with plain powers x^(q^k) mod f."""
    K, n = f.ring, f.degree
    ctx = up.PolyModContext(up.uni_monic(f))
    x = P(K, 0, 1)
    if n == 1:
        return True
    if ctx.powmod(x, K.cardinality**n) != x:
        return False
    for t in factor_integer(n):
        h = up.uni_sub(ctx.powmod(x, K.cardinality ** (n // t)), x)
        if up.uni_gcd(ctx.modulus, h).degree != 0:
            return False
    return True


def test_irreducibility_agrees_with_plain_powers():
    rng = random.Random(33)
    for K in (Z17, ZpRing(1000003)):
        seen = set()
        for trial in range(40):
            f = up.uni_random(K, rng.randrange(1, 9), rng)
            if trial % 2:
                # a factor of a random polynomial: irreducible by construction
                parts = factor_finite(f)[1]
                f = up.uni_scale(parts[-1][0], K.of(rng.randrange(1, 17)))
            expected = _rabin_reference(f)
            assert uni_is_irreducible(f) == expected, (K, f)
            seen.add(expected)
        assert seen == {True, False}


def test_qth_powers_come_from_the_map(monkeypatch):
    # the only powers left are x^q, once per map, and r^((q-1)/2) per split
    rng = random.Random(34)
    factors = [P(Z17, 2, 1), P(Z17, 5, 1), P(Z17, 9, 1)]
    while len(factors) < 6:
        g = _random_monic(Z17, 3, rng)
        if g not in factors and uni_is_irreducible(g):
            factors.append(g)
    f = P(Z17, 1)
    for g in factors:
        f = up.uni_mul(f, g)
    exps = []
    powmod = up.PolyModContext.powmod
    monkeypatch.setattr(
        up.PolyModContext,
        "powmod",
        lambda self, a, e: exps.append(e) or powmod(self, a, e),
    )
    unit, parts = factor_finite(f)
    assert [g.degree for g, _ in parts] == [1, 1, 1, 3, 3, 3]
    assert exps.count(17) == 1 and set(exps) == {17, 8}
    del exps[:]
    assert all(uni_is_irreducible(g) for g, _ in parts)
    assert exps == [17, 17, 17]


def test_pdeg_100_over_word_prime():
    K = ZpRing(1000003)
    f = P(K, 1, *range(1, 101))
    unit, parts = factor_finite(f)
    assert [g.degree for g, _ in parts] == [1, 1, 6, 12, 16, 18, 46]
    assert all(m == 1 for _, m in parts)
    assert multiply_back(unit, parts) == f


# ------------------------------------------------------------------- over Z


def test_x4_minus_1_over_z():
    unit, parts = factor_over_z(P(ZZ, -1, 0, 0, 0, 1))
    assert unit == P(ZZ, 1)
    assert parts == [(P(ZZ, -1, 1), 1), (P(ZZ, 1, 1), 1), (P(ZZ, 1, 0, 1), 1)]


def test_x4_plus_1_is_irreducible_over_z():
    # reducible mod every prime, irreducible over Z; recombination must merge
    f = P(ZZ, 1, 0, 0, 0, 1)
    unit, parts = factor_over_z(f)
    assert parts == [(f, 1)]


def test_content_sign_and_multiplicity():
    f = up.uni_mul(
        up.uni_mul(P(ZZ, -12), up.uni_pow(P(ZZ, -2, 1), 2)), P(ZZ, 1, 1, 1)
    )
    unit, parts = factor_over_z(f)
    assert unit == P(ZZ, -1)
    assert (P(ZZ, 2), 2) in parts  # 4 = 2^2 from the content
    assert (P(ZZ, 3), 1) in parts
    assert (P(ZZ, -2, 1), 2) in parts
    assert multiply_back(unit, parts) == f


def test_non_monic_factors_over_z():
    a = P(ZZ, 3, 1, 4, 1, 5)
    b = P(ZZ, 2, 7, 1, 8, 2)
    unit, parts = factor_over_z(up.uni_mul(a, b))
    assert parts == [(b, 1), (a, 1)]  # sorted by coefficient key, degree ties


def test_swinnerton_dyer_style_recombination():
    # (x^2-2)(x^2-3)(x^2-6) splits into linears/quadratics mod p, never
    # rationally; subset recombination has to reassemble the quadratics
    f = up.uni_mul(up.uni_mul(P(ZZ, -2, 0, 1), P(ZZ, -3, 0, 1)), P(ZZ, -6, 0, 1))
    unit, parts = factor_over_z(f)
    assert [g for g, _ in parts] == [P(ZZ, -6, 0, 1), P(ZZ, -3, 0, 1), P(ZZ, -2, 0, 1)]


def test_hensel_lift_of_long_factors():
    # the lift runs mod p^3 with p = 1073741827 and its tree products are
    # longer than PACKED_MUL_THRESHOLD, so the packed Z/p^k product serves it
    a = P(ZZ, -2, *[0] * 40, 1)  # x^41 - 2
    b = P(ZZ, -3, 1, *[0] * 35, 1)  # x^37 + x - 3
    unit, parts = factor_over_z(up.uni_mul(a, b))
    assert unit == P(ZZ, 1)
    assert parts == [(b, 1), (a, 1)]


def test_random_multiply_back_over_z():
    rng = random.Random(11)
    for trial in range(20):
        f = P(ZZ, rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 5)
            g = up._poly(
                ZZ,
                [rng.randrange(-9, 10) for _ in range(d)]
                + [rng.choice([1, 2, 3, -2])],
            )
            f = up.uni_mul(f, up.uni_pow(g, rng.randrange(1, 3)))
        unit, parts = factor_over_z(f)
        assert multiply_back(unit, parts) == f, trial
        for g, m in parts:
            if g.degree >= 1:
                c, pp = up.uni_content(g), up.uni_primitive(g)[1]
                assert c == 1 and pp == g  # primitive, positive lc


def test_cyclotomic_like_inputs():
    # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
    f = P(ZZ, -1, 0, 0, 0, 0, 0, 1)
    unit, parts = factor_over_z(f)
    assert multiply_back(unit, parts) == f
    assert len(parts) == 4
    assert all(m == 1 for _, m in parts)


# ------------------------------------------------------------------- over Q


def test_factor_over_q_monic_with_unit():
    R = up.UniRing(QQ, "x")
    f = up._poly(QQ, [QQ.make(1, 2), QQ.zero, QQ.one])  # x^2 + 1/2
    unit, parts = factor_unipoly(R, f)
    assert unit == up._poly(QQ, [QQ.one])
    assert parts == [(f, 1)]
    g = up.uni_mul(
        up._poly(QQ, [QQ.make(1, 2), QQ.one]), up._poly(QQ, [QQ.make(-1, 3), QQ.one])
    )
    unit, parts = factor_unipoly(R, g)
    assert multiply_back(unit, parts) == g
    assert [QQ.format is not None for _ in parts]  # two monic linear factors
    assert len(parts) == 2 and all(QQ.is_one(h.lc()) for h, _ in parts)


def test_constants_and_errors():
    R = up.UniRing(QQ, "x")
    unit, parts = factor_unipoly(R, up._poly(QQ, [QQ.make(7, 3)]))
    assert parts == [] and unit == up._poly(QQ, [QQ.make(7, 3)])
    with pytest.raises(ArithmeticError):
        factor_unipoly(R, up._poly(QQ, []))
    with pytest.raises(UnsupportedRingError):
        inner = up.UniRing(ZZ, "y")
        factor_unipoly(up.UniRing(inner, "x"), up._poly(inner, [P(ZZ, 1)]))
