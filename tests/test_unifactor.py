import math
import random

import pytest

from ringkit import unifactor as uf
from ringkit import unipoly as up
from ringkit.errors import UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.rings import ZZ, QQ, ZpRing
from ringkit.primes import factor_integer, is_prime, next_prime
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


# ------------------------------------------------------ distinct degrees


def _distinct_degree_reference(f, frob):
    """The per-degree DDF: one gcd(x^(q^d) - x, cur) for every degree d."""
    K = f.ring
    x = P(K, 0, 1)
    out = []
    h = x
    cur = f
    d = 0
    while cur.degree > 0:
        d += 1
        if cur.degree < 2 * d:
            out.append((cur, cur.degree))
            break
        h = frob(h)
        g = up.uni_gcd(up.uni_sub(h, x), cur)
        if g.degree > 0:
            out.append((g, d))
            cur = up.uni_exact_div(cur, g)
    return out


def _irreducibles(K, degrees, rng):
    out = []
    for d in degrees:
        while True:
            g = _random_monic(K, d, rng)
            if g not in out and uni_is_irreducible(g):
                out.append(g)
                break
    return out


# Blocks hold about sqrt(deg f / 2) degrees.  At degree 50 that is 5: the
# first block holds three factors of degree 4 and one of degree 5, blocks
# 6-10 and 11-15 up to the factor of degree 13 hold none, and the factor of
# degree 20 is left by the cur.degree < 2d exit.  At degree 23 the blocks
# are 1-3 (degrees 1 and 2), 4-6 (6) and the last, cut at deg(cur) / 2,
# holds both factors of degree 7.
DDF_SHAPES = ([4, 4, 4, 5, 13, 20], [1, 2, 6, 7, 7])


@pytest.mark.parametrize(
    "K",
    [ZpRing(2), ZpRing(3), Z17, ZpRing(1000003), GFRing(2, 3)],
    ids=["Z2", "Z3", "Z17", "Zword", "GF8"],
)
@pytest.mark.parametrize("degrees", DDF_SHAPES, ids=["gap", "tight"])
def test_blocked_distinct_degree_matches_per_degree_loop(K, degrees):
    rng = random.Random(len(degrees))
    factors = _irreducibles(K, degrees, rng)
    f = P(K, 1)
    for g in factors:
        f = up.uni_mul(f, g)
    frob = up.FrobeniusMap(f)
    got = uf._distinct_degree(f, frob)
    assert got == _distinct_degree_reference(f, frob)
    expect = {}
    for g in factors:
        expect[g.degree] = up.uni_mul(expect.get(g.degree, P(K, 1)), g)
    assert got == sorted(((g, d) for d, g in expect.items()), key=lambda gd: gd[1])


def test_ddf_gcds_and_table_divisions_stay_cut(monkeypatch):
    # 1 + sum(i * x^i) at degree 100 over Zp[1000003]: the per-degree DDF
    # took 23 gcds and the table build 118 Newton divisions; now every row
    # is a packed mulmod step, and no other division runs
    K = ZpRing(1000003)
    f = P(K, 1, *range(1, 101))
    f = up.uni_monic(f)
    calls = {"gcd": 0, "divrem": 0}
    gcd, divrem, classical = uf.uni_gcd, up.PolyModContext.divrem, up._divrem_classical

    def counting_gcd(a, b):
        calls["gcd"] += 1
        return gcd(a, b)

    # a dividend of lower degree than the divisor is no division
    def counting_divrem(self, a):
        calls["divrem"] += a.degree >= self.modulus.degree
        return divrem(self, a)

    def counting_classical(a, b):
        calls["divrem"] += a.degree >= b.degree
        return classical(a, b)

    monkeypatch.setattr(up.PolyModContext, "divrem", counting_divrem)
    monkeypatch.setattr(up, "_divrem_classical", counting_classical)
    frob = up.FrobeniusMap(f)
    assert calls["divrem"] == 0
    monkeypatch.setattr(uf, "uni_gcd", counting_gcd)
    parts = uf._distinct_degree(f, frob)
    assert [(g.degree, d) for g, d in parts] == [
        (2, 1), (6, 6), (12, 12), (16, 16), (18, 18), (46, 46)
    ]
    assert calls["gcd"] <= 23 // 2


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


def _swinnerton_dyer(primes):
    """prod (x - sum of +-sqrt(q) over q in primes), of degree 2^len(primes):
    each q replaces f(x) by f(x + sqrt q) * f(x - sqrt q) = A^2 - q * B^2,
    where f(x + y) = A(x) + y * B(x) modulo y^2 = q."""
    f = [0, 1]
    for q in primes:
        A, B = [0] * len(f), [0] * len(f)
        for k, c in enumerate(f):
            for j in range(k + 1):
                t = c * math.comb(k, j) * q ** (j // 2)
                if j % 2:
                    B[k - j] += t
                else:
                    A[k - j] += t
        a, b = up._poly(ZZ, A), up._poly(ZZ, B)
        f = up.uni_sub(up.uni_mul(a, a), up.uni_scale(up.uni_mul(b, b), q)).coeffs
    return up._poly(ZZ, f)


@pytest.mark.parametrize("primes", [(2, 3, 5, 7), (2, 3, 5, 7, 11)], ids=["sd16", "sd32"])
def test_swinnerton_dyer_is_irreducible_with_few_trial_divisions(primes, monkeypatch):
    # modulo every prime it splits into factors of degree 1 and 2, so at
    # degree 32 there are at least 16 and the subsets up to half of them
    # number about 39,000; the constant-term test leaves a few hundred
    f = _swinnerton_dyer(primes)
    assert f.degree == 2 ** len(primes)
    divisions = []
    orig = uf.uni_exact_div

    def counting(a, b):
        divisions.append(b.degree)
        return orig(a, b)

    monkeypatch.setattr(uf, "uni_exact_div", counting)
    unit, parts = factor_over_z(f)
    assert unit == P(ZZ, 1)
    assert parts == [(f, 1)]
    assert len(divisions) < 1000


@pytest.mark.parametrize("degree", [2, 3, 4, 8, 63, 64, 127, 128, 300])
def test_good_prime_is_the_widest_that_fits_one_word_slot(degree):
    # 1 + sum i*x^i, once with lc deg and once with lc the first candidate
    # prime, which _good_prime must then skip
    b = (64 - degree.bit_length()) // 2
    first = next_prime(1 << (b - 1))
    for lead in (degree, first):
        f = P(ZZ, *range(degree), lead)
        f = up._poly(ZZ, [1] + f.coeffs[1:])
        p = uf._good_prime(f)
        assert is_prime(p) and f.lc() % p != 0
        fp = up._poly(ZpRing(p), [c % p for c in f.coeffs])
        assert up.uni_gcd(fp, up.uni_derivative(fp)).degree == 0
        assert up._slot_bytes(p, degree) == 8
        # one bit more would overflow the slot
        assert 2 * (p.bit_length() + 1) + degree.bit_length() > 64
        if lead == first:
            assert p != first


def _factor_list(factors):
    """The factor list factor_over_z returns for a product of distinct
    primitive irreducibles with positive lc."""
    return sorted(((g, 1) for g in factors), key=lambda fm: (uf._sort_key(fm[0]), 1))


@pytest.mark.parametrize(
    "factors",
    [
        # negative constant terms and lc != 1
        [(-5, 1, 3), (-7, 0, 2), (-3, 5), (-2, 0, 0, 3), (4, -1, 0, 2), (-9, 2, 0, 0, 5)],
        # f(0) = 0: the test is off until x is split off
        [(0, 1), (-5, 1, 3), (-3, 5), (-2, 0, 0, 3), (7, -3, 2)],
        # each quadratic splits modulo a prime where 2, 3 or 6 is a square;
        # it is found after linear factors were split off, from a smaller
        # f(0) than the input's
        [(-1, 0, 2), (-1, 0, 3), (-1, 0, 6), (-3, 5), (4, 1), (-7, 2)],
    ],
    ids=["negative-constants", "zero-constant", "after-split-off"],
)
def test_constant_term_test_keeps_every_true_factor(factors, monkeypatch):
    gs = [up._poly(ZZ, list(c)) for c in factors]
    f = P(ZZ, 1)
    for g in gs:
        f = up.uni_mul(f, g)
    hits = []
    orig = uf._recombine

    def recording(f, lifted):
        out = orig(f, lifted)
        hits.append((len(lifted), len(out)))
        return out

    monkeypatch.setattr(uf, "_recombine", recording)
    unit, parts = factor_over_z(f)
    assert unit == P(ZZ, 1)
    assert parts == _factor_list(gs)
    # the prime splits some true factor, so recombination had work to do
    [(lifted, found)] = hits
    assert found == len(gs) < lifted


def test_hensel_lift_of_long_factors():
    # the lift runs mod p^2 (55 bits) with p = 134217757 and its tree
    # products are longer than PACKED_MUL_THRESHOLD, so the packed Z/p^k
    # product serves it
    a = P(ZZ, -2, *[0] * 40, 1)  # x^41 - 2
    b = P(ZZ, -3, 1, *[0] * 35, 1)  # x^37 + x - 3
    unit, parts = factor_over_z(up.uni_mul(a, b))
    assert unit == P(ZZ, 1)
    assert parts == [(b, 1), (a, 1)]


def test_hensel_lift_above_one_word(monkeypatch):
    # coefficients near 10^6 push the half-degree bound past p^2, so the
    # lift runs mod a power of p above 62 bits, on the wide packed product;
    # both factors are Eisenstein (at 2 and at 3), so irreducible
    a = P(ZZ, 2 * 500001, 2 * 10**6, *[0] * 39, 1)
    b = P(ZZ, 3 * 7, 3 * 10**6, *[0] * 35, 1)
    widths = []
    orig = up._packed_int

    def recording(x, y, m):
        if min(len(x), len(y)) >= up.PACKED_MUL_THRESHOLD:
            widths.append(m.bit_length())
        return orig(x, y, m)

    monkeypatch.setattr(up, "_packed_int", recording)
    unit, parts = factor_over_z(up.uni_mul(a, b))
    assert unit == P(ZZ, 1)
    assert parts == [(b, 1), (a, 1)]
    assert max(widths) > 62


def test_mignotte_exponent_bounds_half_the_degree():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 70)
        f = up._poly(ZZ, [rng.randrange(-10**6, 10**6) for _ in range(n)] + [rng.randrange(1, 99)])
        p = next_prime(rng.choice([3, 1 << 20, 1 << 28]))
        ell = uf._mignotte_exponent(f, p)
        bound = 2 * (1 << (n // 2)) * (math.isqrt(sum(c * c for c in f.coeffs)) + 1) * f.lc()
        assert p**ell > bound and (ell == 1 or p ** (ell - 1) <= bound)


def _x2_minus(d):
    return P(ZZ, -d, 0, 1)


@pytest.mark.parametrize(
    "factors",
    [
        [P(ZZ, -2, *[0] * 40, 1), P(ZZ, -3, 1, *[0] * 35, 1)],
        # x^41 - 2 is found as a subset of more than half the degree
        [P(ZZ, -2, *[0] * 40, 1), _x2_minus(6)],
        [P(ZZ, -2, *[0] * 40, 1), _x2_minus(6), _x2_minus(7)],
    ],
    ids=["41x37", "41x2", "41x2x2"],
)
def test_recombine_divides_by_the_smaller_side(factors, monkeypatch):
    # the lift only bounds a factor of at most half the degree, so every
    # trial division over Z is by a candidate of at most half the part
    divisions = []
    orig = uf.uni_exact_div

    def recording(a, b):
        if a.ring == ZZ:
            divisions.append((a.degree, b.degree))
        return orig(a, b)

    monkeypatch.setattr(uf, "uni_exact_div", recording)
    f = P(ZZ, 1)
    for g in factors:
        f = up.uni_mul(f, g)
    unit, parts = factor_over_z(f)
    assert unit == P(ZZ, 1)
    assert parts == _factor_list(factors)
    assert divisions and all(2 * b <= a for a, b in divisions)


def test_last_lift_step_lifts_the_factors_as_a_full_step():
    p = 1000003
    f = up._poly(ZZ, [1] + list(range(1, 31)))
    fp = up._poly(ZpRing(p), [c % p for c in f.coeffs])
    modular = [g for g, _ in factor_finite(fp)[1]]
    assert len(modular) >= 3
    K = uf.rings.ZmRing(p**2)
    fk = up.uni_monic(up._poly(K, [K.of(c) for c in f.coeffs]))
    full, _ = uf._build_tree(modular)
    last, _ = uf._build_tree(modular)
    uf._lift_node(full, fk, False)
    uf._lift_node(last, fk, True)

    def leaves(node):
        if node is None:
            return []
        return leaves(node.left) + [node.g, node.h] + leaves(node.right)

    assert leaves(last) == leaves(full)
    prod = P(K, 1)
    for g in uf._hensel_lift(p, 2, f, modular):
        prod = up.uni_mul(prod, g)
    assert prod == fk


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17])
def test_sqrt_and_quadratic_roots_agree_with_brute_force(p):
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        r = uf._sqrt_mod(a, p)
        assert (r is not None) == (a in squares)
        assert r is None or r * r % p == a
        for b in range(p):
            roots = [x for x in range(p) if (x * x + b * x + a) % p == 0]
            assert uf._quadratic_roots(b, a, p) == roots


@pytest.mark.parametrize("p", [1000003, 536870923, 998244353, 2**31 - 1])
def test_sqrt_mod_on_word_primes(p):
    # p = 3 mod 4 takes one power, p = 1 mod 4 (998244353 = 119 * 2^23 + 1)
    # the Tonelli-Shanks loop
    rng = random.Random(p)
    for _ in range(200):
        x, y = rng.randrange(p), rng.randrange(p)
        r = uf._sqrt_mod(x * x, p)
        assert r in (x, p - x)
        assert (uf._sqrt_mod(y, p) is None) == (pow(y, (p - 1) // 2, p) == p - 1)
        b, c = (-x - y) % p, x * y % p  # (t - x)(t - y)
        assert uf._quadratic_roots(b, c, p) == sorted({x, y})


def test_two_root_quadratics_split_without_random_powers(monkeypatch):
    # the equal-degree split would power a random element to (p - 1) / 2
    calls = []
    orig = up.PolyModContext.powmod

    def recording(self, a, e):
        calls.append(e)
        return orig(self, a, e)

    monkeypatch.setattr(up.PolyModContext, "powmod", recording)
    for p in (5, 998244353, 2**31 - 1):
        K = ZpRing(p)
        calls.clear()
        unit, parts = factor_finite(up.uni_mul(P(K, 1, 1), P(K, 3, 1)))
        assert parts == [(P(K, 1, 1), 1), (P(K, 3, 1), 1)]
        assert (p - 1) // 2 not in calls


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


@pytest.mark.parametrize("K, L", [(QQ, ZZ), (ZpRing(7), ZZ), (ZZ, ZpRing(7))],
                         ids=["Q-from-Z", "Zp-from-Z", "Z-from-Zp"])
def test_wrong_ring_input_is_a_value_error(K, L):
    # f over another coefficient ring is refused as ring.of refuses it,
    # not factored in its own ring or failing deep inside
    f = P(L, 1, 2, 1)
    with pytest.raises(ValueError, match="coefficient ring"):
        factor_unipoly(up.UniRing(K, "x"), f)
