import random

import pytest

from ringkit import rings
from ringkit import unipoly as up
from ringkit.errors import NonInvertibleError
from ringkit.galois import GFRing
from ringkit.multipoly import MultiRing
from ringkit.rings import ZZ, QQ, ZmRing, ZpRing
from ringkit.unipoly import (
    PolyModContext,
    UniPoly,
    UniRing,
    uni_add,
    uni_derivative,
    uni_divrem,
    uni_eval,
    uni_extended_gcd,
    uni_gcd,
    uni_gcd_euclid,
    uni_gcd_half,
    uni_gcd_subresultant,
    uni_gcd_z_brown,
    uni_lagrange_basis,
    uni_mul,
    uni_mul_karatsuba,
    uni_mul_schoolbook,
    uni_pow,
    uni_random,
    uni_scale,
    uni_squarefree,
)

Z17 = ZpRing(17)
ZBIG = ZpRing(1000003)
Z17_5 = ZmRing(17**5)


def P(K, *cs):
    return up._poly(K, [K.of(c) for c in cs])


def test_construction_trims_and_degree():
    f = P(Z17, 1, 2, 0, 0)
    assert f.coeffs == [1, 2]
    assert f.degree == 1
    assert P(Z17).is_zero()
    assert P(Z17).degree == -1
    assert P(Z17, 5).is_constant()


def test_dunder_arithmetic_matches_functions():
    rng = random.Random(0)
    for _ in range(50):
        a = uni_random(Z17, rng.randrange(0, 8), rng)
        b = uni_random(Z17, rng.randrange(0, 8), rng)
        assert a + b == up.uni_add(a, b)
        assert a - b == up.uni_sub(a, b)
        assert a * b == uni_mul(a, b)
        assert -a == up.uni_neg(a)
    f = P(Z17, 1, 1)
    assert f**3 == uni_mul(uni_mul(f, f), f)


@pytest.mark.parametrize(
    "K",
    [Z17, ZBIG, ZZ, ZmRing((2**31 - 1) ** 3)],
    ids=["Z17", "Zbig", "Z", "Zp^3"],
)
def test_mul_strategies_agree(K):
    # schoolbook is the oracle; karatsuba and the dispatcher must match it
    rng = random.Random(42)
    # residue rings: lengths t - 1 and t straddle each threshold
    t, w = up.PACKED_MUL_THRESHOLD, up.PACKED_MUL_WORD_THRESHOLD
    sizes = [(0, 0), (1, 5), (w - 2, w - 2), (w - 1, w - 1), (t - 2, t - 2), (t - 1, t - 1)]
    sizes += [(33, 40), (64, 100), (257, 300), (33, 300), (300, 40)]
    for da, db in sizes:
        a = uni_random(K, da, rng)
        b = uni_random(K, db, rng)
        expect = uni_mul_schoolbook(a, b)
        assert uni_mul_karatsuba(a, b) == expect
        assert uni_mul(a, b) == expect


def test_packed_mul_path_matches():
    # machine Zp operands above the packing threshold use the big-int path
    rng = random.Random(9)
    for p in (2, 17, 524287, 2**31 - 1, 2**62 + 135):
        K = ZpRing(p)
        a = uni_random(K, up.PACKED_MUL_THRESHOLD + 13, rng)
        b = uni_random(K, up.PACKED_MUL_THRESHOLD + 7, rng)
        assert uni_mul(a, b) == uni_mul_schoolbook(a, b)


def test_divrem_identity_and_errors():
    rng = random.Random(3)
    for K in (Z17, ZBIG, Z17_5):
        for _ in range(60):
            a = uni_random(K, rng.randrange(0, 25), rng)
            # over Z/p^k only divisors with a unit lc divide; take monic ones
            b = uni_random(K, rng.randrange(0, 12), rng, monic=not K.is_field)
            q, r = uni_divrem(a, b)
            assert uni_mul(q, b) + r == a
            assert r.degree < b.degree or r.is_zero()
    with pytest.raises(ZeroDivisionError):
        uni_divrem(P(Z17, 1, 1), P(Z17))
    with pytest.raises(NonInvertibleError) as err:
        uni_divrem(P(Z17_5, 1, 2, 3), P(Z17_5, 5, 17))
    assert err.value.gcd == 17


def test_division_over_z_exact_only():
    a = P(ZZ, -1, 0, 0, 0, 1)  # x^4 - 1
    b = P(ZZ, -1, 1)  # x - 1
    q, r = uni_divrem(a, b)
    assert r.is_zero() and q == P(ZZ, 1, 1, 1, 1)
    with pytest.raises(ArithmeticError):
        uni_divrem(P(ZZ, 1, 3), P(ZZ, 0, 2))  # 3x+1 by 2x: 3/2 not integral


def test_pseudo_divrem_contract():
    a = P(ZZ, 1, 2, 3, 4)
    b = P(ZZ, 5, 0, 7)
    q, r = up.uni_pseudo_divrem(a, b)
    lc_pow = P(ZZ, b.lc() ** (a.degree - b.degree + 1))
    assert uni_mul(lc_pow, a) == uni_mul(q, b) + r
    assert r.degree < b.degree


def test_gcd_divides_and_is_canonical():
    rng = random.Random(5)
    for K in (Z17, ZBIG):
        for _ in range(40):
            g = uni_random(K, rng.randrange(1, 6), rng)
            a = uni_mul(g, uni_random(K, rng.randrange(0, 6), rng))
            b = uni_mul(g, uni_random(K, rng.randrange(0, 6), rng))
            h = uni_gcd(a, b)
            assert h.degree >= g.degree or a.is_zero() or b.is_zero()
            assert (a % h).is_zero() and (b % h).is_zero()
            assert h.lc() == K.one  # monic over a field


def test_gcd_zero_edges():
    f = P(Z17, 2, 4)
    assert uni_gcd(f, P(Z17)) == f.monic()
    assert uni_gcd(P(Z17), f) == f.monic()
    assert uni_gcd(P(Z17), P(Z17)).is_zero()


def test_half_gcd_agrees_with_euclid(monkeypatch):
    # the Half-GCD loop runs above HALF_GCD_THRESHOLD; lowered to HGCD_BASE
    # it runs on these degrees too, and _hgcd recurses into its base case
    monkeypatch.setattr(up, "HALF_GCD_THRESHOLD", up.HGCD_BASE)
    rng = random.Random(6)
    for _ in range(60):
        a = uni_random(Z17, rng.randrange(150, 400), rng)
        b = uni_random(Z17, rng.randrange(1, 150), rng)
        assert uni_gcd_half(a, b) == uni_gcd_euclid(a, b)
    # engineered common factors to avoid the trivial-gcd-only regime
    for _ in range(25):
        g = uni_random(ZBIG, rng.randrange(5, 40), rng)
        a = uni_mul(g, uni_random(ZBIG, rng.randrange(100, 260), rng))
        b = uni_mul(g, uni_random(ZBIG, rng.randrange(100, 260), rng))
        assert uni_gcd_half(a, b) == uni_gcd_euclid(a, b)
    monkeypatch.undo()
    top = up.HALF_GCD_THRESHOLD
    for _ in range(2):
        g = uni_random(ZBIG, rng.randrange(5, 40), rng)
        a = uni_mul(g, uni_random(ZBIG, rng.randrange(top, top + 100), rng))
        b = uni_mul(g, uni_random(ZBIG, rng.randrange(top - 100, top), rng))
        assert uni_gcd(a, b) == uni_gcd_half(a, b) == uni_gcd_euclid(a, b)


@pytest.mark.parametrize("K", [Z17, ZBIG])
def test_hgcd_meets_its_contract_around_the_base_case(K):
    # M*(a, b) = (c, d) with deg c >= ceil(deg a / 2) > deg d, from the
    # remainder-step base case below HGCD_BASE and the recursion above it,
    # down to several levels at degree 600
    rng = random.Random(11)
    for da in [*range(up.HGCD_BASE - 4, up.HGCD_BASE + 60, 8), 240, 380, 600]:
        a = uni_random(K, da, rng)
        b = uni_random(K, rng.randrange(da // 2, da), rng)
        M = up._hgcd(a, b)
        c, d = up._mat_apply(M, a, b)
        m = (da + 1) // 2
        assert c.degree >= m > d.degree
        # M is a product of elementary steps: its determinant is a unit
        det = up.uni_sub(uni_mul(M[0], M[3]), uni_mul(M[1], M[2]))
        assert det.degree == 0


def test_subresultant_gcd_over_z():
    g = P(ZZ, 3, 0, 2)  # 2x^2 + 3
    a = uni_mul(g, P(ZZ, -1, 4, 1))
    b = uni_mul(g, P(ZZ, 7, 2))
    h = uni_gcd_subresultant(a, b)
    assert h == P(ZZ, 3, 0, 2)  # primitive, positive lc


def test_brown_modular_gcd_over_z():
    rng = random.Random(8)
    for _ in range(30):
        g = up._poly(ZZ, [rng.randrange(-50, 51) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, 50)])
        a = uni_mul(g, up._poly(ZZ, [rng.randrange(-99, 100) for _ in range(6)] + [3]))
        b = uni_mul(g, up._poly(ZZ, [rng.randrange(-99, 100) for _ in range(6)] + [7]))
        h = uni_gcd_z_brown(a, b)
        assert (a % h).is_zero() and (b % h).is_zero()
        assert uni_gcd_z_brown(a, b) == uni_gcd_subresultant(a, b)
    # coprime inputs collapse to 1
    assert uni_gcd(P(ZZ, 1, 1), P(ZZ, 2, 1)) == P(ZZ, 1)
    # a zero operand gives the other one's content and primitive part
    assert uni_gcd_z_brown(UniPoly(ZZ, []), P(ZZ, -2, -4)) == P(ZZ, 2, 4)
    assert uni_gcd_z_brown(P(ZZ, -3), UniPoly(ZZ, [])) == P(ZZ, 3)


def test_gcd_over_q_clears_denominators():
    a = up._poly(QQ, [QQ.make(1, 2), QQ.make(1, 1)])  # x + 1/2
    f = uni_mul(a, up._poly(QQ, [QQ.make(1, 3), QQ.make(1, 1)]))
    g = uni_mul(a, up._poly(QQ, [QQ.make(2, 1), QQ.make(1, 1)]))
    h = uni_gcd(f, g)
    assert h == a  # monic: x + 1/2


def test_extended_gcd_bezout_over_field():
    rng = random.Random(10)
    for _ in range(40):
        a = uni_random(Z17, rng.randrange(1, 20), rng)
        b = uni_random(Z17, rng.randrange(1, 20), rng)
        g, s, t = uni_extended_gcd(a, b)
        assert uni_mul(s, a) + uni_mul(t, b) == g
        assert g == uni_gcd(a, b)


@pytest.mark.parametrize("K", [Z17, GFRing(3, 2), QQ], ids=["Zp17", "GF9", "Q"])
def test_extended_gcd_cofactors_and_zero_operands(K):
    rng = random.Random(12)
    zero, one = UniPoly(K, []), P(K, 1)

    def rand(d):
        return up._poly(K, [K.random_element(rng) for _ in range(d)] + [K.one])

    g0 = rand(3)
    pairs = [(uni_mul(g0, rand(5)), uni_mul(g0, rand(8)))]  # deg a < deg b
    pairs += [(rand(rng.randrange(0, 12)), rand(rng.randrange(0, 12))) for _ in range(8)]
    pairs += [(zero, rand(4)), (rand(4), zero), (zero, zero)]
    for a, b in pairs:
        g, s, t = uni_extended_gcd(a, b)
        assert uni_mul(s, a) + uni_mul(t, b) == g
        assert g.is_zero() or K.is_one(g.lc())
        assert g == uni_gcd(a, b)
    assert uni_extended_gcd(zero, zero) == (zero, one, zero)
    assert uni_extended_gcd(zero, P(K, 2, 2)) == (P(K, 1, 1), zero, P(K, K.inv(K.of(2))))
    assert uni_gcd(*pairs[0]) == g0


def test_eval_and_derivative():
    f = P(ZZ, 1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert uni_eval(f, 0) == 1
    assert uni_eval(f, 2) == 11
    assert uni_eval(f, -1) == 2
    assert uni_derivative(f) == P(ZZ, -3, 0, 6)
    assert uni_derivative(P(ZZ, 5)).is_zero()
    # char p: the p-th power term drops out
    g = P(Z17, 0, 0, 1) ** 9  # x^18
    assert uni_derivative(g) == P(Z17, *([0] * 17 + [1]))


def test_interpolation_roundtrip():
    rng = random.Random(11)
    for K in (Z17, ZBIG, QQ):
        for deg in (0, 1, 5, 12):
            f = uni_random(K, deg, rng) if K is not QQ else up._poly(
                QQ, [QQ.make(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg)] + [QQ.one]
            )
            xs = []
            while len(xs) < deg + 1:
                x = K.of(rng.randrange(0, 1000)) if K is not QQ else QQ.of(len(xs))
                if x not in xs:
                    xs.append(x)
            ys = [uni_eval(f, x) for x in xs]
            # sum of y_i * l_i over the Lagrange basis
            out = P(K)
            for ell, v in zip(uni_lagrange_basis(K, xs), ys):
                out = uni_add(out, uni_scale(ell, v))
            assert out == f


def test_squarefree_yun_over_z():
    f = uni_mul(uni_pow(P(ZZ, 1, 1), 2), uni_mul(P(ZZ, 2, 1), P(ZZ, -6)))
    lead, parts = uni_squarefree(f)
    assert lead == P(ZZ, -6)
    assert parts == [(P(ZZ, 2, 1), 1), (P(ZZ, 1, 1), 2)]


def test_squarefree_musser_char_p():
    # (x+1)^17 * (x^2+1) over Z17: the 17th power hides from the derivative
    f = uni_mul(uni_pow(P(Z17, 1, 1), 17), P(Z17, 1, 0, 1))
    lead, parts = uni_squarefree(f)
    back = lead
    for g, m in parts:
        back = uni_mul(back, uni_pow(g, m))
    assert back == f
    assert (P(Z17, 1, 1), 17) in parts


def _coeff(K, rng):
    if isinstance(K, MultiRing):
        (x,) = K.gens()
        return K.of(rng.randrange(-3, 4)) + K.of(rng.randrange(-2, 3)) * x
    if K == QQ:
        return QQ.make(rng.randrange(-5, 6), rng.randrange(1, 4))
    return K.random_element(rng) if K.is_finite else K.of(rng.randrange(-5, 6))


def _is_constant_gcd(a, b):
    return uni_gcd(a, b).degree == 0


SQUAREFREE_RINGS = [ZZ, QQ, ZpRing(2), ZpRing(3), Z17, ZpRing(101), GFRing(2, 3),
                    GFRing(3, 2), MultiRing(ZZ, ("x",))]


def test_squarefree_multiplicity_structure():
    # monic, squarefree, pairwise coprime g_i planted as c * prod g_i^m_i,
    # p-th powers included where p is small; parts of equal multiplicity
    # come back as one product; over Z[x][y] the coefficients are in Z[x]
    for K in SQUAREFREE_RINGS:
        p = K.characteristic
        mults = [1, 2, 3, 4] + ([p, p + 1, 2 * p] if 0 < p < 10 else [])
        top = 3 if isinstance(K, MultiRing) else 4
        rng = random.Random(29)
        for _ in range(10):
            planted = []
            want = rng.randrange(1, top)
            for _ in range(100):
                if len(planted) == want:
                    break
                d = rng.randrange(1, top)
                g = up._poly(K, [_coeff(K, rng) for _ in range(d)] + [K.one])
                if _is_constant_gcd(g, uni_derivative(g)) and all(
                    _is_constant_gcd(g, h) for h, _ in planted
                ):
                    planted.append((g, rng.choice(mults)))
            c = K.of(2) if p != 2 else K.one
            f = up._poly(K, [c])
            expect = {}
            for g, m in planted:
                f = uni_mul(f, uni_pow(g, m))
                expect[m] = uni_mul(expect[m], g) if m in expect else g
            lead, parts = uni_squarefree(f)
            back = lead
            for g, m in parts:
                back = uni_mul(back, uni_pow(g, m))
            assert back == f, K
            assert lead.degree == 0
            assert parts == [(expect[m], m) for m in sorted(expect)], K
            for i, (g, _) in enumerate(parts):
                assert _is_constant_gcd(g, uni_derivative(g))
                assert all(_is_constant_gcd(g, h) for h, _ in parts[i + 1 :])


def test_polymod_context_powmod():
    f = P(Z17, 3, 0, 1, 1)
    ctx = PolyModContext(f)
    x = P(Z17, 0, 1)
    e = 17**3
    assert ctx.powmod(x, e) == _slow_powmod(x, e, f)


def _slow_powmod(a, e, m):
    out = P(Z17, 1)
    base = a % m
    while e:
        if e & 1:
            out = uni_mul(out, base) % m
        base = uni_mul(base, base) % m
        e >>= 1
    return out


# (p, terms) whose worst slot, terms * (p - 1)^2, needs exactly 32, 33, 64
# and 128 bits, and moduli past two words that keep the byte-per-byte path
SLOT_CASES = [
    (8191, 63, 4),
    (8191, 127, 8),
    (2**29 - 3, 63, 8),
    (1000003, 100, 8),
    (2**61 - 1, 63, 16),
    (2**31 - 1, 100, 16),
    (2**62 + 135, 20, 17),
    ((2**31 - 1) ** 3, 40, 24),
]


@pytest.mark.parametrize("p, terms, width", SLOT_CASES)
def test_pack_unpack_round_trip_at_every_slot_width(p, terms, width):
    s = up._slot_bytes(p, terms)
    assert s == width
    rng = random.Random(p % 1000)
    x = [rng.randrange(p) for _ in range(terms)] + [p - 1, 0, 0]
    assert up._unpack(up._pack(x, s), s, len(x)) == x
    assert up._unpack(0, s, 0) == []
    # every slot of the square of the worst operand is a full sum of
    # (p - 1)^2 terms up to the middle one, which holds terms of them
    worst = [p - 1] * terms
    prod = up._unpack(up._pack(worst, s) ** 2, s, 2 * terms - 1)
    assert prod == [min(k + 1, 2 * terms - 1 - k) * (p - 1) ** 2 for k in range(2 * terms - 1)]
    assert prod[terms - 1].bit_length() <= 8 * s


@pytest.mark.parametrize("words", [True, False], ids=["words", "bytes"])
@pytest.mark.parametrize("s", [4, 8, 16, 17])
def test_pack_puts_slot_i_at_bit_8si(s, words, monkeypatch):
    # a round trip cannot see a wrong byte order, which pack and unpack
    # would share: compare with the sum of shifted slots instead
    monkeypatch.setattr(up, "_WORD_SLOTS", words and up._WORD_SLOTS)
    rng = random.Random(s)
    top = 2 ** min(64, 8 * s)  # packed slots are below 2^32 at s = 4
    x = [rng.randrange(top) for _ in range(9)] + [0, 1, top - 1, 0]
    v = up._pack(x, s)
    assert v == sum(c << 8 * s * i for i, c in enumerate(x))
    assert up._unpack(v, s, len(x)) == x
    # unpacked slots may fill all 8s bits: products are unpacked, not packed
    y = [rng.randrange(2 ** (8 * s)) for _ in range(9)] + [2 ** (8 * s) - 1]
    assert up._unpack(sum(c << 8 * s * i for i, c in enumerate(y)), s, len(y)) == y


MULMOD_PRIMES = (2, 3, 17, 1000003, 2**31 - 1, 2**61 - 1, 2**62 + 135)


def _mulmod_gate(p):
    # products of residues below 2^30 fit 8-byte slots at these degrees
    if p.bit_length() <= 30:
        return up.PACKED_MULMOD_WORD_DEGREE
    return up.PACKED_MULMOD_DEGREE


@pytest.mark.parametrize("p", MULMOD_PRIMES)
def test_packed_mulmod_and_powmod_match_classical_division(p):
    K = ZpRing(p)
    rng = random.Random(p % 997)
    gate = _mulmod_gate(p)
    for n in (1, 2, gate - 1, gate, gate + 1, 100):
        f = uni_random(K, n, rng)  # not monic: the remainder is the same
        ctx = PolyModContext(f)
        assert (ctx._slot is not None) == (n >= gate)
        for da, db in ((n - 1, n - 1), (n - 1, 0), (n // 2, n - 1)):
            a, b = uni_random(K, da, rng), uni_random(K, db, rng)
            expect = up._divrem_classical(uni_mul(a, b), f)[1]
            assert ctx.mulmod(a, b) == expect, (p, n, da, db)
            assert ctx.mulmod(a, a) == up._divrem_classical(uni_mul(a, a), f)[1]
        assert ctx.mulmod(P(K), uni_random(K, n - 1, rng)) == P(K)
        # operands that are not reduced are reduced first
        a, b = uni_random(K, n + 3, rng), uni_random(K, 2 * n, rng)
        assert ctx.mulmod(a, b) == up._divrem_classical(uni_mul(a, b), f)[1]
        e = rng.randrange(p, 3 * p)
        a = uni_random(K, n - 1, rng)
        assert ctx.powmod(a, e) == _powmod_reference(a, e, f)
        # every remainder route: classical for a quotient of degree below 8
        # or, when n < LONG_QUOTIENT_DEGREE, one longer than f; the packed
        # Barrett step otherwise, at growing precisions
        for k in (0, 7, 8, n - 2, n - 1, 40, 3 * n):
            if k >= 0:
                a = uni_random(K, n + k, rng)
                assert ctx.rem(a) == up._divrem_classical(a, f)[1], (p, n, k)
        if (p, n) == (17, 100) and up._WORD_SLOTS:
            # sums of up to 3n products of 5-bit residues fit half a word
            assert ctx._slot == 4


@pytest.mark.parametrize("p", MULMOD_PRIMES)
def test_every_division_route_matches_classical(p):
    K = ZpRing(p)
    rng = random.Random(p % 991)
    gate, long = _mulmod_gate(p), up.LONG_QUOTIENT_DEGREE
    for n in (1, gate - 1, gate, long - 1, long, 100):
        b = uni_random(K, n, rng)  # not monic
        ctx = PolyModContext(b)
        prec = 0
        # one context: the precision grows, the quotient shrinks, then grows
        for k in (0, 7, 8, n - 2, n - 1, 40, 3 * n, 8, n - 1, 5 * n):
            if k < 0:
                continue
            a = uni_random(K, n + k, rng)
            expect = up._divrem_classical(a, b)
            assert ctx.divrem(a) == expect, (p, n, k)
            assert uni_divrem(a, b) == expect, (p, n, k)
            if n >= gate and k >= 8 and (k <= n - 2 or n >= long):
                prec = max(prec, k + 1, n - 1)
            assert ctx._prec == prec if n >= gate else ctx._slot is None
        # a grown inverse still serves products and short quotients
        x, y = uni_random(K, n - 1, rng), uni_random(K, n - 1, rng)
        assert ctx.mulmod(x, y) == up._divrem_classical(uni_mul(x, y), b)[1]
    a = uni_random(K, 30, rng)
    assert ctx.divrem(a) == (P(K), a)


@pytest.mark.parametrize("K", [QQ, GFRing(17, 2)], ids=["Q", "GF289"])
def test_division_off_zp_is_classical(K, monkeypatch):
    rng = random.Random(5)
    a, b = uni_random(K, 150, rng), uni_random(K, 75, rng)
    q, r = expect = up._divrem_classical(a, b)
    assert up.uni_add(uni_mul(q, b), r) == a and r.degree < 75
    square = up._divrem_classical(uni_mul(q, q), b)[1]
    calls = []  # GF(17^2) divides classically inside its own products too
    classical = up._divrem_classical
    monkeypatch.setattr(
        up, "_divrem_classical", lambda x, y: calls.append(y is b) or classical(x, y)
    )
    ctx = PolyModContext(b)
    assert uni_divrem(a, b) == expect and ctx.divrem(a) == expect
    assert ctx.rem(a) == r and ctx.mulmod(q, q) == square
    assert ctx._slot is None and sum(calls) == 4


def _powmod_reference(a, e, f):
    out = P(a.ring, 1)
    while e:
        if e & 1:
            out = up._divrem_classical(uni_mul(out, a), f)[1]
        a = up._divrem_classical(uni_mul(a, a), f)[1]
        e >>= 1
    return out


@pytest.mark.parametrize("p", (17, 1000003, 536870923, 2**31 - 1))
def test_packed_powmod_gate_follows_the_slot_width(p):
    K = ZpRing(p)
    rng = random.Random(p % 983)
    for n in range(4, 9):
        f = uni_random(K, n, rng)
        ctx = PolyModContext(f)
        # 8-byte slots pack from degree 4, 16-byte ones from degree 7
        assert (ctx._slot is not None) == (up._slot_bytes(p, n) <= 8 or n >= 7)
        if p.bit_length() <= 30 and up._WORD_SLOTS:
            assert ctx._slot == up._slot_bytes(p, n) <= 8
        a = uni_random(K, n - 1, rng)
        for e in (2, p - 2, rng.randrange(p, p * p)):
            assert ctx.powmod(a, e) == _powmod_reference(a, e, f), (p, n, e)
    assert PolyModContext(uni_random(K, 3, rng))._slot is None


@pytest.mark.parametrize("p", (2, 17, 1000003, 2**61 - 1))
def test_fused_euclid_step_is_the_remainder(p):
    # a degree-1 quotient takes one fused pass; every degree of y from 0
    # (a remainder that is always zero) to 300, and exact divisions
    K = ZpRing(p)
    rng = random.Random(p % 977)
    for d in range(301):
        y = uni_random(K, d, rng).coeffs
        x = uni_random(K, d + 1, rng).coeffs
        assert up._rem_mod(x, y, p) == up._divrem_mod(x, y, p)[1], (p, d)
        x = uni_mul(uni_random(K, 1, rng), P(K, *y)).coeffs
        assert up._rem_mod(x, y, p) == up._divrem_mod(x, y, p)[1] == []
        assert up._rem_mod(y, y, p) == []
    x, y = uni_random(K, 40, rng).coeffs, uni_random(K, 12, rng).coeffs
    assert up._rem_mod(x, y, p) == up._divrem_mod(x, y, p)[1]


def test_rings_without_word_residues_keep_their_mulmod_path():
    # Z/m for a prime power is no field, and GF(3^2) has no coeff_modulus:
    # both multiply and then take the remainder, as before
    rng = random.Random(12)
    gf9 = GFRing(3, 2)
    for K in (ZmRing((2**31 - 1) ** 3), gf9):
        f = uni_random(K, 12, rng, monic=True)
        ctx = PolyModContext(f)
        assert ctx._slot is None
        a, b = uni_random(K, 11, rng), uni_random(K, 11, rng)
        assert ctx.mulmod(a, b) == up._divrem_classical(uni_mul(a, b), f)[1]
        assert ctx.powmod(a, 10) == _powmod_reference(a, 10, f)


def test_uniring_descriptor():
    R = UniRing(Z17, "x")
    f = R.of(5)
    assert f == P(Z17, 5)
    assert R.spec_string() == "Poly(Zp[17]; x)"
    assert not R.is_field
    unit, monic = R.normalize_unit(P(Z17, 1, 2))
    assert unit == P(Z17, 2) and monic == P(Z17, 9, 1)
    g = R.gcd(P(Z17, 16, 0, 1), P(Z17, 13, 12, 1))  # x^2-1, (x-4)(x-8)... check divides
    assert (P(Z17, 16, 0, 1) % g).is_zero()


def test_uniring_nested_symbols_collision():
    R = UniRing(Z17, "x")
    with pytest.raises(ValueError):
        UniRing(R, "x")  # same variable twice is ambiguous
    UniRing(R, "y")  # distinct name is fine


def test_division_operators_match_uni_divrem():
    f, g = P(QQ, 5, -1, 0, 2, 1), P(QQ, -1, 0, 3)
    q, r = uni_divrem(f, g)
    assert divmod(f, g) == (q, r)
    assert f // g == q and uni_mul(q, g) + r == f
    assert 4 - g == P(QQ, 5, 0, -3) == -(g - 4)


def test_uniring_is_unit():
    assert UniRing(Z17, "x").is_unit(P(Z17, 5))
    assert not UniRing(Z17, "x").is_unit(P(Z17, 5, 1))
    assert not UniRing(Z17, "x").is_unit(P(Z17))
    assert UniRing(ZZ, "x").is_unit(P(ZZ, -1))
    assert not UniRing(ZZ, "x").is_unit(P(ZZ, 2))


def test_gcd_over_a_polynomial_coefficient_ring():
    # Z[x][y] is neither a field nor Z, so uni_gcd takes the subresultant PRS
    X = UniRing(ZZ, "x")
    R = UniRing(X, "y")
    x = X.variable()
    g = up._poly(X, [x, X.one])  # y + x
    a = R.mul(g, up._poly(X, [X.one, x]))  # (y + x)(x*y + 1)
    b = R.mul(g, up._poly(X, [x - 1, X.one]))  # (y + x)(y + x - 1)
    assert R.gcd(a, b) == g
    assert R.gcd(R.mul(a, R.from_const(up._poly(ZZ, [2]))), a) == a
