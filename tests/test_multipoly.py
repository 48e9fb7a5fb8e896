import hashlib
import heapq
import random

import pytest

from ringkit.multipoly import (
    GREVLEX,
    GRLEX,
    LEX,
    Layout,
    MultiPoly,
    MultiRing,
    Reducer,
    coefficients_in,
    content_primitive,
    from_unipoly,
    multi_derivative,
    multi_divides,
    multi_divrem,
    multi_exact_div,
    multi_mul,
    multi_mul_naive,
    multi_random,
    multi_subs,
    multi_value,
    mul_keys,
    mul_keys_into,
    reduce_keys,
    term_values,
    to_unipoly,
    univariate_image,
)
from ringkit.galois import GFRing
from ringkit.rings import QQ, ZZ, ZmRing, ZpRing
from ringkit.unipoly import UniRing, _poly


def test_order_goldens():
    # grevlex compares total degree first, then the reversed exponents
    assert GREVLEX.compare((2, 1, 1), (1, 3, 0)) < 0
    assert LEX.compare((1, 0), (0, 100)) > 0
    assert GRLEX.compare((1, 1), (0, 2)) > 0  # same degree, lex tiebreak
    assert GREVLEX.compare((1, 2), (1, 2)) == 0
    with pytest.raises(ValueError):
        LEX.compare((1, 0), (1, 0, 0))


def test_order_keys_monotone_additive():
    rng = random.Random(1)
    for order in (LEX, GRLEX, GREVLEX):
        for _ in range(200):
            a = tuple(rng.randrange(6) for _ in range(3))
            b = tuple(rng.randrange(6) for _ in range(3))
            c = tuple(rng.randrange(6) for _ in range(3))
            cmp = order.compare(a, b)
            ka, kb = order.key(a), order.key(b)
            assert (ka > kb) - (ka < kb) == cmp
            if cmp < 0:  # adding c on both sides must not flip the order
                assert order.compare(
                    tuple(x + y for x, y in zip(a, c)),
                    tuple(x + y for x, y in zip(b, c)),
                ) < 0


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=str)
def test_order_weights_agree_with_order_keys(order):
    # uneven fields, variable 0 on top, every exponent at or inside its range
    bits = [3, 0, 5, 1]
    w = Layout(bits, range(3, -1, -1)).order_weights(order)
    rng = random.Random(5)
    for _ in range(400):
        a, b = (tuple(rng.randrange(1 << k) for k in bits) for _ in range(2))
        ka, kb = (sum(x * y for x, y in zip(e, w)) for e in (a, b))
        assert (ka > kb) - (ka < kb) == order.compare(a, b)


@pytest.fixture
def rq():
    return MultiRing(QQ, ("x", "y"))


def test_basic_arithmetic(rq):
    x, y = rq.gens()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    f = x * x * y + 3
    assert f.degree() == 3
    assert f.degree("x") == 2 and f.degree(1) == 1
    assert f.term_count() == 2
    assert f.degrees() == (2, 1)
    assert rq.zero.degree() == -1 and rq.zero.degrees() == (0, 0)


def test_mul_strategies_agree():
    ring = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    rng = random.Random(7)
    for _ in range(60):
        a = multi_random(ring, rng, terms=rng.randrange(1, 9), max_exp=5)
        b = multi_random(ring, rng, terms=rng.randrange(1, 9), max_exp=5)
        assert multi_mul(a, b) == multi_mul_naive(a, b)
    ring = MultiRing(ZZ, ("x", "y"))
    rng = random.Random(8)
    for _ in range(40):
        a = multi_random(ring, rng, terms=5, max_exp=6)
        b = multi_random(ring, rng, terms=5, max_exp=6)
        assert multi_mul(a, b) == multi_mul_naive(a, b)


def _key(lay, e):
    """The packed key of one exponent tuple."""
    (k,) = lay.pack_terms({e: None})
    return k


def _lay(ring, bits):
    n = len(ring.vars)
    return Layout([bits] * n, range(n))


@pytest.mark.parametrize("bits", [0, 1, 5, 15, 40])
@pytest.mark.parametrize("top", [False, True], ids=["x0-low", "x0-top"])
def test_layout_packs_checks_and_divides(bits, top):
    n = 3
    lay = Layout([bits] * n, range(n - 1, -1, -1) if top else range(n))
    hi = (1 << bits) - 1
    rng = random.Random(bits)
    exps = [(0, 0, 0), (hi, hi, hi), (hi, 0, hi)]
    exps += [tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(20)]
    terms = {e: i + 1 for i, e in enumerate(exps)}
    keyed = lay.pack_terms(terms)
    assert lay.unpack_terms(keyed) == terms
    assert all(lay.exponents(_key(lay, e)) == e for e in exps)
    assert lay.check(_key(lay, (hi, hi, hi))) == _key(lay, (hi, hi, hi))
    if bits:
        # the top field holds x0 exactly when x0 is on top, so keys order LEX
        assert (_key(lay, (1, 0, 0)) > _key(lay, (0, hi, hi))) == top
    for i in range(n):
        e = [0] * n
        e[i] = 1 << bits
        with pytest.raises(OverflowError, match="packed budget"):
            _key(lay, tuple(e))
        # two in-range exponents summing past the range set the guard bit
        e[i] = hi
        k = _key(lay, tuple(e))
        other = [0] * n
        other[i] = 1
        with pytest.raises(OverflowError, match="packed budget"):
            lay.check(k + _key(lay, tuple(other)))
    # d divides k exactly when k - d is nonnegative with no guard bit set
    for ek in exps[:8]:
        for ed in exps[:8]:
            k, d = _key(lay, ek), _key(lay, ed)
            divides = all(x >= y for x, y in zip(ek, ed))
            assert (k - d >= 0 and not (k - d) & lay.guard) == divides


@pytest.mark.parametrize("K", [ZpRing(1000003), ZmRing(7**9), ZZ], ids=["Zp", "Z/7^9", "Z"])
def test_mul_keys_matches_naive(K):
    # the one packed-product kernel: residues reduced once per key, ints kept
    # exact over Z, zero sums dropped; operands of one term included
    ring = MultiRing(K, ("x", "y", "z"))
    mod = K.coeff_modulus
    rng = random.Random(17)
    lay = _lay(ring, 4)

    def key(f):
        return lay.pack_terms(f.terms)

    def unkey(keyed):
        return MultiPoly(ring, lay.unpack_terms(keyed))

    for _ in range(80):
        a = multi_random(ring, rng, terms=rng.choice([1, 1, 2, 5, 9]), max_exp=5)
        b = multi_random(ring, rng, terms=rng.choice([1, 2, 3, 8]), max_exp=5)
        if a.is_zero() or b.is_zero():
            continue
        got = mul_keys(key(a), key(b), mod)
        assert unkey(got) == multi_mul_naive(a, b)
        assert all(got.values())
        # products summed unreduced, reduced once
        acc = mul_keys_into({}, key(a), key(b))
        mul_keys_into(acc, key(b), key(a * a))
        got = reduce_keys(acc, mod)
        assert unkey(got) == multi_mul_naive(a, b) + multi_mul_naive(b, a * a)
    x, y, _ = ring.gens()
    # cross terms cancel: (x + y)(x - y) keeps two of four keys
    got = mul_keys(key(x + y), key(x - y), mod)
    assert unkey(got) == x * x - y * y


def test_mul_keys_full_cancellation():
    # over Z/7^9 a product of nonzero polynomials can vanish: every term, and
    # every sum of terms, is a multiple of 7^9
    K = ZmRing(7**9)
    ring = MultiRing(K, ("x", "y"))
    x, y = ring.gens()
    a = ring.of(7**4) * x + ring.of(2 * 7**4) * y
    b = ring.of(7**5) * y
    c = ring.of(3 * 7**5) * (x + y)
    lay = _lay(ring, 3)
    for u, v in ((a, b), (b, a), (a, c), (b, b + c)):
        assert multi_mul_naive(u, v).is_zero()
        assert mul_keys(lay.pack_terms(u.terms), lay.pack_terms(v.terms), K.coeff_modulus) == {}


def test_wide_products_pack_past_64_bits():
    # 12 variables at degree 40 need keys far wider than a machine word
    ring = MultiRing(ZpRing(17), tuple("abcdefghijkl"))
    rng = random.Random(3)
    a = multi_random(ring, rng, terms=6, max_exp=40)
    b = multi_random(ring, rng, terms=6, max_exp=40)
    bits = [(a.degree(i) + b.degree(i)).bit_length() for i in range(12)]
    assert sum(bits) + 12 > 64
    assert multi_mul(a, b) == multi_mul_naive(a, b)


def test_divrem_golden(rq):
    x, y = rq.gens()
    qs, r = multi_divrem(x * x + y * y, [x + y])
    assert qs[0] == x - y
    assert r == 2 * y * y


DIVREM_RINGS = {
    "Z": ZZ,
    "Zp101": ZpRing(101),
    "Zp2": ZpRing(2),
    "Q": QQ,
    "GF17^2": GFRing(17, 2),
}


def _small_poly(ring, rng, terms, max_exp):
    K = ring.cring
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_exp) for _ in ring.vars)
        c = K.random_element(rng, bound=3)
        if not K.is_zero(c):
            out[e] = c
    return MultiPoly(ring, out)


def _divrem_cases(K, order):
    """20 seeded (f, dividers) pairs with 1-3 dividers each."""
    ring = MultiRing(K, ("x", "y", "z"), order)
    rng = random.Random("%s-%s" % (K.spec_string(), order))
    cases = []
    while len(cases) < 20:
        ds = [_small_poly(ring, rng, 3, 2) for _ in range(rng.randint(1, 3))]
        if any(d.is_zero() for d in ds):
            continue
        f = _small_poly(ring, rng, 8, 4) + multi_mul(ds[0], _small_poly(ring, rng, 3, 2))
        cases.append((f, ds))
    return cases


def _coeff_key(c):
    if hasattr(c, "coeffs"):
        return tuple(c.coeffs)
    if hasattr(c, "num"):
        return (c.num, c.den)
    return c


def _poly_key(f):
    return sorted((e, _coeff_key(c)) for e, c in f.terms.items())


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=str)
@pytest.mark.parametrize("K", list(DIVREM_RINGS.values()), ids=list(DIVREM_RINGS))
def test_divrem_identity_and_remainder_normal_form(K, order, certify_divrem):
    for f, ds in _divrem_cases(K, order):
        qs, r = multi_divrem(f, ds)
        certify_divrem(f, ds, qs, r)


# sha256 (first 16 hex digits) of the quotients and remainders of the 20
# cases of `_divrem_cases`, as the exponent-tuple division loop computed them
DIVREM_DIGESTS = {
    ("Z", "LEX"): "523de4c450ce24a6",
    ("Z", "GRLEX"): "2d46ad4cec085907",
    ("Z", "GREVLEX"): "496f09a3d4d9beef",
    ("Zp101", "LEX"): "4bf37afbf1b4685a",
    ("Zp101", "GRLEX"): "ac763bd20b2ba079",
    ("Zp101", "GREVLEX"): "82d54adbbb79c33e",
    ("Zp2", "LEX"): "63254df4df87af41",
    ("Zp2", "GRLEX"): "5aa4ee44d6aff948",
    ("Zp2", "GREVLEX"): "bca8df1e80a36b3a",
    ("Q", "LEX"): "89c962efd58faf52",
    ("Q", "GRLEX"): "831ab20f48692b9d",
    ("Q", "GREVLEX"): "a3d09e0c36bbbf18",
    ("GF17^2", "LEX"): "27d468e855f4aca5",
    ("GF17^2", "GRLEX"): "d3a4f40683727422",
    ("GF17^2", "GREVLEX"): "643c708232e3e0db",
}


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=str)
@pytest.mark.parametrize("name", list(DIVREM_RINGS))
def test_divrem_answers_keep_their_digest(name, order):
    out = []
    for f, ds in _divrem_cases(DIVREM_RINGS[name], order):
        qs, r = multi_divrem(f, ds)
        out.append(([_poly_key(q) for q in qs], _poly_key(r)))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == DIVREM_DIGESTS[name, order.name]


def test_divrem_first_match_and_wide_exponents():
    R = MultiRing(ZZ, ("x",))
    x = R.var("x")
    assert multi_divrem(3 * x + 2, [2 * x, x]) == ([R.zero, R.of(3)], R.of(2))
    assert multi_divrem(3 * x + 2, [2 * x]) == ([R.zero], 3 * x + 2)
    for K in (ZpRing(1000003), QQ):
        S = MultiRing(K, ("x", "y"), LEX)
        x, y = S.gens()
        t = y**20000
        assert multi_divrem(x**3, [x - t]) == ([x**2 + x * t + t**2], t**3)


def test_divrem_zero_divisor():
    ring = MultiRing(QQ, ("x",))
    with pytest.raises(ZeroDivisionError):
        multi_divrem(ring.one, [ring.zero])


def test_exact_division(rq):
    x, y = rq.gens()
    prod = multi_mul(x + y, x - y)
    assert multi_exact_div(prod, x + y) == x - y
    assert multi_divides(x + y, prod)
    assert not multi_divides(x + y, x * y + 1)
    with pytest.raises(ArithmeticError):
        multi_exact_div(x * y + 1, x + y)


def test_division_over_a_composite_residue_ring():
    # Z/12 has no divmod: an entry rewrites a term when ZmRing.exact_div
    # finds a quotient of the coefficients, here of 4 by 2 but not of 3 by 2
    R = MultiRing(ZmRing(12), ("x", "y"))
    x, y = R.gens()
    assert multi_divrem(x**2 * y + 5 * x + 7, [x]) == ([x * y + 5], R.from_coeff(7))
    assert multi_exact_div(x**2 * y, x) == x * y
    assert multi_divides(x, x * y)
    assert multi_divrem(4 * x**2 + 3 * x, [2 * x]) == ([2 * x], 3 * x)
    assert not multi_divides(2 * x, 3 * x)


@pytest.mark.parametrize("K", [GFRing(3, 2), ZmRing(12)], ids=lambda K: K.spec_string())
def test_inexact_division_on_descriptor_ops_stops_early(K):
    R = MultiRing(K, ("x", "y"))
    x, y = R.gens()
    # the quotient's second term y leaves the room deg(a) - deg(b) = (1, 0)
    assert not multi_divides(x + y, x**2 + y)
    with pytest.raises(ArithmeticError):
        multi_exact_div(x**2 + y, x + y)
    # the quotient y fits, and then x does not divide the term 1
    assert not multi_divides(x, x * y + R.one)
    assert multi_divides(x + y, (x + y) * (x - y))


DIV_RINGS = {"Z": ZZ, "Q": QQ, "Zp1000003": ZpRing(1000003), "Zp2": ZpRing(2), "Zp3": ZpRing(3)}
# degrees at the edges of the packed fields: bit lengths 1..5, each side
WIDTH_EDGES = (1, 2, 3, 4, 7, 8, 15, 16)


def _coeff(K, rng):
    while True:
        c = K.of(rng.randint(-9, 9))
        if not K.is_zero(c):
            return c


def _with_degrees(ring, rng, degs):
    """Random polynomial of degree exactly degs[i] in each variable i."""
    terms = {}
    for i, d in enumerate(degs):
        e = [rng.randint(0, x) for x in degs]
        e[i] = d
        terms[tuple(e)] = _coeff(ring.cring, rng)
    for _ in range(3):
        terms[tuple(rng.randint(0, x) for x in degs)] = _coeff(ring.cring, rng)
    return MultiPoly(ring, terms)


def _divrem_divides(b, a):
    return multi_divrem(a, [b])[1].is_zero()


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=str)
@pytest.mark.parametrize("K", list(DIV_RINGS.values()), ids=list(DIV_RINGS))
def test_packed_division_agrees_with_divrem(K, order, certify_divrem):
    ring = MultiRing(K, ("x", "y", "z"), order)
    x, y, z = ring.gens()
    rng = random.Random(15)
    for _ in range(10):
        total = [rng.choice(WIDTH_EDGES) for _ in range(3)]
        da = [rng.randint(0, d) for d in total]
        a = _with_degrees(ring, rng, da)
        b = _with_degrees(ring, rng, [d - k for d, k in zip(total, da)])
        ab = multi_mul(a, b)
        assert ab.degrees() == tuple(total)
        assert multi_exact_div(ab, b) == a
        assert multi_exact_div(ab, a) == b
        # near misses and unrelated pairs decide exactly as multi_divrem,
        # whose results are certified without the division code
        pairs = [(b, ab + x * y), (b, ab + ring.one), (b + z, ab), (a, b), (b, a)]
        pairs += [(b, multi_mul(ab, x + ring.one)), (x * b, ab)]
        for g, f in pairs:
            qs, r = multi_divrem(f, [g])
            certify_divrem(f, [g], qs, r)
            ok = r.is_zero()
            assert multi_divides(g, f) == ok
            if ok:
                assert multi_exact_div(f, g) == qs[0]
            else:
                with pytest.raises(ArithmeticError):
                    multi_exact_div(f, g)


@pytest.mark.parametrize("K", [ZZ, ZpRing(1000003)], ids=["Z", "Zp"])
def test_integer_division_runs_on_the_int_kernel(monkeypatch, K, certify_divrem):
    # Z and Zp divide on `_nf_int`'s int arithmetic, never on descriptor ops
    def refuse(*args):
        raise AssertionError("descriptor-op kernel used")

    monkeypatch.setattr(Reducer, "_nf_gen", refuse)
    ring = MultiRing(K, ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(26)
    a = _with_degrees(ring, rng, [3, 2, 4])
    b = 2 * x * y + _with_degrees(ring, rng, [1, 3, 2])
    ab = multi_mul(a, b)
    assert multi_exact_div(ab, b) == a
    assert multi_divides(a, ab)
    assert not multi_divides(b, ab + ring.one)
    with pytest.raises(ArithmeticError):
        multi_exact_div(ab + z, b)
    f = ab + 3 * x * y**2
    qs, r = multi_divrem(f, [b, a])
    certify_divrem(f, [b, a], qs, r)


def _counting_pops(monkeypatch):
    pops = []
    orig = heapq.heappop

    def pop(heap):
        pops.append(1)
        return orig(heap)

    monkeypatch.setattr(heapq, "heappop", pop)
    return pops


@pytest.mark.parametrize("K", [ZZ, ZpRing(1000003)], ids=["Z", "Zp"])
def test_packed_division_stops_at_the_first_bad_term(monkeypatch, K):
    ring = MultiRing(K, ("x", "y"), LEX)
    x, y = ring.gens()
    cases = [
        # lm(b) = x does not divide y^2, the second term popped
        (x * y + y**2, x + 1, 2),
        # the third quotient term x^13*y^2 passes deg_y(a) - deg_y(b) = 1
        (x**16 + y**2, x - y, 3),
        # deg_y(b) > deg_y(a): nothing is popped
        (x**2 * y, x * y**2, 0),
    ]
    if K == ZZ:
        # lc(b) = 2 does not divide the leading coefficient 1
        cases.append((x + 1, 2 * x + 2, 1))
    for a, b, popped in cases:
        assert not _divrem_divides(b, a)
        pops = _counting_pops(monkeypatch)
        assert not multi_divides(b, a)
        assert len(pops) == popped
        monkeypatch.undo()
        with pytest.raises(ArithmeticError):
            multi_exact_div(a, b)


@pytest.mark.parametrize("K", [ZZ, ZpRing(1000003), ZpRing(2)], ids=["Z", "Zp", "Zp2"])
def test_packed_division_edge_inputs(K):
    ring = MultiRing(K, ("x", "y"))
    x, y = ring.gens()
    f = x**3 * y + x * y**2 + y + ring.one
    # b constant and b a monomial (3 is nonzero in each of these rings)
    three = ring.of(3)
    mono = 3 * x * y**2
    assert multi_exact_div(multi_mul(f, three), three) == f
    assert multi_exact_div(multi_mul(f, mono), mono) == f
    assert multi_divides(mono, multi_mul(x * f, mono))
    assert not multi_divides(mono, f) and not _divrem_divides(mono, f)
    if K == ZZ:
        four = ring.of(4)
        assert not multi_divides(four, multi_mul(f, ring.of(6)))
        assert multi_exact_div(multi_mul(f, ring.of(-12)), four) == -3 * f
    # a zero, b zero
    assert multi_exact_div(ring.zero, f) == ring.zero
    assert multi_divides(f, ring.zero) and _divrem_divides(f, ring.zero)
    with pytest.raises(ZeroDivisionError):
        multi_exact_div(f, ring.zero)
    with pytest.raises(ZeroDivisionError):
        multi_divrem(f, [ring.zero])
    assert multi_divides(ring.zero, ring.zero)
    assert not multi_divides(ring.zero, f)


def test_eval(rq):
    x, y = rq.gens()
    f = x * x - y * y
    assert multi_value(f, {0: QQ.of(3), 1: QQ.of(2)}) == QQ.of(5)
    assert multi_subs(f, {0: QQ.zero}) == -(y * y)


def _gf_element(K, k):
    return K.from_coeffs([k, 1, 2])


EVAL_RINGS = {
    "Zp[1000003]": (lambda: ZpRing(1000003), lambda K, k: K.of(k)),
    "Z": (lambda: ZZ, lambda K, k: k),
    "Q": (lambda: QQ, lambda K, k: K.make(k, 3)),
    "GF(17^3)": (lambda: GFRing(17, 3), _gf_element),
}


@pytest.mark.parametrize("name", list(EVAL_RINGS))
def test_evaluation_shapes_match_term_sums(name):
    make_ring, element = EVAL_RINGS[name]
    K = make_ring()
    R = MultiRing(K, ("x", "y", "z"))
    # over Z, Zp and Q the y terms cancel at x = 1, z = 0, so the partial
    # substitution must drop the monomial y
    spec = [((0, 0, 0), 4), ((2, 1, 0), -5), ((0, 3, 1), 7), ((1, 0, 4), 2),
            ((1, 1, 0), 11), ((0, 1, 0), -6), ((2, 0, 1), 3)]
    f = MultiPoly(R, {e: element(K, c) for e, c in spec})
    const = R.from_coeff(element(K, 9))

    def power(v, x):
        out = K.one
        for _ in range(x):
            out = K.mul(out, v)
        return out

    def term(e, c, point):
        for i, x in enumerate(e):
            if i in point:
                c = K.mul(c, power(point[i], x))
        return c

    def full(g, point):
        acc = K.zero
        for e, c in g.terms.items():
            acc = K.add(acc, term(e, c, point))
        return acc

    points = [
        {0: element(K, 2), 1: element(K, -3), 2: element(K, 5)},
        {0: K.zero, 1: element(K, 4), 2: element(K, 1)},
        {0: K.one, 1: element(K, 7), 2: K.zero},
    ]
    for pt in points:
        for g in (f, const, R.zero):
            assert multi_value(g, pt) == full(g, pt)
        assert term_values(K, list(f.terms), pt) == [
            term(e, K.one, pt) for e in f.terms
        ]

        # partial substitution of x and z leaves a polynomial in y
        xz = {0: pt[0], 2: pt[2]}
        want = {}
        for e, c in f.terms.items():
            key = (0, e[1], 0)
            want[key] = K.add(want.get(key, K.zero), term(e, c, xz))
        want = {e: c for e, c in want.items() if not K.is_zero(c)}
        part = multi_subs(f, xz)
        assert part.ring == R and part.terms == want
        assert multi_subs(const, xz) == const

        # univariate image in y, and its agreement with the substitution
        img = univariate_image(f, 1, xz)
        coeffs = [K.zero] * (f.degree(1) + 1)
        for e, c in f.terms.items():
            coeffs[e[1]] = K.add(coeffs[e[1]], term(e, c, xz))
        while coeffs and K.is_zero(coeffs[-1]):
            coeffs.pop()
        assert img.coeffs == coeffs
        assert img == to_unipoly(part, 1)
        assert from_unipoly(R, img, 1) == part
        assert univariate_image(const, 1, xz).coeffs == [const.constant()]


TERM_VALUE_RINGS = {
    "Zp[2]": lambda: ZpRing(2),
    "Zp[17]": lambda: ZpRing(17),
    "Zp[1000003]": lambda: ZpRing(1000003),
    "Z": lambda: ZZ,
    "Q": lambda: QQ,
    "GF(17^2)": lambda: GFRing(17, 2),
}


@pytest.mark.parametrize("name", list(TERM_VALUE_RINGS))
def test_term_values_match_the_per_term_product(name):
    # residue rings take one exponent column at a time from a table of
    # powers (a dict of pows for a sparse column), other rings a dict cache
    # per variable: each must give c * prod(v_i ** e_i) per term, in order
    K = TERM_VALUE_RINGS[name]()
    rng = random.Random(23)
    n = 4

    def nonzero():
        while True:
            c = K.random_element(rng)
            if not K.is_zero(c):
                return c

    def naive(e, c, values):
        for i, v in values.items():
            for _ in range(e[i]):
                c = K.mul(c, v)
        return c

    for t in range(30):
        # up to 60 on at most 4 terms is a sparse column
        hi, count = ((3, 12), (9, 12), (60, 4))[t % 3]
        terms = {}
        for _ in range(rng.randrange(1, count + 1)):
            e = [rng.randrange(hi + 1) for _ in range(n)]
            e[3] = 0  # an all-zero column
            terms[tuple(e)] = nonzero()
        # a random subset of the variables, at times none of them
        values = {i: K.random_element(rng) for i in rng.sample(range(n), t % (n + 1))}
        exps, coeffs = list(terms), list(terms.values())
        want = [naive(e, c, values) for e, c in terms.items()]
        assert term_values(K, terms, values, terms.values()) == want
        assert term_values(K, exps, values, coeffs) == want
        assert term_values(K, exps, values) == [naive(e, K.one, values) for e in exps]
        assert term_values(K, exps, {3: nonzero()}, coeffs) == coeffs
        assert term_values(K, terms, {}, coeffs) == coeffs
    assert term_values(K, [], {0: nonzero()}) == []


def test_coefficients_in(rq):
    x, y = rq.gens()
    f = x * x * y + 2 * x * x + y
    by_x = coefficients_in(f, "x")
    assert set(by_x) == {0, 2}
    assert by_x[2] == y + 2
    assert by_x[0] == y


def test_content_primitive(rq):
    x, y = rq.gens()
    f = multi_mul(y + 2, x * x + 5)
    cont, prim = content_primitive(f, "x")
    assert cont == y + 2
    assert prim == x * x + 5
    assert multi_mul(cont, prim) == f
    for K in (ZZ, QQ, ZpRing(101)):
        R = MultiRing(K, ("x", "y"))
        x, y = R.gens()
        cases = [
            # a monomial content in the other variable
            (x * y * y + y * y * y, y * y, x + y),
            # a monomial times a polynomial content
            ((y * y + y) * (x + y), y * y + y, x + y),
            ((y + 1) * (x * x + 3 * y), y + 1, x * x + 3 * y),
        ]
        for f, cont, prim in cases:
            got = content_primitive(f, "x")
            assert got == (cont, prim), (K, f)
            assert multi_mul(*got) == f
        # a unit var-coefficient: the content is one and f comes back undivided
        for f in (x * y + 1, x * y - 1):
            cont, prim = content_primitive(f, 0)
            assert cont == R.one and prim is f
        assert content_primitive(R.zero, "x") == (R.zero, R.zero)
        # an integer content over Z; over a field 2 is a unit
        f = 2 * x + 2 * y
        if K == ZZ:
            assert content_primitive(f, "x") == (R.of(2), x + y)
            # the content has a positive lead, the sign stays with the part
            assert content_primitive(-6 * x * y - 4 * y, "x") == (2 * y, -3 * x - 2)
        else:
            assert content_primitive(f, "x") == (R.one, f)


@pytest.mark.parametrize(
    "K", [ZZ, ZpRing(17), QQ, GFRing(17, 2)], ids=["Z", "Zp17", "Q", "GF17^2"]
)
def test_monomial_content_divides_without_a_division(K, monkeypatch):
    # a content c*x^e, c a constant, is a shift of the exponents and a
    # division of each coefficient by c, never a polynomial division
    from ringkit import multipoly

    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    rng = random.Random(5)
    cases = [6 * y * y * z * (x * x * y + 2 * x + 3 * z + 5), 4 * (x * y + 2 * z)]
    for _ in range(6):
        g = multi_random(R, rng, terms=5) + x**3 + y
        m = y ** rng.randrange(3) * z ** rng.randrange(3)
        cases.append(rng.choice([-10, -1, 2, 3, 12]) * m * g)
    expected = []
    for f in cases:
        cont = content_primitive(f, "x")[0]
        expected.append((cont, multi_exact_div(f, cont)))

    def no_division(a, b):
        raise AssertionError("multi_exact_div called")

    monkeypatch.setattr(multipoly, "multi_exact_div", no_division)
    for f, (cont, prim) in zip(cases, expected):
        assert cont.is_constant() or len(cont.terms) == 1
        got = content_primitive(f, "x")
        assert got == (cont, prim), f
        assert multi_mul(*got) == f


def test_derivative(rq):
    x, y = rq.gens()
    f = x * x * y + 3 * x + y
    assert multi_derivative(f, "x") == 2 * x * y + 3
    assert multi_derivative(f, "y") == x * x + 1


def test_ring_descriptor():
    ring = MultiRing(ZpRing(17), ("x", "y"), order="grevlex")
    assert ring.spec_string() == "Poly(Zp[17]; x,y; GREVLEX)"
    assert ring.order is GREVLEX
    with pytest.raises(ValueError):
        MultiRing(ZpRing(17), ("x", "x"))
    with pytest.raises(ValueError):
        MultiRing(ZpRing(17), ())
    with pytest.raises(ValueError):
        MultiRing(ZpRing(17), ("x", "not a name"))
    x, y = ring.gens()
    unit, canon = ring.normalize_unit(3 * x + y)
    assert canon.lc() == 1 and unit == ring.of(3)
    assert ring.of(20) == ring.from_coeff(3)
    assert set(ring.symbols()) == {"x", "y"}


def test_normalize_unit_over_z():
    ring = MultiRing(ZZ, ("x", "y"))
    x, y = ring.gens()
    unit, canon = ring.normalize_unit(-2 * x - 4 * y)
    assert unit == ring.of(-1)
    assert canon == 2 * x + 4 * y  # sign flip only, content stays


def test_lead_term_multiplicative():
    ring = MultiRing(ZpRing(524287), ("x", "y", "z"))
    rng = random.Random(47)
    for _ in range(50):
        a = multi_random(ring, rng, terms=6, max_exp=5)
        b = multi_random(ring, rng, terms=6, max_exp=5)
        if a.is_zero() or b.is_zero():
            continue
        prod = multi_mul(a, b)
        ea, eb = a.leading_exponent(), b.leading_exponent()
        assert prod.leading_exponent() == tuple(i + j for i, j in zip(ea, eb))


# ------------------------------------------- entry points no workload reaches


def test_division_operators_match_multi_divrem():
    R = MultiRing(QQ, ("x", "y"))
    x, y = R.gens()
    f = x**3 * y + 2 * x * y**2 - y + 5
    g = x * y - 1
    (q,), r = multi_divrem(f, [g])
    assert divmod(f, g) == (q, r) == R.divmod(f, g)
    assert f // g == q and f % g == r
    assert q * g + r == f
    assert 3 - x == R.of(3) - x == -(x - 3)
    assert R.divides(g, g * f) and not R.divides(g, f)
    assert R.divides(R.zero, R.zero) and not R.divides(R.zero, f)


def _unit_cases():
    gf = GFRing(3, 2)
    out = []
    for K in (ZpRing(17), gf, QQ, ZZ):
        c = gf.generator() if K is gf else K.of(-6)
        c2 = K.mul(c, K.of(2))
        U, M = UniRing(K, "x"), MultiRing(K, ("x", "y"))
        out += [(U, _poly(K, [c2, K.zero, c])), (U, _poly(K, [c]))]
        out += [(M, MultiPoly(M, {(2, 1): c, (0, 0): c2})), (M, M.from_coeff(c))]
    return out


@pytest.mark.parametrize("R, f", _unit_cases())
def test_normalize_unit_splits_off_a_unit(R, f):
    K = R.cring
    unit, canon = R.normalize_unit(f)
    assert R.mul(unit, canon) == f
    assert R.mul(unit, R.unit_inverse(unit)) == R.one
    lc = canon.lc()
    if K.is_field:
        assert K.is_one(lc)
    else:
        assert lc > 0 and R.unit_inverse(unit) == unit
    assert R.normalize_unit(R.zero) == (R.one, R.zero)
