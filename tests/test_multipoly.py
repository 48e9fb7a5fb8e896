import random

import pytest

from ringkit import multipoly as mp
from ringkit.multipoly import (
    GREVLEX,
    GRLEX,
    LEX,
    MultiPoly,
    MultiRing,
    coefficients_in,
    content_primitive,
    from_unipoly,
    multi_derivative,
    multi_divides,
    multi_divrem,
    multi_eval,
    multi_exact_div,
    multi_mul,
    multi_mul_naive,
    multi_random,
    multi_subs,
    multi_value,
    term_values,
    to_unipoly,
    univariate_image,
)
from ringkit.galois import GFRing
from ringkit.rings import QQ, ZZ, ZpRing


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
    assert rq.zero.degree() == -1


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


def test_packed_overflow_falls_back():
    # 12 variables at degree 40 blow the 62-bit key budget
    ring = MultiRing(ZpRing(17), tuple("abcdefghijkl"))
    rng = random.Random(3)
    a = multi_random(ring, rng, terms=6, max_exp=40)
    b = multi_random(ring, rng, terms=6, max_exp=40)
    assert mp._pack_widths(a, b) is None
    assert multi_mul(a, b) == multi_mul_naive(a, b)


def test_divrem_golden(rq):
    x, y = rq.gens()
    qs, r = multi_divrem(x * x + y * y, [x + y])
    assert qs[0] == x - y
    assert r == 2 * y * y


def test_divrem_identity_and_remainder_normal_form():
    ring = MultiRing(ZpRing(101), ("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(40):
        f = multi_random(ring, rng, terms=8, max_exp=4)
        gs = [multi_random(ring, rng, terms=3, max_exp=3) for _ in range(2)]
        gs = [g for g in gs if not g.is_zero()]
        if not gs:
            continue
        qs, r = multi_divrem(f, gs)
        back = r
        for q, g in zip(qs, gs):
            back = back + multi_mul(q, g)
        assert back == f
        # no remainder term is reducible by any divisor lead
        for e in r.terms:
            for g in gs:
                le = g.leading_exponent()
                assert any(x < y for x, y in zip(e, le))


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


def test_eval(rq):
    x, y = rq.gens()
    f = x * x - y * y
    assert multi_eval(f, {"x": QQ.of(3), "y": QQ.of(2)}) == QQ.of(5)
    part = multi_eval(f, {"x": QQ.zero})
    assert part == -(y * y)
    with pytest.raises(ValueError):
        multi_eval(f, {"w": QQ.one})


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
            named = {R.vars[i]: v for i, v in pt.items()}
            assert multi_eval(g, named) == full(g, pt)
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
        assert multi_eval(f, {"x": pt[0], "z": pt[2]}) == part
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
