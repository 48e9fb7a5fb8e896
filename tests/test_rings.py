import random

import pytest

from ringkit import multipoly, rings
from ringkit import unipoly as up
from ringkit.errors import NonInvertibleError, UnsupportedRingError
from ringkit.rings import (
    FractionField,
    IntegerRing,
    Rational,
    ZmRing,
    ZpRing,
    ZZ,
    QQ,
    extended_gcd,
)
from ringkit.galois import GFRing
from ringkit.unipoly import (
    PACKED_MUL_THRESHOLD,
    uni_mul,
    uni_mul_schoolbook,
    uni_random,
)


def _axiom_check(R, elements):
    z, o = R.zero, R.one
    for a in elements:
        assert R.add(a, z) == a
        assert R.mul(a, o) == a
        assert R.is_zero(R.add(a, R.neg(a)))
        assert R.is_zero(R.mul(a, z))
        assert R.sub(a, a) == z
    for a in elements:
        for b in elements:
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
    for a in elements:
        for b in elements:
            for c in elements:
                assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
                assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
                # distributivity ties the two operations together
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def _sample(R, rng, n=6):
    if R.is_finite:
        n = min(n, R.cardinality)
    seen = [R.zero, R.one]
    while len(seen) < n:
        x = R.random_element(rng)
        if x not in seen:
            seen.append(x)
    return seen


@pytest.mark.parametrize(
    "R",
    [
        ZZ,
        QQ,
        ZpRing(2),
        ZpRing(17),
        ZpRing(524287),
        ZpRing(2**61 - 1),
        ZmRing(17**5),
        ZmRing((2**31 - 1) ** 3),
    ],
    ids=lambda R: R.spec_string(),
)
def test_ring_axioms(R):
    _axiom_check(R, _sample(R, random.Random(hash(R.spec_string()) & 0xFFFF)))


def test_integer_ring_basics():
    assert ZZ.characteristic == 0
    assert not ZZ.is_field
    with pytest.raises(TypeError):
        ZZ.of(2.5)
    with pytest.raises(TypeError):
        ZZ.of(True)  # bools masquerade as ints; keep them out
    assert ZZ.divmod(-7, 3) == divmod(-7, 3)
    assert ZZ.exact_div(42, -6) == -7
    with pytest.raises(ArithmeticError):
        ZZ.exact_div(7, 2)
    assert ZZ.normalize_unit(-12) == (-1, 12)
    assert ZZ.normalize_unit(12) == (1, 12)
    assert ZZ.gcd(0, 0) == 0
    assert ZZ.gcd(-4, 6) == 2


def test_zp_requires_prime():
    with pytest.raises(ValueError):
        ZpRing(4)
    with pytest.raises(ValueError):
        ZpRing(1)
    ZpRing(2)  # fine


def test_zp_field_ops():
    R = ZpRing(17)
    assert R.is_field and R.is_finite
    assert R.cardinality == 17 and R.characteristic == 17
    for a in range(1, 17):
        assert R.mul(a, R.inv(a)) == 1
    assert R.pow(3, -1) == R.inv(3)
    assert R.divmod(5, 3) == (R.div(5, 3), 0)
    with pytest.raises((NonInvertibleError, ZeroDivisionError)):
        R.inv(0)


def test_zp_big_modulus_falls_back_to_bigint():
    p = 2**89 - 1  # prime, beyond the machine-word path
    R = ZpRing(p)
    a = 3**50
    assert R.mul(a, R.inv(a)) == 1
    # packed multiplication sizes its slots from p, so it holds past 64 bits
    rng = random.Random(89)
    n = PACKED_MUL_THRESHOLD + 5
    f = uni_random(R, n, rng)
    g = uni_random(R, n + 3, rng)
    assert uni_mul(f, g) == uni_mul_schoolbook(f, g)


def test_clear_denominators_over_q():
    cs = [QQ.zero, QQ.make(-3, 4), QQ.make(5, 6), QQ.of(-7)]
    assert QQ.clear_denominators(cs) == (12, [0, -9, 10, -84])
    assert QQ.clear_denominators([QQ.make(-1, 2), QQ.zero]) == (2, [-1, 0])
    assert QQ.clear_denominators([QQ.zero]) == (1, [0])
    assert QQ.clear_denominators([]) == (1, [])


def test_extended_gcd_known_triplet():
    # classic worked example: gcd(240, 46) = 2 = 240*(-9) + 46*47
    g, x, y = extended_gcd(ZZ, 240, 46)
    assert (g, x, y) == (2, -9, 47)
    assert 240 * x + 46 * y == g


def test_extended_gcd_random_bezout():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(-10**6, 10**6)
        g, x, y = extended_gcd(ZZ, a, b)
        assert g == abs(__import__("math").gcd(a, b))
        assert a * x + b * y == g


def test_extended_gcd_over_field_normalizes_to_one():
    R = ZpRing(13)
    g, x, y = extended_gcd(R, 6, 9)
    assert g == 1
    assert (6 * x + 9 * y) % 13 == 1


def test_rational_normalization():
    assert QQ.make(2, 4) == Rational(1, 2)
    assert QQ.make(-2, -4) == Rational(1, 2)
    assert QQ.make(2, -4) == Rational(-1, 2)  # denominator made canonical
    assert QQ.make(0, 5) == Rational(0, 1)
    with pytest.raises(ZeroDivisionError):
        QQ.make(1, 0)


def test_rational_field_arithmetic():
    a, b = QQ.make(1, 2), QQ.make(1, 3)
    assert QQ.add(a, b) == Rational(5, 6)
    assert QQ.mul(a, b) == Rational(1, 6)
    assert QQ.sub(a, b) == Rational(1, 6)
    assert QQ.inv(QQ.make(-3, 7)) == Rational(-7, 3)
    assert QQ.pow(QQ.make(2, 3), -2) == Rational(9, 4)
    whole, frac = QQ.split_integral(QQ.make(7, 3))
    assert whole == 2 and frac == Rational(1, 3)
    # trunc-division semantics: a negative proper fraction stays proper
    whole, frac = QQ.split_integral(QQ.make(-10, 13))
    assert whole == 0 and frac == Rational(-10, 13)
    whole, frac = QQ.split_integral(QQ.make(-23, 4))
    assert whole == -5 and frac == Rational(-3, 4)


def test_fraction_field_rejects_field_inner():
    with pytest.raises(UnsupportedRingError):
        FractionField(ZpRing(5))


def _cramer(F, lhs, rhs):
    """The solution of a 3x3 system over a field by Cramer's rule, or None
    when the matrix is singular."""

    def det(m):
        (a, b, c), (d, e, f), (g, h, i) = m

        def cross(p, q, r, s):
            return F.sub(F.mul(p, q), F.mul(r, s))

        return F.add(F.sub(F.mul(a, cross(e, i, f, h)), F.mul(b, cross(d, i, f, g))),
                     F.mul(c, cross(d, h, e, g)))

    d = det(lhs)
    if F.is_zero(d):
        return None
    cols = [[row[:i] + [b] + row[i + 1:] for row, b in zip(lhs, rhs)] for i in range(3)]
    return [F.div(det(m), d) for m in cols]


def _solves(F, lhs, sol, rhs):
    """True when substituting sol into every row of lhs gives rhs."""
    return all(F.is_zero(F.sub(F.dot(row, sol), b)) for row, b in zip(lhs, rhs))


def test_symbolic_system_over_gf17_cubed():
    # 3x3 system whose coefficients are rational functions in x, y, z
    # with GF(17^3) scalars; the solution is checked by substitution.
    gf = GFRing(17, 3, "t")
    R = multipoly.MultiRing(gf, ("x", "y", "z"))
    F = FractionField(R)
    x, y, z = (F.from_inner(g) for g in R.gens())
    t = F.from_inner(R.from_coeff(gf.generator()))

    div, mul, add, sub = F.div, F.mul, F.add, F.sub
    lhs = [
        [add(add(t, x), z), mul(y, z), sub(z, mul(x, y))],
        [sub(sub(x, y), t), div(x, y), add(z, div(x, y))],
        [div(mul(x, y), t), add(x, y), add(div(z, x), y)],
    ]
    rhs = [x, y, z]
    sol = _cramer(F, lhs, rhs)
    assert _solves(F, lhs, sol, rhs)
    # solution is a genuine rational function, not a constant
    assert any(not R.is_zero(s.num) and s.den != R.one for s in sol)


def test_random_rational_function_system():
    K = ZpRing(101)
    R = multipoly.MultiRing(K, ("x", "y"))
    F = FractionField(R)
    rng = random.Random(4)

    def entry():
        num = R.random_element(rng, terms=2, max_exp=1)
        den = R.zero
        while R.is_zero(den):
            den = R.random_element(rng, terms=1, max_exp=1)
        return F.make(num, den)

    solved = 0
    for _ in range(3):
        lhs = [[entry() for _ in range(3)] for _ in range(3)]
        rhs = [entry() for _ in range(3)]
        sol = _cramer(F, lhs, rhs)
        if sol is not None:
            solved += 1
            assert _solves(F, lhs, sol, rhs)
    assert solved


def test_integer_factor_method():
    unit, facs = ZZ.factor(-180)
    assert unit == -1
    assert facs == [(2, 2), (3, 2), (5, 1)]
    assert ZZ.factor(1) == (1, [])
    assert ZZ.factor(-1) == (-1, [])


def test_spec_strings_round():
    assert ZZ.spec_string() == "Z"
    assert QQ.spec_string() == "Q"
    assert ZpRing(17).spec_string() == "Zp[17]"
    assert FractionField(ZZ).spec_string() == "Q"


def _descriptors():
    # pairwise different rings; a second call builds equal, fresh objects
    Z2 = ZpRing(2)
    return [
        IntegerRing(),
        FractionField(IntegerRing()),
        ZmRing(7),
        ZpRing(7),
        ZpRing(11),
        ZmRing(9),
        GFRing(2, 3, min_poly=up._poly(Z2, [1, 1, 0, 1])),
        GFRing(2, 3, min_poly=up._poly(Z2, [1, 0, 1, 1])),
        GFRing(2, 3, var="s", min_poly=up._poly(Z2, [1, 1, 0, 1])),
        GFRing(3, 2),
        up.UniRing(IntegerRing(), "x"),
        up.UniRing(IntegerRing(), "y"),
        up.UniRing(ZpRing(7), "x"),
        up.UniRing(ZmRing(7), "x"),
        multipoly.MultiRing(IntegerRing(), ("x", "y")),
        multipoly.MultiRing(IntegerRing(), ("y", "x")),
        multipoly.MultiRing(IntegerRing(), ("x", "y"), multipoly.LEX),
        multipoly.MultiRing(FractionField(IntegerRing()), ("x", "y")),
        FractionField(multipoly.MultiRing(IntegerRing(), ("x", "y"))),
    ]


def test_descriptor_equality_and_hash_matrix():
    # equal exactly when type and defining parameters agree: ZpRing(7) is
    # not ZmRing(7), and the variable, the order and min_poly count
    left, right = _descriptors(), _descriptors()
    for i, a in enumerate(left):
        assert a == a and hash(a) == hash(a)
        for j, b in enumerate(right):
            assert a is not b
            assert (a == b) == (i == j), (a, b)
            assert (a != b) == (i != j), (a, b)
            if i == j:
                assert hash(a) == hash(b)
    assert left[0] == ZZ and left[1] == QQ
    assert len(set(left + right)) == len(left)


# ------------------------------------------------ rings.power behind every pow


def _counting(fn, calls):
    def wrapped(a, b):
        calls.append(1)
        return fn(a, b)

    return wrapped


def _power_cases():
    """name -> (mul, one, a, pow_fn, patch) per user of rings.power; patch
    installs a counting mul where pow_fn looks it up and returns the list
    that collects its calls."""
    gf = GFRing(3, 2)
    R = multipoly.MultiRing(ZpRing(17), ("x", "y"))
    x, y = R.gens()
    ctx = up.PolyModContext(up._poly(ZpRing(17), [3, 0, 1, 1, 0, 1]))
    base = up._poly(ZpRing(17), [5, 1, 0, 0, 2, 7, 1])  # reduced by powmod

    def on(obj, name):
        def patch(monkeypatch):
            calls = []
            monkeypatch.setattr(obj, name, _counting(getattr(obj, name), calls))
            return calls

        return patch

    return {
        "Q": (QQ.mul, QQ.one, QQ.make(-3, 2), QQ.pow, on(QQ, "mul")),
        "GF9": (gf.mul, gf.one, gf.generator(), gf.pow, on(gf._ctx, "mulmod")),
        "uni_pow": (up.uni_mul, up._poly(QQ, [QQ.one]),
                    up._poly(QQ, [QQ.make(1, 2), QQ.make(-2, 1)]), up.uni_pow,
                    on(up, "uni_mul")),
        "multi_pow": (multipoly.multi_mul, R.one, 3 * x * y + 1, multipoly.multi_pow,
                      on(multipoly, "multi_mul")),
        "powmod": (ctx.mulmod, up._poly(ZpRing(17), [1]), ctx.rem(base),
                   lambda a, e: ctx.powmod(base, e), on(ctx, "mulmod")),
    }


@pytest.mark.parametrize("name", ["Q", "GF9", "uni_pow", "multi_pow", "powmod"])
def test_power_is_repeated_multiplication_in_binary_steps(name, monkeypatch):
    mul, one, a, pow_fn, patch = _power_cases()[name]
    expect = [one]
    for _ in range(70):
        expect.append(mul(expect[-1], a))
    calls = patch(monkeypatch)
    for e in range(71):
        del calls[:]
        assert pow_fn(a, e) == expect[e]
        # one product per set bit, one squaring per bit below the top one
        want = bin(e).count("1") + e.bit_length() - 1 if e else 0
        assert len(calls) == want, e


def test_polynomial_powers_reject_negative_exponents():
    with pytest.raises(ValueError):
        up.uni_pow(up._poly(QQ, [QQ.one, QQ.one]), -1)
    R = multipoly.MultiRing(ZZ, ("x",))
    with pytest.raises(ValueError):
        multipoly.multi_pow(R.gens()[0], -2)
    # a negative exponent used to keep powmod shifting -1 forever
    ctx = up.PolyModContext(up._poly(ZpRing(17), [3, 0, 1, 1]))
    with pytest.raises(ValueError):
        ctx.powmod(up._poly(ZpRing(17), [0, 1]), -1)


RESIDUE_RINGS = [ZpRing(1000003), ZpRing(17), ZmRing(12)]
LIST_STEPS = ["vadd", "vneg", "vscale", "vmul", "vsum", "vsums", "dot", "horner", "add_terms"]


@pytest.mark.parametrize("K", RESIDUE_RINGS, ids=lambda K: K.spec_string())
def test_residue_list_steps_match_the_generic_ones(K):
    # each override is a second implementation, checked against Ring's
    assert all(getattr(ZmRing, s) is not getattr(rings.Ring, s) for s in LIST_STEPS)
    rng = random.Random(K.m)

    def rand(n):
        return [rng.randrange(K.m) for _ in range(n)]

    for lx, ly in [(0, 0), (0, 3), (4, 0), (1, 1), (5, 3), (3, 7), (12, 12)]:
        for _ in range(5):
            x, y, c = rand(lx), rand(ly), rng.randrange(K.m)
            x0, y0 = x[:], y[:]
            for name, args in [
                ("vadd", (x, y)),
                ("vadd", (y, x)),
                ("vneg", (x,)),
                ("vscale", (x, c)),
                ("vmul", (x, y)),
                ("vsum", (x,)),
                ("vsums", (x, [(0, lx), (0, 0), (1, lx // 2), (lx // 2, lx)])),
                ("dot", (x, y)),
                ("horner", (x, c)),
            ]:
                got = getattr(K, name)(*args)
                assert got == getattr(rings.Ring, name)(K, *args), (name, args)
            assert (x, y) == (x0, y0)  # inputs are not changed
    x = rand(9)
    assert K.vadd(x, K.vneg(x)) == rings.Ring.vadd(K, x, rings.Ring.vneg(K, x)) == [0] * 9
    assert K.vsum([]) == K.dot([], x) == K.horner([], 5) == 0
    # lists keep their length: no trimming of zeros
    assert K.vscale(x, 0) == [0] * 9 and K.vmul(x, [0] * 4) == [0] * 4


@pytest.mark.parametrize("K", RESIDUE_RINGS, ids=lambda K: K.spec_string())
def test_residue_term_sums_match_the_generic_ones(K):
    rng = random.Random(K.m + 1)
    for _ in range(30):
        a = {k: rng.randrange(1, K.m) for k in rng.sample(range(10), 6)}
        b = {k: rng.randrange(1, K.m) for k in rng.sample(range(10), 6)}
        common = sorted(set(a) & set(b))
        for sign in (1, -1):
            # the first common key cancels to zero and must be dropped
            b2 = dict(b)
            if common:
                k = common[0]
                b2[k] = K.neg(a[k]) if sign > 0 else a[k]
            a0, b0 = dict(a), dict(b2)
            got = K.add_terms(a, b2, sign)
            assert got == rings.Ring.add_terms(K, a, b2, sign)
            assert (a, b2) == (a0, b0)
            assert all(got.values()) and (not common or common[0] not in got)
            want = {
                k: (a.get(k, 0) + sign * b2.get(k, 0)) % K.m for k in set(a) | set(b2)
            }
            assert got == {k: v for k, v in want.items() if v}
    assert K.add_terms(a, a, -1) == rings.Ring.add_terms(K, a, a, -1) == {}
    assert K.add_terms({}, {}) == rings.Ring.add_terms(K, {}, {}) == {}
    assert K.add_terms(a, {}) == a and K.add_terms({}, a, -1) == {
        k: K.neg(c) for k, c in a.items()
    }
