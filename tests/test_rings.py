import random

import pytest

from ringkit import rings
from ringkit.errors import NonInvertibleError, UnsupportedRingError
from ringkit.rings import (
    FractionField,
    IntegerRing,
    Rational,
    ZpRing,
    ZZ,
    QQ,
    extended_gcd,
    solve_diophantine,
)
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
    [ZZ, QQ, ZpRing(2), ZpRing(17), ZpRing(524287), ZpRing(2**61 - 1)],
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


def test_solve_diophantine_fold():
    g, cs = solve_diophantine(ZZ, [6, 10, 15])
    assert g == 1
    assert sum(c * f for c, f in zip(cs, [6, 10, 15])) == 1
    g, cs = solve_diophantine(ZZ, [12, 18])
    assert g == 6
    assert 12 * cs[0] + 18 * cs[1] == 6
    # edge: empty list gives the zero gcd with no witnesses
    assert solve_diophantine(ZZ, []) == (0, [])


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
