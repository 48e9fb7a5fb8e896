import random

import pytest

from ringkit import unipoly as up
from ringkit.errors import UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.rings import ZZ, ZpRing
from ringkit.unifactor import factor_unipoly, uni_is_irreducible


def test_construction_and_sizes():
    F = GFRing(17, 3)
    assert F.characteristic == 17
    assert F.cardinality == 17**3  # 4913
    assert F.is_field and F.is_finite
    assert F.min_poly.degree == 3
    assert F.min_poly.lc() == 1
    assert uni_is_irreducible(F.min_poly)


def test_degree_one_collapses_to_prime_field_behaviour():
    F = GFRing(7, 1)
    assert F.cardinality == 7
    for a in range(1, 7):
        x = F.of(a)
        assert F.mul(x, F.inv(x)) == F.one


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GFRing(15, 2)  # composite characteristic
    with pytest.raises(ValueError):
        GFRing(7, 0)
    # a characteristic past the machine word is a field like any other
    F = GFRing(2**64 + 13, 2)
    for x in (F.generator(), F.add(F.generator(), F.of(2**64)), F.of(3)):
        assert F.mul(x, F.inv(x)) == F.one


def test_min_poly_enumeration_oracle_gf8():
    # only two monic irreducible cubics exist over Z2; a brute-force scan
    # over all 8 monic cubics, checking for roots and quadratic factors,
    # reproduces them: x^3 + x + 1 and x^3 + x^2 + 1
    Z2 = ZpRing(2)
    irreducible = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            for c2 in (0, 1):
                f = up._poly(Z2, [c0, c1, c2, 1])
                has_root = any(up.uni_eval(f, a) == 0 for a in (0, 1))
                if not has_root:  # no linear factor; cubic therefore irreducible
                    irreducible.append((c0, c1, c2))
    assert sorted(irreducible) == [(1, 0, 1), (1, 1, 0)]
    F8 = GFRing(2, 3)
    assert tuple(F8.min_poly.coeffs[:3]) in ((1, 0, 1), (1, 1, 0))


def test_field_axioms_and_inverses():
    rng = random.Random(1)
    for p, k in [(2, 3), (3, 2), (17, 3), (524287, 2)]:
        F = GFRing(p, k)
        for _ in range(25):
            a = F.random_element(rng)
            b = F.random_element(rng)
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(F.add(a, b), b) == a
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one
                assert F.pow(a, -1) == F.inv(a)
    with pytest.raises(ZeroDivisionError):
        GFRing(3, 2).inv(GFRing(3, 2).zero)


def test_multiplicative_order_divides_group_order():
    # Lagrange: a^(q-1) = 1 for all nonzero a
    rng = random.Random(2)
    F = GFRing(17, 3)
    q = F.cardinality
    for _ in range(20):
        a = F.random_element(rng)
        if F.is_zero(a):
            continue
        assert F.pow(a, q - 1) == F.one


def test_frobenius_and_pth_root():
    rng = random.Random(3)
    F = GFRing(3, 4)
    for _ in range(20):
        a = F.random_element(rng)
        frob = F.pow(a, 3)
        assert F.pth_root(frob) == a


def test_generator_satisfies_min_poly():
    F = GFRing(17, 3)
    t = F.generator()
    # evaluate the min poly at t inside the field: must vanish
    acc = F.zero
    for i, c in enumerate(F.min_poly.coeffs):
        acc = F.add(acc, F.mul(F.of(c), F.pow(t, i)))
    assert F.is_zero(acc)


def test_explicit_min_poly_accepted_and_validated():
    Z2 = ZpRing(2)
    good = up._poly(Z2, [1, 1, 0, 1])  # x^3 + x + 1
    F = GFRing(2, 3, min_poly=good)
    assert F.min_poly == good
    bad = up._poly(Z2, [0, 0, 0, 1])  # x^3: reducible
    with pytest.raises(ValueError):
        GFRing(2, 3, min_poly=bad)
    with pytest.raises(ValueError):
        GFRing(2, 4, min_poly=good)  # degree mismatch


def test_seed_determinism():
    a = GFRing(17, 5, seed=9)
    b = GFRing(17, 5, seed=9)
    c = GFRing(17, 5, seed=10)
    assert a.min_poly == b.min_poly
    assert a == b
    # a different seed may pick another min poly; equality tracks it
    if c.min_poly != a.min_poly:
        assert a != c


def test_polynomials_over_gf():
    # the field composes with the univariate layer
    rng = random.Random(4)
    F = GFRing(2, 3)
    g = up.uni_random(F, 3, rng)
    a = up.uni_mul(g, up.uni_random(F, 4, rng))
    b = up.uni_mul(g, up.uni_random(F, 5, rng))
    h = up.uni_gcd(a, b)
    assert (up.uni_divrem(a, h)[1]).is_zero()
    assert (up.uni_divrem(b, h)[1]).is_zero()
    assert h.degree >= g.degree


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_squarefree_and_factor_take_pth_roots_outside_the_prime_field(p, k):
    # g(x)^p has zero derivative; its p-th root has coefficients t, t + 1
    # that only the field's own inverse Frobenius recovers
    F = GFRing(p, k, seed=1)
    t = F.generator()
    g = up._poly(F, [t, F.add(t, F.one), F.one])
    h = up._poly(F, [F.one, F.one])
    f = up.uni_mul(up.uni_pow(g, p), h)
    lead, parts = up.uni_squarefree(f)
    rebuilt = lead
    for part, m in parts:
        rebuilt = up.uni_mul(rebuilt, up.uni_pow(part, m))
    assert rebuilt == f
    assert any(m % p == 0 for _, m in parts)
    unit, facs = factor_unipoly(up.UniRing(F, "x"), f)
    rebuilt = unit
    for fac, m in facs:
        rebuilt = up.uni_mul(rebuilt, up.uni_pow(fac, m))
    assert rebuilt == f


def test_pth_root_needs_a_finite_field():
    assert ZpRing(7).pth_root(5) == 5
    with pytest.raises(UnsupportedRingError):
        ZZ.pth_root(4)
