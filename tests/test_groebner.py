"""Groebner basis engine tests.

Frozen expected bases were cross-checked against an independent computer
algebra system (identical up to the monic normalization; that system
normalizes by the lex leading coefficient regardless of the active order).
"""

import random

import pytest

from ringkit import rings
from ringkit.bench import cyclic, katsura
from ringkit.errors import UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.groebner import (
    Ideal,
    groebner_basis,
    ideal_membership,
    ideal_reduce,
    is_groebner_basis,
)
from ringkit.multipoly import MultiPoly, MultiRing, multi_divrem


def _terms(f):
    return dict(f.terms)


def _rand_poly(R, rng, max_deg=4, n_terms=4):
    K = R.cring
    n = len(R.vars)
    terms = {}
    for _ in range(n_terms):
        e = [0] * n
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            e[rng.randrange(n)] += 1
        if K.cardinality is None:
            c = rings.Rational(rng.randint(-6, 6), rng.randint(1, 4))
            if c.num == 0:
                continue
            c = rings.QQ.make(c.num, c.den)
        else:
            c = K.of(rng.randint(1, int(K.cardinality) - 1))
        terms[tuple(e)] = c
    return MultiPoly(R, terms)


def _rand_system(K, rng):
    n = rng.choice([2, 3])
    R = MultiRing(K, ("x", "y", "z")[:n], rng.choice(["LEX", "GRLEX", "GREVLEX"]))
    gens = []
    while len(gens) < rng.randint(2, 3):
        f = _rand_poly(R, rng)
        if not f.is_zero():
            gens.append(f)
    return R, gens


# ------------------------------------------------------------------ goldens


def test_linear_collapse_over_rationals():
    R = MultiRing(rings.QQ, ("x", "y", "z"), "GREVLEX")
    x, y, z = R.gens()
    gb = groebner_basis([x + y + z, x - y - z, y * y - z * z])
    assert gb == [y + z, x]


def test_single_generator_is_its_own_basis():
    R = MultiRing(rings.QQ, ("x", "y", "z"), "GREVLEX")
    x, _, _ = R.gens()
    assert groebner_basis([x]) == [x]


def test_triangular_pair_passes_buchberger_criterion():
    R = MultiRing(rings.ZpRing(17), ("x", "y"), "LEX")
    x, y = R.gens()
    assert is_groebner_basis([x + y, y])


def test_raw_generators_fail_buchberger_criterion():
    R = MultiRing(rings.ZpRing(17), ("x", "y"), "GREVLEX")
    x, y = R.gens()
    gens = [x * y - R.one, x * x]
    assert not is_groebner_basis(gens)
    # the ideal is in fact the whole ring
    assert groebner_basis(gens) == [R.one]


def test_cyclic3_mod17_frozen():
    K = rings.ZpRing(17)
    R = MultiRing(K, ("x0", "x1", "x2"), "GREVLEX")
    x0, x1, x2 = R.gens()
    gb = groebner_basis([x0 + x1 + x2, x0 * x1 + x1 * x2 + x2 * x0,
                         x0 * x1 * x2 - R.one])
    assert [_terms(f) for f in gb] == [
        {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1},
        {(0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1},
        {(0, 0, 3): 1, (0, 0, 0): 16},
    ]
    assert is_groebner_basis(gb)


def test_katsura2_rationals_frozen():
    q = rings.QQ.make
    R = MultiRing(rings.QQ, ("u0", "u1", "u2"), "GREVLEX")
    u0, u1, u2 = R.gens()
    gens = [
        u0 * u0 + 2 * u1 * u1 + 2 * u2 * u2 - u0,
        2 * u0 * u1 + 2 * u1 * u2 - u1,
        u0 + 2 * u1 + 2 * u2 - R.one,
    ]
    gb = groebner_basis(gens)
    assert [_terms(f) for f in gb] == [
        {(1, 0, 0): q(1, 1), (0, 1, 0): q(2, 1), (0, 0, 1): q(2, 1),
         (0, 0, 0): q(-1, 1)},
        {(0, 1, 1): q(1, 1), (0, 0, 2): q(6, 5), (0, 1, 0): q(-1, 10),
         (0, 0, 1): q(-2, 5)},
        {(0, 2, 0): q(1, 1), (0, 0, 2): q(-3, 5), (0, 1, 0): q(-1, 5),
         (0, 0, 1): q(1, 5)},
        {(0, 0, 3): q(1, 1), (0, 0, 2): q(-79, 210), (0, 1, 0): q(1, 30),
         (0, 0, 1): q(1, 70)},
    ]


def test_circle_meets_line_lex_frozen():
    # LEX runs the sugar selection path
    q = rings.QQ.make
    R = MultiRing(rings.QQ, ("x", "y"), "LEX")
    x, y = R.gens()
    gb = groebner_basis([x * x + y * y - R.one, x - y])
    assert [_terms(f) for f in gb] == [
        {(0, 2): q(1, 1), (0, 0): q(-1, 2)},
        {(1, 0): q(1, 1), (0, 1): q(-1, 1)},
    ]


# --------------------------------------------------------------- invariants


def _assert_reduced(basis):
    ring = basis[0].ring
    key = ring.order.key
    leads = [f.leading_exponent() for f in basis]
    assert leads == sorted(leads, key=key)
    for f in basis:
        assert f.ring.cring.is_one(f.lc())
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i == j:
                continue
            assert not all(a <= b for a, b in zip(li, lj)), "leads not minimal"
        for g in basis:
            for e in g.terms:
                if e == g.leading_exponent():
                    continue
                assert not all(a <= b for a, b in zip(li, e)), "tail reducible"


def test_named_systems_generators_reduce_to_zero():
    K = rings.ZpRing(1000003)
    for build, n in ((katsura, 3), (cyclic, 4)):
        _, eqs = build(n, K)
        ideal = Ideal(eqs)
        assert all(ideal.contains(f) for f in eqs)
        _assert_reduced(ideal.basis)
        assert is_groebner_basis(ideal.basis)


def test_criteria_free_buchberger_agrees_with_gebauer_moller():
    rng = random.Random(20240817)
    for trial in range(25):
        K = rings.QQ if trial % 3 == 0 else rings.ZpRing(101)
        _, gens = _rand_system(K, rng)
        fast = groebner_basis(gens)
        plain = groebner_basis(gens, criteria=False)
        assert fast == plain, "criteria changed the basis on trial %d" % trial


def test_normal_form_survives_generator_shuffle():
    rng = random.Random(7)
    for trial in range(10):
        K = rings.ZpRing(101)
        R, gens = _rand_system(K, rng)
        ideal = Ideal(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        other = Ideal(shuffled)
        assert ideal.basis == other.basis
        f = _rand_poly(R, rng, max_deg=5, n_terms=6)
        assert ideal.reduce(f) == other.reduce(f)


def test_reduce_agrees_with_multivariate_division():
    rng = random.Random(11)
    for trial in range(10):
        K = rings.ZpRing(101) if trial % 2 else rings.QQ
        R, gens = _rand_system(K, rng)
        ideal = Ideal(gens)
        f = _rand_poly(R, rng, max_deg=5, n_terms=6)
        _, rem = multi_divrem(f, ideal.basis)
        assert ideal.reduce(f) == rem


def test_reduce_is_idempotent_and_detects_members():
    rng = random.Random(3)
    K = rings.ZpRing(101)
    R, gens = _rand_system(K, rng)
    ideal = Ideal(gens)
    f = _rand_poly(R, rng, max_deg=5, n_terms=6)
    r = ideal.reduce(f)
    assert ideal.reduce(r) == r
    combo = R.zero
    for g in gens:
        combo = combo + _rand_poly(R, rng, max_deg=2, n_terms=2) * g
    assert ideal_membership(combo, ideal)
    assert ideal_reduce(combo, ideal).is_zero()


def test_membership_distinguishes_non_members():
    R = MultiRing(rings.QQ, ("x", "y", "z"), "GREVLEX")
    x, y, z = R.gens()
    ideal = Ideal([x + y + z, x - y - z, y * y - z * z])
    assert ideal.contains(x)
    assert ideal.contains(y + z)
    assert not ideal.contains(y)
    assert not ideal.contains(R.one)


def test_galois_field_coefficients():
    K = GFRing(2, 3, "t")
    t = K.generator()
    R = MultiRing(K, ("x", "y"), "GREVLEX")
    x, y = R.gens()
    gens = [x * x + R.from_coeff(t) * y, y * y + x]
    gb = groebner_basis(gens)
    assert is_groebner_basis(gb)
    ideal = Ideal(gens)
    assert all(ideal.contains(f) for f in gens)
    assert groebner_basis(gens, criteria=False) == gb


def test_order_override_builds_shadow_ring():
    R = MultiRing(rings.QQ, ("x", "y"), "GREVLEX")
    x, y = R.gens()
    gens = [x * x + y * y - R.one, x - y]
    lex_gb = groebner_basis(gens, order="LEX")
    assert lex_gb[0].ring.order.name == "LEX"
    L = MultiRing(rings.QQ, ("x", "y"), "LEX")
    native = groebner_basis([MultiPoly(L, dict(f.terms)) for f in gens])
    assert [_terms(f) for f in lex_gb] == [_terms(f) for f in native]


# ------------------------------------------------------------------- errors


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        groebner_basis([])


def test_zero_generator_rejected():
    R = MultiRing(rings.QQ, ("x", "y"), "GREVLEX")
    with pytest.raises(ValueError):
        groebner_basis([R.zero, R.one])


def test_integer_coefficients_rejected():
    R = MultiRing(rings.ZZ, ("x", "y"), "GREVLEX")
    x, y = R.gens()
    with pytest.raises(UnsupportedRingError):
        groebner_basis([x + y])


def test_order_override_ideal_accepts_generator_ring():
    R = MultiRing(rings.QQ, ("x", "y"), "GREVLEX")
    x, y = R.gens()
    gens = [x * x + y * y - R.one, x - y]
    ideal = Ideal(gens, order="LEX")
    L = ideal.ring
    assert L.order.name == "LEX"
    assert all(ideal.contains(g) for g in gens)
    assert ideal_membership(x * y - y * y, ideal)
    assert not ideal.contains(x)
    nf = ideal.reduce(x * x + x)
    assert nf.ring == L
    assert nf == ideal.reduce(MultiPoly(L, dict((x * x + x).terms)))
    assert ideal_reduce(x, ideal) == L.var("y")


def test_reduce_rejects_foreign_polynomials():
    R = MultiRing(rings.ZpRing(17), ("x", "y"), "GREVLEX")
    other = MultiRing(rings.ZpRing(17), ("x", "y"), "LEX")
    x, y = R.gens()
    ideal = Ideal([x + y])
    with pytest.raises(ValueError):
        ideal.reduce(other.var("x"))
