import random
import sys

import pytest

from ringkit import bench, multifactor
from ringkit.errors import RetryBudgetError, UnsupportedRingError
from ringkit.multifactor import factor_multipoly
from ringkit.multipoly import (
    LEX,
    MultiPoly,
    MultiRing,
    lc_in,
    multi_divrem,
    multi_mul,
    multi_pow,
    multi_subs,
)
from ringkit.rings import QQ, ZZ, Rational, ZpRing


def _rebuild(ring, unit, parts):
    out = unit
    for g, e in parts:
        out = multi_mul(out, multi_pow(g, e))
    return out


def _sparse(ring, rng, terms, max_exp):
    K = ring.cring
    out = {}
    while len(out) < terms:
        e = tuple(rng.randrange(max_exp + 1) for _ in range(len(ring.vars)))
        c = K.random_element(rng) if K.is_finite else K.of(rng.randrange(-30, 31) or 1)
        if not K.is_zero(c):
            out[e] = c
    return MultiPoly(ring, out)


def test_difference_of_squares_zp():
    R = MultiRing(ZpRing(17), ("x", "y"))
    x, y = R.gens()
    f = x * x - y * y
    unit, parts = factor_multipoly(R, f)
    assert {g for g, _ in parts} == {x + y, x - y}
    assert _rebuild(R, unit, parts) == f


def test_difference_of_squares_z():
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = x * x - y * y
    unit, parts = factor_multipoly(R, f)
    assert {g for g, _ in parts} == {x - y, x + y}
    assert _rebuild(R, unit, parts) == f


def test_sign_goes_to_unit():
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    unit, parts = factor_multipoly(R, -(x + y))
    assert unit == -R.one
    assert parts == [(x + y, 1)]


def test_monomial_content_and_integer_content():
    # 6*x^2*y*(x + y): integer primes and bare variables come out on their own
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = 6 * x * x * y * (x + y)
    unit, parts = factor_multipoly(R, f)
    got = {(g, e) for g, e in parts}
    assert got == {(R.of(2), 1), (R.of(3), 1), (x, 2), (y, 1), (x + y, 1)}
    assert _rebuild(R, unit, parts) == f
    # bare monomials: stripping the monomial leaves only a constant
    for K in (ZZ, QQ, ZpRing(101)):
        R = MultiRing(K, ("x", "y"))
        x, y = R.gens()
        # the integer content 3 is a factor over Z and part of the unit over a field
        content = {(R.of(3), 1)} if K == ZZ else set()
        for f, want in [
            (x, {(x, 1)}),
            (-3 * x, {(x, 1)} | content),
            (x * x * y, {(x, 2), (y, 1)}),
        ]:
            unit, parts = factor_multipoly(R, f)
            assert set(parts) == want
            assert unit.is_constant()
            assert _rebuild(R, unit, parts) == f


def test_multiplicity_from_squarefree_split():
    # (3x + 2y + 1)^2 (x - y) keeps its exponent structure
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    inner = 3 * x + 2 * y + R.one
    f = multi_mul(multi_pow(inner, 2), x - y)
    unit, parts = factor_multipoly(R, f)
    assert {(g, e) for g, e in parts} == {(x - y, 1), (inner, 2)}
    assert _rebuild(R, unit, parts) == f
    # irreducible factors (each of degree 1 in some variable, and primitive)
    # raised to planted powers, some of them equal, over Z and Zp
    for K in (ZZ, ZpRing(1000003)):
        R = MultiRing(K, ("x", "y", "z"))
        x, y, z = R.gens()
        one = R.one
        irreducible = [x + 2 * y + one, x * y + 3 * one, y * y + x + 5 * one, x * z - y + 2 * one]
        for mults in [(1, 2, 3, 4), (3, 3, 1, 1), (2, 1, 2, 1), (4, 1, 1, 2)]:
            f = 3 * one if K == ZZ else one
            for g, m in zip(irreducible, mults):
                f = multi_mul(f, multi_pow(g, m))
            unit, parts = factor_multipoly(R, f)
            assert _rebuild(R, unit, parts) == f
            want = {g: m for g, m in zip(irreducible, mults)}
            if K == ZZ:
                want[3 * one] = 1
            assert dict(parts) == want


def test_squarefree_input_is_not_divided_by_itself(monkeypatch):
    # a squarefree f leaves the squarefree split whole: no f / f division
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = multi_mul(x + 2 * y + R.one, x * y + 3 * R.one)
    divisors = []
    exact_div = multifactor.multi_exact_div

    def recording(a, b):
        divisors.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(multifactor, "multi_exact_div", recording)
    unit, parts = factor_multipoly(R, f)
    assert _rebuild(R, unit, parts) == f
    assert f not in divisors


def test_three_way_product_over_z():
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = multi_mul(multi_mul(x + y + R.one, x - y + 2 * R.one), x * y + 3 * R.one)
    unit, parts = factor_multipoly(R, f)
    assert len(parts) == 3
    assert _rebuild(R, unit, parts) == f


def test_irreducible_stays_whole_over_z():
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = x * x + y * y + R.one
    unit, parts = factor_multipoly(R, f)
    assert unit == R.one
    assert parts == [(f, 1)]


def test_product_plus_one_is_irreducible():
    R = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = R.gens()
    f = multi_mul(multi_mul(x + y, y + z), x + z) + R.one
    unit, parts = factor_multipoly(R, f)
    assert parts == [(f, 1)]


def test_quadratic_extension_shape_mod_17():
    # x^2 + (y + 5) cannot split: a root would need y-degree 1/2
    R = MultiRing(ZpRing(17), ("x", "y"))
    x, y = R.gens()
    quad = x * x + y + 5 * R.one
    f = multi_mul(x + 2 * y, quad)
    unit, parts = factor_multipoly(R, f)
    assert {g for g, _ in parts} == {x + 2 * y, quad}
    assert _rebuild(R, unit, parts) == f


def test_embedded_univariate_routes_through():
    R = MultiRing(ZpRing(524287), ("x", "y"))
    x, y = R.gens()
    unit, parts = factor_multipoly(R, x * x - R.one)
    assert {g for g, _ in parts} == {x + R.one, x - R.one}


def test_unit_constant_input():
    R = MultiRing(ZpRing(17), ("x", "y"))
    unit, parts = factor_multipoly(R, 5 * R.one)
    assert parts == []
    assert unit == 5 * R.one


def test_small_modulus_rejected():
    R = MultiRing(ZpRing(5), ("x", "y"))
    x, y = R.gens()
    f = multi_pow(x, 3) * multi_pow(y, 3) + x + y
    with pytest.raises(UnsupportedRingError):
        factor_multipoly(R, f)


def test_rational_coefficients_fold_into_unit():
    R = MultiRing(QQ, ("x", "y"))
    x, y = R.gens()
    half = R.of(Rational(1, 2))
    third = R.of(Rational(1, 3))
    f = multi_mul(multi_mul(half, x) + y, x - multi_mul(third, y))
    unit, parts = factor_multipoly(R, f)
    assert len(parts) == 2
    for g, _ in parts:
        assert g.lc() == Rational(1, 1)
    assert _rebuild(R, unit, parts) == f


def test_seed_reproducibility():
    rng = random.Random(42)
    R = MultiRing(ZpRing(524287), ("x", "y", "z"))
    f = multi_mul(_sparse(R, rng, 5, 2), _sparse(R, rng, 5, 2))
    a = factor_multipoly(R, f, seed=9)
    b = factor_multipoly(R, f, seed=9)
    assert a == b


@pytest.mark.parametrize("seed", range(6))
def test_random_products_multiply_back_zp(seed):
    rng = random.Random(300 + seed)
    R = MultiRing(ZpRing(524287), ("x", "y", "z"))
    f = multi_mul(multi_mul(_sparse(R, rng, 6, 3), _sparse(R, rng, 6, 3)), _sparse(R, rng, 4, 2))
    unit, parts = factor_multipoly(R, f, seed=seed)
    assert sum(e for g, e in parts if not g.is_constant()) >= 3
    assert _rebuild(R, unit, parts) == f


@pytest.mark.parametrize("seed", range(4))
def test_random_products_multiply_back_z(seed):
    rng = random.Random(700 + seed)
    R = MultiRing(ZZ, ("x", "y", "z"))
    f = multi_mul(multi_mul(_sparse(R, rng, 6, 3), _sparse(R, rng, 6, 3)), _sparse(R, rng, 4, 2))
    unit, parts = factor_multipoly(R, f, seed=seed)
    assert _rebuild(R, unit, parts) == f


def test_prime_field_past_the_machine_word():
    # p = 2^89 - 1: residues are plain Python ints, so no word-size limit
    rng = random.Random(89)
    R = MultiRing(ZpRing(2**89 - 1), ("x", "y", "z"))
    f = multi_mul(multi_mul(_sparse(R, rng, 4, 2), _sparse(R, rng, 4, 2)), _sparse(R, rng, 3, 2))
    unit, parts = factor_multipoly(R, f, seed=1)
    assert sum(e for g, e in parts if not g.is_constant()) >= 3
    assert _rebuild(R, unit, parts) == f


def test_four_variables_small():
    rng = random.Random(11)
    R = MultiRing(ZpRing(524287), ("x", "y", "z", "w"))
    f = multi_mul(_sparse(R, rng, 5, 2), _sparse(R, rng, 5, 2))
    unit, parts = factor_multipoly(R, f, seed=3)
    assert _rebuild(R, unit, parts) == f
    assert sum(e for g, e in parts if not g.is_constant()) >= 2


def test_ring_method_matches_function():
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    f = x * x - y * y
    assert R.factor(f) == factor_multipoly(R, f)


def _record_lifts(monkeypatch, main=0):
    """Every _run_levels call whose main variable has index `main` as
    (order, r, target, lcs, ctx), and every _lc_parts result as (sU, P).
    L has no main variable, so the lifts that factor L are not recorded."""
    lifts, parts = [], []
    run_levels, lc_parts = multifactor._run_levels, multifactor._lc_parts

    def recording(Fw, lcs, m, order, alpha, uhat, p):
        ctx = run_levels(Fw, lcs, m, order, alpha, uhat, p)
        if m == main:
            lifts.append((list(order), len(uhat), Fw, lcs, ctx))
        return ctx

    def recording_parts(*args):
        out = lc_parts(*args)
        parts.append(out)
        return out

    monkeypatch.setattr(multifactor, "_run_levels", recording)
    monkeypatch.setattr(multifactor, "_lc_parts", recording_parts)
    return lifts, parts


def _in(R, f):
    """f mapped into R, coefficient by coefficient."""
    return MultiPoly(R, {e: R.cring.of(int(c)) for e, c in f.terms.items()})


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_scout_regroups_image_factors_over_z(seed, monkeypatch):
    # at these seeds the image splits into 3 factors and the bivariate scout
    # groups them into 2 before the full lift; the product is monic in x,
    # so no other scout runs and both groups lift with lc 1
    R = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = R.gens()
    a, b = x * x - y * z**3, x + y**3 + z**3
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, a * b, seed=seed)
    assert [(order, r) for order, r, *_ in lifts] == [([1], 3), ([1, 2], 2)]
    assert parts == [(R.one, [R.one, R.one])]
    _, _, Fw, lcs, ctx = lifts[-1]
    assert Fw == _in(Fw.ring, a * b)
    assert all(c == Fw.ring.one for c in lcs)
    assert ctx.bounds == {1: 4, 2: 6}
    assert [e for _, e in parts_out] == [1, 1]
    assert {g for g, _ in parts_out} == {R.normalize_unit(a)[1], R.normalize_unit(b)[1]}
    assert _rebuild(R, unit, parts_out) == a * b


@pytest.mark.parametrize("seed", [0, 2, 4, 5])
def test_level_truncation_changes_error_terms_zp(seed, monkeypatch):
    # y + x*w + 3 is the content in z; the irreducible quadratic splits in
    # its image, so its three-level lift fails and truncation must act.
    # The quadratic is monic in x: the lc step finds sU = 1, so the full
    # lift is of the quadratic itself, with lc 1 for both image factors
    R = MultiRing(ZpRing(1000003), ("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    a, b = x * x - y * y * z**3 - w * w * y * y, x * w + y + R.of(3)
    changed = []
    in_level = []
    level, mod_lifted = multifactor._level, multifactor._mod_lifted

    def tracked_level(*args):
        in_level.append(True)
        try:
            return level(*args)
        finally:
            in_level.pop()

    def tracked_mod(f, pairs, work):
        g = mod_lifted(f, pairs, work)
        if in_level and g != f:
            changed.append(seed)
        return g

    monkeypatch.setattr(multifactor, "_level", tracked_level)
    monkeypatch.setattr(multifactor, "_mod_lifted", tracked_mod)
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, a * b, seed=seed)
    assert changed
    assert [(order, r) for order, r, *_ in lifts] == [([1], 2), ([1, 2, 3], 2)]
    assert parts == [(R.one, [R.one, R.one])]
    _, _, Fw, lcs, ctx = lifts[-1]
    assert Fw == a and lcs == [R.one, R.one]
    assert ctx.bounds == {1: 2, 2: 3, 3: 2}
    assert [e for _, e in parts_out] == [1, 1]
    assert {g for g, _ in parts_out} == {R.normalize_unit(a)[1], R.normalize_unit(b)[1]}
    assert _rebuild(R, unit, parts_out) == a * b


@pytest.mark.parametrize("K", [ZpRing(1000003), ZZ], ids=["Zp", "Z"])
def test_lift_with_five_factors_and_high_degree(K, monkeypatch):
    # five non-monic factors whose lcs y + i + 1 the first scout tells
    # apart: the full lift runs on F itself, of degree 10 in y and 9 in z,
    # with each factor's own lc; the packed fields of the lifted variables
    # hold r * D_v, and over Z the lift runs modulo a large prime power
    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    lcs = [y + R.of(i + 1) for i in range(5)]
    facs = [lcs[i] * x + y**2 * z + R.of(i) * z**2 + R.of(1000 * i + 7) for i in range(5)]
    f = R.one
    for g in facs:
        f = f * g
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f, seed=0)
    # the scout and one full lift, at the first point; no other scout
    assert [(order, r) for order, r, *_ in lifts] == [([1], 5), ([1, 2], 5)]
    (sU, P), = parts
    assert sU == R.one and set(P) == set(lcs)
    order, r, Fw, got, ctx = lifts[-1]
    assert Fw == _in(Fw.ring, f)
    assert set(got) == {_in(Fw.ring, c) for c in lcs}
    assert ctx.bounds == {1: f.degree(1), 2: f.degree(2)} and min(ctx.bounds.values()) >= 8
    for v, D in ctx.bounds.items():
        assert ctx.lay.bits[v] >= (r * D).bit_length()
    if K == ZZ:
        assert ctx.mod.bit_length() > 64
    assert {g for g, _ in parts_out} == {R.normalize_unit(g)[1] for g in facs}
    assert _rebuild(R, unit, parts_out) == f


@pytest.mark.parametrize("K", [ZpRing(1000003), ZZ], ids=["Zp", "Z"])
def test_scout_bound_does_not_grow_with_image_factor_count(K, monkeypatch):
    # the S1 spec at seed 0, whose main variable is x2; over Zp its image
    # splits into 7 factors.  The first scout lifts F_v itself, with lc L_v
    # on factor 0 and the others monic, so its bound is deg_v F_v and the
    # packed field of x_v holds r * D_v, whatever r is
    attempts = []
    attempt = multifactor._attempt

    def recording(F, m, rng, k):
        attempts.append(F)
        return attempt(F, m, rng, k)

    monkeypatch.setattr(multifactor, "_attempt", recording)
    lifts, _ = _record_lifts(monkeypatch, main=1)
    rows, _ = bench.bench_run(bench.BenchSpec("factor-sparse", K, 3, 8, ("uniform", 0, 4)))
    assert [row["verified"] for row in rows] == [True, True]
    [v], r, Fw, lcs, ctx = lifts[0]
    assert r == (7 if K != ZZ else 3)
    # F is the squarefree primitive part that the first scout belongs to
    rest = {u: a for u, a in ctx.alpha.items() if u != v}
    Fv = multi_subs(_in(Fw.ring, attempts[0]), rest)
    assert Fw == Fv
    assert ctx.bounds == {v: Fv.degree(v)}
    assert not lcs[0].is_constant()
    assert lcs == [lc_in(Fv, 1)] + [Fw.ring.one] * (r - 1)
    assert ctx.lay.bits[v] == (r * Fv.degree(v)).bit_length()


@pytest.mark.parametrize("K", [ZpRing(1000003), ZZ], ids=["Zp", "Z"])
def test_scout_candidate_without_the_lead_group(K, monkeypatch):
    # at y = 1, z = 2 the image of f1 is x^2 - 25 = (x - 5)(x + 5) and that
    # of f2 is 3x^2 + 2x + 18, irreducible over Z and mod p, so the scout
    # finds f2 first, as image factor 2 alone.  Factor 0 carries L_v = y + 2
    # and factor 2 is monic, so that candidate is f2 only once L_v is
    # multiplied in
    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = x**2 - y**4 - z**4 - R.of(8)
    f2 = (y + R.of(2)) * x**2 + z * x + y**4 + z**4 + R.one
    draw = multifactor._draw_alpha

    def forced(K, others, rng, attempt):
        if others == [1, 2]:
            return {1: K.one, 2: K.of(2)}
        return draw(K, others, rng, attempt)

    splits = []
    subset_split = multifactor._subset_split

    def recording(target, Gs, order, ctx, lead=None):
        out = subset_split(target, Gs, order, ctx, lead)
        splits.append((order, lead, [subset for subset, _ in out]))
        return out

    monkeypatch.setattr(multifactor, "_draw_alpha", forced)
    monkeypatch.setattr(multifactor, "_subset_split", recording)
    unit, parts = factor_multipoly(R, f1 * f2)
    assert {g for g, _ in parts} == {R.normalize_unit(f)[1] for f in (f1, f2)}
    assert _rebuild(R, unit, parts) == f1 * f2
    order, lead, subsets = splits[0]
    assert order == [1] and lead
    assert subsets == [(2,), (0, 1)]


@pytest.mark.parametrize("K", [ZpRing(1000003), ZZ], ids=["Zp", "Z"])
def test_lc_factor_in_the_second_lifted_variable_takes_a_scout(K, monkeypatch):
    # L = z^2 * (z + 1) has no y, so the first scout (in y) cannot place it;
    # one more scout in z assigns z^2 and z + 1 to their factors, and the
    # full lift runs on F itself with U = 1
    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = z**2 * x**2 + y * x + y**2 + z + R.of(2)
    f2 = (z + R.one) * x + y**2 + z**2 + R.of(3)
    f = f1 * f2
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f, seed=0)
    assert {g for g, _ in parts_out} == {f1, f2}
    assert _rebuild(R, unit, parts_out) == f
    assert [order for order, *_ in lifts[-3:]] == [[1], [2], [1, 2]]
    sU, P = parts[-1]
    assert sU == R.one and set(P) == {z**2, z + R.one}
    _, r, Fw, lcs, ctx = lifts[-1]
    assert r == 2 and Fw == _in(Fw.ring, f)
    assert ctx.bounds == {1: f.degree(1), 2: f.degree(2)}


def test_colliding_lc_images_stay_shared(monkeypatch):
    # at y = 0, z = 1 the images y + 1 of y + z and y + z^2 coincide, and
    # in z the images z and z^2 are not coprime: neither is assigned, so
    # U = L and the lift is the multiply-through one, with the same factors
    R = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = (y + z) * x + y + z**2 + R.of(5)
    f2 = (y + z**2) * x + y**2 + R.of(7) * z + R.of(2)
    f = f1 * f2
    draw = multifactor._draw_alpha

    def forced(K, others, rng, attempt):
        # only F's own attempts; factoring L draws as usual
        if others == [1, 2]:
            return {1: K.zero, 2: K.one}
        return draw(K, others, rng, attempt)

    monkeypatch.setattr(multifactor, "_draw_alpha", forced)
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f, seed=0)
    assert {g for g, _ in parts_out} == {R.normalize_unit(f1)[1], R.normalize_unit(f2)[1]}
    assert _rebuild(R, unit, parts_out) == f
    L = (y + z) * (y + z**2)
    assert parts == [(L, [R.one, R.one])]
    assert [order for order, *_ in lifts] == [[1], [2], [1, 2]]
    _, r, Fw, lcs, _ = lifts[-1]
    assert r == 2 and Fw == f * L and lcs == [L, L]


def test_lc_part_lost_to_image_content_waits_for_the_next_scout(monkeypatch):
    # at z = 1, f1 = (y + z) * x + y + 1 becomes (y + 1) * (x + 1): the
    # first scout's bivariate factor x + 1 has lost the lc y + 1 to its
    # content, so the multiplicities of y + z there add up to 0, not 1;
    # the scout in z (at y = 0, f1 = z * x + 1) assigns it
    R = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = (y + z) * x + y + R.one
    f2 = x + y**2 + z**2 + R.of(3)
    draw = multifactor._draw_alpha

    def forced(K, others, rng, attempt):
        if others == [1, 2]:
            return {1: K.zero, 2: K.one}
        return draw(K, others, rng, attempt)

    monkeypatch.setattr(multifactor, "_draw_alpha", forced)
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f1 * f2, seed=0)
    assert {g for g, _ in parts_out} == {f1, f2}
    assert _rebuild(R, unit, parts_out) == f1 * f2
    (sU, P), = parts
    assert sU == R.one and set(P) == {y + z, R.one}
    assert [order for order, *_ in lifts] == [[1], [2], [1, 2]]


def test_lc_that_cannot_be_factored_stays_shared(monkeypatch):
    # factoring L is only a means to smaller lifts: when it runs out of
    # points, L stays whole and the multiply-through lift still factors F
    R = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = (y + z) * x + y * z + 3
    f2 = (y - 2 * z) * x + y**2 + z + 1
    factor = multifactor.factor_multipoly

    def no_points(ring, f, seed=0):
        if f.degree(0) == 0:
            raise RetryBudgetError("no lucky evaluation point", multifactor._TRIES)
        return factor(ring, f, seed)

    monkeypatch.setattr(multifactor, "factor_multipoly", no_points)
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f1 * f2)
    assert {g for g, _ in parts_out} == {f1, f2}
    assert parts == [((y + z) * (y - 2 * z), [R.one, R.one])]
    assert lifts[-1][2] == _in(lifts[-1][2].ring, f1 * f2 * (y + z) * (y - 2 * z))


def test_non_monic_four_variables_over_z_with_integer_content(monkeypatch):
    # lc_x(F) = 6 * (y + w) * z: s = 6 splits as 3 * 2 between the factors,
    # and each lifted factor carries s / c_i until its content is removed
    R = MultiRing(ZZ, ("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    f1 = 3 * (y + w) * x + y * z**2 + w**2 + 5
    f2 = 2 * z * x + y**2 * z - w**3 + 7
    f = f1 * f2
    lifts, parts = _record_lifts(monkeypatch)
    for seed in range(3):
        unit, parts_out = factor_multipoly(R, f, seed=seed)
        assert {g for g, _ in parts_out} == {f1, f2}
        assert _rebuild(R, unit, parts_out) == f
        sU, P = parts[-1]
        assert sU == R.of(6) and set(P) == {y + w, z}
        assert [order for order, *_ in lifts[-3:]] == [[1], [2], [1, 2, 3]]
        # the scout in z lifts with lc L_z on one factor, the other monic
        z_lcs = lifts[-2][3]
        assert z_lcs[0] != z_lcs[1]
        assert lifts[-1][2] == _in(lifts[-1][2].ring, R.of(6) * f)


def test_lc_image_that_loses_degree_waits_for_its_own_scout(monkeypatch):
    # at z = 0 the image of y*z + 1 in y is the constant 1: the first scout
    # leaves it, and the scout in z (at y = 2, image 2z + 1) assigns it
    R = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = R.gens()
    f1 = (y * z + R.one) * x + y + z**2 + R.of(5)
    f2 = x + y**2 + z + R.of(2)
    draw = multifactor._draw_alpha

    def forced(K, others, rng, attempt):
        if others == [1, 2]:
            return {1: K.of(2), 2: K.zero}
        return draw(K, others, rng, attempt)

    monkeypatch.setattr(multifactor, "_draw_alpha", forced)
    lifts, parts = _record_lifts(monkeypatch)
    unit, parts_out = factor_multipoly(R, f1 * f2, seed=0)
    assert {g for g, _ in parts_out} == {f1, f2}
    assert _rebuild(R, unit, parts_out) == f1 * f2
    assert [order for order, *_ in lifts] == [[1], [2], [1, 2]]
    (sU, P), = parts
    assert sU == R.one and set(P) == {y * z + R.one, R.one}


def test_retry_budget_is_a_typed_arithmetic_error(monkeypatch):
    def unlucky(*args):
        raise multifactor._BadPoint()

    monkeypatch.setattr(multifactor, "_attempt", unlucky)
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    with pytest.raises(RetryBudgetError) as info:
        factor_multipoly(R, x * x + y + 1)
    assert info.value.attempts == multifactor._TRIES
    assert isinstance(info.value, ArithmeticError)


def test_layout_rejects_an_exponent_wider_than_its_field():
    # x_m = x gets room for degree 3, lifted y for r * D = 2 * 4, z none;
    # each field has one guard bit above, which never holds a value: past
    # the room packing raises, never wraps
    R = MultiRing(ZpRing(101), ("x", "y", "z"))
    x, y, z = R.gens()
    lay = multifactor._lift_layout(0, [1], (3, 4, 0), 2)
    assert lay.bits == (2, 4, 0)
    assert lay.shift == [0, 3, 8]
    ok = x**3 * y**15 + R.of(5)
    packed = lay.pack_terms(ok.terms)
    assert lay.unpack_terms(packed) == ok.terms
    assert lay.degree(packed, 1) == 15
    for bad in (x**4, y**16, z, x * y**40):
        with pytest.raises(OverflowError, match="packed budget"):
            lay.pack_terms((ok + bad).terms)


def test_mod_lifted_is_the_remainder_by_the_power_of_the_shift():
    # g = f mod (y - a)^(D + 1): f - g is a multiple of it and deg_y g <= D
    K = ZpRing(1000003)
    R = MultiRing(K, ("x", "y", "z"), order=LEX)
    y = R.var("y")
    rng = random.Random(4)
    lay = multifactor._lift_layout(0, [1, 2], (6, 6, 6), 3)
    ctx = multifactor._LiftCtx(lay, K, 0, [1, 2], {}, {}, [], [])
    for a, D in ((0, 2), (5, 3), (999_999, 1), (1234, 0)):
        f = _sparse(R, rng, 12, 6)
        g = multifactor._mod_lifted(lay.pack_terms(f.terms), [(1, a, D)], ctx)
        g = MultiPoly(R, lay.unpack_terms(g))
        assert g.degree(1) <= D
        power = (y - R.of(a)) ** (D + 1)
        assert multi_divrem(f - g, [power])[1].is_zero()


@pytest.mark.parametrize("K", [ZZ, ZpRing(1000003)])
def test_accepted_factors_are_not_divided_again(K, monkeypatch):
    # _subset_split divides each factor out of F to accept it, so the caller
    # takes the leftover constant from the leading coefficients instead of
    # dividing F by every factor a second time
    orig = multifactor.multi_exact_div
    callers = []

    def counting(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return orig(a, b)

    monkeypatch.setattr(multifactor, "multi_exact_div", counting)
    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    parts = [x * y + 2 * z + 3, x * x * z - y + 1, 3 * y * z + x + 5]
    f = multi_mul(multi_mul(multi_mul(parts[0], parts[1]), parts[2]), R.of(-6))
    unit, got = factor_multipoly(R, f)
    assert _rebuild(R, unit, got) == f
    assert {g for g, _ in got if g.degree() > 0} == {R.normalize_unit(g)[1] for g in parts}
    assert callers.count("_subset_split") >= 2
    assert "_prim_squarefree_into" not in callers


@pytest.mark.parametrize("K", [ZZ, ZpRing(1000003)])
def test_candidates_whose_lc_vanishes_at_the_second_point_still_certify(K, monkeypatch):
    # x is the main variable and alpha = (y, z) = (0, 0) at attempt 0, so
    # _subset_split's second point is (1, 2): each factor's lc in x, y - 1
    # and z - 2, vanishes there, every candidate image drops in degree, and
    # the cheap test is skipped in favour of the exact division
    orig = multifactor.univariate_image
    images = []

    def recording(g, m, values):
        u = orig(g, m, values)
        if sys._getframe(1).f_code.co_name == "passes_at_beta":
            images.append((m, values, g.degree(m), u.degree))
        return u

    monkeypatch.setattr(multifactor, "univariate_image", recording)
    R = MultiRing(K, ("x", "y", "z"))
    x, y, z = R.gens()
    parts = [(y - 1) * x + y * y * z + 5, (z - 2) * x + y * z * z - 3]
    f = multi_mul(parts[0], parts[1])
    unit, got = factor_multipoly(R, f)
    assert _rebuild(R, unit, got) == f
    assert {g for g, _ in got} == {R.normalize_unit(g)[1] for g in parts}
    assert images
    for m, values, dg, du in images:
        assert m == 0 and values == {1: K.of(1), 2: K.of(2)}
        assert du < dg
