import itertools
import math
import random

import pytest

from ringkit import modular, multigcd
from ringkit.errors import RetryBudgetError, RingkitError, UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.multigcd import gcd_many, multi_gcd
from ringkit.multipoly import (
    MultiPoly,
    MultiRing,
    multi_divides,
    multi_exact_div,
    multi_mul,
    multi_random,
    multi_scale,
    slot_sums,
    term_values,
    univariate_image,
)
from ringkit.rings import QQ, ZZ, FractionField, ZpRing
from ringkit.unipoly import UniRing, uni_eval, uni_gcd


@pytest.fixture
def rp():
    return MultiRing(ZpRing(524287), ("x", "y", "z"))


def _sparse(ring, rng, terms, max_exp):
    K = ring.cring
    out = {}
    while len(out) < terms:
        e = tuple(rng.randrange(max_exp + 1) for _ in range(len(ring.vars)))
        c = K.random_element(rng)
        if not K.is_zero(c):
            out[e] = c
    return MultiPoly(ring, out)


def test_known_gcd_zp(rp):
    x, y, z = rp.gens()
    g = x * y + x + 1
    a = multi_mul(x + y, g)
    b = multi_mul(y * z + 3, g)
    assert multi_gcd(a, b) == g


def test_content_only_gcd(rp):
    x, y, z = rp.gens()
    assert multi_gcd(x * y + x, y + 1) == y + 1


def test_coprime_returns_one(rp):
    x, y, z = rp.gens()
    g = x * y + x + 1
    a = multi_mul(x + y, g) + 1
    b = multi_mul(y * z + 3, g)
    assert multi_gcd(a, b) == rp.one


def test_monomial_fast_path(rp):
    x, y, z = rp.gens()
    assert multi_gcd(x * y * z, x * y + x * z) == x
    assert multi_gcd(3 * x * x * y, 5 * x * y * y) == x * y


def test_edge_cases(rp):
    x, y, z = rp.gens()
    a = 3 * x + y
    assert multi_gcd(rp.zero, a) == multi_scale(a, rp.cring.inv(3))
    assert multi_gcd(a, rp.zero) == multi_gcd(rp.zero, a)
    assert multi_gcd(rp.zero, rp.zero) == rp.zero
    assert multi_gcd(rp.of(5), a) == rp.one
    with pytest.raises(ValueError):
        multi_gcd(a, MultiRing(ZpRing(17), ("x", "y", "z")).one)


def _coprime(u, v, rng):
    """True when uni_gcd alone shows that no nonconstant polynomial divides
    both u and v: for each variable in which both have positive degree, a
    point for the other variables keeps both degrees and gives images with
    a constant gcd.  A common factor of positive degree in x_i keeps its
    degree in every such image, so it can never pass."""
    ring = u.ring
    K = ring.cring
    n = len(ring.vars)
    for i in range(n):
        du, dv = u.degree(i), v.degree(i)
        if du <= 0 or dv <= 0:
            continue
        for _ in range(20):
            point = {j: K.random_element(rng) for j in range(n) if j != i}
            ui, vi = univariate_image(u, i, point), univariate_image(v, i, point)
            if ui.degree == du and vi.degree == dv and uni_gcd(ui, vi).degree == 0:
                break
        else:
            return False
    return True


def _assert_is_gcd(a, b, g, got, rng):
    """got divides a and b, the planted g divides got, and the cofactors
    are coprime (over Z their integer contents too)."""
    assert multi_divides(got, a) and multi_divides(got, b)
    assert multi_divides(g, got)
    ca, cb = multi_exact_div(a, got), multi_exact_div(b, got)
    assert _coprime(ca, cb, rng)
    if ca.ring.cring == ZZ:
        assert math.gcd(*ca.terms.values(), *cb.terms.values()) == 1


def test_zippel_gcd_is_certified():
    # GF(17^2) has no coeff_modulus, so it runs the generic field paths
    for K, trials, max_exp in ((ZpRing(524287), 30, 3), (GFRing(17, 2), 10, 2)):
        ring = MultiRing(K, ("x", "y", "z"))
        rng = random.Random(42)
        for t in range(trials):
            f1 = multi_random(ring, rng, terms=rng.randrange(2, 6), max_exp=max_exp)
            f2 = multi_random(ring, rng, terms=rng.randrange(2, 6), max_exp=max_exp)
            g = multi_random(ring, rng, terms=rng.randrange(2, 6), max_exp=max_exp)
            if f1.is_zero() or f2.is_zero() or g.is_zero():
                continue
            a, b = multi_mul(f1, g), multi_mul(f2, g)
            _assert_is_gcd(a, b, g, multi_gcd(a, b, seed=t), rng)
            if not g.is_constant():
                # the certificate rejects cofactors with a common factor
                assert not _coprime(a, b, rng)


def test_zippel_gcd_is_certified_over_z():
    ring = MultiRing(ZZ, ("x", "y"))
    rng = random.Random(9)
    for t in range(10):
        f1 = multi_random(ring, rng, terms=3, max_exp=3)
        f2 = multi_random(ring, rng, terms=3, max_exp=3)
        g = multi_random(ring, rng, terms=3, max_exp=3)
        if f1.is_zero() or f2.is_zero() or g.is_zero():
            continue
        a, b = multi_mul(f1, g), multi_mul(f2, g)
        _assert_is_gcd(a, b, g, multi_gcd(a, b, seed=t), rng)


def test_planted_divisor_is_recovered():
    ring = MultiRing(ZpRing(524287), ("x", "y", "z"))
    K = ring.cring
    rng = random.Random(7)
    for t in range(20):
        f1 = multi_random(ring, rng, terms=4, max_exp=3)
        f2 = multi_random(ring, rng, terms=4, max_exp=3)
        g = multi_random(ring, rng, terms=4, max_exp=3)
        if f1.is_zero() or f2.is_zero() or g.is_zero():
            continue
        a, b = multi_mul(f1, g), multi_mul(f2, g)
        got = multi_gcd(a, b, seed=t)
        monic_g = multi_scale(g, K.inv(g.lc()))
        assert multi_divides(monic_g, got)
        assert multi_divides(got, a) and multi_divides(got, b)


def test_gcd_over_z_keeps_content_and_sign():
    ring = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = ring.gens()
    g = 6 * x * y - 4 * x + 2
    a = multi_mul(3 * x + y, g)
    b = multi_mul(y * z - 5, g)
    got = multi_gcd(a, b)
    assert got == g
    assert multi_gcd(multi_scale(a, -1), multi_scale(b, -1)) == g
    assert multi_gcd(ring.of(12), ring.of(18)).constant() == 6
    assert multi_gcd(4 * x + 6, ring.of(10)).constant() == 2


def test_gcd_over_q_is_monic():
    ring = MultiRing(QQ, ("x", "y"))
    x, y = ring.gens()
    g = multi_scale(x * y + 1, QQ.make(1, 2))
    a = multi_mul(x + y, g)
    b = multi_mul(x - y, g)
    assert multi_gcd(a, b) == x * y + 1


def test_gcd_over_extension_field():
    F = GFRing(2, 3)
    ring = MultiRing(F, ("x", "y"))
    x, y = ring.gens()
    c = ring.from_coeff(F.generator())
    g = x * y + c
    a = multi_mul(x + y, g)
    b = multi_mul(y + c, g)
    got = multi_gcd(a, b)
    assert multi_divides(got, a) and multi_divides(got, b)
    assert multi_divides(g, got)


def test_gcd_many():
    ring = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = ring.gens()
    polys = [multi_mul(x + 1, 2 * y), multi_mul(x + 1, 4 * z), multi_mul(x + 1, 6 * x)]
    assert gcd_many(polys) == multi_scale(x + 1, 2)
    assert gcd_many([ring.zero, 3 * x, ring.zero]) == 3 * x
    assert gcd_many([ring.zero]) == ring.zero
    assert gcd_many([x, y, z]) == ring.one
    with pytest.raises(ValueError):
        gcd_many([])


def test_five_var_sparse_product():
    ring = MultiRing(ZpRing(524287), ("a", "b", "c", "d", "e"))
    rng = random.Random(77)
    u = _sparse(ring, rng, 20, 10)
    w = _sparse(ring, rng, 20, 10)
    g = _sparse(ring, rng, 20, 10)
    a, b = multi_mul(u, g), multi_mul(w, g)
    got = multi_gcd(a, b, seed=3)
    assert multi_divides(got, a) and multi_divides(got, b)
    assert got.degree() >= g.degree()


def test_unsupported_coefficient_ring():
    inner = UniRing(ZpRing(17), "t")
    K = FractionField(inner)
    ring = MultiRing(K, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(UnsupportedRingError):
        multi_gcd(x * y + 1, x + y)


# ------------------------------------------- geometric points, early stop


def _counting(monkeypatch, *names):
    """Wrap multigcd functions by name; returns the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(multigcd, name)

        def wrapper(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(multigcd, name, wrapper)
    return calls


def _monic(g):
    return multi_scale(g, g.ring.cring.inv(g.lc()))


def test_massey_settles_after_two_tau_plus_one_terms():
    K = ZpRing(101)
    nodes, weights = [3, 7, 50], [5, 1, 99]
    seq = [sum(w * pow(r, j, 101) for w, r in zip(weights, nodes)) % 101
           for j in range(8)]
    s = multigcd._Massey(K, seq[0])
    settled = [s.push(c) for c in seq[1:]]
    # terms 0..5 fix the recurrence, term 6 is the first check
    assert settled == [False] * 5 + [True, True]
    assert s.length == 3
    lam = UniRing(K, "t").of_coeffs(s.conn[::-1])
    assert all(uni_eval(lam, r) == 0 for r in nodes)


def test_ratio_powers_have_order_above_dv():
    rng = random.Random(1)
    for K, dv in ((ZpRing(31), 20), (GFRing(3, 3), 13), (ZpRing(1000003), 40)):
        for _ in range(5):
            pw = multigcd._ratio_powers(K, rng, dv)
            assert pw is not None and len(set(pw)) == len(pw) == dv + 1
            assert pw[0] == K.one
    # no element of order above dv exists
    assert multigcd._ratio_powers(ZpRing(31), rng, 30) is None
    assert multigcd._ratio_powers(GFRing(3, 3), rng, 26) is None


def test_sparse_gcd_of_high_degree_per_variable(monkeypatch):
    ring = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x**16 * y**2 + 3 * x**5 * y**15 * z + 7 * z**17 + 2
    a = x**3 + y * z**4 + 5
    b = x * y**2 + z**3 + 1
    calls = _counting(monkeypatch, "_point_image", "_interp_terms")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == _monic(g)
    # dense interpolation takes 31 point images here; tau <= 2 needs 2 * tau
    # new points per lifted variable
    assert calls["_point_image"] <= 8
    assert calls["_interp_terms"] == 0


def test_dense_gcd_reaches_dv_plus_one_points(monkeypatch):
    ring = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = ring.gens()
    g = (x + 2 * y + 3 * z + 4) ** 4
    a = x * y + z + 1
    b = x + y * z + 2
    calls = _counting(monkeypatch, "_interp_terms", "_sparse_terms")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == _monic(g)
    # each of the two lifted variables has 5 terms per coefficient but only
    # degree 4, so it ends on dense interpolation through its dv + 1 points
    assert calls["_interp_terms"] == 2
    assert calls["_sparse_terms"] == 0


def test_unlucky_point_skips_to_dense(monkeypatch):
    ring = MultiRing(ZpRing(1000003), ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x**6 * y**2 + 3 * x * y**7 * z + 7 * z**8 + 2
    a = x**3 + y * z**4 + 5
    b = x * y**2 + z**3 + 1
    orig = multigcd._point_image
    seen = []

    def second_unlucky(*args):
        seen.append(1)
        if len(seen) == 2:
            raise multigcd._Unlucky
        return orig(*args)

    monkeypatch.setattr(multigcd, "_point_image", second_unlucky)
    calls = _counting(monkeypatch, "_interp_terms", "_sparse_terms")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == _monic(g)
    # the variable that met the skipped point finishes densely, the other
    # one still stops early
    assert calls["_interp_terms"] == 1
    assert calls["_sparse_terms"] >= 1


@pytest.mark.parametrize("K, hi, trials", [(ZpRing(31), 14, 12), (GFRing(3, 3), 10, 6)])
def test_small_fields_certify_or_raise(monkeypatch, K, hi, trials):
    # random ratios often have order <= dv here; each gcd must come back
    # certified or raise the typed error, within a bounded number of points
    ring = MultiRing(K, ("x", "y", "z"))
    orig = multigcd._point_image
    seen = []

    def bounded(*args):
        seen.append(1)
        assert len(seen) < 5000, "the lift does not terminate"
        return orig(*args)

    monkeypatch.setattr(multigcd, "_point_image", bounded)
    for t in range(trials):
        rng = random.Random(t)
        g = _sparse(ring, rng, 3, hi)
        a = _sparse(ring, rng, 3, hi // 2)
        b = _sparse(ring, rng, 3, hi // 2)
        A, B = multi_mul(a, g), multi_mul(b, g)
        got = multi_gcd(A, B, seed=t)
        assert multi_divides(got, A) and multi_divides(got, B)
        assert multi_divides(_monic(g), got)
    # degree 31 in y needs 32 distinct points, and Zp[31] has 30 nonzero
    if K == ZpRing(31):
        x, y, z = ring.gens()
        g = x**40 + y**31 * z + 1
        with pytest.raises(UnsupportedRingError):
            multi_gcd(multi_mul(x * y + 2, g), multi_mul(x + z**2, g))


def _sharp(rng, n, dsum):
    """Exponents of total degree dsum, each variable a uniform share of the
    rest (perfbench's shape for planted gcds)."""
    order = list(range(n))
    rng.shuffle(order)
    e = [0] * n
    rem = dsum
    for i in order[:-1]:
        e[i] = rng.randint(0, rem)
        rem -= e[i]
    e[order[-1]] = rem
    return tuple(e)


def test_planted_sparse5_point_images(monkeypatch):
    ring = MultiRing(ZpRing(1000003), tuple("x%d" % i for i in range(1, 6)))
    rng = random.Random(0)
    polys = []
    for _ in range(3):
        terms = {}
        while len(terms) < 20:
            terms[_sharp(rng, 5, 20)] = rng.randrange(1, 1000003)
        polys.append(MultiPoly(ring, terms))
    a, b, g = polys
    calls = _counting(monkeypatch, "_point_image")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == _monic(g)
    # dense interpolation of every lifted variable took 69 point images
    assert calls["_point_image"] <= 34


@pytest.mark.parametrize("p", [1000003, 101])
def test_degree_bounds_take_one_evaluation_per_draw(monkeypatch, p):
    K = ZpRing(p)
    ring = MultiRing(K, ("x", "y", "z", "w"))
    cases = []
    for t in range(10):
        rng = random.Random(t)
        g, a, b = (_sparse(ring, rng, k, 3) for k in (3, 4, 4))
        A, B = multi_mul(a, g), multi_mul(b, g)
        act = [i for i in range(4) if A.degree(i) or B.degree(i)]
        cases.append((t, A, B, act, multi_gcd(A, B, seed=t)))
    calls = _counting(monkeypatch, "term_values")
    kept = 0
    for t, A, B, act, G in cases:
        calls["term_values"] = 0
        bounds = multigcd._degree_bounds(A, B, act, random.Random(t))
        for i in act:
            assert bounds[i] >= G.degree(i)
        # the first point, drawn again: did some image lose degree there?
        rng = random.Random(t)
        alpha = {j: multigcd._nonzero(K, rng) for j in act}
        lost = any(
            univariate_image(f, i, {j: alpha[j] for j in act if j != i}).degree
            != f.degree(i)
            for i in act
            for f in (A, B)
        )
        if lost:
            assert calls["term_values"] >= 4 and calls["term_values"] % 2 == 0
        else:
            kept += 1
            assert calls["term_values"] == 2
    assert kept >= 5


def test_degree_bounds_retry_only_the_variables_that_lost_degree(monkeypatch):
    K = ZpRing(101)
    ring = MultiRing(K, ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x * y + z + 1
    # lc_x(A) = (y - 1) * y vanishes at the first point, which has y = 1
    A = multi_mul((y - 1) * x**2 + x + z, g)
    B = multi_mul(x + y * z + 2, g)
    points = iter([2, 1, 3, 5, 7, 11])
    monkeypatch.setattr(multigcd, "_nonzero", lambda K, rng: K.of(next(points)))
    calls = _counting(monkeypatch, "term_values", "uni_gcd")
    bounds = multigcd._degree_bounds(A, B, [0, 1, 2], None)
    assert calls == {"term_values": 4, "uni_gcd": 3}
    assert all(bounds[i] >= 1 for i in range(3))
    assert bounds[0] < min(A.degree(0), B.degree(0))


@pytest.mark.parametrize("K", [ZpRing(1000003), ZZ, QQ], ids=["Zp", "Z", "Q"])
def test_level_eval_first_is_base_times_mults(K):
    # set_rho multiplies the stored base by the new monomial values instead
    # of evaluating every term again; the result is the term-by-term value
    ring = MultiRing(K, ("x", "y", "z", "w"))
    rng = random.Random(16)
    for t in range(5):
        f = MultiPoly(
            ring,
            {
                tuple(rng.randrange(4) for _ in range(4)): K.of(rng.randrange(1, 50))
                for _ in range(8)
            },
        )
        alpha = {1: K.of(rng.randrange(2, 9)), 2: K.of(rng.randrange(2, 9)), 3: K.of(3)}
        ev = multigcd._LevelEval(f, 0, 2, [1], alpha)
        for rho in ({1: K.of(5)}, {1: K.of(rng.randrange(2, 99))}):
            ev.set_rho(rho)
            assert ev.mults == term_values(K, ev.exps, rho)
            assert ev.first == term_values(K, ev.exps, rho, ev.base)


@pytest.mark.parametrize(
    "K, n, terms", [(ZpRing(1000003), 5, 8), (GFRing(17, 2), 3, 4)], ids=["Zp", "GF289"]
)
def test_level_eval_image_is_the_slot_sum(monkeypatch, K, n, terms):
    # the evaluator orders its terms by x_m exponent and sums one slice per
    # coefficient: at every probe of every lifted level that is the sum of
    # the current term values by their x_m exponent
    ring = MultiRing(K, ("x", "y", "z", "w", "v")[:n])
    rng = random.Random(29)
    g, a, b = (_sparse(ring, rng, terms, 3) for _ in range(3))
    init, image = multigcd._LevelEval.__init__, multigcd._LevelEval.image
    main = {}
    levels = set()

    def tracked_init(self, f, m, v, processed, alpha):
        init(self, f, m, v, processed, alpha)
        main[id(self)] = m
        levels.add(v)

    def checked_image(self, cur):
        u = image(self, cur)
        ems = [e[main[id(self)]] for e in self.exps]
        assert u == slot_sums(K, ems, cur, self.deg)
        return u

    monkeypatch.setattr(multigcd._LevelEval, "__init__", tracked_init)
    monkeypatch.setattr(multigcd._LevelEval, "image", checked_image)
    G = multi_gcd(multi_mul(a, g), multi_mul(b, g), seed=3)
    assert multi_divides(_monic(g), G)
    assert len(levels) == n - 1


def test_small_field_gcd_failures_are_typed():
    # three variables, four terms each in a, b and g, exponents 0..3, over
    # Zp[2]: every failure is a RingkitError, and the retry budget error
    # still reads as the ArithmeticError it was
    K = ZpRing(2)
    ring = MultiRing(K, ("x", "y", "z"))
    budget = 0
    for s in range(20):
        rng = random.Random(s)
        polys = []
        for _ in range(3):
            terms = {}
            while len(terms) < 4:
                terms[tuple(rng.randint(0, 3) for _ in range(3))] = K.of(rng.randrange(1, 2))
            polys.append(MultiPoly(ring, terms))
        a, b, g = polys
        try:
            got = multi_gcd(multi_mul(a, g), multi_mul(b, g))
        except ArithmeticError as exc:
            assert isinstance(exc, RetryBudgetError) and exc.attempts == 8
            budget += 1
        except Exception as exc:
            assert isinstance(exc, RingkitError)
        else:
            assert multi_divides(got, multi_mul(a, g)) and multi_divides(got, multi_mul(b, g))
    assert budget >= 1


# ------------------------------------------- Z gcds: one frame for all primes


def test_crt_primes_are_word_size():
    # one 30-bit CPython digit per residue
    first = list(itertools.islice(modular._crt_primes(), 3))
    assert all(modular.PRIME_FLOOR < p < 2**30 for p in first)
    assert first == sorted(set(first))


def test_later_primes_take_one_skeleton_image(monkeypatch):
    # about 200-bit coefficients need several primes; gamma is 1 and the
    # contents are trivial, so only the top-level gcd lifts: y and z at the
    # first prime, then one skeleton image per later prime
    ring = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = ring.gens()
    c = [3**127 + 5, -(7**71 + 2), 11**58 - 9, 2**199 + 1]
    g = x**3 + c[0] * x**2 * y * z + c[1] * x * y**2 + c[2] * y * z**2 + c[3]
    a = x**2 + y * z + 3
    b = x**2 + 2 * y + z**2
    calls = _counting(monkeypatch, "_field_entry", "_lift_var", "_skeleton_image")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == g
    # one _field_entry per prime: 7 primes of 30 bits
    assert calls == {"_field_entry": 7, "_lift_var": 2, "_skeleton_image": 6}


def test_stale_skeleton_reruns_the_full_algorithm(monkeypatch):
    # the x^2*z term of g vanishes modulo the first prime, so the support
    # stored there misses it; the skeleton image at the second prime fails
    # the trial division and that prime lifts y and z again
    p1 = next(modular._crt_primes())
    ring = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x**3 * y + p1 * x**2 * z + 3 * x * y * z + 2 * y**2 + 7
    a = x**2 * y - z**2 * x + 4 * y + 1
    b = y**2 * z + 5 * x * z + x - 2
    calls = _counting(monkeypatch, "_lift_var", "_skeleton_image")
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == g
    assert calls == {"_lift_var": 4, "_skeleton_image": 1}


def test_stale_zero_bound_is_checked_again():
    # modulo the first prime the gcd loses y and z, so its frame drops both;
    # reused blindly at the next prime that drop would return the gcd of
    # the contents, 1, as the image and end the loop with a unit
    p1 = next(modular._crt_primes())
    ring = MultiRing(ZZ, ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x**2 + p1 * x * y + p1 * y * z + 1
    a = x + z + 2
    b = x**2 + z + y + 5
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == g
