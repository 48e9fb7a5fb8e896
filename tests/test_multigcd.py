import random

import pytest

from ringkit import multigcd
from ringkit.errors import UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.multigcd import gcd_many, multi_gcd
from ringkit.multipoly import (
    MultiPoly,
    MultiRing,
    multi_divides,
    multi_mul,
    multi_random,
    multi_scale,
)
from ringkit.rings import QQ, ZZ, FractionField, ZpRing
from ringkit.unipoly import UniRing


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


def _dense_gcd(monkeypatch, a, b, seed):
    """multi_gcd with Brown's dense interpolation in place of Zippel's."""
    with monkeypatch.context() as mp:
        mp.setattr(multigcd, "_sparse_interp", multigcd._dense_interp)
        return multi_gcd(a, b, seed=seed)


def test_zippel_matches_dense(monkeypatch):
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
            gz = multi_gcd(a, b, seed=t)
            gd = _dense_gcd(monkeypatch, a, b, t)
            assert gz == gd, (K, t)
            assert multi_divides(gz, a) and multi_divides(gz, b)


def test_zippel_matches_dense_over_z(monkeypatch):
    ring = MultiRing(ZZ, ("x", "y"))
    rng = random.Random(9)
    for t in range(10):
        f1 = multi_random(ring, rng, terms=3, max_exp=3)
        f2 = multi_random(ring, rng, terms=3, max_exp=3)
        g = multi_random(ring, rng, terms=3, max_exp=3)
        if f1.is_zero() or f2.is_zero() or g.is_zero():
            continue
        a, b = multi_mul(f1, g), multi_mul(f2, g)
        assert multi_gcd(a, b, seed=t) == _dense_gcd(monkeypatch, a, b, t)


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
