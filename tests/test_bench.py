import random
import signal
import time

import pytest

from ringkit import bench, rings
from ringkit.bench import BenchSpec, _irreducible_over, _random_product_z, bench_run
from ringkit.unipoly import UniRing


@pytest.mark.parametrize(
    "K", [rings.ZZ, rings.QQ, rings.ZpRing(17)], ids=["Z", "Q", "Zp17"]
)
def test_uni_factor_rows_verified(K):
    rows, summary = bench_run(BenchSpec("uni-factor", K, size=10, trials=2))
    assert len(rows) == 2
    assert all(r["verified"] and r["result_kind"] == "nontrivial" for r in rows)
    assert summary[("uni-factor", "nontrivial")]["verified"] == 2


def test_uni_factor_product_variant_is_seeded_and_certified():
    spec = BenchSpec("uni-factor", rings.ZZ, size=4, dist=("uniform", 2, 9),
                     trials=2, seed=5, variant="product")
    rows, summary = bench_run(spec)
    assert [(r["result_kind"], r["verified"]) for r in rows] == [("nontrivial", True)] * 2
    # the same seed draws the same product, another seed another one
    f = _random_product_z(random.Random(5), 4, ("uniform", 2, 9))
    assert f == _random_product_z(random.Random(5), 4, ("uniform", 2, 9))
    assert f != _random_product_z(random.Random(6), 4, ("uniform", 2, 9))
    assert 8 <= f.degree <= 32
    unit, parts = UniRing(rings.ZZ, "x").factor(f)
    assert sum(m for _, m in parts) == 4
    assert all(_irreducible_over(rings.ZZ, g) for g, _ in parts)
    for bad in (
        BenchSpec("uni-factor", rings.ZZ, variant="cyclic"),
        BenchSpec("uni-factor", rings.ZZ, variant="products"),
        BenchSpec("gcd-sparse", rings.ZZ, variant="product"),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_irreducibility_certificate_over_z_and_q():
    Z = UniRing(rings.ZZ, "x")
    Q = UniRing(rings.QQ, "x")
    # x^4 + 1 splits modulo every prime, so degree patterns never prove it
    assert not _irreducible_over(rings.ZZ, Z.of_coeffs([1, 0, 0, 0, 1]))
    assert not _irreducible_over(rings.ZZ, Z.of_coeffs([-1, 0, 1]))
    assert not _irreducible_over(rings.ZZ, Z.of_coeffs([2, 0, 4]))  # content 2
    assert _irreducible_over(rings.ZZ, Z.of_coeffs([-2, 0, 1]))
    assert _irreducible_over(rings.ZZ, Z.of_coeffs([7]))
    assert not _irreducible_over(rings.ZZ, Z.of_coeffs([6]))
    half = rings.QQ.make(1, 2)
    assert _irreducible_over(rings.QQ, Q.of_coeffs([half, 0, 1]))
    assert not _irreducible_over(rings.QQ, Q.of_coeffs([1, 0, 2]))  # not monic
    assert not _irreducible_over(rings.QQ, Q.of_coeffs([-1, 0, 1]))


def test_timeout_interrupts_the_call(monkeypatch):
    # the groebner row's call spins until the interval timer stops it (or
    # for 5 s), so the test does not depend on how fast katsura-8 solves
    def spin(eqs):
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(bench, "Ideal", spin)
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    rows, _ = bench_run(
        BenchSpec("groebner", rings.ZpRing(1000003), size=8, timeout=0.2)
    )
    assert time.perf_counter() - t0 < 1.5
    assert [(r["result_kind"], r["verified"]) for r in rows] == [("timeout", False)]
    assert signal.getsignal(signal.SIGALRM) is previous
    # a limit the call stays within changes nothing
    rows, _ = bench_run(BenchSpec("uni-factor", rings.ZpRing(17), size=10, timeout=30))
    assert [(r["result_kind"], r["verified"]) for r in rows] == [("nontrivial", True)]


ZP = rings.ZpRing(32003)
TINY_SPECS = [
    BenchSpec("gcd-sparse", rings.ZZ, 3, 4, ("uniform", 0, 4)),
    BenchSpec("gcd-sparse", ZP, 3, 4, ("sharp", 5)),
    BenchSpec("gcd-dense", rings.ZZ, size=1),
    BenchSpec("factor-sparse", ZP, 3, 4, ("uniform", 0, 4)),
    BenchSpec("factor-dense", rings.ZZ, size=2),
    BenchSpec("groebner", rings.QQ, size=2),
    BenchSpec("groebner", ZP, size=3, variant="cyclic"),
    BenchSpec("uni-factor", rings.QQ, size=6),
]


@pytest.mark.parametrize(
    "spec", TINY_SPECS, ids=["%s-%s" % (s.family, s.ring) for s in TINY_SPECS]
)
def test_every_family_gives_verified_rows(spec):
    rows, summary = bench_run(spec)
    kinds = ["nontrivial", "trivial"] if spec.family in (
        "gcd-sparse", "gcd-dense", "factor-sparse") else ["nontrivial"]
    assert [r["result_kind"] for r in rows] == kinds
    assert all(r["verified"] for r in rows)
    assert all(r["family"] == spec.family and r["trial"] == 0 for r in rows)
    assert sum(s["verified"] for s in summary.values()) == len(rows)


def test_gcd_call_past_its_limit_gives_a_timeout_row():
    # the nontrivial dense gcd at exponent 2 takes tens of milliseconds
    rows, _ = bench_run(BenchSpec("gcd-dense", ZP, size=2, timeout=0.001))
    assert (rows[0]["result_kind"], rows[0]["verified"]) == ("timeout", False)
    # the trivial call is short and may finish within the limit
    assert (rows[1]["result_kind"], rows[1]["verified"]) in (
        ("timeout", False), ("trivial", True))
