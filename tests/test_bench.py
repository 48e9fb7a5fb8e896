import pytest

from ringkit import rings
from ringkit.bench import BenchSpec, _irreducible_over, bench_run
from ringkit.unipoly import UniRing


@pytest.mark.parametrize(
    "K", [rings.ZZ, rings.QQ, rings.ZpRing(17)], ids=["Z", "Q", "Zp17"]
)
def test_uni_factor_rows_verified(K):
    rows, summary = bench_run(BenchSpec("uni-factor", K, size=10, trials=2))
    assert len(rows) == 2
    assert all(r["verified"] and r["result_kind"] == "nontrivial" for r in rows)
    assert summary[("uni-factor", "nontrivial")]["verified"] == 2


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
