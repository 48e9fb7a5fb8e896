"""Tests of the benchmark itself: every verifier rejects a wrong answer,
the pinned inputs and facts hold, and tracing leaves the library as it was.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import problems as P  # noqa: E402
import workloads as W  # noqa: E402
from run import Library  # noqa: E402
from spans import NAMES, TARGETS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def rk():
    return Library()


def _first(workload, label, control=False, seed=0):
    for p in W.problems_for(workload, seed):
        if p.name.startswith(label + "#") and p.control == control:
            return p
    raise LookupError(label)


def _solved(rk, problem):
    built = P.build(rk, problem)
    result = P.solve(rk, problem, built)
    assert P.verify(rk, problem, built, result) is None
    return built, result


# ------------------------------------------------------------------- inputs


def test_inputs_are_pinned_for_seed_zero():
    for name in W.WORKLOADS:
        assert W.digest(W.problems_for(name, 0)) == W.DIGESTS[name], name


def test_inputs_follow_the_seed():
    assert W.digest(W.problems_for("gcd", 1)) == W.digest(W.problems_for("gcd", 1))
    assert W.digest(W.problems_for("gcd", 1)) != W.digest(W.problems_for("gcd", 2))


def test_random_factors_are_irreducible_mod_101():
    for p in W.problems_for("unifactor", 0):
        for f in p.data.get("factors", ()):
            assert W.irreducible_mod_p(f, 101)


def test_pdeg_control_is_irreducible_over_z(rk):
    """No proper subset of factor degrees is consistent modulo every one of
    a few primes, so 1 + sum(i*x^i) has no proper factor over Z."""
    degs = {len(p.data["coeffs"]) - 1
            for p in W.problems_for("unifactor", 0) if p.ring == "Z" and p.kind == "pdeg"}
    assert degs
    for n in degs:
        coeffs = W.pdeg_coeffs(n)
        possible = None
        p = 1000
        while possible != {0, n}:
            p = rk.primes.next_prime(p + 1)
            K = rk.rings.ZpRing(p)
            f = rk.unipoly.UniRing(K, "x").of_coeffs(coeffs)
            if f.degree != n:
                continue
            _, parts = rk.unifactor.factor_finite(f)
            if any(m > 1 for _, m in parts):
                continue
            sums = {0}
            for g, _ in parts:
                sums |= {s + g.degree for s in sums}
            possible = sums if possible is None else possible & sums
            assert p < 1100, "degree pattern of %d not settled" % n


# ------------------------------------------------------ verifiers reject


def test_gcd_verifier_rejects_wrong_answers(rk):
    problem = _first("gcd", "Zp-sparse5")
    built, G = _solved(rk, problem)
    A, _ = built.args
    R = A.ring
    assert P.verify(rk, problem, built, R.one) is not None
    assert P.verify(rk, problem, built, G * R.gens()[0]) is not None
    control = _first("gcd", "Zp-sparse5", control=True)
    cbuilt = P.build(rk, control)
    assert P.verify(rk, control, cbuilt, G) is not None


def test_factor_verifier_rejects_wrong_answers(rk):
    problem = _first("factor", "Z-sparse3")
    built, (unit, facs) = _solved(rk, problem)
    assert P.verify(rk, problem, built, (unit, facs[1:])) is not None
    R, f = built.args
    assert P.verify(rk, problem, built, (R.one, [(f, 1)])) is not None


def test_unifactor_verifier_rejects_wrong_answers_over_zp(rk):
    problem = _first("unifactor", "Zp17-pdeg")
    built, (unit, facs) = _solved(rk, problem)
    assert P.verify(rk, problem, built, (unit, facs[1:])) is not None
    (g, m), (h, k) = facs[-2], facs[-1]
    assert m == k == 1
    merged = facs[:-2] + [(rk.unipoly.uni_mul(g, h), 1)]
    assert P.verify(rk, problem, built, (unit, merged)) is not None


def test_unifactor_verifier_rejects_wrong_answers_over_z(rk):
    problem = _first("unifactor", "Z-product")
    built, (unit, facs) = _solved(rk, problem)
    (g, _), (h, _) = facs[-2], facs[-1]
    merged = facs[:-2] + [(rk.unipoly.uni_mul(g, h), 1)]
    assert P.verify(rk, problem, built, (unit, merged)) is not None
    # a non-primitive factor, with the product still right
    U = rk.unipoly.UniRing(rk.rings.ZZ, "x")
    f = U.of_coeffs([4, 6, 2])  # 2 (x+1) (x+2)
    two = U.of_coeffs([2])
    pb = P.Built((U, f), degrees=[1, 1])
    right = (U.one, [(two, 1), (U.of_coeffs([1, 1]), 1), (U.of_coeffs([2, 1]), 1)])
    wrong = (U.one, [(U.of_coeffs([2, 2]), 1), (U.of_coeffs([2, 1]), 1)])
    zp = W.Problem("p", False, "Z", "uni_product", {})
    assert P.verify(rk, zp, pb, right) is None
    assert P.verify(rk, zp, pb, wrong) is not None


def test_groebner_verifier_rejects_wrong_answers(rk):
    problem = W.groebner_problems(0, [("k", "Q", 1, {"system": "katsura", "n": 3})])[0]
    built, basis = _solved(rk, problem)
    (gens,) = built.args
    assert P.verify(rk, problem, built, gens) is not None
    assert P.verify(rk, problem, built, basis[1:]) is not None
    assert P.verify(rk, problem, built, [gens[0].ring.one]) is not None
    control = W.groebner_problems(
        0, [("k", W.P_WORD, 1, {"system": "katsura", "n": 3, "control": True})])[0]
    cbuilt, _ = _solved(rk, control)
    assert P.verify(rk, control, cbuilt, basis) is not None


# ------------------------------------------------------------------ tracing


def test_tracing_restores_the_library_and_counts(rk):
    before = {name: getattr(rk.multigcd, name) for name in ("multi_gcd", "uni_gcd")}
    powmod = rk.unipoly.PolyModContext.powmod
    problem = _first("gcd", "Zp-sparse5")
    built = P.build(rk, problem)
    untraced = P.solve(rk, problem, built)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.on = True
        traced = P.solve(rk, problem, built)
        tracer.on = False
        report = tracer.report()
        assert P.verify(rk, problem, built, traced) is None
        assert tracer.report() == report  # verification is not recorded
    finally:
        tracer.remove()
    assert traced == untraced
    for name, fn in before.items():
        assert getattr(rk.multigcd, name) is fn
    assert rk.unipoly.PolyModContext.powmod is powmod
    assert report["multigcd.multi_gcd.calls"] >= 1
    assert report["multigcd.uni_gcd_per_gcd"] > 0
    assert report["groebner.groebner_basis.calls"] == 0
    for name, (_, _, mode) in zip(NAMES, TARGETS):
        if mode == "span":
            assert report[name + ".self_s"] >= 0.0


# ----------------------------------------------------------------- scaling


def test_scaling_cancels_the_machine_speed():
    import clock

    nominal = clock.NOMINAL_KERNEL_S
    assert clock.scaled(0.5, nominal, nominal) == pytest.approx(0.5)
    # a machine twice as slow doubles the call and the kernel around it
    assert clock.scaled(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert clock.kernel_s() > 0.0
