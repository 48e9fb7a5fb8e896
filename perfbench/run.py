#!/usr/bin/env python3
"""Run one benchmark workload against ringkit and print its metrics.

    python3 perfbench/run.py --workload gcd --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; ringkit is imported from its `src`.  The
workload runs as a closed loop: one process, one thread, one caller, one
problem at a time.  A pass solves every problem of the workload once.  The
first pass verifies every answer; later passes must reproduce it and are
the ones measured.  At least MIN_PASSES passes run, and more while the next
one fits in --seconds of wall time from the first.  Every time reported is
scaled to a nominal machine speed (see clock.py).

With --trace 0 the last line is a JSON object with the end-to-end metrics.
With --trace 1 traced and untraced passes alternate after the first pass,
the traced answers must match the untraced ones, and the JSON carries the
per-layer metrics instead.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from clock import kernel_s, scaled  # noqa: E402
from problems import build, solve, verify  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402
from workloads import DIGESTS, WORKLOADS, digest, problems_for, warmup_for  # noqa: E402

MODULES = ("rings", "primes", "multipoly", "unipoly", "multigcd", "multifactor",
           "unifactor", "groebner")

MIN_PASSES = 8  # the first verifies, the others are measured
TRACED_PASSES = 3  # with --trace 1, each after an untraced one
PROBLEM_LIMIT_S = 30.0  # hard limit on one solve call
RUN_BUDGET_S = 150.0  # problems not started by then count as failed


class TimeLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise TimeLimit()


def _ringkit_modules():
    return [m for m in sys.modules if m == "ringkit" or m.startswith("ringkit.")]


class Library:
    """The ringkit modules of one fresh import."""

    def __init__(self):
        for name in _ringkit_modules():
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("ringkit." + name))
        where = os.path.dirname(os.path.abspath(self.rings.__file__))
        if where != os.path.join(SRC, "ringkit"):
            raise ImportError("ringkit imported from %s, not from %s" % (where, SRC))


def setup(problems, warm):
    """Import ringkit, build the inputs, solve one warm-up problem; returns
    the scaled set-up time, the library and the inputs."""
    gc.collect()
    before = kernel_s()
    t0 = perf_counter()
    rk = Library()
    built = [build(rk, p) for p in problems]
    solve(rk, warm, build(rk, warm))
    wall = perf_counter() - t0
    return scaled(wall, before, kernel_s()), rk, built


def setup_again(problems, warm):
    """Time one more set-up, then put back the modules the run uses."""
    kept = {name: sys.modules[name] for name in _ringkit_modules()}
    try:
        return setup(problems, warm)[0]
    finally:
        for name in _ringkit_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def timed_solve(rk, problem, built):
    """(scaled seconds, wall seconds, result, error); the interval timer
    enforces the limit."""
    gc.collect()
    before = kernel_s()
    result, error = None, None
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
    t0 = perf_counter()
    try:
        result = solve(rk, problem, built)
    except TimeLimit:
        error = "hit the %.0f s limit" % PROBLEM_LIMIT_S
    except Exception as exc:  # a raising problem is a failure, not a crash
        error = "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return scaled(wall, before, kernel_s()), wall, result, error


def run_pass(rk, problems, built, reference, failures, deadline, tracer=None):
    """Solve every problem once; returns the per-problem scaled times and
    the pass's wall solve time.

    Without a reference the answers are verified and become the reference;
    with one they must equal it.  Failures are recorded by problem index.
    """
    times, wall_s = [], 0.0
    for i, (problem, b) in enumerate(zip(problems, built)):
        if perf_counter() > deadline:
            failures.setdefault(i, "not started: run budget exhausted")
            times.append(0.0)
            continue
        if tracer:
            tracer.on = True
        try:
            t, wall, result, error = timed_solve(rk, problem, b)
        finally:
            if tracer:
                tracer.on = False
        times.append(t)
        wall_s += wall
        if error is None:
            if len(reference) == i:
                reference.append(result)
                error = verify(rk, problem, b, result)
            elif result != reference[i]:
                error = "answer differs from the first pass"
        if error is not None:
            failures.setdefault(i, error)
            if len(reference) == i:
                reference.append(None)
    return times, wall_s


def problem_times(passes):
    """Each problem's time: the median of its scaled times over the passes.
    Scaling cancels the machine's slow phases; the median drops the short
    bursts of other load that fall on the solve or on the kernel around it."""
    return [statistics.median(ts) for ts in zip(*passes)]


def end_to_end(problems, passes, failures, setups):
    per_problem = problem_times(passes)
    hard_ms = [1000.0 * t for p, t in zip(problems, per_problem) if not p.control]
    # A percentile with ten problems above it would need more problems than
    # fit in a run, so the tail is the slowest nontrivial problem.
    print("tail_ms is p100 of %d nontrivial problems; setup_s is the median of %d set-ups"
          % (len(hard_ms), len(setups)))
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(per_problem), "s"),
        "trivial_s": (sum(t for p, t in zip(problems, per_problem) if p.control), "s"),
        "p50_ms": (statistics.median(hard_ms), "ms"),
        "tail_ms": (max(hard_ms), "ms"),
        "verified_frac": (1.0 - len(failures) / len(problems), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(rk, problems, built, reference, failures, deadline):
    """Traced passes alternate with untraced ones after the first pass; the
    per-layer numbers come from the fastest traced pass, and the overhead
    compares the problem times of the two kinds.  Returns the untraced
    passes and the metrics."""
    untraced, traced = [], []
    while len(traced) < TRACED_PASSES:
        untraced.append(run_pass(rk, problems, built, reference, failures, deadline)[0])
        tracer = Tracer()
        tracer.install()
        try:
            times = run_pass(rk, problems, built, reference, failures, deadline, tracer)[0]
        finally:
            tracer.remove()
        traced.append((times, tracer.report()))
    values = min(traced, key=lambda t: sum(t[0]))[1]
    values["groebner.basis_len"] = sum(
        len(r) for p, r in zip(problems, reference) if p.kind == "groebner" and r)
    traced_s = sum(problem_times([t for t, _ in traced]))
    untraced_s = sum(problem_times(untraced))
    values["trace.overhead"] = traced_s / untraced_s
    print("tracing overhead: traced solve_s %.3f s / untraced %.3f s = %.3f"
          % (traced_s, untraced_s, values["trace.overhead"]))
    return untraced, {name: {"value": values[name], "unit": unit}
                      for name, unit in metric_names()}


def print_rows(problems, passes, failures):
    rows = {}
    for p, t in zip(problems, problem_times(passes)):
        label = p.name.split("#")[0] + (" control" if p.control else "")
        rows.setdefault(label, []).append(t)
    for label, ts in rows.items():
        print("  %-24s %3d problems, median %8.1f ms, total %7.3f s"
              % (label, len(ts), 1000 * statistics.median(ts), sum(ts)))
    for i, reason in sorted(failures.items()):
        print("  FAILED %s: %s" % (problems[i].name, reason))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = perf_counter() + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    problems = problems_for(args.workload, args.seed)
    warm = warmup_for(args.workload)
    try:
        setup_s, rk, built = setup(problems, warm)
    except ImportError as exc:
        print("cannot import ringkit from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    setups = [setup_s]

    inputs = digest(problems)
    print("workload %s, seed %d: %d problems, input digest %s"
          % (args.workload, args.seed, len(problems), inputs))
    pinned = args.seed != 0 or DIGESTS.get(args.workload) == inputs
    if not pinned:
        print("inputs differ from the digest pinned for seed 0, %s"
              % DIGESTS.get(args.workload))

    failures = {}
    reference = []
    start = perf_counter()
    run_pass(rk, problems, built, reference, failures, deadline)
    if args.trace:
        passes, metrics = per_layer(rk, problems, built, reference, failures, deadline)
    else:
        # one more set-up before each pass spreads the set-up samples over
        # the run, like the passes
        passes, walls = [], []
        while True:
            lap = perf_counter()
            setups.append(setup_again(problems, warm))
            times, wall = run_pass(rk, problems, built, reference, failures, deadline)
            passes.append(times)
            walls.append(wall)
            lap = perf_counter() - lap
            if 1 + len(passes) >= MIN_PASSES and perf_counter() - start + lap > args.seconds:
                break
        metrics = end_to_end(problems, passes, failures, setups)
        print("unscaled wall solve time per pass: median %.3f s, range %.3f to %.3f s"
              % (statistics.median(walls), min(walls), max(walls)))
    print("1 verifying and %d measured untraced passes, %d problems, %d failed"
          % (len(passes), len(problems), len(failures)))
    print_rows(problems, passes, failures)
    print(json.dumps({
        "correct": pinned and not failures,
        "attempted": len(problems),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
