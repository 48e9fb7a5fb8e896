"""Benchmark harness: random problem generation, timing, CSV reports.

Problem families mirror the library's performance protocol: sparse gcd and
factorization trials over random polynomials, the dense seven-variable
gcd/factor instances with a configurable outer exponent, Groebner bases of
katsura/cyclic systems, and univariate factorization of 1 + sum(i*x^i).
"""

import csv
import random
import statistics
import time
from dataclasses import dataclass, replace

from . import rings
from .groebner import Ideal
from .multifactor import factor_multipoly
from .multigcd import multi_gcd
from .multipoly import MultiPoly, MultiRing, multi_divrem, multi_mul, multi_pow
from .primes import is_prime, next_prime
from .unifactor import factor_finite, factor_unipoly, uni_is_irreducible
from .unipoly import (
    UniRing,
    _poly,
    uni_content,
    uni_derivative,
    uni_gcd,
    uni_mul,
    uni_pow,
    uni_primitive,
)

FAMILIES = (
    "gcd-sparse",
    "gcd-dense",
    "factor-sparse",
    "factor-dense",
    "groebner",
    "uni-factor",
)

CSV_HEADER = ("family", "ring", "n_vars", "size", "trial",
              "elapsed_ms", "result_kind", "verified")

# primes examined per factor when proving irreducibility over Z or Q, from 3
# up; 1 + sum(i*x^i) settles after 8, 3 and 10 at degrees 10, 20 and 30
IRREDUCIBILITY_PRIMES = 20


# --------------------------------------------------------------- constructors


def katsura(n, K, order="GREVLEX"):
    """The katsura-n system: n+1 variables u0..un over K.

    Quadratic equations sum(u_|i| * u_|m-i|) = u_m for m < n plus the
    normalization u0 + 2*(u1 + ... + un) = 1.
    """
    names = tuple("u%d" % i for i in range(n + 1))
    R = MultiRing(K, names, order)
    u = list(R.gens())

    def at(k):
        k = abs(k)
        return u[k] if k <= n else R.zero

    eqs = []
    for m in range(n):
        s = R.zero
        for i in range(-n, n + 1):
            s = s + at(i) * at(m - i)
        eqs.append(s - u[m])
    lin = R.zero
    for i in range(-n, n + 1):
        lin = lin + at(i)
    eqs.append(lin - R.one)
    return R, eqs


def cyclic(n, K, order="GREVLEX"):
    """The cyclic-n system: elementary symmetric sums of rotations vanish,
    and the product of all variables is 1."""
    names = tuple("x%d" % i for i in range(n))
    R = MultiRing(K, names, order)
    x = list(R.gens())
    eqs = []
    for k in range(1, n):
        s = R.zero
        for i in range(n):
            t = R.one
            for j in range(k):
                t = t * x[(i + j) % n]
            s = s + t
        eqs.append(s)
    prod = R.one
    for xi in x:
        prod = prod * xi
    eqs.append(prod - R.one)
    return R, eqs


def _seven_vars(K):
    return MultiRing(K, tuple("x%d" % i for i in range(1, 8)), "GREVLEX")


def _linear(R, coeffs):
    f = R.one
    for xi, c in zip(R.gens(), coeffs):
        f = f + R.of(c) * xi
    return f


def dense_gcd_triple(K, exponent):
    """The dense gcd instance: a, b, g are shifted powers of seven-variable
    linear forms; gcd(a*g, b*g) is the hard problem, gcd(a*g+1, b*g) trivial."""
    R = _seven_vars(K)
    a = multi_pow(_linear(R, (3, 5, 7, 9, 11, 13, 15)), exponent) - R.one
    b = multi_pow(_linear(R, (-3, -5, -7, 9, -11, -13, 15)), exponent) + R.one
    g = multi_pow(_linear(R, (3, 5, 7, 9, 11, 13, -15)), exponent) + R.of(3)
    return R, a, b, g


def dense_factor_poly(K, exponent):
    """The dense factorization instance: a power of a seven-variable linear
    form minus one, which splits along the cyclotomic pattern."""
    R = _seven_vars(K)
    return R, multi_pow(_linear(R, (3, 5, 7, 9, 11, 13, 15)), exponent) - R.one


def pdeg_poly(K, deg):
    """1 + sum(i * x^i, i = 1..deg) over K."""
    R = UniRing(K, "x")
    return R, R.of_coeffs([1] + list(range(1, deg + 1)))


# ------------------------------------------------------------------ sampling


def sample_exponents(rng, n_vars, dist):
    """One exponent vector under ("uniform", lo, hi) or ("sharp", dsum).

    Sharp sampling visits the variables in a random order, draws each
    exponent uniformly from what remains, and the last visited variable
    absorbs the remainder so the total degree is exactly dsum.
    """
    kind = dist[0]
    if kind == "uniform":
        lo, hi = dist[1], dist[2]
        return tuple(rng.randrange(lo, hi) for _ in range(n_vars))
    if kind != "sharp":
        raise ValueError("unknown exponent distribution %r" % (kind,))
    dsum = dist[1]
    order = list(range(n_vars))
    rng.shuffle(order)
    e = [0] * n_vars
    rem = dsum
    for i in order[:-1]:
        e[i] = rng.randint(0, rem)
        rem -= e[i]
    e[order[-1]] = rem
    return tuple(e)


def _random_coeff(K, rng):
    if K.cardinality is not None:
        while True:
            c = K.random_element(rng)
            if not K.is_zero(c):
                return c
    c = 0
    while c == 0:
        c = rng.randint(-100, 100)
    return K.of(c)


def random_poly(R, rng, size, dist):
    """About `size` terms with exponents drawn from the distribution."""
    terms = {}
    for _ in range(size):
        e = sample_exponents(rng, len(R.vars), dist)
        terms[e] = _random_coeff(R.cring, rng)
    f = MultiPoly(R, terms)
    return f if not f.is_zero() else R.one


# ----------------------------------------------------------------- the spec


@dataclass
class BenchSpec:
    """One benchmark configuration; `run` produces deterministic rows
    (modulo the elapsed_ms column) for a fixed seed."""

    family: str
    ring: rings.Ring
    n_vars: int = 3
    size: int = 20
    dist: tuple = ("uniform", 0, 30)
    trials: int = 1
    seed: int = 0
    timeout: float = 0.0  # seconds per trial; 0 disables the check
    variant: str = "katsura"  # groebner family: katsura | cyclic

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.n_vars <= 0 or self.size <= 0 or self.trials <= 0:
            raise ValueError("counts must be positive")
        if self.dist[0] == "uniform" and not self.dist[1] < self.dist[2]:
            raise ValueError("uniform distribution needs Dmin < Dmax")
        if self.timeout < 0:
            raise ValueError("negative timeout")
        if self.family == "groebner" and self.variant not in ("katsura", "cyclic"):
            raise ValueError("unknown groebner variant %r" % (self.variant,))


class _Deadline:
    """Cooperative per-trial timeout, consulted between algorithm phases."""

    def __init__(self, seconds):
        self.at = time.monotonic() + seconds if seconds else None

    def expired(self):
        return self.at is not None and time.monotonic() > self.at


def _row(spec, trial, elapsed_s, kind, verified):
    return {
        "family": spec.family,
        "ring": spec.ring.spec_string(),
        "n_vars": spec.n_vars,
        "size": spec.size,
        "trial": trial,
        "elapsed_ms": int(elapsed_s * 1000),
        "result_kind": kind,
        "verified": bool(verified),
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _exact_divides(d, f):
    _, rem = multi_divrem(f, [d])
    return rem.is_zero()


def _rebuild_multi(R, unit, parts):
    f = unit
    for g, m in parts:
        f = multi_mul(f, multi_pow(g, m))
    return f


def _rebuild_uni(K, unit, parts):
    f = unit
    for g, m in parts:
        f = uni_mul(f, uni_pow(g, m))
    return f


def _proved_irreducible_z(g):
    """True when the degree patterns of g modulo primes rule out a split.

    g is primitive over Z.  A factor of degree d over Z would show up as a
    subset of the factor degrees modulo every prime that keeps g squarefree
    and its degree, so once no d in 1..deg-1 survives every pattern, g is
    irreducible.  False means unproved within the prime budget.
    """
    n = g.degree
    if n == 1:
        return True
    possible = set(range(1, n))
    p = 2
    for _ in range(IRREDUCIBILITY_PRIMES):
        if not possible:
            break
        p = next_prime(p)
        if g.lc() % p == 0:
            continue
        gp = _poly(rings.ZpRing(p), [c % p for c in g.coeffs])
        if uni_gcd(gp, uni_derivative(gp)).degree != 0:
            continue
        sums = {0}
        for h, _ in factor_finite(gp)[1]:
            sums |= {t + h.degree for t in sums}
        possible &= sums
    return not possible


def _irreducible_over(K, g):
    """Certify one factor of factor_unipoly: Rabin's test over a finite
    field, primitive or monic plus degree patterns over Z and Q."""
    if K.is_finite:
        return uni_is_irreducible(g)
    if isinstance(K, rings.IntegerRing):
        if g.degree == 0:
            return is_prime(g.lc())
        return g.lc() > 0 and uni_content(g) == 1 and _proved_irreducible_z(g)
    if g.degree < 1 or not K.is_one(g.lc()):
        return False
    _, nums = K.clear_denominators(g.coeffs)
    return _proved_irreducible_z(uni_primitive(_poly(K.inner, nums))[1])


def _gcd_rows(spec, trial, ag, bg, g, seed, deadline):
    rows = []
    res, el = _timed(lambda: multi_gcd(ag, bg, seed=seed))
    if deadline.expired():
        rows.append(_row(spec, trial, el, "timeout", False))
    else:
        ok = (
            _exact_divides(g, res)
            and _exact_divides(res, ag)
            and _exact_divides(res, bg)
        )
        rows.append(_row(spec, trial, el, "nontrivial", ok))
    R = ag.ring
    res2, el2 = _timed(lambda: multi_gcd(ag + R.one, bg, seed=seed + 1))
    if deadline.expired():
        rows.append(_row(spec, trial, el2, "timeout", False))
    else:
        rows.append(_row(spec, trial, el2, "trivial", res2.degree() == 0))
    return rows


def _factor_rows(spec, trial, prod, need_parts, seed, deadline):
    rows = []
    R = prod.ring
    parts, el = _timed(lambda: factor_multipoly(R, prod, seed=seed))
    if deadline.expired():
        rows.append(_row(spec, trial, el, "timeout", False))
    else:
        unit, facs = parts
        nontrivial = sum(m for f, m in facs if f.degree() > 0)
        ok = _rebuild_multi(R, unit, facs) == prod and nontrivial >= need_parts
        rows.append(_row(spec, trial, el, "nontrivial", ok))
    if spec.family == "factor-dense":
        return rows
    shifted = prod + R.one
    parts2, el2 = _timed(lambda: factor_multipoly(R, shifted, seed=seed + 1))
    if deadline.expired():
        rows.append(_row(spec, trial, el2, "timeout", False))
    else:
        unit2, facs2 = parts2
        rows.append(
            _row(spec, trial, el2, "trivial",
                 _rebuild_multi(R, unit2, facs2) == shifted)
        )
    return rows


def _run_trial(spec, trial, rng):
    deadline = _Deadline(spec.timeout)
    seed = rng.randrange(1 << 32)

    if spec.family == "gcd-sparse":
        R = MultiRing(spec.ring, tuple("x%d" % i for i in range(1, spec.n_vars + 1)))
        a = random_poly(R, rng, spec.size, spec.dist)
        b = random_poly(R, rng, spec.size, spec.dist)
        g = random_poly(R, rng, spec.size, spec.dist)
        return _gcd_rows(spec, trial, multi_mul(a, g), multi_mul(b, g), g,
                         seed, deadline)

    if spec.family == "gcd-dense":
        _, a, b, g = dense_gcd_triple(spec.ring, spec.size)
        return _gcd_rows(spec, trial, multi_mul(a, g), multi_mul(b, g), g,
                         seed, deadline)

    if spec.family == "factor-sparse":
        R = MultiRing(spec.ring, tuple("x%d" % i for i in range(1, spec.n_vars + 1)))
        while True:
            a = random_poly(R, rng, spec.size, spec.dist)
            b = random_poly(R, rng, spec.size, spec.dist)
            c = random_poly(R, rng, spec.size, spec.dist)
            if a.degree() > 0 and b.degree() > 0 and c.degree() > 0:
                break
        prod = multi_mul(multi_mul(a, b), c)
        return _factor_rows(spec, trial, prod, 3, seed, deadline)

    if spec.family == "factor-dense":
        _, p = dense_factor_poly(spec.ring, spec.size)
        return _factor_rows(spec, trial, p, 2, seed, deadline)

    if spec.family == "uni-factor":
        K = spec.ring
        R, f = pdeg_poly(K, spec.size)
        parts, el = _timed(lambda: factor_unipoly(R, f))
        if deadline.expired():
            return [_row(spec, trial, el, "timeout", False)]
        unit, facs = parts
        ok = _rebuild_uni(K, unit, facs) == f and all(
            _irreducible_over(K, g) for g, _ in facs
        )
        return [_row(spec, trial, el, "nontrivial", ok)]

    # groebner: the named system, verified structurally plus by membership
    build = katsura if spec.variant == "katsura" else cyclic
    _, eqs = build(spec.size, spec.ring)
    ideal, el = _timed(lambda: Ideal(eqs))
    if deadline.expired():
        return [_row(spec, trial, el, "timeout", False)]
    ok = all(ideal.contains(f) for f in eqs) and all(
        g.ring.cring.is_one(g.lc()) for g in ideal.basis
    )
    return [_row(spec, trial, el, "nontrivial", ok)]


def bench_run(spec: BenchSpec):
    """Run every trial of the spec; returns (rows, summary)."""
    spec.validate()
    if spec.family == "groebner":
        n = spec.size + 1 if spec.variant == "katsura" else spec.size
        if spec.n_vars != n:
            spec = replace(spec, n_vars=n)
    elif spec.family == "uni-factor" and spec.n_vars != 1:
        spec = replace(spec, n_vars=1)
    rng = random.Random(spec.seed)
    rows = []
    for t in range(spec.trials):
        rows.extend(_run_trial(spec, t, rng))
    return rows, summarize(rows)


def summarize(rows):
    """median/min/max elapsed per (family, result_kind), plus verify count."""
    groups = {}
    for r in rows:
        groups.setdefault((r["family"], r["result_kind"]), []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        ms = [r["elapsed_ms"] for r in rs]
        out[key] = {
            "trials": len(rs),
            "median_ms": statistics.median(ms),
            "min_ms": min(ms),
            "max_ms": max(ms),
            "verified": sum(1 for r in rs if r["verified"]),
        }
    return out


def write_csv(rows, fh):
    w = csv.writer(fh)
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(
            [
                r["family"],
                r["ring"],
                r["n_vars"],
                r["size"],
                r["trial"],
                r["elapsed_ms"],
                r["result_kind"],
                "true" if r["verified"] else "false",
            ]
        )


def format_summary(summary):
    lines = []
    for (family, kind), s in summary.items():
        lines.append(
            "%s/%s: %d trials, median %d ms, min %d ms, max %d ms, %d verified"
            % (family, kind, s["trials"], s["median_ms"], s["min_ms"],
               s["max_ms"], s["verified"])
        )
    return "\n".join(lines)
