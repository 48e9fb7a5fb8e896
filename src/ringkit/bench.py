"""Benchmark harness: random problem generation, timing, verified rows.

Problem families mirror the library's performance protocol: sparse gcd and
factorization trials over random polynomials, the dense seven-variable
gcd/factor instances with a configurable outer exponent, Groebner bases of
katsura/cyclic systems, and univariate factorization of 1 + sum(i*x^i) or
of a seeded product of irreducibles over Z.
"""

import random
import signal
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

# a family's variants, its default first; uni-factor "product" multiplies
# `size` random irreducibles over Z with degrees from `dist`
VARIANTS = {"groebner": ("katsura", "cyclic"), "uni-factor": ("pdeg", "product")}

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
    # seconds per timed call; 0 lets every call run to the end.  A call
    # that overruns is interrupted by a SIGALRM interval timer and gives a
    # "timeout" row, so a nonzero limit needs the main thread.
    timeout: float = 0.0
    variant: str = ""  # one of VARIANTS[family]; "" is the first

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.n_vars <= 0 or self.size <= 0 or self.trials <= 0:
            raise ValueError("counts must be positive")
        if self.dist[0] == "uniform" and not self.dist[1] < self.dist[2]:
            raise ValueError("uniform distribution needs Dmin < Dmax")
        if self.timeout < 0:
            raise ValueError("negative timeout")
        if self.variant and self.variant not in VARIANTS.get(self.family, ()):
            raise ValueError("unknown %s variant %r" % (self.family, self.variant))


class _TimeLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise _TimeLimit()


_TIMEOUT = object()  # what _timed returns for a call that hit its limit


def _timed(fn, limit):
    """(fn(), seconds), or (_TIMEOUT, seconds) when the call ran past
    `limit` seconds and was interrupted; a limit of 0 sets no timer."""
    t0 = time.perf_counter()
    if not limit:
        return fn(), time.perf_counter() - t0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _TimeLimit:
        out = _TIMEOUT
    finally:
        signal.signal(signal.SIGALRM, previous)
    return out, time.perf_counter() - t0


def _timed_row(spec, trial, kind, fn, check):
    """The row of one call fn() timed under the spec's limit: a `kind` row
    verified by check(result), or an unverified "timeout" row."""
    out, elapsed = _timed(fn, spec.timeout)
    if out is _TIMEOUT:
        kind, verified = "timeout", False
    else:
        verified = check(out)
    return {
        "family": spec.family,
        "ring": spec.ring.spec_string(),
        "n_vars": spec.n_vars,
        "size": spec.size,
        "trial": trial,
        "elapsed_ms": int(elapsed * 1000),
        "result_kind": kind,
        "verified": bool(verified),
    }


def _exact_divides(d, f):
    _, rem = multi_divrem(f, [d])
    return rem.is_zero()


def _rebuild(unit, parts):
    """unit * prod g^m over the (g, m) parts of a factorization."""
    f = unit
    for g, m in parts:
        f = f * g**m
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


def _random_product_z(rng, count, dist):
    """The product of `count` primitive irreducibles over Z, coefficients
    in [-100, 100], degrees from `dist` (at least 1); unproved draws redraw."""
    f = _poly(rings.ZZ, [1])
    for _ in range(count):
        d = max(1, sample_exponents(rng, 1, dist)[0])
        while True:
            cs = [rng.randint(-100, 100) for _ in range(d)] + [rng.randint(1, 100)]
            _, g = uni_primitive(_poly(rings.ZZ, cs))
            if _proved_irreducible_z(g):
                break
        f = f * g
    return f


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


def _gcd_rows(spec, trial, ag, bg, g, seed):
    R = ag.ring

    def divides_both(res):
        return (
            _exact_divides(g, res)
            and _exact_divides(res, ag)
            and _exact_divides(res, bg)
        )

    return [
        _timed_row(spec, trial, "nontrivial",
                   lambda: multi_gcd(ag, bg, seed=seed), divides_both),
        _timed_row(spec, trial, "trivial",
                   lambda: multi_gcd(ag + R.one, bg, seed=seed + 1),
                   lambda res: res.degree() == 0),
    ]


def _factor_rows(spec, trial, prod, need_parts, seed):
    R = prod.ring

    def splits(parts):
        unit, facs = parts
        nontrivial = sum(m for f, m in facs if f.degree() > 0)
        return _rebuild(unit, facs) == prod and nontrivial >= need_parts

    rows = [_timed_row(spec, trial, "nontrivial",
                       lambda: factor_multipoly(R, prod, seed=seed), splits)]
    if spec.family != "factor-dense":
        shifted = prod + R.one
        rows.append(_timed_row(spec, trial, "trivial",
                               lambda: factor_multipoly(R, shifted, seed=seed + 1),
                               lambda parts: _rebuild(*parts) == shifted))
    return rows


def _run_trial(spec, trial, rng):
    seed = rng.randrange(1 << 32)

    if spec.family == "gcd-sparse":
        R = MultiRing(spec.ring, tuple("x%d" % i for i in range(1, spec.n_vars + 1)))
        a = random_poly(R, rng, spec.size, spec.dist)
        b = random_poly(R, rng, spec.size, spec.dist)
        g = random_poly(R, rng, spec.size, spec.dist)
        return _gcd_rows(spec, trial, multi_mul(a, g), multi_mul(b, g), g, seed)

    if spec.family == "gcd-dense":
        _, a, b, g = dense_gcd_triple(spec.ring, spec.size)
        return _gcd_rows(spec, trial, multi_mul(a, g), multi_mul(b, g), g, seed)

    if spec.family == "factor-sparse":
        R = MultiRing(spec.ring, tuple("x%d" % i for i in range(1, spec.n_vars + 1)))
        while True:
            a = random_poly(R, rng, spec.size, spec.dist)
            b = random_poly(R, rng, spec.size, spec.dist)
            c = random_poly(R, rng, spec.size, spec.dist)
            if a.degree() > 0 and b.degree() > 0 and c.degree() > 0:
                break
        prod = multi_mul(multi_mul(a, b), c)
        return _factor_rows(spec, trial, prod, 3, seed)

    if spec.family == "factor-dense":
        _, p = dense_factor_poly(spec.ring, spec.size)
        return _factor_rows(spec, trial, p, 2, seed)

    if spec.family == "uni-factor":
        K = spec.ring
        if spec.variant == "product":
            R = UniRing(K, "x")
            f = R.of_coeffs(_random_product_z(rng, spec.size, spec.dist).coeffs)
        else:
            R, f = pdeg_poly(K, spec.size)

        def certified(parts):
            unit, facs = parts
            return _rebuild(unit, facs) == f and all(
                _irreducible_over(K, g) for g, _ in facs
            )

        return [_timed_row(spec, trial, "nontrivial",
                           lambda: factor_unipoly(R, f), certified)]

    # groebner: the named system, verified structurally plus by membership
    build = cyclic if spec.variant == "cyclic" else katsura
    _, eqs = build(spec.size, spec.ring)

    def reduced(ideal):
        return all(ideal.contains(f) for f in eqs) and all(
            g.ring.cring.is_one(g.lc()) for g in ideal.basis
        )

    return [_timed_row(spec, trial, "nontrivial", lambda: Ideal(eqs), reduced)]


def bench_run(spec: BenchSpec):
    """Run every trial of the spec; returns (rows, summary)."""
    spec.validate()
    if spec.family == "groebner":
        n = spec.size if spec.variant == "cyclic" else spec.size + 1
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

