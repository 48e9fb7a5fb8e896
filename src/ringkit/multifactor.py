"""Multivariate factorization over Zp and Z by evaluation and ideal-adic lifting.

The input is first made primitive in every variable (contents are factored
recursively), multiplicities are split off with Yun's algorithm along one
variable, and each squarefree primitive part is reduced to one variable: all
but a chosen main variable are evaluated at a random point, the univariate
image is factored, and the image factors are lifted back one variable at a
time through powers of (x_v - alpha_v).  Leading coefficients are pinned by
the classical multiply-through transform: with r image factors the lift runs
on F* = lc^(r-1) * F and every factor keeps leading coefficient lc.

Over Z the whole lift happens modulo a machine prime power chosen to cover
the true coefficients, and candidates come back through symmetric lifting.
A subset-recombination pass repairs images that split more finely than the
true factorization; every emitted factor is certified by exact division, so
unlucky evaluation points cost retries, never wrong answers.
"""

import itertools
import math
import random

from . import rings
from .errors import UnsupportedRingError
from .modular import symmetric_lift
from .multigcd import multi_gcd
from .multipoly import (
    MultiPoly,
    MultiRing,
    coefficients_in,
    content_primitive,
    from_unipoly,
    lc_in,
    multi_add,
    multi_derivative,
    multi_divides,
    multi_exact_div,
    multi_mono_mul,
    multi_mul,
    multi_pow,
    multi_scale,
    multi_sub,
    multi_subs,
    multi_value,
    to_unipoly,
    univariate_image,
)
from .primes import factor_integer
from .unifactor import (
    _good_prime,
    _pm_divrem_monic,
    _pm_mul,
    factor_finite,
    factor_over_z,
)
from .unipoly import _poly, uni_derivative, uni_extended_gcd, uni_gcd

_TRIES = 16
_SUBSET_BUDGET = 4096


class _BadPoint(Exception):
    """The evaluation point broke an invariant; try another one."""


# ----------------------------------------------------------------- dispatch


def factor_multipoly(ring, f, seed=0):
    """(unit, [(factor, exponent), ...]) with canonical, sorted factors.

    Coefficients may come from Z, from Q, or from a machine-word prime field
    whose modulus exceeds the total degree of f.
    """
    f = ring.of(f)
    if f.is_zero():
        raise ArithmeticError("cannot factor the zero polynomial")
    K = ring.cring
    rng = random.Random((seed * 0x9E3779B1) ^ 0x5F0E1D2C)
    if isinstance(K, rings.ZpRing):
        if K.p.bit_length() > 63:
            raise UnsupportedRingError("prime modulus too large for factorization")
        if K.p <= f.degree():
            raise UnsupportedRingError(
                "modulus %d does not exceed the total degree %d" % (K.p, f.degree())
            )
        acc = _Acc(ring)
        _factor_into(acc, f, 1, rng)
        return acc.result()
    if isinstance(K, rings.IntegerRing):
        acc = _Acc(ring)
        _factor_into(acc, f, 1, rng)
        return acc.result()
    if isinstance(K, rings.FractionField) and isinstance(K.inner, rings.IntegerRing):
        return _factor_over_q(ring, f, seed)
    raise UnsupportedRingError(
        "multivariate factorization supports Zp, Z, and Q coefficients; not %s" % (K,)
    )


class _Acc:
    """Collects factors with multiplicities plus a unit scalar."""

    def __init__(self, ring):
        self.ring = ring
        self.K = ring.cring
        self.unit = ring.cring.one
        self.factors = {}

    def scalar(self, c, mult):
        self.unit = self.K.mul(self.unit, self.K.pow(c, mult))

    def add(self, f, mult):
        u, g = self.ring.normalize_unit(f)
        if not u.is_constant() or not self.K.is_unit(u.constant()):
            raise ArithmeticError("factor normalization produced a non-unit")
        self.scalar(u.constant(), mult)
        if g.is_constant():
            # stray constants melt into the unit over a field; over Z the
            # integer content arrives pre-split into primes, keep those
            c = g.constant()
            if self.K.is_field or c in (1, -1):
                self.scalar(c, mult)
                return
        self.factors[g] = self.factors.get(g, 0) + mult

    def result(self):
        out = sorted(self.factors.items(), key=lambda fm: (_sort_key(fm[0]), fm[1]))
        return self.ring.from_coeff(self.unit), out


def _coeff_key(c):
    if isinstance(c, rings.Rational):
        return (1, c.num, c.den)
    return (0, c, 0)


def _sort_key(f):
    items = sorted((e, _coeff_key(c)) for e, c in f.terms.items())
    return (f.degree(), len(items), items)


# ------------------------------------------------------- recursive reduction


def _factor_into(acc, f, mult, rng):
    """Feed the factors of f (with outer multiplicity) into the accumulator."""
    ring = f.ring
    K = ring.cring
    if f.is_constant():
        _constant_into(acc, f.constant(), mult)
        return
    n = len(ring.vars)
    # common monomial first: bare variable powers are factors of their own
    mins = [min(e[i] for e in f.terms) for i in range(n)]
    if any(mins):
        for i, k in enumerate(mins):
            if k:
                acc.add(ring.var(ring.vars[i]), mult * k)
        f = MultiPoly(
            ring,
            {tuple(x - lo for x, lo in zip(e, mins)): c for e, c in f.terms.items()},
        )
    # contents along each variable; a single pass leaves f primitive in all
    for i in range(n):
        if f.degree(i) <= 0:
            continue
        cont, prim = content_primitive(f, i)
        if cont != ring.one:
            _factor_into(acc, cont, mult, rng)
            f = prim
        if f.is_constant():
            _constant_into(acc, f.constant(), mult)
            return
    act = [i for i in range(n) if f.degree(i) > 0]
    if len(act) == 1:
        _single_var_into(acc, f, act[0], mult, rng)
        return
    # multiplicities via Yun along the lowest active variable: f is primitive
    # in every variable, so each irreducible factor shows up in the derivative
    parts = _yun(f, act[0], rng)
    rest = f
    for part, k in parts:
        rest = multi_exact_div(rest, multi_pow(part, k))
        _prim_squarefree_into(acc, part, mult * k, rng)
    if not rest.is_constant():
        raise ArithmeticError("squarefree decomposition left a non-constant cofactor")
    _constant_into(acc, rest.constant(), mult)


def _constant_into(acc, c, mult):
    K = acc.K
    if K.is_field:
        acc.scalar(c, mult)
        return
    # integers: split the content into primes, keep the sign in the unit
    c = int(c)
    if c < 0:
        acc.scalar(K.of(-1), mult)
        c = -c
    if c != 1:
        for prime, e in sorted(factor_integer(c).items()):
            acc.add(acc.ring.from_coeff(prime), mult * e)


def _single_var_into(acc, f, i, mult, rng):
    u = to_unipoly(f, i)
    K = acc.K
    if K.is_field:
        unit, parts = factor_finite(u, seed=rng.randrange(1 << 30))
    else:
        unit, parts = factor_over_z(u)
    acc.scalar(unit.constant(), mult)
    for g, e in parts:
        acc.add(from_unipoly(f.ring, g, i), mult * e)


def _yun(f, v, rng):
    """[(squarefree part, multiplicity)] along variable v.

    Valid because the characteristic is zero or exceeds the total degree.
    """
    df = multi_derivative(f, v)
    g = multi_gcd(f, df, seed=rng.randrange(1 << 30))
    if g.is_constant():
        return [(f, 1)]
    out = []
    c = multi_exact_div(f, g)
    d = multi_sub(multi_exact_div(df, g), multi_derivative(c, v))
    k = 1
    while not c.is_constant():
        a = multi_gcd(c, d, seed=rng.randrange(1 << 30))
        if not a.is_constant():
            out.append((a, k))
        c = multi_exact_div(c, a)
        d = multi_sub(multi_exact_div(d, a), multi_derivative(c, v))
        k += 1
    return out


def _prim_squarefree_into(acc, F, mult, rng):
    """F squarefree and primitive in every variable; emit its irreducibles."""
    ring = F.ring
    act = [i for i in range(len(ring.vars)) if F.degree(i) > 0]
    if len(act) == 1:
        _single_var_into(acc, F, act[0], mult, rng)
        return
    # main variable: fewest (degree, occupied terms), ties to the left
    m = min(act, key=lambda i: (F.degree(i), sum(1 for e in F.terms if e[i] > 0), i))
    for attempt in range(_TRIES):
        try:
            parts = _attempt(F, m, rng, attempt)
        except _BadPoint:
            continue
        rest = F
        for g in parts:
            _, g = ring.normalize_unit(g)
            rest = multi_exact_div(rest, g)
            acc.add(g, mult)
        if not rest.is_constant():
            raise ArithmeticError("lifted factors do not multiply back")
        _constant_into(acc, rest.constant(), mult)
        return
    raise ArithmeticError("unlucky evaluation points: retry budget exhausted")


# ----------------------------------------------------------- one full attempt


def _attempt(F, m, rng, attempt):
    """Factor one squarefree primitive part through a random evaluation.

    A cheap bivariate scouting pass lifts the first variable only and
    regroups image factors that split more finely than the bivariate
    factorization; that keeps the lc transform exponent small and spots
    irreducible inputs before the full lift.  Raises _BadPoint whenever
    the point is unusable; every result is certified by exact division.
    """
    ring = F.ring
    K = ring.cring
    field = K.is_field
    dF = F.degree(m)
    if dF == 1:
        return [F]
    n = len(ring.vars)
    others = [i for i in range(n) if i != m and F.degree(i) > 0]
    L = lc_in(F, m)

    alpha = _draw_alpha(K, others, rng, attempt)
    La = multi_value(L, alpha)
    if K.is_zero(La):
        raise _BadPoint()
    u = univariate_image(F, m, alpha)
    if uni_gcd(u, uni_derivative(u)).degree != 0:
        raise _BadPoint()

    if field:
        _, uparts = factor_finite(u, seed=rng.randrange(1 << 30))
        us = [g for g, _ in uparts]
    else:
        _, uparts = factor_over_z(u)
        us = [g for g, _ in uparts if g.degree >= 1]
    r = len(us)
    if r == 1:
        return [F]

    if field:
        work = ring
        p = M = K.p
        alpha_w = alpha
        La_w = La
    else:
        p = _good_prime(u)
        ell = _precision(F, L, r, dF, p) + 2 * min(attempt, 3)
        M = p**ell
        work = MultiRing(_ZmRing(M), ring.vars, ring.order)
        alpha_w = {i: a % M for i, a in alpha.items()}
        La_w = La % M

    order = list(others)
    uhat = _monic_lists(us, M)
    tinv = _bezout_rows(uhat, La_w, r, M, p)

    # scout: lift the first variable alone and group by bivariate division
    v1 = order[0]
    rest = {i: alpha[i] for i in order[1:]}
    F1 = multi_subs(F, rest)
    L1 = multi_subs(L, rest)
    F1w = F1 if field else _map_into(work, F1, M)
    L1w = L1 if field else _map_into(work, L1, M)
    Fs1 = multi_mul(F1w, multi_pow(L1w, r - 1))
    ctx1 = _run_levels(Fs1, L1w, m, [v1], alpha_w, La_w, uhat, tinv, work, M, field, rng)
    split1 = _subset_split(F1, ctx1.snapshots[-1], [v1], ctx1)
    if len(split1) == 1:
        return [F]
    if len(order) == 1:
        # only two active variables, so the scout did the whole job
        return [g for _, g in split1]
    groups = [subset for subset, _ in split1]
    if len(groups) < r:
        uhat = [_pm_prod([uhat[i] for i in subset], M) for subset in groups]
        r = len(groups)
        if not field:
            # the scoped-down factor count usually shrinks the precision a lot
            ell = _precision(F, L, r, dF, p) + 2 * min(attempt, 3)
            M2 = p**ell
            if M2 < M:
                M = M2
                work = MultiRing(_ZmRing(M), ring.vars, ring.order)
                alpha_w = {i: a % M for i, a in alpha.items()}
                La_w = La % M
                uhat = [[c % M for c in cs] for cs in uhat]
        tinv = _bezout_rows(uhat, La_w, r, M, p)

    Fstar = multi_mul(F, multi_pow(L, r - 1))
    Fw = Fstar if field else _map_into(work, Fstar, M)
    Lw = L if field else _map_into(work, L, M)
    ctx = _run_levels(Fw, Lw, m, order, alpha_w, La_w, uhat, tinv, work, M, field, rng)
    split = _subset_split(F, ctx.snapshots[-1], order, ctx)
    return [g for _, g in split]


def _monic_lists(us, M):
    out = []
    for g in us:
        cs = [int(c) % M for c in g.coeffs]
        if cs[-1] != 1:
            il = pow(cs[-1], -1, M)
            cs = [c * il % M for c in cs]
        out.append(cs)
    return out


def _pm_prod(ls, M):
    out = [1]
    for l in ls:
        out = _pm_mul(out, l, M)
    return out


def _draw_alpha(K, others, rng, attempt):
    if attempt == 0:
        return {i: K.zero for i in others}
    if K.is_field:
        return {i: K.of(rng.randrange(K.p)) for i in others}
    w = 1 + attempt
    return {i: rng.randint(-w, w) for i in others}


def _precision(F, L, r, dF, p):
    """Prime-power exponent covering factor coefficients, Mignotte style.

    Estimates the norm of F * L^(r-1) without materializing the product.
    """
    nf = math.isqrt(sum(int(c) * int(c) for c in F.terms.values())) + 1
    nl = sum(abs(int(c)) for c in L.terms.values())
    bound = (1 << (dF + 8)) * nf * max(nl, 1) ** (r - 1)
    ell = 1
    pe = p
    while pe <= 2 * bound:
        pe *= p
        ell += 1
    return ell


def _map_into(work, f, M):
    out = {}
    for e, c in f.terms.items():
        v = int(c) % M
        if v:
            out[e] = v
    return MultiPoly(work, out)


class _ZmRing(rings.Ring):
    """Z/m for a prime power m; elements are ints in [0, m)."""

    is_field = False
    is_finite = True

    def __init__(self, m):
        self.m = m
        self.characteristic = m
        self.cardinality = m
        self.coeff_modulus = m
        self.zero = 0
        self.one = 1 % m

    def of(self, x):
        return int(x) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return a * b % self.m

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        return pow(a, -1, self.m)

    def pow(self, a, e):
        return pow(a, e, self.m)

    def spec_string(self):
        return "Zm[%d]" % self.m

    def __eq__(self, other):
        return isinstance(other, _ZmRing) and other.m == self.m

    def __hash__(self):
        return hash(("Zm", self.m))


# --------------------------------------------------------------- the lifting


class _LiftCtx:
    """Carries the lifted factor versions and the diophantine machinery."""

    def __init__(self, work, M, m, order, alpha, bounds, uhat, tinv, r, field):
        self.work = work
        self.K = work.cring
        self.M = M
        self.m = m
        self.order = order
        self.alpha = alpha
        self.bounds = bounds
        self.uhat = uhat
        self.tinv = tinv
        self.r = r
        self.field = field
        self.snapshots = []
        self.cof = {}
        self.exact = True

    def cofrows(self, s):
        """Per factor: shifted Taylor rows of the level-s cofactor product."""
        if s in self.cof:
            return self.cof[s]
        facs = self.snapshots[s]
        v = self.order[s - 1]
        a = self.alpha[v]
        D = self.bounds[v]
        n = len(facs)
        pre = [self.work.one]
        for g in facs:
            pre.append(multi_mul(pre[-1], g))
        suf = [self.work.one]
        for g in reversed(facs):
            suf.append(multi_mul(suf[-1], g))
        out = []
        for i in range(n):
            cof = multi_mul(pre[i], suf[n - 1 - i])
            rows = _shift_rows(coefficients_in(cof, v), a, self.work, D)
            out.append(rows)
        self.cof[s] = out
        return out


def _shift_rows(rows, a, work, D=None):
    """Taylor rows after v -> v + a; row j = sum_k C(k,j) a^(k-j) row_k."""
    if not rows:
        return {}
    K = work.cring
    if K.is_zero(a):
        if D is None:
            return dict(rows)
        return {k: p for k, p in rows.items() if k <= D}
    top = max(rows)
    apow = [K.one]
    for _ in range(top):
        apow.append(K.mul(apow[-1], a))
    acc = {}
    mod = getattr(K, "coeff_modulus", None)
    for k, poly in rows.items():
        for j in range(k + 1):
            if D is not None and j > D:
                continue
            c = K.mul(K.of(math.comb(k, j)), apow[k - j])
            if K.is_zero(c):
                continue
            bucket = acc.setdefault(j, {})
            if mod is not None:
                for e, cc in poly.terms.items():
                    v = (bucket.get(e, 0) + cc * c) % mod
                    if v:
                        bucket[e] = v
                    else:
                        bucket.pop(e, None)
                continue
            for e, cc in poly.terms.items():
                v = K.add(bucket.get(e, K.zero), K.mul(cc, c))
                if K.is_zero(v):
                    bucket.pop(e, None)
                else:
                    bucket[e] = v
    return {j: MultiPoly(work, b) for j, b in acc.items() if b}


def _rows_to_poly(rows, v, work):
    out = {}
    K = work.cring
    for j, poly in rows.items():
        for e, c in poly.terms.items():
            out[e[:v] + (j,) + e[v + 1 :]] = c
    return MultiPoly(work, out)


def _shift_poly(f, v, a, work, D=None):
    rows = _shift_rows(coefficients_in(f, v), a, work, D)
    return _rows_to_poly(rows, v, work)


def _trunc(f, pairs, work):
    """Reduce modulo (x_v - a_v)^(D_v + 1) for every lifted variable."""
    for v, a, D in pairs:
        if f.degree(v) <= D:
            continue
        f = _shift_poly(f, v, a, work, D)
        f = _shift_poly(f, v, work.cring.neg(a), work)
    return f


def _run_levels(Fw, Lw, m, order, alpha, La, uhat, tinv, work, M, field, rng):
    """Variable-by-variable lift of the monic image factors against Fw."""
    K = work.cring
    r = len(uhat)
    bounds = {v: Fw.degree(v) for v in order}

    ctx = _LiftCtx(work, M, m, order, alpha, bounds, uhat, tinv, r, field)
    base = []
    for cs in uhat:
        terms = {}
        for k, c in enumerate(cs):
            v = c * La % M if not field else K.mul(K.of(c), La)
            if v:
                e = [0] * len(work.vars)
                e[m] = k
                terms[tuple(e)] = v
        base.append(MultiPoly(work, terms))
    ctx.snapshots.append(base)

    # partial evaluations of F* from the innermost level outward
    Es = [None] * (len(order) + 1)
    cur = Fw
    for s in range(len(order), 0, -1):
        Es[s] = cur
        cur = multi_subs(cur, {order[s - 1]: alpha[order[s - 1]]})
    Ls = [None] * (len(order) + 1)
    cur = Lw
    for s in range(len(order), 0, -1):
        Ls[s] = cur
        cur = multi_subs(cur, {order[s - 1]: alpha[order[s - 1]]})

    dxs = [len(cs) - 1 for cs in uhat]
    for s in range(1, len(order) + 1):
        v = order[s - 1]
        a = alpha[v]
        D = bounds[v]
        rowsF = _shift_rows(coefficients_in(Es[s], v), a, work)
        Lrows = _shift_rows(coefficients_in(Ls[s], v), a, work)
        grows = []
        for i in range(r):
            prev = ctx.snapshots[s - 1][i]
            rows = {0: _drop_lc(prev, m, dxs[i], work)}
            for j, lp in Lrows.items():
                lifted = multi_mono_mul(lp, _unit_exp(work, m, dxs[i]), K.one)
                rows[j] = multi_add(rows.get(j, work.zero), lifted)
            grows.append({j: q for j, q in rows.items() if not q.is_zero()})
        _level(ctx, s, v, D, rowsF, grows)
        cur_polys = []
        for i in range(r):
            g = _rows_to_poly(grows[i], v, work)
            cur_polys.append(_shift_poly(g, v, K.neg(a), work))
        if ctx.exact and not _probably_same(cur_polys, Es[s], rng):
            ctx.exact = False
        ctx.snapshots.append(cur_polys)
    return ctx


def _probably_same(facs, target, rng):
    """Whether the product of facs equals target, tested at random points.

    A miss here only flips the lift into truncating mode one level late,
    which the final recombination divisions still catch; an exact compare
    is kept for moduli too small for the evaluation test to mean much.
    """
    work = target.ring
    K = work.cring
    if K.cardinality < (1 << 16):
        prod = facs[0]
        for g in facs[1:]:
            prod = multi_mul(prod, g)
        return prod == target
    n = len(work.vars)
    for _ in range(2):
        vals = {i: K.of(rng.randrange(2, 1 << 30)) for i in range(n)}
        lhs = K.one
        for g in facs:
            lhs = K.mul(lhs, multi_value(g, vals))
        if lhs != multi_value(target, vals):
            return False
    return True


def _unit_exp(work, m, d):
    e = [0] * len(work.vars)
    e[m] = d
    return tuple(e)


def _drop_lc(f, m, d, work):
    terms = {e: c for e, c in f.terms.items() if e[m] != d}
    return MultiPoly(work, terms)


def _level(ctx, s, v, D, rowsF, grows):
    """One ideal-adic level: correct factor rows 1..D in the shifted frame."""
    work = ctx.work
    K = work.cring
    r = ctx.r
    # lazy row convolution of the factor chain; memoized rows stay current
    # because each correction patches every cached product row in place
    memo = [None, None] + [dict() for _ in range(r - 1)]

    def prow(t, j):
        if t == 1:
            return grows[0].get(j)
        cache = memo[t]
        if j in cache:
            return cache[j]
        acc = None
        for a in range(j + 1):
            x = prow(t - 1, a)
            if x is None:
                continue
            y = grows[t - 1].get(j - a)
            if y is None:
                continue
            term = multi_mul(x, y)
            acc = term if acc is None else multi_add(acc, term)
        if acc is not None and acc.is_zero():
            acc = None
        cache[j] = acc
        return acc

    # row-0 cofactors for patching cached product rows after a correction
    base0 = [grows[i].get(0, work.zero) for i in range(r)]
    cof0 = None

    processed = [
        (u, ctx.alpha[u], ctx.bounds[u]) for u in ctx.order[: s - 1]
    ]
    for j in range(1, D + 1):
        pj = prow(r, j)
        fj = rowsF.get(j)
        if pj is None and fj is None:
            continue
        if pj is None:
            ej = fj
        elif fj is None:
            ej = multi_sub(work.zero, pj)
        else:
            ej = multi_sub(fj, pj)
        if not ctx.exact and processed:
            ej = _trunc(ej, processed, work)
        if ej.is_zero():
            continue
        ds = _mdp(ej, s - 1, ctx)
        if cof0 is None:
            cof0 = _cof0_table(base0, r, work)
        for i in range(r):
            d = ds[i]
            if d is None or d.is_zero():
                continue
            grows[i][j] = multi_add(grows[i].get(j, work.zero), d)
            for t in range(2, r + 1):
                cache = memo[t]
                if j not in cache or i >= t:
                    continue
                patch = multi_mul(d, cof0[t][i])
                cur = cache[j]
                cache[j] = patch if cur is None else multi_add(cur, patch)


def _cof0_table(base0, r, work):
    """cof0[t][i] = product of base rows 0 over k <= t-1, k != i."""
    table = {}
    for t in range(2, r + 1):
        row = []
        for i in range(t):
            prod = work.one
            for k in range(t):
                if k != i:
                    prod = multi_mul(prod, base0[k])
            row.append(prod)
        table[t] = row
    return table


def _bezout_rows(uhat, La, r, M, p):
    """tinv[i] with tinv[i] * cofactor_i = inv(La^(r-1)) modulo (uhat_i, M)."""
    zp = rings.ZpRing(p)
    scale = pow(int(La) % M, -(r - 1), M) if r > 1 else 1 % M
    out = []
    for i in range(r):
        cof = [1]
        for k in range(r):
            if k != i:
                cof = _pm_mul(cof, uhat[k], M)
        _, cofr = _pm_divrem_monic(cof, uhat[i], M)
        # invert modulo (uhat_i, p), then Newton-lift the inverse to mod M
        a = _poly(zp, [c % p for c in cofr])
        b = _poly(zp, [c % p for c in uhat[i]])
        g, sp, _ = uni_extended_gcd(a, b)
        if g.degree != 0:
            raise _BadPoint()
        inv0 = [c * pow(g.constant(), -1, p) % p for c in sp.coeffs]
        si = inv0
        steps = 0
        pe = p
        while pe < M:
            pe *= pe
            steps += 1
        for _ in range(steps):
            prod = _pm_mul(si, cofr, M)
            prod = [(-c) % M for c in prod]
            if prod:
                prod[0] = (prod[0] + 2) % M
            else:
                prod = [2 % M]
            si = _pm_mul(si, prod, M)
            _, si = _pm_divrem_monic(si, uhat[i], M)
        si = [c * scale % M for c in si]
        out.append(si)
    return out


def _mdp(e, s, ctx):
    """Solve sum_i delta_i * cofactor_i = e with x-degrees below the images."""
    work = ctx.work
    K = work.cring
    r = ctx.r
    if e.is_zero():
        return [None] * r
    if s == 0:
        el = [0] * (e.degree(ctx.m) + 1)
        for ex, c in e.terms.items():
            el[ex[ctx.m]] = int(c)
        out = []
        for i in range(r):
            si = _pm_mul(ctx.tinv[i], el, ctx.M)
            _, si = _pm_divrem_monic(si, ctx.uhat[i], ctx.M)
            terms = {}
            for k, c in enumerate(si):
                if c:
                    ee = [0] * len(work.vars)
                    ee[ctx.m] = k
                    terms[tuple(ee)] = K.of(c)
            out.append(MultiPoly(work, terms) if terms else None)
        return out
    v = ctx.order[s - 1]
    a = ctx.alpha[v]
    D = ctx.bounds[v]
    rows = _shift_rows(coefficients_in(e, v), a, work)
    if any(k > D for k in rows):
        raise _BadPoint()
    cof = ctx.cofrows(s)
    acc = [dict() for _ in range(r)]
    for k in range(D + 1):
        ek = rows.pop(k, None)
        if ek is None or ek.is_zero():
            continue
        ds = _mdp(ek, s - 1, ctx)
        for i in range(r):
            d = ds[i]
            if d is None or d.is_zero():
                continue
            for ee, c in d.terms.items():
                acc[i][ee[:v] + (k,) + ee[v + 1 :]] = c
            for l, cp in cof[i].items():
                if l == 0 or k + l > D:
                    continue
                prod = multi_mul(d, cp)
                tgt = rows.get(k + l)
                rows[k + l] = multi_sub(tgt, prod) if tgt is not None else multi_sub(work.zero, prod)
    out = []
    for i in range(r):
        if not acc[i]:
            out.append(None)
            continue
        d = MultiPoly(work, acc[i])
        out.append(_shift_poly(d, v, K.neg(a), work))
    return out


# ------------------------------------------------------------- recombination


def _subset_split(target, Gs, order, ctx):
    """Map lifted factors back, trying subset products until target is used up.

    Returns (subset, factor) pairs so callers can reuse the index grouping.
    """
    ring = target.ring
    work = ctx.work
    r = len(Gs)
    pairs = [(v, ctx.alpha[v], ctx.bounds[v]) for v in order]
    tested = 0

    def candidate(idxs):
        prod = Gs[idxs[0]]
        for i in idxs[1:]:
            prod = multi_mul(prod, Gs[i])
            prod = _trunc(prod, pairs, work)
        if ctx.field:
            g = prod
        else:
            terms = {}
            for e, c in prod.terms.items():
                v = symmetric_lift(c, ctx.M)
                if v:
                    terms[e] = v
            g = MultiPoly(ring, terms)
        if g.is_zero() or g.degree(ctx.m) < 1:
            return None
        _, prim = content_primitive(g, ctx.m)
        if prim.degree(ctx.m) < 1:
            return None
        return ring.normalize_unit(prim)[1]

    remaining = list(range(r))
    out = []
    Fcur = target
    k = 1
    while 2 * k <= len(remaining):
        hit = False
        for subset in itertools.combinations(remaining, k):
            tested += 1
            if tested > _SUBSET_BUDGET:
                raise _BadPoint()
            g = candidate(list(subset))
            if g is None or g.is_constant():
                continue
            if multi_divides(g, Fcur):
                out.append((subset, g))
                Fcur = multi_exact_div(Fcur, g)
                drop = set(subset)
                remaining = [i for i in remaining if i not in drop]
                hit = True
                break
        if not hit:
            k += 1
    if remaining:
        g = candidate(remaining)
        # sections of a primitive polynomial can pick up content of their own
        _, fc = content_primitive(Fcur, ctx.m)
        _, fc = ring.normalize_unit(fc)
        if g is None or g != fc:
            raise _BadPoint()
        out.append((tuple(remaining), fc))
    elif not Fcur.is_constant():
        raise _BadPoint()
    return out


# ------------------------------------------------------------------ Q bridge


def _factor_over_q(ring, f, seed):
    """Clear denominators, factor over Z, then fold units back into Q."""
    K = ring.cring
    zring = MultiRing(rings.ZZ, ring.vars, ring.order)
    den, nums = K.clear_denominators(f.terms.values())
    fz = MultiPoly(zring, dict(zip(f.terms, nums)))
    unit_z, parts = factor_multipoly(zring, fz, seed)
    unit = K.div(K.of(unit_z.constant()), K.of(den))
    out = []
    for g, e in parts:
        if g.is_constant():
            unit = K.mul(unit, K.pow(K.of(g.constant()), e))
            continue
        gq = MultiPoly(ring, {ee: K.of(c) for ee, c in g.terms.items()})
        lc = gq.lc()
        if not K.is_one(lc):
            unit = K.mul(unit, K.pow(lc, e))
            gq = multi_scale(gq, K.inv(lc))
        out.append((gq, e))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return ring.from_coeff(unit), out
