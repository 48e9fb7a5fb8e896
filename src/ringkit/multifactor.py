"""Multivariate factorization over Zp and Z by evaluation and ideal-adic lifting.

The input is first made primitive in every variable (contents are factored
recursively), multiplicities are split off with Yun's loop along one
variable, and each squarefree primitive part is reduced to one variable: all
but a chosen main variable are evaluated at a random point, the univariate
image is factored, and the image factors are lifted back one variable at a
time through powers of (x_v - alpha_v).  Leading coefficients in x_m are
fixed before the full lift, as in Wang (1978) and Kaltofen (1985): L =
lc(F) = s * prod l_k^e_k is factored recursively, and each l_k goes to the
image factors whose bivariate factors (from a scout lift in x_m and one
other variable) carry it in their leading coefficients.  With r factors the
lift runs on F' = (sU)^(r-1) * F, factor i keeping lc sU * P_i, where P_i
holds its l_k and U the l_k no image could place.  U = L/s with every
P_i = 1 is the classical multiply-through transform.  The scouts need no
transform: as in the multifactor Hensel lift of von zur Gathen and Gerhard
(Modern Computer Algebra, ch. 15), F_v lifts with lc L_v on one image
factor and the others monic, so their bound in x_v is deg_v F_v for any r.

The lift has one path on residue ints: over Zp, or over Z modulo a machine
prime power chosen to cover the true coefficients, with candidates coming
back through symmetric lifting.  As in the textbook lift (Wang 1978), each
level always reduces its error terms modulo (x_v - alpha_v)^(D_v + 1) for
the variables already lifted; an exact lift pays only a degree check.
A subset-recombination pass repairs images that split more finely than the
true factorization; every emitted factor is certified by exact division, so
unlucky evaluation points cost retries, never wrong answers.

Inside the lift a polynomial is a plain dict {packed monomial key: residue}
under one `multipoly.Layout` per `_run_levels` call, sized by
`_lift_layout`: x_m in the low field, then the lifted variables, each with
room for r * D_v.  F', the lcs and their partial evaluations are packed
once on entry; rows in a variable are split off and joined back by shift
and mask, and every product, Taylor shift and truncation runs the one
packed-product loop, `multipoly.mul_keys_into`.
The only way back to MultiPoly is the unpacking of each recombination
candidate in `_subset_split`.
"""

import itertools
import math
import random
from functools import reduce

from . import rings
from .errors import RetryBudgetError, UnsupportedRingError
from .modular import symmetric_lift
from .multigcd import multi_gcd
from .multipoly import (
    Layout,
    MultiPoly,
    MultiRing,
    change_ring,
    clear_to_z,
    content_primitive,
    from_unipoly,
    lc_in,
    min_exponents,
    multi_derivative,
    multi_exact_div,
    multi_mul,
    mul_keys,
    mul_keys_into,
    multi_pow,
    multi_sub,
    multi_subs,
    multi_value,
    reduce_keys,
    to_unipoly,
    univariate_image,
)
from .primes import factor_integer
from .unifactor import (
    _coeff_key,
    _exponent_above,
    _good_prime,
    factor_finite,
    factor_over_z,
)
from .unipoly import (
    UniPoly,
    _divides,
    _poly,
    squarefree_parts,
    uni_derivative,
    uni_exact_div,
    uni_extended_gcd,
    uni_gcd,
    uni_monic,
    uni_mul,
    uni_primitive,
    uni_rem,
    uni_scale,
    uni_sub,
)

_TRIES = 16
_SUBSET_BUDGET = 4096


class _BadPoint(Exception):
    """The evaluation point broke an invariant; try another one."""


# ----------------------------------------------------------------- dispatch


def factor_multipoly(ring, f, seed=0):
    """(unit, [(factor, exponent), ...]) with canonical, sorted factors.

    Coefficients may come from Z, from Q, or from a prime field whose
    modulus exceeds the total degree of f.
    """
    f = ring.of(f)
    if f.is_zero():
        raise ArithmeticError("cannot factor the zero polynomial")
    K = ring.cring
    rng = random.Random((seed * 0x9E3779B1) ^ 0x5F0E1D2C)
    if isinstance(K, rings.ZpRing) and K.p <= f.degree():
        raise UnsupportedRingError(
            "modulus %d does not exceed the total degree %d" % (K.p, f.degree())
        )
    if isinstance(K, (rings.ZpRing, rings.IntegerRing)):
        acc = _Acc(ring)
        _factor_into(acc, f, 1, rng)
        return acc.result()
    if K == rings.QQ:
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


def _sort_key(f):
    items = sorted((e, _coeff_key(c)) for e, c in f.terms.items())
    return (f.degree(), len(items), items)


# ------------------------------------------------------- recursive reduction


def _factor_into(acc, f, mult, rng):
    """Feed the factors of f (with outer multiplicity) into the accumulator."""
    ring = f.ring
    if f.is_constant():
        _constant_into(acc, f.constant(), mult)
        return
    n = len(ring.vars)
    # common monomial first: bare variable powers are factors of their own
    mins = min_exponents(f)
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
    # a monomial or a product of contents leaves a constant
    if f.is_constant():
        _constant_into(acc, f.constant(), mult)
        return
    act = [i for i in range(n) if f.degree(i) > 0]
    if len(act) == 1:
        _single_var_into(acc, f, act[0], mult, rng)
        return
    # multiplicities via Yun's loop along the lowest active variable: f is
    # primitive in every variable, so each irreducible factor shows up in the
    # derivative, and the characteristic is 0 or above deg f
    v = act[0]
    parts = squarefree_parts(
        f,
        lambda a, b: multi_gcd(a, b, seed=rng.randrange(1 << 30)),
        multi_exact_div,
        lambda g: multi_derivative(g, v),
        multi_sub,
    )
    # f is the product of the parts' powers times a constant: the ratio of
    # leading coefficients, as leading monomials multiply under any order
    K = ring.cring
    c = f.lc()
    deg = f.degree()
    for part, k in parts:
        c = K.exact_div(c, K.pow(part.lc(), k))
        deg -= k * part.degree()
        _prim_squarefree_into(acc, part, mult * k, rng)
    if deg:
        raise ArithmeticError("squarefree decomposition left a non-constant cofactor")
    _constant_into(acc, c, mult)


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
    field = acc.K.is_field
    unit, parts = factor_finite(u, seed=rng.randrange(1 << 30)) if field else factor_over_z(u)
    acc.scalar(unit.constant(), mult)
    for g, e in parts:
        acc.add(from_unipoly(f.ring, g, i), mult * e)


def _prim_squarefree_into(acc, F, mult, rng):
    """F squarefree and primitive in every variable; emit its irreducibles.

    Each squarefree part of _factor_into has all of its (two or more) active
    variables.
    """
    ring = F.ring
    act = [i for i in range(len(ring.vars)) if F.degree(i) > 0]
    # main variable: fewest (degree, occupied terms), ties to the left
    m = min(act, key=lambda i: (F.degree(i), sum(1 for e in F.terms if e[i] > 0), i))
    for attempt in range(_TRIES):
        try:
            parts = _attempt(F, m, rng, attempt)
        except _BadPoint:
            continue
        # each part is F itself or was divided out of F by _subset_split, so
        # F is their product times a constant: the ratio of leading
        # coefficients, as leading monomials multiply under any order
        c = F.lc()
        deg = F.degree()
        for g in parts:
            _, g = ring.normalize_unit(g)
            c = ring.cring.exact_div(c, g.lc())
            deg -= g.degree()
            acc.add(g, mult)
        if deg:
            raise ArithmeticError("lifted factors do not multiply back")
        _constant_into(acc, c, mult)
        return
    raise RetryBudgetError("no lucky evaluation point", _TRIES)


# ----------------------------------------------------------- one full attempt


def _attempt(F, m, rng, attempt):
    """Factor one squarefree primitive part through a random evaluation.

    A cheap bivariate scouting pass lifts the first variable only and
    regroups image factors that split more finely than the bivariate
    factorization, and spots irreducible inputs before the full lift.  A
    scout lifts F_v (F with the other variables at alpha) with lc L_v on
    group 0 and every other group monic.  With three or more active
    variables, `_lc_parts` then reads each factor's leading coefficient off
    bivariate factorizations, so the full lift multiplies F through by the
    shared part sU only.  The lifts run on residues mod p (over Zp) or mod
    p^ell (over Z) and always truncate their error terms.  Raises _BadPoint
    whenever the point is unusable; every result is certified by exact
    division.
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
    if K.is_zero(multi_value(L, alpha)):
        raise _BadPoint()
    u = univariate_image(F, m, alpha)
    if uni_gcd(u, uni_derivative(u)).degree != 0:
        raise _BadPoint()

    _, uparts = factor_finite(u, seed=rng.randrange(1 << 30)) if field else factor_over_z(u)
    us = [g for g, _ in uparts if g.degree >= 1]
    if len(us) == 1:
        return [F]
    p = K.p if field else _good_prime(u)

    def work_ring(c, r):
        """The ring of a lift whose r factors share the lc part c."""
        if field:
            return ring
        ell = _precision(F, c, r, dF, p) + 2 * min(attempt, 3)
        return MultiRing(rings.ZmRing(p**ell), ring.vars, ring.order)

    def lift(work, target, sU, P, order, groups, lead=None):
        """Lift target * sU^(r-1) with factor i's lc set to sU * P[i]; the
        candidates that lack group 0 take `lead` (see _subset_split)."""
        Kw = work.cring
        uhat = [
            uni_monic(_poly(Kw, [Kw.of(c) for c in reduce(uni_mul, [us[i] for i in g]).coeffs]))
            for g in groups
        ]
        Fw = change_ring(multi_mul(target, multi_pow(sU, len(groups) - 1)), work)
        lcs = [change_ring(multi_mul(sU, q), work) for q in P]
        ctx = _run_levels(Fw, lcs, m, order, alpha, uhat, p)
        if lead is not None:
            lead = ctx.lay.pack_terms(change_ring(lead, work).terms)
        return _subset_split(target, ctx.snapshots[-1], order, ctx, lead)

    scout_ring = work_ring(L, 2)

    def scout(v, groups):
        """Bivariate factors in x_m and x_v, the others at alpha: F_v itself
        lifts, with lc L_v on group 0 and every other group monic."""
        rest = {i: alpha[i] for i in others if i != v}
        Fv, Lv = multi_subs(F, rest), multi_subs(L, rest)
        P = [Lv] + [ring.one] * (len(groups) - 1)
        return lift(scout_ring, Fv, ring.one, P, [v], groups, Lv)

    split = scout(others[0], [(i,) for i in range(len(us))])
    if len(split) == 1:
        return [F]
    if len(others) == 1:
        # only two active variables, so the scout did the whole job
        return [g for _, g in split]
    groups = [subset for subset, _ in split]
    sU, P = _lc_parts(L, m, others, alpha, split, scout, rng.randrange(1 << 30))
    return [g for _, g in lift(work_ring(sU, len(groups)), F, sU, P, others, groups)]


def _lc_parts(L, m, others, alpha, split, scout, seed):
    """(sU, [P_i]) with L = sU * prod P_i, where P_i is the part of L that
    goes to the leading coefficient of group i's factor.

    L = s * prod l_k^e_k is factored first.  Each l_k is tried in the
    variables v it involves, in lifting order, until it is assigned:
    `split` holds the groups and their bivariate factors in x_m and the
    first variable, and each other variable takes one more scout, which
    must keep the grouping.  When the image of l_k in x_v is squarefree,
    keeps its degree and is coprime to the images of the other l_j, the
    number of times it divides the image of a group's lc is that group's
    exponent, if these add up to e_k.
    U is the product of the l_k left unassigned.  When L cannot be
    factored, or a scout fails or changes the grouping, sU = L and every
    P_i is 1.
    """
    ring = L.ring
    r = len(split)
    groups = [subset for subset, _ in split]
    bivs = [g for _, g in split]
    fallback = L, [ring.one] * r
    # the integer content stays whole: s needs no prime factors
    s = ring.one if ring.cring.is_field else ring.from_coeff(math.gcd(*L.terms.values()))
    try:
        unit, ls = factor_multipoly(ring, multi_exact_div(L, s), seed)
    except RetryBudgetError:
        return fallback
    s = multi_mul(s, unit)
    exps = {}
    for v in others:
        todo = [k for k, (l, _) in enumerate(ls) if k not in exps and l.degree(v) > 0]
        if not todo:
            continue
        if v != others[0]:
            try:
                split = scout(v, groups)
            except _BadPoint:
                return fallback
            if sorted(subset for subset, _ in split) != [(i,) for i in range(r)]:
                return fallback
            bivs = [g for _, g in sorted(split, key=lambda sg: sg[0])]
        rest = {i: a for i, a in alpha.items() if i != v}
        imgs = [univariate_image(l, v, rest) for l, _ in ls]
        lcv = [to_unipoly(lc_in(g, m), v) for g in bivs]
        for k in todo:
            img = imgs[k]
            if img.degree != ls[k][0].degree(v):
                continue
            # one gcd: squarefree and coprime to the other images
            cof = reduce(uni_mul, [c for j, c in enumerate(imgs) if j != k], uni_derivative(img))
            if uni_gcd(img, cof).degree:
                continue
            # over Z the primitive part divides exactly what it divides over Q
            img = uni_primitive(img)[1]
            # a bivariate factor can lose part of its lc to its content,
            # never gain one: the counts are exact when they add up
            es = [_multiplicity(c, img) for c in lcv]
            if sum(es) == ls[k][1]:
                exps[k] = es
    U, P = s, [ring.one] * r
    for k, (l, e) in enumerate(ls):
        if k not in exps:
            U = multi_mul(U, multi_pow(l, e))
        for i, ei in enumerate(exps.get(k, ())):
            P[i] = multi_mul(P[i], multi_pow(l, ei))
    return U, P


def _multiplicity(c, l):
    """How often the nonconstant l divides the nonzero c."""
    e = 0
    while True:
        try:
            c = uni_exact_div(c, l)
        except ArithmeticError:
            return e
        e += 1


def _draw_alpha(K, others, rng, attempt):
    if attempt == 0:
        return {i: K.zero for i in others}
    if K.is_field:
        return {i: K.of(rng.randrange(K.p)) for i in others}
    w = 1 + attempt
    return {i: rng.randint(-w, w) for i in others}


def _precision(F, c, r, dF, p):
    """Prime-power exponent covering factor coefficients, Mignotte style.

    Estimates the norm of F * c^(r-1) without materializing the product.
    The scouts take c = L and r = 2: their candidates divide L_v * F_v.
    """
    nf = math.isqrt(sum(int(x) * int(x) for x in F.terms.values())) + 1
    nl = sum(abs(int(x)) for x in c.terms.values())
    return _exponent_above(p, (1 << (dF + 8)) * nf * max(nl, 1) ** (r - 1))


# --------------------------------------------------------------- the lifting


def _lift_layout(m, order, degs, r):
    """The Layout of one lift; `degs` are the degrees of F' per variable.

    x_m takes the low field, so a key free of the lifted variables is its
    x_m degree; the field holds deg_m F', since every polynomial in the lift
    is a piece of a product of the factors, whose x_m degrees add up to it.
    Each lifted variable v comes next, in lifting order, with room for
    r * D_v, the most a product of r truncated factors reaches; the
    remaining variables take the fields above.
    """
    lifted = set(order)
    rest = [i for i in range(len(degs)) if i != m and i not in lifted]
    fields = [m] + list(order) + rest
    bits = [(d if i == m else r * d).bit_length() for i, d in enumerate(degs)]
    return Layout(bits, fields)


class _LiftCtx:
    """Carries the lifted factor versions and the diophantine machinery."""

    def __init__(self, lay, K, m, order, alpha, bounds, uhat, tinv):
        self.lay = lay
        self.K = K
        self.mod = K.coeff_modulus
        self.m = m
        self.order = order
        self.alpha = alpha
        self.bounds = bounds
        self.uhat = uhat
        self.tinv = tinv
        self.r = len(uhat)
        self.snapshots = []
        self.cof = {}

    def cofrows(self, s):
        """Per factor: shifted Taylor rows of the level-s cofactor product."""
        if s in self.cof:
            return self.cof[s]
        lay = self.lay
        mod = self.mod
        facs = self.snapshots[s]
        v = self.order[s - 1]
        n = len(facs)
        pre = [{0: 1}]
        for g in facs:
            pre.append(mul_keys(pre[-1], g, mod))
        suf = [{0: 1}]
        for g in reversed(facs):
            suf.append(mul_keys(suf[-1], g, mod))
        out = []
        for i in range(n):
            cof = mul_keys(pre[i], suf[n - 1 - i], mod)
            out.append(_shift_rows(lay.split(cof, v), self.alpha[v], mod, self.bounds[v]))
        self.cof[s] = out
        return out


def _shift_rows(rows, a, mod, D=None):
    """Taylor rows after v -> v + a; row j = sum_k C(k,j) a^(k-j) row_k.

    a and the coefficients are residues mod `mod`; each bucket sums its
    products unreduced and is reduced once per output term.
    """
    if not rows:
        return {}
    if a == 0:
        if D is None:
            return dict(rows)
        return {k: p for k, p in rows.items() if k <= D}
    top = max(rows)
    apow = [1]
    for _ in range(top):
        apow.append(apow[-1] * a % mod)
    acc = {}
    for k, poly in rows.items():
        for j in range(k + 1 if D is None else min(k, D) + 1):
            c = math.comb(k, j) * apow[k - j] % mod
            if not c:
                continue
            mul_keys_into(acc.setdefault(j, {}), poly, {0: c})
    out = {}
    for j, b in acc.items():
        b = reduce_keys(b, mod)
        if b:
            out[j] = b
    return out


def _mod_lifted(f, pairs, ctx):
    """Reduce modulo (x_v - a_v)^(D_v + 1) for every lifted variable.

    Division by the monic (v - a)^(D+1) = v^(D+1) + sum_i b_i v^i: the
    top row q, at degree k, leaves -q * b_i at degree k - D - 1 + i.
    """
    lay, mod = ctx.lay, ctx.mod
    for v, a, D in pairs:
        top = lay.degree(f, v)
        if top <= D:
            continue
        rows = lay.split(f, v)
        if a:
            n = D + 1
            b = [math.comb(n, i) * pow(-a, n - i, mod) % mod for i in range(n)]
            for k in range(top, D, -1):
                q = reduce_keys(rows.pop(k, {}), mod)
                if q:
                    for i, bi in enumerate(b):
                        if bi:
                            mul_keys_into(rows.setdefault(k - n + i, {}), q, {0: -bi})
            rows = {j: reduce_keys(row, mod) for j, row in rows.items()}
        f = lay.join({j: row for j, row in rows.items() if j <= D}, v)
    return f


def _run_levels(Fw, lcs, m, order, alpha, uhat, p):
    """Variable-by-variable lift of the monic image factors against Fw.

    Factor i keeps the leading coefficient lcs[i] in x_m, and Fw is their
    product's target.  Fw, the lcs and their partial evaluations are packed
    once under one layout; every level then works on packed dicts.
    """
    work = Fw.ring
    K = work.cring
    alpha = {i: K.of(a) for i, a in alpha.items()}
    lca = [multi_value(c, alpha) for c in lcs]
    r = len(uhat)
    degs = Fw.degrees()
    bounds = {v: degs[v] for v in order}
    lay = _lift_layout(m, order, degs, r)

    ctx = _LiftCtx(lay, K, m, order, alpha, bounds, uhat, _bezout_rows(uhat, lca, p))
    mod = ctx.mod
    ctx.snapshots.append(
        [{k: c for k, c in enumerate(uni_scale(g, a).coeffs) if c} for g, a in zip(uhat, lca)]
    )

    # partial evaluations of Fw and the lcs from the innermost level outward
    packs = [None] * (len(order) + 1)
    cur = [Fw] + lcs
    for s in range(len(order), 0, -1):
        packs[s] = [lay.pack_terms(f.terms) for f in cur]
        point = {order[s - 1]: alpha[order[s - 1]]}
        cur = [multi_subs(f, point) for f in cur]

    dxs = [g.degree for g in uhat]
    mmask = lay.mask[m]
    for s in range(1, len(order) + 1):
        v = order[s - 1]
        a = alpha[v]
        D = bounds[v]
        Es, *Ls = packs[s]
        rowsF = _shift_rows(lay.split(Es, v), a, mod)
        grows = []
        for i in range(r):
            d = dxs[i]
            # row 0 without its x_m^d term, then lc rows times x_m^d
            rows = {0: {k: c for k, c in ctx.snapshots[s - 1][i].items() if k & mmask != d}}
            for j, lp in _shift_rows(lay.split(Ls[i], v), a, mod).items():
                rows[j] = K.add_terms(rows.get(j, {}), {k + d: c for k, c in lp.items()})
            grows.append({j: q for j, q in rows.items() if q})
        _level(ctx, s, v, D, rowsF, grows)
        ctx.snapshots.append([lay.join(_shift_rows(g, -a % mod, mod), v) for g in grows])
    return ctx


def _level(ctx, s, v, D, rowsF, grows):
    """One ideal-adic level: correct factor rows 1..D in the shifted frame.

    Every error term is reduced modulo (x_u - alpha_u)^(D_u + 1) for the
    variables u lifted at earlier levels before it is solved for; all
    coefficients are residues mod `ctx.mod`.
    """
    lay = ctx.lay
    mod = ctx.mod
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
        acc = {}
        for a in range(j + 1):
            x = prow(t - 1, a)
            y = grows[t - 1].get(j - a)
            if x is not None and y is not None:
                mul_keys_into(acc, x, y)
        cache[j] = reduce_keys(acc, mod) or None
        return cache[j]

    # row-0 cofactors for patching cached product rows after a correction
    base0 = [grows[i].get(0, {}) for i in range(r)]
    cof0 = None

    processed = [(u, ctx.alpha[u], ctx.bounds[u]) for u in ctx.order[: s - 1]]
    for j in range(1, D + 1):
        pj = prow(r, j)
        fj = rowsF.get(j)
        if pj is None and fj is None:
            continue
        ej = ctx.K.add_terms(fj or {}, pj or {}, -1)
        ej = _mod_lifted(ej, processed, ctx)
        if not ej:
            continue
        ds = _mdp(ej, s - 1, ctx)
        if cof0 is None:
            cof0 = _cof0_table(base0, r, mod)
        for i in range(r):
            d = ds[i]
            if not d:
                continue
            grows[i][j] = ctx.K.add_terms(grows[i].get(j, {}), d)
            for t in range(2, r + 1):
                cache = memo[t]
                if j not in cache or i >= t:
                    continue
                acc = mul_keys_into(dict(cache[j] or {}), d, cof0[t][i])
                cache[j] = reduce_keys(acc, mod)


def _cof0_table(base0, r, mod):
    """cof0[t][i] = product of base rows 0 over k <= t-1, k != i."""
    table = {}
    for t in range(2, r + 1):
        row = []
        for i in range(t):
            prod = {0: 1}
            for k in range(t):
                if k != i:
                    prod = mul_keys(prod, base0[k], mod)
            row.append(prod)
        table[t] = row
    return table


def _bezout_rows(uhat, lca, p):
    """tinv[i] with tinv[i] * cofactor_i = prod_{j != i} lca[j]^(-1) modulo
    uhat_i, where lca[j] is the value of factor j's lc at the point.

    The uhat are monic over Z/p^k (k >= 1); the inverses come from the
    extended gcd over Zp and are Newton-lifted to p^k.
    """
    K = uhat[0].ring
    zp = rings.ZpRing(p)
    r = len(uhat)
    inv = K.pow(reduce(K.mul, lca), -1)
    two = _poly(K, [K.of(2)])
    out = []
    for i in range(r):
        cofr = uni_rem(reduce(uni_mul, uhat[:i] + uhat[i + 1 :]), uhat[i])
        a = _poly(zp, [c % p for c in cofr.coeffs])
        b = _poly(zp, [c % p for c in uhat[i].coeffs])
        g, sp, _ = uni_extended_gcd(a, b)
        if g.degree != 0:
            raise _BadPoint()
        # g is monic, so sp inverts cofr mod (uhat_i, p); its residues mod p
        # are residues mod p^k as they stand
        si = UniPoly(K, sp.coeffs)
        pe = p
        while pe < K.coeff_modulus:
            pe *= pe
            si = uni_rem(uni_mul(si, uni_sub(two, uni_mul(si, cofr))), uhat[i])
        out.append(uni_scale(si, K.mul(inv, lca[i])))
    return out


def _mdp(e, s, ctx):
    """Solve sum_i delta_i * cofactor_i = e with x-degrees below the images."""
    lay = ctx.lay
    mod = ctx.mod
    r = ctx.r
    if not e:
        return [None] * r
    if s == 0:
        # only x_m is left, so each key is an x_m degree
        el = _poly(ctx.K, [e.get(k, 0) for k in range(max(e) + 1)])
        out = []
        for ti, ui in zip(ctx.tinv, ctx.uhat):
            d = uni_rem(uni_mul(ti, el), ui)
            out.append({k: c for k, c in enumerate(d.coeffs) if c} or None)
        return out
    v = ctx.order[s - 1]
    a = ctx.alpha[v]
    D = ctx.bounds[v]
    rows = lay.split(e, v)
    if max(rows) > D:
        raise _BadPoint()
    # rows k+1..D collect the products d * cofactor row unreduced, and each
    # row is reduced once, when its turn comes
    rows = _shift_rows(rows, a, mod)
    cof = ctx.cofrows(s)
    acc = [dict() for _ in range(r)]
    for k in range(D + 1):
        ek = reduce_keys(rows.pop(k, {}), mod)
        if not ek:
            continue
        ds = _mdp(ek, s - 1, ctx)
        for i in range(r):
            d = ds[i]
            if not d:
                continue
            acc[i][k] = d
            neg = {e: -c for e, c in d.items()}
            for l, cp in cof[i].items():
                if 0 < l <= D - k:
                    mul_keys_into(rows.setdefault(k + l, {}), neg, cp)
    return [lay.join(_shift_rows(rows_i, -a % mod, mod), v) if rows_i else None for rows_i in acc]


# ------------------------------------------------------------- recombination


def _subset_split(target, Gs, order, ctx, lead=None):
    """Map lifted factors back, trying subset products until target is used up.

    A scout's factor 0 has lc L_v and the others are monic: each candidate
    that lacks index 0, the final `remaining` one too, takes `lead` (packed
    L_v), so every candidate is (L_v / lc f_S) * f_S, of degree at most
    deg_v F_v in x_v, and the truncation loses nothing.
    A raw candidate g = c * f_S is first tested at a second point beta, each
    variable but x_m at a fixed offset from alpha: g(beta) is c(beta) times
    a divisor of the unsplit part's image at beta, so unless g(beta) drops
    in degree its primitive part must divide that image.  Only a candidate
    that passes takes its content and the exact division.
    Returns (subset, factor) pairs so callers can reuse the index grouping.
    """
    ring = target.ring
    K = ring.cring
    lay = ctx.lay
    mod = ctx.mod
    m = ctx.m
    r = len(Gs)
    pairs = [(v, ctx.alpha[v], ctx.bounds[v]) for v in order]
    beta = {v: K.of(symmetric_lift(a, mod) + 1 + j) for j, (v, a) in enumerate(ctx.alpha.items())}
    tested = 0

    def candidate(idxs):
        """The raw product c * f_S, or None when it is constant in x_m."""
        factors = [Gs[i] for i in idxs] + ([lead] if lead and 0 not in idxs else [])
        prod = factors[0]
        for g in factors[1:]:
            prod = mul_keys(prod, g, mod)
            prod = _mod_lifted(prod, pairs, ctx)
        if not K.is_field:
            prod = {k: c for k, v in prod.items() if (c := symmetric_lift(v, mod))}
        g = MultiPoly(ring, lay.unpack_terms(prod))
        return None if g.is_zero() or g.degree(m) < 1 else g

    def primitive(g):
        _, prim = content_primitive(g, m)
        return ring.normalize_unit(prim)[1] if prim.degree(m) >= 1 else None

    def passes_at_beta(g, image):
        gb = univariate_image(g, m, beta)
        return gb.degree < g.degree(m) or _divides(uni_primitive(gb)[1], image)

    remaining = list(range(r))
    out = []
    Fcur = target
    image = univariate_image(Fcur, m, beta)
    k = 1
    while 2 * k <= len(remaining):
        hit = False
        for subset in itertools.combinations(remaining, k):
            tested += 1
            if tested > _SUBSET_BUDGET:
                raise _BadPoint()
            g = candidate(list(subset))
            if g is None or not passes_at_beta(g, image):
                continue
            g = primitive(g)
            if g is None:
                continue
            try:
                Fcur = multi_exact_div(Fcur, g)
            except ArithmeticError:
                continue
            image = univariate_image(Fcur, m, beta)
            out.append((subset, g))
            drop = set(subset)
            remaining = [i for i in remaining if i not in drop]
            hit = True
            break
        if not hit:
            k += 1
    if remaining:
        g = candidate(remaining)
        g = g if g is None else primitive(g)
        # sections of a primitive polynomial can pick up content of their own
        _, fc = content_primitive(Fcur, m)
        _, fc = ring.normalize_unit(fc)
        if g is None or g != fc:
            raise _BadPoint()
        out.append((tuple(remaining), fc))
    elif not Fcur.is_constant():
        raise _BadPoint()
    return out


# ------------------------------------------------------------------ Q bridge


def _factor_over_q(ring, f, seed):
    """Monic factors over Q from the factors over Z; the unit is lc(f),
    since a product of monic polynomials is monic under a monomial order."""
    fz = clear_to_z(f)
    _, parts = factor_multipoly(fz.ring, fz, seed)
    out = []
    for g, e in parts:
        if g.is_constant():
            continue  # constant over Q, already part of the unit
        out.append((ring.normalize_unit(change_ring(g, ring))[1], e))
    out.sort(key=lambda fm: (_sort_key(fm[0]), fm[1]))
    return ring.from_coeff(f.lc()), out
