"""Multivariate polynomial GCD.

Field coefficients: per-variable degree bounds come from univariate
images, all read off the term values of both inputs at one point,
variables the gcd does not use are removed by content extraction, and
the rest is variable-by-variable sparse interpolation (Zippel) with the
gcd of the two leading coefficients imposed on every image so that
images taken at different points agree.  Each new variable
x_v is taken at geometric points alpha_v * beta^j, and Berlekamp-Massey
on every monomial's coefficients stops the loop early, after about
2*tau+1 points for tau x_v-terms per coefficient (Ben-Or/Tiwari with the
early termination of Kaltofen, Lee and Lobo); at the degree bound it
interpolates densely instead.  A frame whose skeleton or points go bad is
drawn afresh, up to 8 times.  Every content comes through
`multipoly.content_primitive`, whose gcds fold in `gcd_many` and run
through `multi_gcd` with their own seeded draws.  The probes' list work
(term-value products, slice sums, the interpolation rows' dot products,
Berlekamp-Massey) runs on the coefficient ring's list steps, so one code
path serves Zp and every other field.

Integer coefficients: the integer contents are split off, a gcd in one
active variable goes to `uni_gcd`, and otherwise the field algorithm runs
modulo word-size primes (one 30-bit CPython digit each) inside
`modular.modular_gcd`, which scales each image by the gcd of the leading
coefficients, drops images from unlucky primes, combines the rest by CRT
and trial-divides after every prime; it gives up only once the modulus
passes twice a coefficient bound of the scaled gcd.  As in Zippel's sparse
modular gcd, the first prime fixes the frame: its degree bounds and the
support of H.  Every later prime reuses them and takes H from one
skeleton image, `count` univariate gcds; a stale frame fails the trial
division mod p or the degree checks of the probes, and that prime runs
the full algorithm again and stores its frame instead.  Rational
coefficients clear denominators first.

Every candidate is certified by trial division before it is returned,
so unlucky evaluation points can cost retries but never correctness.
The trial divisions run `multi_divides`, which stops at the first term
that shows the candidate does not divide.
"""

import bisect
import math
import operator
import random

from . import rings
from .errors import RetryBudgetError, UnsupportedRingError
from .modular import gcd_coeff_bound, modular_gcd
from .multipoly import (
    MultiPoly,
    MultiRing,
    change_ring,
    clear_to_z,
    content_primitive,
    from_unipoly,
    lc_in,
    min_exponents,
    multi_add,
    multi_divides,
    multi_mul,
    multi_scale,
    multi_value,
    slot_sums,
    term_values,
    to_unipoly,
    univariate_image,
)
from .unipoly import _poly, uni_gcd, uni_lagrange_basis, uni_scale

_RETRIES = 16


class _Unlucky(Exception):
    """A single evaluation point went bad; redraw and retry locally."""


class _Restart(Exception):
    """The evaluation frame is compromised (degree estimate shrank)."""


def multi_gcd(a: MultiPoly, b: MultiPoly, seed: int = 0):
    """Canonical gcd: monic over a field, positive leading coeff over Z."""
    if a.ring != b.ring:
        raise ValueError("gcd operands live in different rings")
    ring = a.ring
    if a.is_zero() and b.is_zero():
        return ring.zero
    if a.is_zero():
        return ring.normalize_unit(b)[1]
    if b.is_zero():
        return ring.normalize_unit(a)[1]
    K = ring.cring
    rng = random.Random((seed << 32) ^ 0x5BD1E995)
    if K.is_field:
        if K.is_finite:
            return _field_entry(a, b, rng)
        if K == rings.QQ:
            return _gcd_q(a, b, rng)
        raise UnsupportedRingError("gcd over %s is not supported" % (K,))
    if isinstance(K, rings.IntegerRing):
        return _gcd_z(a, b, rng)
    raise UnsupportedRingError("gcd over %s is not supported" % (K,))


def gcd_many(polys, seed: int = 0):
    """Gcd of a list, trying gcd(first, sum of rest) before a pairwise fold.

    This is the one fold: `content_primitive` takes its contents here.  A
    unit gcd(first, sum) ends it at once, since the gcd of all divides it.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("gcd_many needs at least one polynomial")
    ring = polys[0].ring
    live = [p for p in polys if not p.is_zero()]
    if not live:
        return ring.zero
    if len(live) == 1:
        return ring.normalize_unit(live[0])[1]
    rest = live[1]
    for p in live[2:]:
        rest = multi_add(rest, p)
    g = multi_gcd(live[0], rest, seed=seed)
    # d | every p forces d | first and d | sum, so gcd(all) divides g;
    # if g also divides each p it is the gcd
    if ring.is_unit(g):
        return ring.one
    if all(multi_divides(g, p) for p in live[1:]):
        return g
    g = live[0]
    for p in live[1:]:
        g = multi_gcd(g, p, seed=seed)
        if ring.is_unit(g):
            return ring.one
    return g


# ---------------------------------------------------------------- field path


def _field_entry(a, b, rng, frame=None):
    """Zippel's gcd, with fresh random draws for each of up to 8 attempts.

    `frame` is a dict the gcds modulo successive primes share: the first
    stores its degree bounds and the support of H there, the later ones
    reuse them, and a failure clears it so the retry runs in full.
    """
    attempts = 8
    for _ in range(attempts):
        try:
            return _field_gcd(a, b, rng, frame)
        except (_Unlucky, _Restart):
            if frame:
                frame.clear()
    raise RetryBudgetError("gcd interpolation failed to stabilize", attempts)


def _field_gcd(a, b, rng, frame=None):
    """Gcd over a field.

    The frame handles the trivial, monomial and univariate cases, drops
    variables whose degree bound is 0, splits off the contents in the
    main variable x_m through `content_primitive` and imposes gamma, the
    gcd of the leading coefficients, before `_sparse_interp` returns H,
    the gcd of the primitive parts scaled to lead gamma.

    With bounds and support from `frame`, H is one `_skeleton_image`
    instead.  Bounds with a zero are taken afresh, since dropping a
    variable the gcd does use would leave a proper divisor that passes
    `_certify`; every other stale entry fails there or in the probes.
    """
    ring = a.ring
    # a and b are nonzero: so are the inputs, contents and leads passed here
    if a.is_constant() or b.is_constant():
        return ring.one
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _mono_gcd(a, b)
    act = _active_vars(a, b)
    if len(act) == 1:
        i = act[0]
        return from_unipoly(ring, uni_gcd(to_unipoly(a, i), to_unipoly(b, i)), i)
    frame = {} if frame is None else frame
    bounds = frame.get(tuple(act))
    if bounds is None or 0 in bounds.values():
        bounds = frame[tuple(act)] = _degree_bounds(a, b, act, rng)
    if all(bounds[i] == 0 for i in act):
        return ring.one
    drop = [i for i in act if bounds[i] == 0]
    if drop:
        for i in drop:
            a = content_primitive(a, i)[0]
            b = content_primitive(b, i)[0]
        return _field_gcd(a, b, rng, frame)
    m = max(act, key=lambda i: (bounds[i], -i))
    others = [i for i in act if i != m]
    ca, A = content_primitive(a, m)
    cb, B = content_primitive(b, m)
    cg = _field_gcd(ca, cb, rng)
    gamma = _field_gcd(lc_in(A, m), lc_in(B, m), rng)
    skey = (m, tuple(others), bounds[m])
    if skey in frame:
        H = _skeleton_image(A, B, m, others, frame[skey], gamma, rng)
    else:
        H = _sparse_interp(A, B, m, others, bounds, gamma, rng)
        frame[skey] = list(H.terms)
    return _certify(a, b, H, m, cg, gamma)


def _sparse_interp(A, B, m, others, bounds, gamma, rng):
    """Zippel: a univariate seed image, then one variable at a time."""
    ring = A.ring
    K = ring.cring
    degm = bounds[m]
    dv = {v: bounds[v] + gamma.degree(v) for v in others}

    # seed image: univariate in x_m at a random point, scaled to lc gamma
    degA, degB = A.degree(m), B.degree(m)
    for _ in range(_RETRIES):
        alpha = {i: _nonzero(K, rng) for i in others}
        ua = univariate_image(A, m, alpha)
        ub = univariate_image(B, m, alpha)
        if ua.degree != degA or ub.degree != degB:
            continue
        gval = multi_value(gamma, alpha)
        if K.is_zero(gval):
            continue
        u = uni_gcd(ua, ub)
        if u.degree > degm:
            continue
        if u.degree < degm:
            raise _Restart
        break
    else:
        raise _Restart
    H = from_unipoly(ring, uni_scale(u, gval), m)

    processed = []
    for v in others:
        H = _lift_var(A, B, H, m, processed, v, alpha, gamma, dv[v], degm, rng)
        processed.append(v)
    return H


def _skeleton_image(A, B, m, others, support, gamma, rng):
    """H on a known support: probes at powers of a random rho over every
    non-main variable at once, one `_point_image`, `count` univariate gcds.
    """
    groups = {}
    for e in support:
        groups.setdefault(e[m], []).append(e)
    # every non-main variable is processed, so no x_v point is ever set
    levs = [_LevelEval(f, m, others[0], others, {}) for f in (A, B, gamma)]
    rows = _draw_rho(groups, others, levs, A.ring.cring, rng)
    starts = [lev.first for lev in levs]
    count = max(len(g) for g in groups.values())
    return _point_image(levs, starts, groups, rows, max(groups), count)


def _lift_var(A, B, H, m, processed, v, alpha, gamma, dv, degm, rng):
    """Extend H (exact in x_m and `processed`) to carry x_v as well.

    One loop over points x_v = alpha_v * beta^j, j = 0, 1, 2, ..., where
    beta has multiplicative order above dv.  Point 0 is the seed point,
    whose image is H; each later start is the previous one times beta^e_v
    per term.  A point's image of the scaled gcd is solved on H's monomial
    support from probes at consecutive powers of a random rho, one
    transposed-Vandermonde system per x_m-degree group, so it costs
    `count` univariate gcds, the largest group size.

    After every point, Berlekamp-Massey takes each monomial's next
    coefficient.  The loop stops early once no connection polynomial
    changed at the last point, each rests on at least 2L+1 points for its
    length L, and each has all its roots among beta^0..beta^dv.  The roots
    beta^k name the x_v-exponents k, and a transposed Vandermonde system
    over them gives the coefficients (Ben-Or/Tiwari with the early
    termination of Kaltofen, Lee and Lobo): about 2*tau+1 points for tau
    x_v-terms per coefficient.  At dv+1 points, or once an unlucky point
    was skipped (the later points are then random), x_v is interpolated
    densely through the images instead.  A wrong early stop can only fail
    the trial division in `_certify`.
    """
    ring = A.ring
    K = ring.cring
    levs = [_LevelEval(f, m, v, processed, alpha) for f in (A, B, gamma)]
    groups = {}
    for e in H.terms:
        groups.setdefault(e[m], []).append(e)
    count = max(len(g) for g in groups.values())

    rows = _draw_rho(groups, processed, levs, K, rng)
    x = alpha[v]
    pts = [x]
    imgs = [H]
    used = {x}
    powers = _ratio_powers(K, rng, dv)
    seqs = None
    if powers is not None:
        seqs = {e: _Massey(K, c) for e, c in H.terms.items()}
        for lev in levs:
            lev.set_ratio(powers[1])
        cur = [lev.start(x) for lev in levs]
    fails = 0
    while len(pts) < dv + 1:
        if seqs is not None:
            x = K.mul(x, powers[1])
            cur = [K.vmul(c, lev.ratio) for lev, c in zip(levs, cur)]
        else:
            x = _fresh_point(K, rng, used)
            cur = [lev.start(x) for lev in levs]
        used.add(x)
        try:
            img = _point_image(levs, cur, groups, rows, degm, count)
        except _Unlucky:
            fails += 1
            if fails > _RETRIES:
                raise _Restart
            rows = _draw_rho(groups, processed, levs, K, rng)
            seqs = None
            continue
        pts.append(x)
        imgs.append(img)
        if seqs is not None:
            settled = [s.push(img.terms.get(e, K.zero)) for e, s in seqs.items()]
            if all(settled):
                lifted = _sparse_terms(ring, v, seqs, powers, alpha[v])
                if lifted is not None:
                    return lifted
    return _interp_terms(ring, v, pts, imgs)


def _ratio_powers(K, rng, dv):
    """[1, beta, ..., beta^dv] for a random beta whose powers up to dv are
    distinct, i.e. of multiplicative order above dv; None when K has no
    such element or the draws find none."""
    if K.cardinality is not None and K.cardinality <= dv + 1:
        return None
    for _ in range(_RETRIES):
        beta = _nonzero(K, rng)
        pw = [K.one]
        for _ in range(dv):
            w = K.mul(pw[-1], beta)
            if K.is_one(w):
                break
            pw.append(w)
        else:
            return pw
    return None


class _Massey:
    """Berlekamp-Massey on one coefficient sequence, a term at a time.

    `conn` is the connection polynomial C (C[0] = 1) of the shortest
    recurrence sum C[i] * s[n-i] = 0 that the terms so far satisfy, and
    `length` is its length L.
    """

    __slots__ = ("K", "seq", "conn", "length", "prev", "dprev", "gap")

    def __init__(self, K, first):
        self.K = K
        self.seq = []
        self.conn = [K.one]
        self.length = 0
        self.prev = [K.one]
        self.dprev = K.one
        self.gap = 1
        self.push(first)

    def push(self, s):
        """Take the next term; True when C did not change and the terms
        seen number at least 2L+1."""
        K, seq, C, L = self.K, self.seq, self.conn, self.length
        seq.append(s)
        n = len(seq) - 1
        d = K.dot(C, reversed(seq))  # the discrepancy sum C[i] * s[n-i]
        if K.is_zero(d):
            self.gap += 1
            return n >= 2 * L
        # C - (d / dprev) * x^gap * B
        step = K.vscale(self.prev, K.div(K.neg(d), self.dprev))
        new = K.vadd(C, [K.zero] * self.gap + step)
        if 2 * L <= n:
            self.prev = C
            self.length = n + 1 - L
            self.dprev = d
            self.gap = 1
        else:
            self.gap += 1
        self.conn = new[: self.length + 1]
        return False


def _sparse_terms(ring, v, seqs, powers, a):
    """x_v-terms of every monomial from its settled recurrence, or None
    when some connection polynomial does not split over the powers.

    The reversed connection polynomial of the sequence c_j = sum_k
    b_k (beta^k)^j has the roots beta^k; with the Lagrange basis l_i over
    them, b_i = sum_j l_i[j] c_j, and b_k is a_k * alpha_v^k.
    """
    K = ring.cring
    ainv = K.inv(a)
    terms = {}
    for e, s in seqs.items():
        lam = s.conn[::-1]
        ks = [k for k, w in enumerate(powers) if K.is_zero(K.horner(lam, w))]
        if len(ks) != s.length:
            return None
        basis = uni_lagrange_basis(K, [powers[k] for k in ks])
        e2 = list(e)
        for k, ell in zip(ks, basis):
            b = K.dot(ell.coeffs, s.seq)
            if K.is_zero(b):
                return None
            e2[v] = k
            terms[tuple(e2)] = K.mul(b, K.pow(ainv, k))
    return MultiPoly(ring, terms)


def _point_image(levs, starts, groups, rows, degm, count):
    """One image of the scaled gcd on the support of H, from the term
    values `starts` of A, B and gamma at its first probe."""
    levA, levB, levG = levs
    curA, curB, curG = starts
    K = levA.K
    ring = levA.ring
    degA, degB = levA.deg, levB.deg
    images = []
    for s in range(count):
        if s:
            curA = K.vmul(curA, levA.mults)
            curB = K.vmul(curB, levB.mults)
            curG = K.vmul(curG, levG.mults)
        ua = levA.image(curA)
        ub = levB.image(curB)
        ug = levG.image(curG)
        if ua.degree != degA or ub.degree != degB or ug.is_zero():
            raise _Unlucky
        u = uni_gcd(ua, ub)
        if u.degree > degm:
            raise _Unlucky
        if u.degree < degm:
            raise _Restart
        images.append(uni_scale(u, ug.coeffs[0]))
    terms = {}
    for d, mons in groups.items():
        ws = [
            img.coeffs[d] if d < len(img.coeffs) else K.zero
            for img in images[: len(mons)]
        ]
        for e, row in zip(mons, rows[d]):
            y = K.dot(row, ws)
            if not K.is_zero(y):
                terms[e] = y
    return MultiPoly(ring, terms)


class _LevelEval:
    """Per-level probe evaluator for one polynomial.

    The terms are ordered by their x_m exponent once, and `spans` holds the
    (lo, hi) slice of each x_m degree, so an image in x_m sums one slice
    per coefficient.  Term values split into a fixed part (coefficient
    times the alpha values of the untouched variables), a power of the x_v
    point, and a processed-variable monomial multiplier that advances the
    value by one probe per multiplication.  The next geometric x_v point is
    one multiplication by the per-term ratio beta^e_v.
    """

    __slots__ = ("K", "ring", "deg", "v", "exps", "spans", "base", "mults", "first",
                 "ratio")

    def __init__(self, f, m, v, processed, alpha):
        K = f.ring.cring
        self.K = K
        self.ring = f.ring
        self.deg = f.degree(m)
        self.v = v
        skip = set(processed)
        skip.add(v)
        fixed = {j: a for j, a in alpha.items() if j not in skip}
        self.exps = sorted(f.terms, key=operator.itemgetter(m))
        ems = [e[m] for e in self.exps]
        cuts = [bisect.bisect_left(ems, d) for d in range(self.deg + 2)]
        self.spans = list(zip(cuts, cuts[1:]))
        coeffs = map(f.terms.__getitem__, self.exps)
        self.base = term_values(K, self.exps, fixed, coeffs)
        self.mults = self.first = self.ratio = None

    def set_rho(self, rho):
        """Point the processed variables at rho; rho has exactly those keys."""
        self.mults = term_values(self.K, self.exps, rho)
        self.first = self.K.vmul(self.base, self.mults)

    def set_ratio(self, beta):
        """Per-term beta^e_v, the step between geometric x_v points."""
        self.ratio = term_values(self.K, self.exps, {self.v: beta})

    def start(self, x):
        """Term values at the first probe with x_v = x."""
        return term_values(self.K, self.exps, {self.v: x}, self.first)

    def image(self, cur):
        """UniPoly in x_m from the current term values, one slice sum per
        coefficient."""
        return _poly(self.K, self.K.vsums(cur, self.spans))


def _draw_rho(groups, keys, levs, K, rng):
    """Rows of `_group_nodes` at a random rho over the variables `keys`,
    with `levs` pointed at it; redrawn while a group has a collision."""
    for _ in range(_RETRIES):
        rho = {i: _nonzero(K, rng) for i in keys}
        rows = _group_nodes(groups, rho, K)
        if rows is not None:
            for lev in levs:
                lev.set_rho(rho)
            return rows
    raise _Restart


def _group_nodes(groups, rho, K):
    """Per x_m-degree group, the rows l_t / v_t that solve its transposed
    Vandermonde system over the monomial values v_t at rho; None when a
    group has a collision.

    With 0 added to the nodes, the Lagrange basis polynomial of v_t is
    X * l_t(X) / v_t, so its coefficients from degree 1 up are the row,
    at one inverse per node.
    """
    flat = iter(term_values(K, [e for mons in groups.values() for e in mons], rho))
    rows = {}
    for d, mons in groups.items():
        vals = [next(flat) for _ in mons]
        if len(set(vals)) != len(vals):
            return None
        basis = uni_lagrange_basis(K, [K.zero] + vals)
        rows[d] = [ell.coeffs[1:] for ell in basis[1:]]
    return rows


def _certify(a, b, H, m, cg, gamma):
    """Primitive part, monic normalization, and the trial-division gate."""
    try:
        G = H if gamma.is_constant() else content_primitive(H, m)[1]
        cand = a.ring.normalize_unit(multi_mul(cg, G))[1]
    except (ArithmeticError, ZeroDivisionError):
        raise _Restart
    if cand.is_zero():
        raise _Restart
    if multi_divides(cand, a) and multi_divides(cand, b):
        return cand
    raise _Restart


def _interp_terms(ring, v, pts, imgs):
    """Monomial-by-monomial interpolation of x_v through the images.

    The Lagrange basis over the shared nodes is built once and applied
    per monomial as a linear combination of coefficient lists.
    """
    K = ring.cring
    basis = [ell.coeffs for ell in uni_lagrange_basis(K, pts)]
    support = set()
    for img in imgs:
        support |= set(img.terms)
    terms = {}
    for e in support:
        acc = []
        for img, bc in zip(imgs, basis):
            y = img.terms.get(e)
            if y is not None and not K.is_zero(y):
                acc = K.vadd(acc, K.vscale(bc, y))
        for r, cc in enumerate(acc):
            if not K.is_zero(cc):
                e2 = list(e)
                e2[v] = r
                terms[tuple(e2)] = cc
    return MultiPoly(ring, terms)


# ------------------------------------------------------------ Z and Q paths


def _gcd_z(a, b, rng):
    ring = a.ring
    ca, cb = math.gcd(*a.terms.values()), math.gcd(*b.terms.values())
    c = math.gcd(ca, cb)
    A = ring.normalize_unit(_int_div(a, ca))[1]
    B = ring.normalize_unit(_int_div(b, cb))[1]
    if A.is_constant() or B.is_constant():
        return ring.from_coeff(c)
    act = _active_vars(A, B)
    if len(act) == 1:
        i = act[0]
        g = uni_gcd(to_unipoly(A, i), to_unipoly(B, i))
        return multi_scale(from_unipoly(ring, g, i), c)

    gamma = math.gcd(A.lc(), B.lc())
    frame = {}

    def image(p):
        rp = MultiRing(rings.ZpRing(p), ring.vars, ring.order)
        gp = _field_entry(change_ring(A, rp), change_ring(B, rp), rng, frame)
        return None if gp.is_constant() else gp.terms

    def divides(terms):
        g = MultiPoly(ring, terms)
        return multi_divides(g, A) and multi_divides(g, B)

    n = len(ring.vars)
    sizes = [(f.terms.values(), sum(f.degree(i) for i in range(n))) for f in (A, B)]
    bound = gcd_coeff_bound(gamma, *sizes)
    key = ring.order.key
    terms = modular_gcd(image, key, divides, gamma, (A.lc(), B.lc()), bound)
    if not terms:
        return ring.from_coeff(c)
    return multi_scale(MultiPoly(ring, terms), c)


def _gcd_q(a, b, rng):
    g = change_ring(_gcd_z(clear_to_z(a), clear_to_z(b), rng), a.ring)
    return a.ring.normalize_unit(g)[1]


def _int_div(f, n):
    if n == 1:
        return f
    return MultiPoly(f.ring, {e: cc // n for e, cc in f.terms.items()})


# ------------------------------------------------------------------ helpers


def _active_vars(a, b):
    return [
        i
        for i in range(len(a.ring.vars))
        if a.degree(i) > 0 or b.degree(i) > 0
    ]


def _degree_bounds(a, b, act, rng):
    """Likely gcd degree per active variable, from univariate image gcds.

    One point alpha serves every active variable: the term values of a and
    b there, summed by e_i, are the images in x_i with x_i scaled by
    alpha_i, which changes no degree and no gcd degree.  Variables whose
    images lost degree retry at a fresh point, the others are done.
    """
    K = a.ring.cring
    bounds = {i: min(a.degree(i), b.degree(i)) for i in act}
    todo = list(act)
    for _ in range(_RETRIES):
        alpha = {j: _nonzero(K, rng) for j in act}
        va, vb = (term_values(K, f.terms, alpha, f.terms.values()) for f in (a, b))
        for i in list(todo):
            ua = slot_sums(K, [e[i] for e in a.terms], va, a.degree(i))
            ub = slot_sums(K, [e[i] for e in b.terms], vb, b.degree(i))
            if ua.degree == a.degree(i) and ub.degree == b.degree(i):
                bounds[i] = uni_gcd(ua, ub).degree
                todo.remove(i)
        if not todo:
            break
    return bounds


def _mono_gcd(a, b):
    """Gcd when one side is a single term: the common monomial, monic.

    Divisors of a monomial are unit multiples of monomials, so the gcd
    is the largest monomial dividing both supports.
    """
    e = tuple(map(min, min_exponents(a), min_exponents(b)))
    return MultiPoly(a.ring, {e: a.ring.cring.one})


def _nonzero(K, rng):
    for _ in range(64):
        x = K.random_element(rng)
        if not K.is_zero(x):
            return x
    raise UnsupportedRingError("cannot draw nonzero points from %s" % (K,))


def _fresh_point(K, rng, used):
    if K.is_finite and K.cardinality is not None and len(used) >= K.cardinality - 1:
        raise UnsupportedRingError(
            "%s has too few elements for interpolation" % (K,)
        )
    for _ in range(256):
        x = K.random_element(rng)
        if not K.is_zero(x) and x not in used:
            return x
    if isinstance(K, rings.ZpRing):
        for v in range(1, K.p):
            if v not in used:
                return v
    raise UnsupportedRingError("cannot draw fresh points from %s" % (K,))
