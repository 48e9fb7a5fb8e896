"""Multivariate polynomial GCD.

Field coefficients: per-variable degree bounds come from univariate
images, variables the gcd does not use are removed by content
extraction, and the rest is variable-by-variable sparse interpolation
(Zippel) with the gcd of the two leading coefficients imposed on every
image so that images taken at different points agree.  A dense
Brown-style interpolation covers the rare runs where the sparse
skeleton assumption fails.  Integer coefficients run the field
algorithm modulo 62-bit primes and assemble the answer by CRT;
rational coefficients clear denominators first.

Every candidate is certified by trial division before it is returned,
so unlucky evaluation points can cost retries but never correctness.
"""

import math
import random

from . import rings
from .errors import UnsupportedRingError
from .modular import crt_pair, symmetric_lift
from .primes import next_prime
from .multipoly import (
    MultiPoly,
    MultiRing,
    coefficients_in,
    from_unipoly,
    lc_in,
    multi_add,
    multi_divides,
    multi_exact_div,
    multi_mul,
    multi_scale,
    multi_subs,
    multi_value,
    term_values,
    to_unipoly,
    univariate_image,
)
from .unipoly import (
    _poly,
    _synthetic_div,
    uni_eval,
    uni_gcd,
    uni_mul,
    uni_scale,
)

_RETRIES = 16
_MAX_PRIMES = 64
_PRIME_FLOOR = 1 << 62


class _Unlucky(Exception):
    """A single evaluation point went bad; redraw and retry locally."""


class _Restart(Exception):
    """The evaluation frame is compromised (degree estimate shrank)."""


def multi_gcd(a: MultiPoly, b: MultiPoly, seed: int = 0, method: str = "zippel"):
    """Canonical gcd: monic over a field, positive leading coeff over Z.

    `method` picks the field-level interpolation ("zippel" or "dense");
    the zippel path falls back to dense on its own when sparse
    interpolation keeps failing, so the knob mostly exists for tests.
    """
    if a.ring != b.ring:
        raise ValueError("gcd operands live in different rings")
    if method not in ("zippel", "dense"):
        raise ValueError("unknown gcd method %r" % method)
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
            return _field_entry(a, b, rng, method)
        if isinstance(K, rings.FractionField) and isinstance(
            K.inner, rings.IntegerRing
        ):
            return _gcd_q(a, b, rng, method)
        raise UnsupportedRingError("gcd over %s is not supported" % (K,))
    if isinstance(K, rings.IntegerRing):
        return _gcd_z(a, b, rng, method)
    raise UnsupportedRingError("gcd over %s is not supported" % (K,))


def gcd_many(polys, seed: int = 0):
    """Gcd of a list, trying gcd(first, sum of rest) before a pairwise fold."""
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
    if not g.is_zero() and all(multi_divides(g, p) for p in live[1:]):
        return g
    g = live[0]
    for p in live[1:]:
        g = multi_gcd(g, p, seed=seed)
        if ring.is_unit(g):
            break
    return ring.normalize_unit(g)[1]


def gcd_degree_bounds(a: MultiPoly, b: MultiPoly, seed: int = 0):
    """Probable per-variable degrees of gcd(a, b), one entry per variable.

    Computed from univariate images at random points, so each entry can
    overshoot with small probability but never undershoots the truth
    when the images preserve degrees.
    """
    if a.ring != b.ring:
        raise ValueError("gcd operands live in different rings")
    ring = a.ring
    n = len(ring.vars)
    if a.is_zero() or b.is_zero():
        f = b if a.is_zero() else a
        if f.is_zero():
            return [0] * n
        return [max(f.degree(i), 0) for i in range(n)]
    K = ring.cring
    rng = random.Random((seed << 32) ^ 0x9E3779B9)
    if isinstance(K, rings.FractionField) and isinstance(K.inner, rings.IntegerRing):
        a, zring = _q_to_z(a)
        b, _ = _q_to_z(b)
        ring, K = zring, zring.cring
    if isinstance(K, rings.IntegerRing):
        p = next_prime(_PRIME_FLOOR)
        while a.lc() % p == 0 or b.lc() % p == 0:
            p = next_prime(p)
        rp = MultiRing(rings.ZpRing(p), ring.vars, ring.order)
        a, b = _map_mod(a, rp), _map_mod(b, rp)
    elif not (K.is_field and K.is_finite):
        raise UnsupportedRingError("gcd over %s is not supported" % (K,))
    act = _active_vars(a, b)
    bounds = _degree_bounds(a, b, act, rng)
    return [bounds.get(i, 0) for i in range(n)]


# ---------------------------------------------------------------- field path


def _field_entry(a, b, rng, method):
    if method == "dense":
        attempts = ((_dense_gcd, 4),)
    else:
        attempts = ((_zippel_gcd, 4), (_dense_gcd, 4))
    for fn, budget in attempts:
        for _ in range(budget):
            try:
                return fn(a, b, rng)
            except (_Unlucky, _Restart):
                continue
    raise ArithmeticError("gcd interpolation failed to stabilize")


def _zippel_gcd(a, b, rng):
    ring = a.ring
    K = ring.cring
    triv = _field_trivial(a, b)
    if triv is not None:
        return triv
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _mono_gcd(a, b)
    act = _active_vars(a, b)
    if len(act) == 1:
        i = act[0]
        return from_unipoly(ring, uni_gcd(to_unipoly(a, i), to_unipoly(b, i)), i)
    bounds = _degree_bounds(a, b, act, rng)
    if all(bounds[i] == 0 for i in act):
        return ring.one
    drop = [i for i in act if bounds[i] == 0]
    if drop:
        for i in drop:
            a = _content_of(a, i, rng, _zippel_gcd)
            b = _content_of(b, i, rng, _zippel_gcd)
        return _zippel_gcd(a, b, rng)
    m = max(act, key=lambda i: (bounds[i], -i))
    others = [i for i in act if i != m]
    ca, A = _content_split(a, m, rng, _zippel_gcd)
    cb, B = _content_split(b, m, rng, _zippel_gcd)
    cg = _zippel_gcd(ca, cb, rng)
    gamma = _zippel_gcd(lc_in(A, m), lc_in(B, m), rng)
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
    return _certify(a, b, H, m, cg, gamma, rng, _zippel_gcd)


def _lift_var(A, B, H, m, processed, v, alpha, gamma, dv, degm, rng):
    """Extend H (exact in x_m and `processed`) to carry x_v as well.

    Each new point beta gives one image of the scaled gcd at x_v = beta,
    solved on H's monomial support from probes at consecutive powers of
    a random point, one transposed-Vandermonde system per x_m-degree
    group.  The probe count per image is the largest group size, i.e.
    proportional to the support and not to the dense degree bound.
    """
    ring = A.ring
    K = ring.cring
    levA = _LevelEval(A, m, v, processed, alpha)
    levB = _LevelEval(B, m, v, processed, alpha)
    levG = _LevelEval(gamma, m, v, processed, alpha)
    groups = {}
    for e in H.terms:
        groups.setdefault(e[m], []).append(e)
    count = max(len(g) for g in groups.values())

    def redraw():
        for _ in range(_RETRIES):
            rho = {i: _nonzero(K, rng) for i in processed}
            nodes = _group_nodes(groups, rho, K)
            if nodes is not None:
                levA.set_rho(rho)
                levB.set_rho(rho)
                levG.set_rho(rho)
                return nodes
        raise _Restart

    nodes = redraw()
    pts = [alpha[v]]
    imgs = [H]
    used = {alpha[v]}
    fails = 0
    while len(pts) < dv + 1:
        beta = _fresh_point(K, rng, used)
        used.add(beta)
        try:
            img = _point_image(levA, levB, levG, groups, nodes, beta, degm, count)
        except _Unlucky:
            fails += 1
            if fails > _RETRIES:
                raise _Restart
            nodes = redraw()
            continue
        pts.append(beta)
        imgs.append(img)
    return _interp_terms(ring, v, pts, imgs)


def _point_image(levA, levB, levG, groups, nodes, beta, degm, count):
    """One image of the scaled gcd at x_v = beta, on the support of H."""
    K = levA.K
    ring = levA.ring
    degA, degB = levA.deg, levB.deg
    curA = levA.start(beta)
    curB = levB.start(beta)
    curG = levG.start(beta)
    images = []
    for s in range(count):
        if s:
            curA = levA.advance(curA)
            curB = levB.advance(curB)
            curG = levG.advance(curG)
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
        k = len(mons)
        ws = [
            img.coeffs[d] if d < len(img.coeffs) else K.zero
            for img in images[:k]
        ]
        for e, y in zip(mons, _vand_solve(K, nodes[d], ws)):
            if not K.is_zero(y):
                terms[e] = y
    return MultiPoly(ring, terms)


class _LevelEval:
    """Per-level probe evaluator for one polynomial.

    Term values split into a fixed part (coefficient times the alpha
    values of the untouched variables), a beta power for the variable
    being lifted, and a processed-variable monomial multiplier that
    advances the value by one probe per multiplication.
    """

    __slots__ = ("K", "ring", "zp", "p", "deg", "v", "exps", "ems", "base", "mults", "first")

    def __init__(self, f, m, v, processed, alpha):
        K = f.ring.cring
        self.K = K
        self.ring = f.ring
        self.zp = isinstance(K, rings.ZpRing)
        self.p = K.p if self.zp else 0
        self.deg = f.degree(m)
        self.v = v
        skip = set(processed)
        skip.add(v)
        fixed = {j: a for j, a in alpha.items() if j not in skip}
        self.exps = list(f.terms)
        self.ems = [e[m] for e in self.exps]
        self.base = term_values(K, self.exps, fixed, f.terms.values())
        self.mults = self.first = None

    def set_rho(self, rho):
        """Point the processed variables at rho; rho has exactly those keys."""
        self.mults = term_values(self.K, self.exps, rho)
        self.first = term_values(self.K, self.exps, rho, self.base)

    def start(self, beta):
        """Term values at the first probe with x_v = beta."""
        return term_values(self.K, self.exps, {self.v: beta}, self.first)

    def advance(self, cur):
        if self.zp:
            p = self.p
            return [val * mt % p for val, mt in zip(cur, self.mults)]
        K = self.K
        return [K.mul(val, mt) for val, mt in zip(cur, self.mults)]

    def image(self, cur):
        """UniPoly in x_m from the current term values."""
        K = self.K
        if self.zp:
            p = self.p
            coeffs = [0] * (self.deg + 1)
            for em, val in zip(self.ems, cur):
                coeffs[em] = (coeffs[em] + val) % p
        else:
            coeffs = [K.zero] * (self.deg + 1)
            for em, val in zip(self.ems, cur):
                coeffs[em] = K.add(coeffs[em], val)
        return _poly(K, coeffs)


def _group_nodes(groups, rho, K):
    """Monomial values per group; None when a group has a collision."""
    flat = iter(term_values(K, [e for mons in groups.values() for e in mons], rho))
    nodes = {}
    for d, mons in groups.items():
        vals = [next(flat) for _ in mons]
        if len(set(vals)) != len(vals):
            return None
        nodes[d] = vals
    return nodes


def _vand_solve(K, nodes, ws):
    """Solve sum_t y_t * v_t**s = ws[s-1] for s = 1..k.

    The v_t are distinct and nonzero; with z_t = y_t * v_t this is a
    plain transposed Vandermonde system, inverted through the Lagrange
    basis of the node polynomial.
    """
    master = _poly(K, [K.one])
    for v in nodes:
        master = uni_mul(master, _poly(K, [K.neg(v), K.one]))
    out = []
    for t, v in enumerate(nodes):
        q = _synthetic_div(master, v)
        acc = K.zero
        for r, qc in enumerate(q.coeffs):
            acc = K.add(acc, K.mul(qc, ws[r]))
        out.append(K.div(acc, K.mul(uni_eval(q, v), v)))
    return out


def _dense_gcd(a, b, rng):
    """Brown-style dense interpolation; correct but exponential in vars."""
    ring = a.ring
    K = ring.cring
    triv = _field_trivial(a, b)
    if triv is not None:
        return triv
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _mono_gcd(a, b)
    act = _active_vars(a, b)
    if len(act) == 1:
        i = act[0]
        return from_unipoly(ring, uni_gcd(to_unipoly(a, i), to_unipoly(b, i)), i)
    bounds = _degree_bounds(a, b, act, rng)
    if all(bounds[i] == 0 for i in act):
        return ring.one
    drop = [i for i in act if bounds[i] == 0]
    if drop:
        for i in drop:
            a = _content_of(a, i, rng, _dense_gcd)
            b = _content_of(b, i, rng, _dense_gcd)
        return _dense_gcd(a, b, rng)
    m = max(act, key=lambda i: (bounds[i], -i))
    others = [i for i in act if i != m]
    v = others[-1]
    ca, A = _content_split(a, m, rng, _dense_gcd)
    cb, B = _content_split(b, m, rng, _dense_gcd)
    cg = _dense_gcd(ca, cb, rng)
    gamma = _dense_gcd(lc_in(A, m), lc_in(B, m), rng)
    degm = bounds[m]
    degA = A.degree(m)
    degB = B.degree(m)
    need = min(A.degree(v), B.degree(v)) + gamma.degree(v) + 1

    pts, imgs = [], []
    used = set()
    fails = 0
    while len(pts) < need:
        if fails > _RETRIES:
            raise _Restart
        beta = _fresh_point(K, rng, used)
        used.add(beta)
        Ab = multi_subs(A, {v: beta})
        Bb = multi_subs(B, {v: beta})
        if Ab.degree(m) != degA or Bb.degree(m) != degB:
            fails += 1
            continue
        gb = _dense_gcd(Ab, Bb, rng)
        if gb.degree(m) > degm:
            fails += 1
            continue
        if gb.degree(m) < degm:
            raise _Restart
        gammab = multi_subs(gamma, {v: beta})
        if gammab.is_zero():
            fails += 1
            continue
        # rescale the monic image so its x_m lead matches gamma at beta
        try:
            q = multi_exact_div(gammab, lc_in(gb, m))
        except ArithmeticError:
            fails += 1
            continue
        pts.append(beta)
        imgs.append(multi_mul(q, gb))
    H = _interp_terms(ring, v, pts, imgs)
    return _certify(a, b, H, m, cg, gamma, rng, _dense_gcd)


def _certify(a, b, H, m, cg, gamma, rng, gcd_fn):
    """Primitive part, monic normalization, and the trial-division gate."""
    ring = a.ring
    K = ring.cring
    try:
        if gamma.is_constant():
            G = H
        else:
            G = multi_exact_div(H, _content_of(H, m, rng, gcd_fn))
        cand = multi_mul(cg, _monic(G))
    except (ArithmeticError, ZeroDivisionError):
        raise _Restart
    cand = _monic(cand)
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
    k = len(pts)
    master = _poly(K, [K.one])
    for x in pts:
        master = uni_mul(master, _poly(K, [K.neg(x), K.one]))
    basis = []
    for x in pts:
        q = _synthetic_div(master, x)
        basis.append(uni_scale(q, K.inv(uni_eval(q, x))).coeffs)
    support = set()
    for img in imgs:
        support |= set(img.terms)
    zp = isinstance(K, rings.ZpRing)
    terms = {}
    for e in support:
        if zp:
            p = K.p
            acc = [0] * k
            for img, bc in zip(imgs, basis):
                y = img.terms.get(e)
                if y:
                    for r, bcr in enumerate(bc):
                        acc[r] = (acc[r] + y * bcr) % p
        else:
            acc = [K.zero] * k
            for img, bc in zip(imgs, basis):
                y = img.terms.get(e)
                if y is not None and not K.is_zero(y):
                    for r, bcr in enumerate(bc):
                        acc[r] = K.add(acc[r], K.mul(y, bcr))
        for r, cc in enumerate(acc):
            if not K.is_zero(cc):
                e2 = list(e)
                e2[v] = r
                terms[tuple(e2)] = cc
    return MultiPoly(ring, terms)


# ------------------------------------------------------------ Z and Q paths


def _gcd_z(a, b, rng, method):
    ring = a.ring
    ca, cb = _int_content(a), _int_content(b)
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

    # scaling the monic mod-p image by Gamma makes images CRT-compatible,
    # since the lead coefficient of the true gcd divides Gamma
    gamma = math.gcd(A.lc(), B.lc())
    okey = ring.order.key
    acc = None
    mod = 1
    lead = None
    p = next_prime(_PRIME_FLOOR)
    for _ in range(_MAX_PRIMES):
        while gamma % p == 0 or A.lc() % p == 0 or B.lc() % p == 0:
            p = next_prime(p)
        rp = MultiRing(rings.ZpRing(p), ring.vars, ring.order)
        gp = _field_entry(_map_mod(A, rp), _map_mod(B, rp), rng, method)
        if gp.is_constant():
            # the mod-p gcd can only be too big, so a unit image settles it
            return ring.from_coeff(c)
        le = gp.leading_exponent()
        img = {e: cc * gamma % p for e, cc in gp.terms.items()}
        if lead is None or okey(le) < okey(lead):
            acc, mod, lead = img, p, le
        elif okey(le) > okey(lead):
            p = next_prime(p)
            continue
        else:
            acc = _crt_merge(acc, mod, img, p)
            mod *= p
        cand = _sym_candidate(ring, acc, mod)
        if cand is not None:
            if multi_divides(cand, A) and multi_divides(cand, B):
                return multi_scale(cand, c)
        p = next_prime(p)
    raise ArithmeticError("integer gcd did not stabilize")


def _gcd_q(a, b, rng, method):
    ring = a.ring
    az, zring = _q_to_z(a)
    bz, _ = _q_to_z(b)
    g = _gcd_z(az, bz, rng, method)
    K = ring.cring
    return _monic(MultiPoly(ring, {e: K.of(cc) for e, cc in g.terms.items()}))


def _int_content(f):
    g = 0
    for cc in f.terms.values():
        g = math.gcd(g, cc)
        if g == 1:
            break
    return g


def _int_div(f, n):
    if n == 1:
        return f
    return MultiPoly(f.ring, {e: cc // n for e, cc in f.terms.items()})


def _map_mod(f, rp):
    p = rp.cring.p
    terms = {}
    for e, cc in f.terms.items():
        r = cc % p
        if r:
            terms[e] = r
    return MultiPoly(rp, terms)


def _crt_merge(acc, m1, img, p):
    out = {}
    for e in set(acc) | set(img):
        out[e], _ = crt_pair(acc.get(e, 0), m1, img.get(e, 0), p)
    return out


def _sym_candidate(ring, acc, mod):
    """Symmetric lift, sign and content normalized; None when degenerate."""
    terms = {}
    for e, r in acc.items():
        v = symmetric_lift(r, mod)
        if v:
            terms[e] = v
    if not terms:
        return None
    if terms[max(terms, key=ring.order.key)] < 0:
        terms = {e: -v for e, v in terms.items()}
    ct = 0
    for v in terms.values():
        ct = math.gcd(ct, v)
        if ct == 1:
            break
    if ct > 1:
        terms = {e: v // ct for e, v in terms.items()}
    return MultiPoly(ring, terms)


def _q_to_z(f):
    zring = MultiRing(rings.ZZ, f.ring.vars, f.ring.order)
    _, nums = f.ring.cring.clear_denominators(f.terms.values())
    return MultiPoly(zring, dict(zip(f.terms, nums))), zring


# ------------------------------------------------------------------ helpers


def _field_trivial(a, b):
    ring = a.ring
    if a.is_zero() and b.is_zero():
        return ring.zero
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_constant() or b.is_constant():
        return ring.one
    return None


def _monic(f):
    if f.is_zero():
        return f
    K = f.ring.cring
    lc = f.lc()
    if K.is_one(lc):
        return f
    return multi_scale(f, K.inv(lc))


def _active_vars(a, b):
    return [
        i
        for i in range(len(a.ring.vars))
        if a.degree(i) > 0 or b.degree(i) > 0
    ]


def _degree_bounds(a, b, act, rng):
    """Likely gcd degree per active variable, from univariate image gcds."""
    K = a.ring.cring
    bounds = {}
    for i in act:
        for _ in range(_RETRIES):
            values = {j: _nonzero(K, rng) for j in act if j != i}
            ua = univariate_image(a, i, values)
            ub = univariate_image(b, i, values)
            if ua.degree == a.degree(i) and ub.degree == b.degree(i):
                bounds[i] = uni_gcd(ua, ub).degree
                break
        else:
            bounds[i] = min(a.degree(i), b.degree(i))
    return bounds


def _mono_gcd(a, b):
    """Gcd when one side is a single term: the common monomial, monic.

    Divisors of a monomial are unit multiples of monomials, so the gcd
    is the largest monomial dividing both supports.
    """
    ring = a.ring
    n = len(ring.vars)
    e = [None] * n
    for f in (a, b):
        for t in f.terms:
            for i in range(n):
                if e[i] is None or t[i] < e[i]:
                    e[i] = t[i]
    return MultiPoly(ring, {tuple(e): ring.cring.one})


def _content_split(f, m, rng, gcd_fn):
    """(content, primitive part) of f in (K[rest])[x_m] via gcd_fn.

    The monomial part of the content comes straight off the support,
    which keeps the recursive gcd work to the non-monomial residue.
    """
    ring = f.ring
    n = len(ring.vars)
    mins = None
    for e in f.terms:
        if mins is None:
            mins = list(e)
        else:
            for i in range(n):
                if e[i] < mins[i]:
                    mins[i] = e[i]
    mins[m] = 0
    if any(mins):
        mono = MultiPoly(ring, {tuple(mins): ring.cring.one})
        f0 = MultiPoly(
            ring,
            {
                tuple(x - d for x, d in zip(e, mins)): cc
                for e, cc in f.terms.items()
            },
        )
    else:
        mono = None
        f0 = f
    coeffs = list(coefficients_in(f0, m).values())
    if len(coeffs) == 1:
        c = _monic(coeffs[0])
    elif any(cc.is_constant() for cc in coeffs):
        c = ring.one
    else:
        c = _fold_gcd(coeffs, rng, gcd_fn)
    if mono is not None:
        c = multi_mul(mono, c)
    if ring.is_unit(c):
        return ring.one, f
    return c, multi_exact_div(f, c)


def _content_of(f, m, rng, gcd_fn):
    return _content_split(f, m, rng, gcd_fn)[0]


def _fold_gcd(polys, rng, gcd_fn):
    ring = polys[0].ring
    rest = polys[1]
    for p in polys[2:]:
        rest = multi_add(rest, p)
    g = gcd_fn(polys[0], rest, rng)
    if g.is_constant() and not g.is_zero():
        # the gcd of all coefficients divides this one
        return ring.one
    if not g.is_zero() and all(multi_divides(g, p) for p in polys[1:]):
        return g
    g = polys[0]
    for p in polys[1:]:
        g = gcd_fn(g, p, rng)
        if g.is_constant():
            return ring.one
    return g


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
