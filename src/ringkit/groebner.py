"""Groebner bases over fields: signature-based Buchberger under GREVLEX,
Buchberger with Gebauer-Moller pruning under LEX and GRLEX.  Both run on
`multipoly.Reducer`, the packed reducer table whose normal forms also serve
`multi_divrem` and exact division; the fields widen when an exponent
outgrows them.

In the signature loop every basis element g carries a signature t*e_i: the
leading term of a representation g = sum(a_j*f_j) over the input generators
f_j.  Signatures are compared in the Schreyer order, first by the order key
of t*lm(f_i), then by the generator index i.  Pairs are J-pairs: the
larger-signature half u*g of an S-pair, processed in increasing signature
order, one per signature.  A normal form is regular: a reducer r may
rewrite a monomial of f only when the multiple shift*r has a smaller
signature than f.  Two criteria discard a J-pair before it is reduced:

- syzygy: its signature is a multiple of a known syzygy signature, either
  the leading term of the Koszul syzygy lm(h)*sig(g) - lm(g)*sig(h) of two
  elements or a signature whose regular normal form was zero;
- rewrite: a basis element added later than the pair's own element has a
  signature dividing the pair's.

Under LEX and GRLEX the Schreyer order lets signatures climb far above the
degrees of the basis (katsura-5 under LEX took minutes instead of half a
second), so those orders keep the Gebauer-Moller loop.

Neither loop sees the linear generators.  They are put in echelon form
first, leads distinct variables, and substituted into the other
generators: inside the Schreyer order a linear generator spawns reductions
to zero that the Koszul syzygies do not predict.  The loop's basis plus
the linear entries is a Groebner basis by the product criterion, and
`_finalize` interreduces it into the unique reduced basis, reducing each
element only by the elements with smaller leads.
`groebner_basis(..., criteria=False)` runs plain Buchberger over every pair
of the raw generators and serves the tests as the oracle.
`Ideal.reduce` is `multi_divrem` by the reduced basis.
"""

import heapq
import itertools
import math

from .errors import UnsupportedRingError
from .multipoly import MultiPoly, MultiRing, Reducer, multi_divrem, widening


class _Engine(Reducer):
    """The reducer table plus the pair loops' packed helpers: lcms,
    S-polynomials and the monic polynomial of a normal form."""

    def lcm(self, pa, pb):
        """Packed lcm of two packed monomials, with its order key."""
        mask = self.mask
        out = key = 0
        for s, w in zip(self.shifts, self.weights):
            a = (pa >> s) & mask
            b = (pb >> s) & mask
            if b > a:
                a = b
            out += a << s
            key += a * w
        return out, key

    def to_poly(self, terms):
        """Engine terms, lead first -> monic MultiPoly."""
        K = self.K
        keys, coeffs = zip(*terms)
        if self.mode == "zz":
            coeffs = [K.make(c, coeffs[0]) for c in coeffs]
        else:
            coeffs = K.vscale(coeffs, K.inv(coeffs[0]))
        keyed = dict(zip(map(self.packed, keys), coeffs))
        return MultiPoly(self.ring, self.lay.unpack_terms(keyed))

    def spoly_terms(self, ei, ej, lcm_o):
        """Terms of the S-polynomial of two entries, given the order key of
        their leads' lcm, as a dict; the leads cancel exactly."""
        si, sj = lcm_o - ei[1], lcm_o - ej[1]
        if self.mode == "gen":
            K = self.K
            terms = {tk + si: tc for tk, tc in ei[2]}
            for tk, tc in ej[2]:
                k = tk + sj
                terms[k] = K.sub(terms[k], tc) if k in terms else K.neg(tc)
            return terms
        g = math.gcd(ei[6], ej[6])
        ci, cj = ej[6] // g, ei[6] // g
        terms = {tk + si: tc * ci for tk, tc in ei[2]}
        for tk, tc in ej[2]:
            k = tk + sj
            terms[k] = terms.get(k, 0) - tc * cj
        return terms


def _as_engine_input(polys, order):
    if not polys:
        raise ValueError("empty generator list")
    ring = polys[0].ring
    if not isinstance(ring, MultiRing):
        raise TypeError("generators must be multivariate polynomials")
    for f in polys:
        if f.ring != ring:
            raise ValueError("generators live in different rings")
        if f.is_zero():
            raise ValueError("zero generator")
    if not ring.cring.is_field:
        raise UnsupportedRingError(
            "Groebner bases need field coefficients, got %s" % (ring.cring,)
        )
    if order is not None:
        ring = MultiRing(ring.cring, ring.vars, order)
    moved = [f if f.ring == ring else MultiPoly(ring, dict(f.terms)) for f in polys]
    return ring, moved


def _gm_new_pairs(eng, cand, ent):
    """Gebauer-Moller filter for the pairs a new entry spawns.

    A candidate dies when another candidate's lcm properly divides its own,
    or when an equal lcm appears later in the list (one representative per
    class).  Coprime-lead pairs take part in that pruning but are dropped
    from the final list (product criterion).
    """
    guard = eng.guard
    out = []
    n = len(cand)
    for idx in range(n):
        L, lo, e = cand[idx]
        dominated = False
        for idx2 in range(n):
            if idx2 == idx:
                continue
            d = L - cand[idx2][0]
            if d < 0 or (d & guard):
                continue
            if d != 0 or idx2 > idx:
                dominated = True
                break
        if dominated:
            continue
        if L != e[0] + ent[0]:
            out.append((L, lo, e))
    return out


def groebner_basis(generators, order=None, criteria=True):
    """Reduced Groebner basis of the generated ideal; elements come out
    monic and sorted by ascending leading monomial.

    With `criteria` the linear generators are put in echelon form and
    substituted into the others (`_split_linear`), and only the substituted
    generators enter a pair loop: the signature loop (`_signature_basis`)
    under GREVLEX, Buchberger with Gebauer-Moller pruning under LEX and
    GRLEX.  No substituted generator contains a linear lead variable, so
    every pair of a linear entry with a loop element has coprime leads,
    and by the product criterion the loop's basis plus the linear entries
    is a Groebner basis.  `criteria=False` runs plain Buchberger over every
    pair of the raw generators, the oracle the cross-check tests compare
    against; the reduced basis is unique, so every path returns the same
    list.
    """
    ring, gens = _as_engine_input(list(generators), order)
    return widening(gens, lambda bits: _basis(_Engine(ring, bits), gens, criteria))


def _basis(eng, gens, criteria):
    if not criteria:
        _buchberger(eng, [eng.to_terms(f) for f in gens], False)
        return _finalize(eng)
    split = _split_linear(eng, gens)
    if split is None:
        return [eng.ring.one]
    linear, starts = split
    if eng.order == "GREVLEX":
        if not _signature_basis(eng, starts):
            return [eng.ring.one]
    else:
        _buchberger(eng, starts, True)
    eng.entries += linear
    return _finalize(eng)


def _split_linear(eng, gens):
    """(linear entries, substituted terms), or None for the unit ideal.

    The generators of total degree <= 1 come first and are echelonized into
    entries whose leads are distinct variables (every admissible order
    ranks a variable above 1).  Reducing every other generator by them
    substitutes the linear part; zero results drop.  The entry list is left
    empty for the pair loop.
    """
    eng.entries = []
    starts = []
    for f in sorted(gens, key=lambda f: f.degree() > 1):
        terms, _ = eng.nf(eng.to_terms(f))
        if not terms:
            continue
        if not terms[0][0]:
            return None
        if f.degree() > 1:
            starts.append(terms)
        else:
            eng.add_entry(terms, 0)
    linear, eng.entries = eng.entries, []
    return linear, starts


def _buchberger(eng, starts, criteria):
    """Buchberger's loop over generators given as engine terms, with
    Gebauer-Moller pruning when `criteria`.

    Selection is normal (smallest lcm) for graded orders and sugar-degree
    for LEX.
    """
    sugar_sel = eng.order == "LEX"

    pairset = {}
    pairheap = []

    def pair_sugar(ei, ej, lcm_p):
        a = ei[3] + eng.tdeg(lcm_p - ei[0])
        b = ej[3] + eng.tdeg(lcm_p - ej[0])
        return a if a > b else b

    def push_pair(i, j, lcm_p, lo, sug):
        key = (i, j)
        pairset[key] = lcm_p
        sel = (sug, lo, i, j) if sugar_sel else (lo, i, j)
        heapq.heappush(pairheap, (sel, key, lcm_p, lo))

    def update(ent):
        t = ent[5]
        alive = [e for e in eng.entries[:t] if e[4]]
        cand = [(*eng.lcm(e[0], ent[0]), e) for e in alive]
        kept = _gm_new_pairs(eng, cand, ent) if criteria else cand
        for L, lo, e in kept:
            push_pair(e[5], t, L, lo, pair_sugar(e, ent, L))
        if criteria:
            # chain criterion: the new lead strictly inside an old pair's
            # lcm makes that pair redundant
            for key in list(pairset):
                i, j = key
                if j == t:
                    continue
                L = pairset[key]
                d = L - ent[0]
                if d >= 0 and not (d & eng.guard):
                    if (
                        eng.lcm(eng.entries[i][0], ent[0])[0] != L
                        and eng.lcm(eng.entries[j][0], ent[0])[0] != L
                    ):
                        del pairset[key]
            for e in alive:
                d = e[0] - ent[0]
                if d >= 0 and not (d & eng.guard):
                    e[4] = False

    for t in starts:
        terms, sug = eng.nf(t, 0)
        if not terms:
            continue
        for k, _ in terms:
            td = eng.tdeg(eng.packed(k))
            if td > sug:
                sug = td
        update(eng.add_entry(terms, sug))

    while pairheap:
        _, key, L, lo = heapq.heappop(pairheap)
        if pairset.pop(key, None) is None:
            continue
        i, j = key
        ei, ej = eng.entries[i], eng.entries[j]
        terms, sug = eng.nf(eng.spoly_terms(ei, ej, lo), pair_sugar(ei, ej, L))
        if terms:
            update(eng.add_entry(terms, sug))


def _signature_basis(eng, starts):
    """Fill `eng.entries` with a signature Groebner basis of the generators
    given as engine terms in `starts`.

    Returns False, with the entries incomplete, as soon as an element with
    a constant lead shows the ideal to be the whole ring.
    """
    guard = eng.guard
    entries = eng.entries
    check = eng.lay.check
    syz = {}  # generator index -> minimal syzygy signature monomials
    owned = {}  # generator index -> entries with that signature index
    # signature 1*e_i, keyed by the lead of generator i; -1 marks a generator
    heap = [(max(dict(t)), i, 0, -1, 0) for i, t in enumerate(starts)]
    heapq.heapify(heap)

    def divisible(mons, p):
        for z in mons:
            d = p - z
            if d >= 0 and not (d & guard):
                return True
        return False

    def add_syzygy(i, p):
        if p & guard:
            # a Koszul signature past the packed budget: dropping it loses a
            # criterion, never a basis element
            return
        mons = syz.setdefault(i, [])
        if not divisible(mons, p):
            mons[:] = [z for z in mons if z - p < 0 or (z - p) & guard]
            mons.append(p)

    last = None
    while heap:
        key, i, sig_p, a, u = heapq.heappop(heap)
        if (key, i) == last or divisible(syz.get(i, ()), sig_p):
            continue
        if a < 0:
            terms = starts[i]
        else:
            # rewrite criterion: the newest entry whose signature divides
            # this one must be the pair's own
            for r in reversed(owned[i]):
                d = sig_p - r[9]
                if d >= 0 and not (d & guard):
                    break
            g = entries[a]
            if r is not g:
                continue
            terms = [(g[1] + u, g[6])]
            terms += [(tk + u, tc) for tk, tc in g[2]]
        last = (key, i)
        terms, _ = eng.nf(terms, None, last)
        if not terms:
            add_syzygy(i, sig_p)
            continue
        if not terms[0][0]:
            return False
        # results that are only singularly top-reducible stay: the rewrite
        # criterion counts on the newest element of each signature
        h = eng.add_entry(terms, None, (key, i, sig_p))
        owned.setdefault(i, []).append(h)
        hp, ho, hk, hi, hs = h[0], h[1], h[7], h[8], h[9]
        for g in entries[:-1]:
            gp, go, gk, gi, gs = g[0], g[1], g[7], g[8], g[9]
            # Koszul syzygy g*e_h - h*e_g: its signature is the larger half,
            # unless the halves are equal and cancel
            kh, kg = hk + go, gk + ho
            if kh > kg or (kh == kg and hi > gi):
                add_syzygy(hi, hs + gp)
            elif kh < kg or hi != gi:
                add_syzygy(gi, gs + hp)
            L, lo = eng.lcm(gp, hp)
            if L == gp + hp:
                # coprime leads: the J-pair's signature is the Koszul one
                continue
            uh, ug = lo - ho, lo - go
            kh, kg = hk + uh, gk + ug
            if kh > kg or (kh == kg and hi > gi):
                item = (kh, hi, check(hs + L - hp), h[5], uh)
            elif kh < kg or hi != gi:
                item = (kg, gi, check(gs + L - gp), g[5], ug)
            else:
                continue
            heapq.heappush(heap, item)
    return True


def _finalize(eng):
    """Minimal basis, tails fully reduced, monic, ascending leading term.

    Each element is reduced only by the minimal elements with smaller leads:
    a lead that divides a tail monomial m is at most m < lm(e), so no larger
    lead can rewrite e's tail.
    """
    ents = sorted(eng.entries, key=lambda e: e[1])
    minimal = []
    for e in ents:
        for f in minimal:
            d = e[0] - f[0]
            if d >= 0 and not (d & eng.guard):
                break
        else:
            minimal.append(e)
    # leads are pairwise indivisible and never change below, so one pass
    # leaves every tail irreducible; the entries are always the reduced
    # elements with smaller leads
    eng.entries = []
    out = []
    for e in minimal:
        terms, _ = eng.nf([(e[1], e[6])] + e[2])
        eng.add_entry(terms, 0)
        out.append(eng.to_poly(terms))
    return out


class Ideal:
    """An ideal presented by generators, carrying its reduced Groebner basis.

    Reduction is `multi_divrem` by the basis, whose remainder is the unique
    normal form since the basis is a Groebner basis.
    """

    def __init__(self, generators, order=None):
        gens = list(generators)
        self.basis = groebner_basis(gens, order)
        self.ring = self.basis[0].ring
        self.order = self.ring.order
        self.generators = gens

    def reduce(self, f):
        """Normal form of f modulo the ideal, unique for the fixed order.

        f lives in the basis ring or in the ring of the generators, which
        differs from it only in the monomial order when one was given.
        """
        if not isinstance(f, MultiPoly) or f.ring not in (
            self.ring,
            self.generators[0].ring,
        ):
            raise ValueError("polynomial does not live in %s" % (self.ring,))
        if f.ring != self.ring:
            f = MultiPoly(self.ring, dict(f.terms))
        return multi_divrem(f, self.basis)[1]

    def contains(self, f):
        return self.reduce(f).is_zero()

    def __repr__(self):
        return "Ideal(%d generators, %s, basis size %d)" % (
            len(self.generators),
            self.order.name,
            len(self.basis),
        )


def is_groebner_basis(basis, order=None):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    ring, moved = _as_engine_input(list(basis), order)

    def check(bits):
        eng = _Engine(ring, bits)
        for f in moved:
            eng.add_entry(eng.to_terms(f), 0)
        return not any(
            eng.nf(eng.spoly_terms(ei, ej, eng.lcm(ei[0], ej[0])[1]))[0]
            for ei, ej in itertools.combinations(eng.entries, 2)
        )

    return widening(moved, check)
