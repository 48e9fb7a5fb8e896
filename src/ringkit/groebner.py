"""Groebner bases over fields via Buchberger's algorithm.

The engine packs exponent vectors into guard-bit integers so monomial
divisibility is two int ops, and carries each monomial's order key as a
second integer (order keys are additive, so products need no repacking).
Pair bookkeeping follows the Gebauer-Moller update; selection is normal
(smallest lcm) for graded orders and sugar-degree for LEX.  Rational
coefficients run fraction-free on primitive integer polynomials with
content stripping; other fields go through their descriptor operations.
"""

import heapq
import math

from . import rings
from .errors import UnsupportedRingError
from .multipoly import MultiPoly, MultiRing, ORDERS, MonomialOrder

_W = 16
_EXP_CAP = (1 << (_W - 1)) - 1


class _Engine:
    """Packed-monomial arithmetic plus the reducer table.

    Entries are lists [lead_packed, lead_okey, tail, sugar, alive, index,
    lead_coeff]; tails hold (packed, okey, coeff) triples sorted descending.
    """

    def __init__(self, ring, exact=False):
        n = len(ring.vars)
        self.ring = ring
        self.K = ring.cring
        self.n = n
        # variable 0 sits in the top field so LEX compare is int compare
        self.shifts = [_W * (n - 1 - i) for i in range(n)]
        self.guard = sum(1 << (s + _W - 1) for s in self.shifts)
        self.mask = (1 << _W) - 1
        self.order = ring.order.name
        self.entries = []
        if not self.K.is_field:
            raise UnsupportedRingError(
                "Groebner bases need field coefficients, got %s" % (self.K,)
            )
        if isinstance(self.K, rings.ZpRing):
            self.mode = "zp"
        elif self.K == rings.QQ and not exact:
            # fraction-free: primitive integer coefficients throughout
            self.mode = "zz"
        else:
            self.mode = "gen"

    def pack(self, e):
        p = 0
        for x, s in zip(e, self.shifts):
            if x > _EXP_CAP:
                raise ArithmeticError("exponent %d exceeds the packed budget" % x)
            p += x << s
        return p

    def unpack(self, p):
        return tuple((p >> s) & self.mask for s in self.shifts)

    def okey(self, e):
        if self.order == "LEX":
            return self.pack(e)
        td = sum(e) << (_W * self.n)
        if self.order == "GRLEX":
            return td + self.pack(e)
        acc = 0
        for i, x in enumerate(e):
            acc += x << (_W * i)
        return td - acc

    def tdeg(self, p):
        return sum((p >> s) & self.mask for s in self.shifts)

    def lcm(self, pa, pb):
        out = 0
        for s in self.shifts:
            a = (pa >> s) & self.mask
            b = (pb >> s) & self.mask
            out += (a if a > b else b) << s
        return out

    def to_triples(self, f):
        """MultiPoly -> descending [(packed, okey, coeff)] in engine coeffs."""
        items = []
        for e, c in f.terms.items():
            items.append((self.pack(e), self.okey(e), c))
        items.sort(key=lambda t: -t[1])
        if self.mode == "zz":
            _, nums = self.K.clear_denominators(c for _, _, c in items)
            ints = [(p, o, c) for (p, o, _), c in zip(items, nums)]
            g = 0
            for _, _, c in ints:
                g = math.gcd(g, c)
            if g > 1:
                ints = [(p, o, c // g) for p, o, c in ints]
            return ints
        return items

    def to_poly(self, triples):
        """Engine triples -> monic MultiPoly."""
        K = self.K
        if not triples:
            return self.ring.zero
        lead = triples[0][2]
        terms = {}
        if self.mode == "zp":
            pm = K.p
            inv = pow(lead, -1, pm)
            for p, _, c in triples:
                terms[self.unpack(p)] = c * inv % pm
        elif self.mode == "zz":
            for p, _, c in triples:
                terms[self.unpack(p)] = K.make(c, lead)
        else:
            inv = K.inv(lead)
            for p, _, c in triples:
                terms[self.unpack(p)] = K.mul(c, inv)
        return MultiPoly(self.ring, terms)

    def add_entry(self, triples, sugar):
        """Insert a nonzero polynomial as a reducer, monic where possible."""
        lead_p, lead_o, lc = triples[0]
        if self.mode == "zp":
            pm = self.K.p
            inv = pow(lc, -1, pm)
            tail = [(tp, to, tc * inv % pm) for tp, to, tc in triples[1:]]
            lc = 1
        elif self.mode == "zz":
            tail = list(triples[1:])
        else:
            inv = self.K.inv(lc)
            tail = [(tp, to, self.K.mul(tc, inv)) for tp, to, tc in triples[1:]]
            lc = self.K.one
        ent = [lead_p, lead_o, tail, sugar, True, len(self.entries), lc]
        self.entries.append(ent)
        return ent

    # ---------------------------------------------------------- normal forms

    def nf(self, terms, sugar=0):
        """Full normal form against every entry; returns (triples, sugar).

        The heap serves monomials largest-first, so the remainder comes out
        already sorted descending.
        """
        if self.mode == "zp":
            return self._nf_zp(terms, sugar)
        if self.mode == "zz":
            return self._nf_zz(terms, sugar)
        return self._nf_gen(terms, sugar)

    def _find_reducer(self, pk):
        guard = self.guard
        for ent in self.entries:
            d = pk - ent[0]
            if d >= 0 and not (d & guard):
                return ent
        return None

    def _bump_sugar(self, red, shift_p, sugar):
        s = red[3] + (self.tdeg(shift_p) if shift_p else 0)
        return s if s > sugar else sugar

    def _nf_zp(self, terms, sugar):
        pm = self.K.p
        work = {}
        heap = []
        for p, o, c in terms:
            if p in work:
                work[p] = (work[p] + c) % pm
            else:
                work[p] = c % pm
                heapq.heappush(heap, (-o, p))
        entries = self.entries
        guard = self.guard
        out = []
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            no, pk = pop(heap)
            c = work.pop(pk, 0)
            if not c:
                continue
            red = None
            for ent in entries:
                d = pk - ent[0]
                if d >= 0 and not (d & guard):
                    red = ent
                    break
            if red is None:
                out.append((pk, -no, c))
                continue
            shift_p = pk - red[0]
            shift_o = -no - red[1]
            sugar = self._bump_sugar(red, shift_p, sugar)
            for tp, to, tc in red[2]:
                np_ = tp + shift_p
                v = work.get(np_)
                if v is None:
                    nv = (-c * tc) % pm
                    if nv:
                        work[np_] = nv
                        push(heap, (-(to + shift_o), np_))
                else:
                    nv = (v - c * tc) % pm
                    if nv:
                        work[np_] = nv
                    else:
                        del work[np_]
        return out, sugar

    def _nf_zz(self, terms, sugar):
        work = {}
        heap = []
        for p, o, c in terms:
            if p in work:
                work[p] += c
            else:
                work[p] = c
                heapq.heappush(heap, (-o, p))
        out = []
        while heap:
            no, pk = heapq.heappop(heap)
            c = work.pop(pk, 0)
            if not c:
                continue
            red = self._find_reducer(pk)
            if red is None:
                out.append((pk, -no, c))
                continue
            shift_p = pk - red[0]
            shift_o = -no - red[1]
            sugar = self._bump_sugar(red, shift_p, sugar)
            # fraction-free step: scale the whole remainder so the reducer's
            # integer lead cancels the current coefficient exactly
            b = red[6]
            g = math.gcd(c, b)
            mult = b // g
            if mult != 1:
                for k in work:
                    work[k] *= mult
                if out:
                    out = [(p, o, v * mult) for p, o, v in out]
            fac = c // g
            for tp, to, tc in red[2]:
                np_ = tp + shift_p
                v = work.get(np_)
                if v is None:
                    nv = -fac * tc
                    if nv:
                        work[np_] = nv
                        heapq.heappush(heap, (-(to + shift_o), np_))
                else:
                    nv = v - fac * tc
                    if nv:
                        work[np_] = nv
                    else:
                        del work[np_]
        cont = 0
        for _, _, v in out:
            cont = math.gcd(cont, v)
        if cont > 1:
            out = [(p, o, v // cont) for p, o, v in out]
        return out, sugar

    def _nf_gen(self, terms, sugar):
        K = self.K
        work = {}
        heap = []
        for p, o, c in terms:
            if p in work:
                work[p] = K.add(work[p], c)
            else:
                work[p] = c
                heapq.heappush(heap, (-o, p))
        out = []
        while heap:
            no, pk = heapq.heappop(heap)
            c = work.pop(pk, None)
            if c is None or K.is_zero(c):
                continue
            red = self._find_reducer(pk)
            if red is None:
                out.append((pk, -no, c))
                continue
            shift_p = pk - red[0]
            shift_o = -no - red[1]
            sugar = self._bump_sugar(red, shift_p, sugar)
            for tp, to, tc in red[2]:
                np_ = tp + shift_p
                v = work.get(np_)
                if v is None:
                    nv = K.neg(K.mul(c, tc))
                    if not K.is_zero(nv):
                        work[np_] = nv
                        heapq.heappush(heap, (-(to + shift_o), np_))
                else:
                    nv = K.sub(v, K.mul(c, tc))
                    if K.is_zero(nv):
                        del work[np_]
                    else:
                        work[np_] = nv
        return out, sugar

    def spoly_terms(self, ei, ej, lcm_p):
        """Terms of the S-polynomial of two entries; leads cancel exactly."""
        si_p = lcm_p - ei[0]
        sj_p = lcm_p - ej[0]
        si_o = self.okey(self.unpack(si_p))
        sj_o = self.okey(self.unpack(sj_p))
        if self.mode == "zp":
            terms = [(tp + si_p, to + si_o, tc) for tp, to, tc in ei[2]]
            terms += [(tp + sj_p, to + sj_o, -tc) for tp, to, tc in ej[2]]
            return terms
        if self.mode == "zz":
            bi, bj = ei[6], ej[6]
            g = math.gcd(bi, bj)
            ci, cj = bj // g, bi // g
            terms = [(tp + si_p, to + si_o, tc * ci) for tp, to, tc in ei[2]]
            terms += [(tp + sj_p, to + sj_o, -tc * cj) for tp, to, tc in ej[2]]
            return terms
        K = self.K
        terms = [(tp + si_p, to + si_o, tc) for tp, to, tc in ei[2]]
        terms += [(tp + sj_p, to + sj_o, K.neg(tc)) for tp, to, tc in ej[2]]
        return terms


def _shadow_ring(ring, order):
    if order is None:
        return ring
    if not isinstance(order, MonomialOrder):
        order = ORDERS[str(order).upper()]
    if order == ring.order:
        return ring
    return MultiRing(ring.cring, ring.vars, order)


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
    ring = _shadow_ring(ring, order)
    eng = _Engine(ring)
    moved = [f if f.ring == ring else MultiPoly(ring, dict(f.terms)) for f in polys]
    return eng, moved


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
        L, e = cand[idx]
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
            out.append((L, e))
    return out


def groebner_basis(generators, order=None, criteria=True):
    """Reduced Groebner basis of the generated ideal; elements come out
    monic and sorted by ascending leading monomial.

    `criteria=False` turns off the Gebauer-Moller pair pruning.  The output
    must not change, which the cross-check tests rely on.
    """
    eng, gens = _as_engine_input(list(generators), order)
    sugar_sel = eng.order == "LEX"

    pairset = {}
    pairheap = []

    def pair_sugar(ei, ej, lcm_p):
        a = ei[3] + eng.tdeg(lcm_p - ei[0])
        b = ej[3] + eng.tdeg(lcm_p - ej[0])
        return a if a > b else b

    def push_pair(i, j, lcm_p, sug):
        key = (i, j)
        lo = eng.okey(eng.unpack(lcm_p))
        pairset[key] = lcm_p
        sel = (sug, lo, i, j) if sugar_sel else (lo, i, j)
        heapq.heappush(pairheap, (sel, key, lcm_p))

    def update(ent):
        t = ent[5]
        alive = [e for e in eng.entries[:t] if e[4]]
        cand = [(eng.lcm(e[0], ent[0]), e) for e in alive]
        kept = _gm_new_pairs(eng, cand, ent) if criteria else cand
        for L, e in kept:
            push_pair(e[5], t, L, pair_sugar(e, ent, L))
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
                        eng.lcm(eng.entries[i][0], ent[0]) != L
                        and eng.lcm(eng.entries[j][0], ent[0]) != L
                    ):
                        del pairset[key]
            for e in alive:
                d = e[0] - ent[0]
                if d >= 0 and not (d & eng.guard):
                    e[4] = False

    for f in gens:
        triples, sug = eng.nf(eng.to_triples(f), 0)
        if not triples:
            continue
        for p, _, _ in triples:
            td = eng.tdeg(p)
            if td > sug:
                sug = td
        update(eng.add_entry(triples, sug))

    while pairheap:
        _, key, lcm_p = heapq.heappop(pairheap)
        if pairset.pop(key, None) is None:
            continue
        i, j = key
        ei, ej = eng.entries[i], eng.entries[j]
        triples, sug = eng.nf(
            eng.spoly_terms(ei, ej, lcm_p), pair_sugar(ei, ej, lcm_p)
        )
        if triples:
            update(eng.add_entry(triples, sug))

    return _finalize(eng)


def _finalize(eng):
    """Minimal basis, tails fully reduced, monic, ascending leading term."""
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
    # leaves every tail irreducible; loop anyway to hold the invariant
    changed = True
    while changed:
        changed = False
        for pos, e in enumerate(minimal):
            eng.entries = [f for f in minimal if f is not e]
            head = (e[0], e[1], e[6])
            triples, _ = eng.nf([head] + list(e[2]), 0)
            new = [
                triples[0][0],
                triples[0][1],
                triples[1:],
                e[3],
                True,
                e[5],
                triples[0][2],
            ]
            if new[0] != e[0] or new[2] != e[2] or new[6] != e[6]:
                changed = True
            minimal[pos] = new
    eng.entries = minimal
    return [eng.to_poly([(e[0], e[1], e[6])] + list(e[2])) for e in minimal]


class Ideal:
    """An ideal presented by generators, carrying its reduced Groebner basis.

    Reduction runs in exact coefficient arithmetic so normal forms agree
    with plain multivariate division by the basis.
    """

    def __init__(self, generators, order=None):
        gens = list(generators)
        self.basis = groebner_basis(gens, order)
        self.ring = self.basis[0].ring
        self.order = self.ring.order
        self.generators = gens
        self._engine = _Engine(self.ring, exact=True)
        for g in self.basis:
            t = self._engine.to_triples(g)
            self._engine.add_entry(t, self._engine.tdeg(t[0][0]))

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
        if f.is_zero():
            return self.ring.zero
        eng = self._engine
        triples, _ = eng.nf(eng.to_triples(f), 0)
        return MultiPoly(self.ring, {eng.unpack(p): c for p, _, c in triples})

    def contains(self, f):
        return self.reduce(f).is_zero()

    def __repr__(self):
        return "Ideal(%d generators, %s, basis size %d)" % (
            len(self.generators),
            self.order.name,
            len(self.basis),
        )


def ideal_reduce(f, ideal):
    return ideal.reduce(f)


def ideal_membership(f, ideal):
    return ideal.contains(f)


def is_groebner_basis(basis, order=None):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    polys = list(basis)
    eng, moved = _as_engine_input(polys, order)
    for f in moved:
        eng.add_entry(eng.to_triples(f), 0)
    m = len(eng.entries)
    for i in range(m):
        for j in range(i + 1, m):
            ei, ej = eng.entries[i], eng.entries[j]
            L = eng.lcm(ei[0], ej[0])
            triples, _ = eng.nf(eng.spoly_terms(ei, ej, L), 0)
            if triples:
                return False
    return True
