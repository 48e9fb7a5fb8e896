"""Sparse distributed multivariate polynomials.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
Monomial orders produce sortable keys (bigger key = bigger monomial), so
descending term iteration is a sort.  `Layout` is the one packing of
exponent vectors into integer keys with a guard bit per variable; the
Hensel lift and `Reducer` run on its keys, and multiplication always packs
under a Layout sized by the degree sums.  `Layout.order_weights` is the one
copy of the additive int order keys that go with them.  Every division
runs on `Reducer`, the reducer table of the Groebner bases: `multi_divrem`
is its normal form with the quotients recorded, and exact division
(`multi_exact_div`, `multi_divides`) is that normal form with a room, which
stops at the first term that shows the division inexact, as the heap
division of Monagan and Pearce does.

This module owns evaluation: `term_values` substitutes a point into every
term (power tables per exponent column over residue rings, a power cache
elsewhere), and the full value, the partial substitution and the univariate
image in one variable are built on it.  The conversions between a MultiPoly
in one variable and a UniPoly live here too, as do the one content
(`content_primitive`) and the one change of coefficient ring.
"""

import functools
import heapq
import itertools
import math
import operator

from . import rings
from .errors import UnsupportedRingError
from .unipoly import UniPoly, _poly


class MonomialOrder:
    """Total order on exponent tuples; key() is monotone and additive."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def key(self, e):
        raise NotImplementedError

    def compare(self, u, v):
        if len(u) != len(v):
            raise ValueError("exponent vectors of different lengths")
        ku, kv = self.key(u), self.key(v)
        return (ku > kv) - (ku < kv)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class _Lex(MonomialOrder):
    def key(self, e):
        return e


class _Grlex(MonomialOrder):
    def key(self, e):
        return (sum(e),) + e


class _Grevlex(MonomialOrder):
    def key(self, e):
        # graded, then the rightmost differing exponent decides (smaller wins)
        return (sum(e),) + tuple(-x for x in reversed(e))


LEX = _Lex("LEX")
GRLEX = _Grlex("GRLEX")
GREVLEX = _Grevlex("GREVLEX")
ORDERS = {"LEX": LEX, "GRLEX": GRLEX, "GREVLEX": GREVLEX}


def monomial_order(order) -> MonomialOrder:
    """`order` itself, or the order it names in any letter case."""
    if isinstance(order, MonomialOrder):
        return order
    try:
        return ORDERS[str(order).upper()]
    except KeyError:
        raise ValueError(
            "unknown monomial order %r: use LEX, GRLEX or GREVLEX" % (order,)
        ) from None


class MultiPoly:
    """Immutable sparse polynomial; `ring` is a MultiRing descriptor."""

    __slots__ = ("ring", "terms", "_lead", "_degs")

    def __init__(self, ring, terms):
        # constructor trusts its input: no zero coefficients, right arity
        self.ring = ring
        self.terms = terms
        self._lead = None
        self._degs = None

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant(self):
        zero = (0,) * len(self.ring.vars)
        return self.terms.get(zero, self.ring.cring.zero)

    def leading_exponent(self):
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._lead = max(self.terms, key=self.ring.order.key)
        return self._lead

    def lc(self):
        return self.terms[self.leading_exponent()]

    def degrees(self):
        """Per-variable maximum exponents, cached."""
        if self._degs is None:
            if self.terms:
                self._degs = tuple(map(max, zip(*self.terms)))
            else:
                self._degs = (0,) * len(self.ring.vars)
        return self._degs

    def degree(self, var=None):
        """Total degree, or the degree in one variable (by index or name)."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = var if isinstance(var, int) else self.ring.vars.index(var)
        return self.degrees()[i]

    def term_count(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, x):
        if isinstance(x, MultiPoly):
            if x.ring != self.ring:
                raise ValueError("polynomial rings differ")
            return x
        return self.ring.of(x)

    def __add__(self, other):
        return multi_add(self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return multi_sub(self, self._coerce(other))

    def __rsub__(self, other):
        return multi_sub(self._coerce(other), self)

    def __neg__(self):
        return multi_neg(self)

    def __mul__(self, other):
        return multi_mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, e):
        return multi_pow(self, e)

    def __divmod__(self, other):
        qs, r = multi_divrem(self, [self._coerce(other)])
        return qs[0], r

    def __mod__(self, other):
        return multi_divrem(self, [self._coerce(other)])[1]

    def __floordiv__(self, other):
        return multi_divrem(self, [self._coerce(other)])[0][0]

    def __repr__(self):
        return "MultiPoly(%r, %r)" % (self.ring, self.terms)


def _mk(ring, terms):
    """Build a MultiPoly from a dict, dropping zero coefficients."""
    K = ring.cring
    return MultiPoly(ring, {e: c for e, c in terms.items() if not K.is_zero(c)})


def multi_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return MultiPoly(a.ring, a.ring.cring.add_terms(a.terms, b.terms))


def multi_sub(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return MultiPoly(a.ring, a.ring.cring.add_terms(a.terms, b.terms, -1))


def multi_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.ring, dict(zip(a.terms, a.ring.cring.vneg(a.terms.values()))))


def multi_scale(a: MultiPoly, c) -> MultiPoly:
    return _mk(a.ring, dict(zip(a.terms, a.ring.cring.vscale(a.terms.values(), c))))


def multi_mono_mul(a: MultiPoly, exp, c) -> MultiPoly:
    """a * c*x^exp for a single monomial."""
    vals = a.ring.cring.vscale(a.terms.values(), c)
    return _mk(a.ring, {tuple(map(operator.add, e, exp)): v for e, v in zip(a.terms, vals)})


class Layout:
    """Packed monomial keys: the one map between exponent tuples and ints.

    Variable i takes `bits[i]` value bits plus one guard bit above them, and
    `fields` lists the variables from the low bits up.  Keys of monomials
    add as their exponents do, and the sum of two in-range keys can set a
    guard bit but never carries into the next field, so `check` spots an
    exponent that left its range, and d divides k exactly when k - d is
    nonnegative with no guard bit set (Monagan and Pearce).  `mask[i]`
    covers the whole field of variable i, guard bit included.
    """

    __slots__ = ("bits", "shift", "mask", "guard", "_steps")

    def __init__(self, bits, fields):
        n = len(bits)
        self.bits = tuple(bits)
        self.shift = [0] * n
        self.mask = [0] * n
        self.guard = 0
        steps = []
        sh = 0
        for i in fields:
            w = self.bits[i] + 1
            self.shift[i] = sh
            self.mask[i] = (1 << w) - 1
            self.guard |= 1 << (sh + w - 1)
            steps.append((i, w, self.mask[i]))
            sh += w
        self._steps = steps

    def pack_terms(self, terms):
        """{key: coefficient} for a dict {exponent tuple: coefficient};
        OverflowError for an exponent past its field."""
        fields = list(zip(self.shift, self.bits))
        out = {}
        for e, c in terms.items():
            key = 0
            for x, (sh, b) in zip(e, fields):
                if x >> b:
                    raise OverflowError("exponent %d exceeds the packed budget" % x)
                key |= x << sh
            out[key] = c
        return out

    def unpack_terms(self, keyed):
        """{exponent tuple: coefficient} for a dict {key: coefficient}."""
        n = len(self.bits)
        steps = self._steps
        out = {}
        for k, c in keyed.items():
            e = [0] * n
            for i, w, msk in steps:
                e[i] = k & msk
                k >>= w
            out[tuple(e)] = c
        return out

    def exponents(self, key):
        return tuple((key >> sh) & mk for sh, mk in zip(self.shift, self.mask))

    def check(self, key):
        """Return key, raising as `pack_terms` does when a guard bit is set."""
        if key & self.guard:
            raise OverflowError(
                "exponent %d exceeds the packed budget" % max(self.exponents(key))
            )
        return key

    def split(self, f, v):
        """Rows of keyed f in v: {j: coefficient of v^j, v field cleared}."""
        sh, mk = self.shift[v], self.mask[v]
        rows = {}
        for k, c in f.items():
            j = (k >> sh) & mk
            rows.setdefault(j, {})[k - (j << sh)] = c
        return rows

    def join(self, rows, v):
        sh = self.shift[v]
        return {k + (j << sh): c for j, row in rows.items() for k, c in row.items()}

    def degree(self, f, v):
        sh, mk = self.shift[v], self.mask[v]
        return max(((k >> sh) & mk for k in f), default=-1)

    def order_weights(self, order):
        """Weights w making sum(e[i] * w[i]) an additive int order key for
        `order` on every exponent vector these bits hold; they depend on the
        bits alone, not on the field order.  LEX reads the fields stacked
        with variable 0 on top, GRLEX puts the total degree above them, and
        GREVLEX puts the total degree above the fields stacked with
        variable 0 at the bottom, negated.
        """
        n = len(self.bits)
        up = list(itertools.accumulate((b + 1 for b in self.bits), initial=0))
        top = 1 << up[n]
        name = monomial_order(order).name
        if name == "GREVLEX":
            return [top - (1 << s) for s in up[:n]]
        # with variable 0 on top, variable i sits above the later ones
        top = 0 if name == "LEX" else top
        return [top + (1 << (up[n] - s)) for s in up[1:]]


def multi_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Product on packed keys under a Layout sized by the degree sums; Z
    and the residue rings run `mul_keys`, other rings one generic loop."""
    if a.ring != b.ring:
        raise ValueError("polynomial rings differ")
    if a.is_zero() or b.is_zero():
        return MultiPoly(a.ring, {})
    if len(b.terms) == 1:
        (e, c), = b.terms.items()
        return multi_mono_mul(a, e, c)
    if len(a.terms) == 1:
        (e, c), = a.terms.items()
        return multi_mono_mul(b, e, c)
    n = len(a.ring.vars)
    lay = Layout([(a.degree(i) + b.degree(i)).bit_length() for i in range(n)], range(n))
    A = lay.pack_terms(a.terms)
    B = lay.pack_terms(b.terms)
    K = a.ring.cring
    mod = K.coeff_modulus
    if mod is not None or isinstance(K, rings.IntegerRing):
        acc = mul_keys(A, B, mod)
    else:
        acc = {}
        zero = K.zero
        for ka, ca in A.items():
            for kb, cb in B.items():
                k = ka + kb
                acc[k] = K.add(acc.get(k, zero), K.mul(ca, cb))
        acc = {k: c for k, c in acc.items() if not K.is_zero(c)}
    return MultiPoly(a.ring, lay.unpack_terms(acc))


def mul_keys_into(acc, A, B):
    """Add A * B into `acc`, the one packed-product loop; returns `acc`.

    A, B and acc map packed monomial keys to ints; keys add, so the
    caller's layout must leave room for every exponent sum.  Nothing is
    reduced: a caller sums as many products as it likes, then reduces once
    per output key with `reduce_keys`.
    """
    if len(A) > len(B):
        A, B = B, A
    get = acc.get
    for ka, ca in A.items():
        for kb, cb in B.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def reduce_keys(acc, mod):
    """The nonzero entries of `acc`, reduced mod `mod` unless it is None (Z)."""
    if mod is None:
        return {k: c for k, c in acc.items() if c}
    return {k: c for k, v in acc.items() if (c := v % mod)}


def mul_keys(A, B, mod):
    """A * B on packed keys, reduced by `reduce_keys`."""
    return reduce_keys(mul_keys_into({}, A, B), mod)


def multi_mul_naive(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Direct pairwise accumulation on exponent tuples (the oracle path)."""
    K = a.ring.cring
    acc = {}
    zero = K.zero
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = K.add(acc.get(e, zero), K.mul(ca, cb))
    return _mk(a.ring, acc)


def multi_pow(a: MultiPoly, e: int) -> MultiPoly:
    return rings.power(multi_mul, a.ring.one, a, e)


# ----------------------------------------------------------- normal forms


@functools.cache
def _keying(n, order, bits):
    """(Layout, order weights, sign) of the Reducers of one shape: under
    LEX and GRLEX variable 0 sits in the top field and the low bits of an
    order key are its packed key; under GREVLEX variable 0 sits in the
    bottom field and the low bits are minus the packed key."""
    grevlex = monomial_order(order).name == "GREVLEX"
    lay = Layout([bits] * n, range(n) if grevlex else range(n - 1, -1, -1))
    return lay, lay.order_weights(order), -1 if grevlex else 1


class Reducer:
    """Packed reducer table and the normal forms against it.

    A monomial is its `Layout.order_weights` key, one int that compares as
    the monomial does and adds as its exponents do; `packed` reads the
    exponents off its low bits, `bits` value bits per variable, where a lead
    divides a monomial exactly when their difference sets no guard bit.
    Terms are (key, coefficient) pairs with distinct keys, or a dict.
    Entries are lists [lead_packed, lead_key, tail, sugar, alive, index,
    lead_coeff, sig_key, sig_index, sig_packed].  `mode` picks the kernel:
    "zp" (residue fields, monic entries), "z" (Z, an entry rewrites only
    multiples of its lead coefficient) and "zz" (fraction-free Q) share
    `_nf_int`; "gen" runs `_nf_gen` on descriptor ops for every other ring,
    monic over a field and keeping the lead coefficient elsewhere.
    """

    def __init__(self, ring, bits=15):
        n = len(ring.vars)
        self.ring = ring
        self.K = K = ring.cring
        self.lay, self.weights, self.sign = _keying(n, ring.order, bits)
        self.shifts = self.lay.shift
        self.guard = self.lay.guard
        self.mask = self.lay.mask[0]
        # the mask of the low bits that hold the packed exponents
        self.low = (1 << n * (bits + 1)) - 1
        self.order = ring.order.name
        self.entries = []
        if K.coeff_modulus is not None and K.is_field:
            self.mode = "zp"
        elif isinstance(K, rings.IntegerRing):
            self.mode = "z"
        elif K == rings.QQ:
            self.mode = "zz"
        else:
            self.mode = "gen"

    def packed(self, k):
        """The packed key of the monomial with order key k."""
        return k * self.sign & self.low

    def tdeg(self, p):
        return sum((p >> s) & self.mask for s in self.shifts)

    def to_terms(self, f):
        """MultiPoly -> {key: coeff}, cleared of denominators over Q; every
        exponent must fit its field."""
        w = self.weights
        keys = [sum(map(operator.mul, e, w)) for e in f.terms]
        coeffs = f.terms.values()
        if self.mode == "zz":
            _, coeffs = self.K.clear_denominators(coeffs)
        return dict(zip(keys, coeffs))

    def add_entry(self, terms, sugar, sig=(0, 0, 0)):
        """Insert a nonzero polynomial, as `nf` or `to_terms` gives it, as a
        reducer, monic over fields but Q; `sig` is (key, generator index,
        packed monomial) of its signature."""
        if isinstance(terms, dict):
            lead = max(terms)
            lc, tail = terms[lead], [t for t in terms.items() if t[0] != lead]
        else:
            (lead, lc), tail = terms[0], terms[1:]
        K = self.K
        if self.mode != "zz" and K.is_field and lc != K.one:
            keys = [t[0] for t in tail]
            tail = list(zip(keys, K.vscale([t[1] for t in tail], K.inv(lc))))
            lc = K.one
        ent = [self.packed(lead), lead, tail, sugar, True, len(self.entries), lc, *sig]
        self.entries.append(ent)
        return ent

    def nf(self, terms, sugar=None, sig=None, quots=None, room=None):
        """Full normal form against every entry; returns (terms, sugar).

        Terms pop largest first, so the remainder comes out sorted
        descending, and each is rewritten by the first entry whose lead
        divides it and, over a non-field, whose lead coefficient divides its
        coefficient.  Sugar is tracked only from a starting `sugar`.  With
        `sig` = (key, generator index) a reducer rewrites a monomial only
        when its shifted signature is smaller.  A sink `quots`, one dict per
        entry index, gets {packed shift: coefficient} and an exact
        remainder, terms - sum(quotient * entry); without one a Q remainder
        is primitive.

        With `room`, the packed largest quotient shift, the division must be
        exact: nf returns None at the first term that no entry rewrites or
        whose shift leaves the room, so every key stays inside the fields.
        Without it a term past the layout raises OverflowError.
        """
        if self.mode == "gen":
            return self._nf_gen(terms, sugar, sig, quots, room)
        return self._nf_int(terms, sugar, sig, quots, room)

    def _bump_sugar(self, red, shift, sugar):
        s = red[3] + (self.tdeg(shift) if shift else 0)
        return s if s > sugar else sugar

    def _nf_int(self, terms, sugar, sig, quots, room):
        """Integer heap reduction, for Zp, Z and fraction-free Q.

        Work coefficients stay unreduced; over Zp a coefficient is reduced
        mod p only when its monomial is popped.  Zp reducers are monic; over
        Q the fraction-free rescale runs only for a reducer lead other than
        1, and `den` is the product of its multipliers.
        """
        sk, si = sig or (None, None)
        pm = self.K.coeff_modulus
        ff = self.mode == "zz"
        work = dict(terms)
        heap = [-k for k in work]
        heapq.heapify(heap)
        entries = self.entries
        guard, sign, low = self.guard, self.sign, self.low
        # with no room given every field is room, and no shift leaves it
        top = low - guard if room is None else room
        out = []
        den = 1
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            k = -pop(heap)
            c = work.pop(k, 0)
            if pm is not None:
                c %= pm
            if not c:
                continue
            p = k * sign & low
            if p & guard:
                self.lay.check(p)
            for red in entries:
                # a lead divides only monomials at least as large
                if k < red[1]:
                    continue
                s = p - red[0]
                if s & guard:
                    continue
                if (top - s) & guard:
                    return None
                if sig is not None:
                    t = red[7] + k - red[1]
                    if t > sk or (t == sk and red[8] >= si):
                        continue
                b = red[6]
                if b == 1 or ff:
                    break
                if not c % b:
                    c //= b
                    break
            else:
                if room is not None:
                    return None
                out.append((k, c))
                continue
            if sugar is not None:
                sugar = self._bump_sugar(red, s, sugar)
            if b != 1 and ff:
                # fraction-free step: scale the whole remainder so the
                # reducer's integer lead cancels the current coefficient
                g = math.gcd(c, b)
                mult = b // g
                if mult != 1:
                    den *= mult
                    for key in work:
                        work[key] *= mult
                    if out:
                        out = [(key, v * mult) for key, v in out]
                c //= g
            if quots is not None:
                quots[red[5]][s] = self.K.make(c, den) if ff else c
            shift = k - red[1]
            for tk, tc in red[2]:
                nk = tk + shift
                v = work.get(nk)
                if v is None:
                    work[nk] = -c * tc
                    push(heap, -nk)
                elif v := v - c * tc:
                    work[nk] = v
                else:
                    del work[nk]
        if ff:
            if quots is not None:
                return [(k, self.K.make(v, den)) for k, v in out], sugar
            cont = math.gcd(*(v for _, v in out))
            if cont > 1:
                out = [(k, v // cont) for k, v in out]
        return out, sugar

    def _nf_gen(self, terms, sugar, sig, quots, room):
        """Descriptor-op heap reduction; over a non-field an entry rewrites
        a term only when its lead coefficient divides the term's."""
        sk, si = sig or (None, None)
        K = self.K
        work = dict(terms)
        heap = [-k for k in work]
        heapq.heapify(heap)
        guard = self.guard
        top = self.low - guard if room is None else room
        out = []
        while heap:
            k = -heapq.heappop(heap)
            c = work.pop(k, None)
            if c is None or K.is_zero(c):
                continue
            p = self.packed(k)
            if p & guard:
                self.lay.check(p)
            for red in self.entries:
                if k < red[1]:
                    continue
                s = p - red[0]
                if s & guard:
                    continue
                if (top - s) & guard:
                    return None
                if sig is not None:
                    t = red[7] + k - red[1]
                    if t > sk or (t == sk and red[8] >= si):
                        continue
                if K.is_field:
                    break
                try:
                    c = K.exact_div(c, red[6])
                except (ArithmeticError, UnsupportedRingError):
                    continue
                break
            else:
                if room is not None:
                    return None
                out.append((k, c))
                continue
            if sugar is not None:
                sugar = self._bump_sugar(red, s, sugar)
            if quots is not None:
                quots[red[5]][s] = c
            shift = k - red[1]
            for tk, tc in red[2]:
                nk = tk + shift
                v = work.get(nk)
                if v is None:
                    nv = K.neg(K.mul(c, tc))
                    if not K.is_zero(nv):
                        work[nk] = nv
                        heapq.heappush(heap, -nk)
                else:
                    nv = K.sub(v, K.mul(c, tc))
                    if K.is_zero(nv):
                        del work[nk]
                    else:
                        work[nk] = nv
        return out, sugar


def widening(polys, run):
    """run(bits) for the packed width of `polys`: 15 bits per exponent, or
    the bit length of their largest exponent, doubled on each OverflowError."""
    bits = max(15, max(max(f.degrees()) for f in polys).bit_length())
    while True:
        try:
            return run(bits)
        except OverflowError:
            bits *= 2


def multi_divrem(f: MultiPoly, dividers):
    """(quotients, remainder) with f = sum(q_i*d_i) + r, on `Reducer.nf`.

    Each term, largest first, is rewritten by the first divider in the
    given order whose leading monomial divides it and, over a non-field,
    whose leading coefficient divides its coefficient; no remainder term
    is reducible so.  The Layout widens until every exponent fits.
    """
    ring = f.ring
    if not dividers:
        raise ValueError("need at least one divider")
    for d in dividers:
        if d.ring != ring:
            raise ValueError("polynomial rings differ")
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return [ring.zero for _ in dividers], ring.zero
    return widening([f, *dividers], lambda b: _divrem(Reducer(ring, b), f, dividers))


def _divrem(eng, f, dividers, room=None):
    """`multi_divrem` on eng; None when it is not exact within `room`."""
    K = eng.K
    tds = [eng.to_terms(d) for d in dividers]
    for td in tds:
        eng.add_entry(td, 0)
    terms = eng.to_terms(f)
    sink = [{} for _ in dividers]
    got = eng.nf(terms, quots=sink, room=room)
    if got is None:
        return None
    # the kernel divides f*m by entries d_i*lc(entry)/lc(d_i) over fields;
    # m = terms/f clears the denominators over Q and is 1 elsewhere
    s = K.one
    if eng.mode == "zz":
        c, t = next(zip(f.terms.values(), terms.values()))
        s = K.div(c, K.of(t)) if K.of(t) != c else s
    qs = []
    for d, td, e in zip(dividers, tds, eng.entries):
        q = sink[e[5]]
        if K.is_field:
            # lc(d_i) at the entry's lead, where only Q has scaled the terms
            ld = d.terms[eng.lay.exponents(e[0])] if eng.mode == "zz" else td[e[1]]
            if (lc := K.mul(s, K.of(e[6]))) != ld:
                q = dict(zip(q, K.vscale(q.values(), K.div(lc, ld))))
        qs.append(MultiPoly(f.ring, eng.lay.unpack_terms(q)))
    r = {eng.packed(k): c if s == K.one else K.mul(c, s) for k, c in got[0]}
    return qs, MultiPoly(f.ring, eng.lay.unpack_terms(r)) if r else f.ring.zero


def _exact_div(a: MultiPoly, b: MultiPoly):
    """a / b when b divides a, else None: `Reducer.nf` in fields sized from
    a's degrees, with the room deg(a) - deg(b) that holds a true quotient.
    Like the heap division of Monagan and Pearce it stops at the first term
    that lm(b) does not divide, whose coefficient lc(b) does not divide
    over Z, or whose quotient shift leaves the room.
    """
    if b.ring != a.ring:
        raise ValueError("polynomial rings differ")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    da = a.degrees()
    room = tuple(map(operator.sub, da, b.degrees()))
    if min(room) < 0:
        return None
    eng = Reducer(a.ring, max(da).bit_length())
    got = _divrem(eng, a, [b], eng.packed(sum(map(operator.mul, room, eng.weights))))
    return None if got is None else got[0][0]


def multi_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a / b by `_exact_div`; ArithmeticError when b does not divide a."""
    q = _exact_div(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def multi_divides(b: MultiPoly, a: MultiPoly) -> bool:
    """True when b divides a exactly, decided by `_exact_div`."""
    if b.is_zero():
        return a.is_zero()
    return _exact_div(a, b) is not None


# ------------------------------------------------------------------ evaluate


def term_values(K, exps, values, coeffs=None):
    """Value of each term c * prod(values[i] ** e[i]), in the order of exps.

    `values` maps variable indices to points of K; a variable it leaves out
    contributes no factor.  `coeffs` runs parallel to `exps` and defaults to
    all ones, which gives monomial values.  Over a residue ring a variable
    is one pass over its exponent column with a table of the point's powers
    by repeated products (a `pow` per exponent if the column is sparse);
    other rings compute each power once into a dict cache.  This is the one
    place a MultiPoly is evaluated: every shape below and the probe
    evaluators of the gcd build on it.
    """
    mod = K.coeff_modulus
    if mod is not None:
        out = [K.one] * len(exps) if coeffs is None else list(coeffs)
        for i, v in values.items():
            col = list(map(operator.itemgetter(i), exps))
            top = max(col, default=0)
            if top > 8 * len(col):  # a sparse column
                pw = {x: pow(v, x, mod) for x in set(col)}
            else:
                step = itertools.repeat(v, top)
                pw = list(itertools.accumulate(step, lambda w, u: w * u % mod, initial=1))
            out = [c * pw[x] % mod for c, x in zip(out, col)]
        return out
    caches = [(i, v, {}) for i, v in values.items()]
    if coeffs is None:
        coeffs = itertools.repeat(K.one)
    out = []
    for e, c in zip(exps, coeffs):
        for i, v, pw in caches:
            x = e[i]
            if x:
                w = pw.get(x)
                if w is None:
                    w = pw[x] = K.pow(v, x)
                c = K.mul(c, w)
        out.append(c)
    return out


def multi_value(f: MultiPoly, values):
    """f at a point given by variable index; assign every variable f uses."""
    K = f.ring.cring
    return K.vsum(term_values(K, f.terms, values, f.terms.values()))


def multi_subs(f: MultiPoly, values) -> MultiPoly:
    """f with x_i = values[i] substituted, in the same ring."""
    ring = f.ring
    K = ring.cring
    mask = tuple(0 if i in values else 1 for i in range(len(ring.vars)))
    groups = {}
    for e, v in zip(f.terms, term_values(K, f.terms, values, f.terms.values())):
        groups.setdefault(tuple(map(operator.mul, e, mask)), []).append(v)
    return _mk(ring, {e: K.vsum(vs) for e, vs in groups.items()})


def univariate_image(f: MultiPoly, m, values) -> UniPoly:
    """UniPoly in x_m after substituting values[i] for the other variables."""
    K = f.ring.cring
    vals = term_values(K, f.terms, values, f.terms.values())
    return slot_sums(K, [e[m] for e in f.terms], vals, f.degree(m))


def slot_sums(K, slots, vals, deg) -> UniPoly:
    """UniPoly of degree <= deg whose x^k coefficient is the sum of the
    vals whose slot is k; slots and vals run in parallel.

    This is the one place term values in any order are summed into a
    univariate image; the gcd's probe evaluators order their terms once and
    sum slices instead.
    """
    mod = K.coeff_modulus
    if mod is not None:
        coeffs = [0] * (deg + 1)
        for k, v in zip(slots, vals):
            coeffs[k] += v
        return _poly(K, [c % mod for c in coeffs])
    coeffs = [K.zero] * (deg + 1)
    for k, v in zip(slots, vals):
        coeffs[k] = K.add(coeffs[k], v)
    return _poly(K, coeffs)


# ------------------------------------------------- univariate conversions


def to_unipoly(f: MultiPoly, i) -> UniPoly:
    """f uses only variable i; rebuild it as a UniPoly over the base ring."""
    K = f.ring.cring
    if f.is_zero():
        return _poly(K, [])
    coeffs = [K.zero] * (f.degree(i) + 1)
    for e, cc in f.terms.items():
        coeffs[e[i]] = cc
    return _poly(K, coeffs)


def from_unipoly(ring, u: UniPoly, i) -> MultiPoly:
    """The UniPoly u as a polynomial in variable i of `ring`."""
    n = len(ring.vars)
    terms = {}
    for k, cc in enumerate(u.coeffs):
        if not ring.cring.is_zero(cc):
            e = [0] * n
            e[i] = k
            terms[tuple(e)] = cc
    return MultiPoly(ring, terms)


def lc_in(f: MultiPoly, m) -> MultiPoly:
    """Leading coefficient of f as a polynomial in x_m (a MultiPoly)."""
    d = f.degree(m)
    sub = {}
    for e, cc in f.terms.items():
        if e[m] == d:
            sub[e[:m] + (0,) + e[m + 1 :]] = cc
    return MultiPoly(f.ring, sub)


# ------------------------------------------------------- content & primitive


def coefficients_in(f: MultiPoly, var) -> dict:
    """Map exponent-of-var -> MultiPoly coefficient (var zeroed out)."""
    ring = f.ring
    i = var if isinstance(var, int) else ring.vars.index(var)
    groups = {}
    for e, c in f.terms.items():
        e2 = e[:i] + (0,) + e[i + 1 :]
        groups.setdefault(e[i], {})[e2] = c
    return {k: MultiPoly(ring, sub) for k, sub in groups.items()}


def min_exponents(f: MultiPoly):
    """Exponent of the largest monomial dividing f (f nonzero)."""
    return tuple(map(min, zip(*f.terms)))


def content_primitive(f: MultiPoly, var):
    """(content, primitive part) of f viewed in R[other vars][var].

    This is the one content computation of the library: the gcd frame and
    the factorizer both take their contents here.  The monomial part comes
    straight off the support; the rest is 1 when some var-coefficient is a
    unit and otherwise `gcd_many` of the coefficients.  The content is
    canonical (monic over a field, positive lead over Z); a unit content
    gives (one, f) without a division, and a monomial content c*x^e gives
    f's shift by e with each coefficient divided by c.
    """
    from .multigcd import gcd_many

    ring = f.ring
    if f.is_zero():
        return ring.zero, ring.zero
    i = var if isinstance(var, int) else ring.vars.index(var)
    mono = list(min_exponents(f))
    mono[i] = 0
    f0 = f
    if any(mono):
        f0 = MultiPoly(
            ring, {tuple(map(operator.sub, e, mono)): c for e, c in f.terms.items()}
        )
    coeffs = list(coefficients_in(f0, i).values())
    if any(map(ring.is_unit, coeffs)):
        content = ring.one
    else:
        content = gcd_many(coeffs)
    c = content.constant() if content.is_constant() else None
    if any(mono):
        content = multi_mono_mul(content, mono, ring.cring.one)
    if ring.is_unit(content):
        return ring.one, f
    if c is None:
        return content, multi_exact_div(f, content)
    K = ring.cring
    if not K.is_one(c):
        f0 = MultiPoly(ring, {e: K.exact_div(v, c) for e, v in f0.terms.items()})
    return content, f0


def change_ring(f: MultiPoly, ring) -> MultiPoly:
    """f with every coefficient mapped through ring.cring.of; zeros drop."""
    if f.ring == ring:
        return f
    K = ring.cring
    out = {}
    for e, c in f.terms.items():
        v = K.of(c)
        if not K.is_zero(v):
            out[e] = v
    return MultiPoly(ring, out)


def clear_to_z(f: MultiPoly) -> MultiPoly:
    """f over Q times the lcm of its denominators, as a polynomial over Z."""
    zring = MultiRing(rings.ZZ, f.ring.vars, f.ring.order)
    _, nums = f.ring.cring.clear_denominators(f.terms.values())
    return MultiPoly(zring, dict(zip(f.terms, nums)))


def multi_derivative(f: MultiPoly, var) -> MultiPoly:
    ring = f.ring
    K = ring.cring
    i = var if isinstance(var, int) else ring.vars.index(var)
    out = {}
    for e, c in f.terms.items():
        if e[i] == 0:
            continue
        v = K.mul(c, K.of(e[i]))
        if K.is_zero(v):
            continue
        out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = v
    return MultiPoly(ring, out)


def multi_random(ring, rng, terms=8, max_exp=4):
    """Random sparse polynomial: `terms` picks, exponents below max_exp."""
    n = len(ring.vars)
    K = ring.cring
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(n))
        c = K.random_element(rng)
        if K.is_zero(c):
            continue
        out[e] = c
    return MultiPoly(ring, out)


# ---------------------------------------------------------------- descriptor


class MultiRing(rings.Ring):
    """R[x_1..x_n] with a monomial order; elements are MultiPoly values."""

    is_field = False

    def __init__(self, cring, variables, order=GREVLEX):
        names = tuple(variables)
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for v in names:
            if not v.isidentifier():
                raise ValueError("bad variable name %r" % v)
            if v in cring.symbols():
                raise ValueError("variable %r collides with a symbol of %s" % (v, cring))
        self.cring = cring
        self.vars = names
        self.order = monomial_order(order)
        self.characteristic = cring.characteristic
        self.zero = MultiPoly(self, {})
        self.one = MultiPoly(self, {(0,) * len(names): cring.one})

    def var(self, name) -> MultiPoly:
        i = self.vars.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return MultiPoly(self, {e: self.cring.one})

    def gens(self):
        return [self.var(v) for v in self.vars]

    def of(self, x):
        if isinstance(x, MultiPoly):
            if x.ring != self:
                raise ValueError("element of a different ring")
            return x
        c = self.cring.of(x)
        if self.cring.is_zero(c):
            return self.zero
        return MultiPoly(self, {(0,) * len(self.vars): c})

    def from_coeff(self, c):
        if self.cring.is_zero(c):
            return self.zero
        return MultiPoly(self, {(0,) * len(self.vars): c})

    def add(self, a, b):
        return multi_add(a, b)

    def sub(self, a, b):
        return multi_sub(a, b)

    def neg(self, a):
        return multi_neg(a)

    def mul(self, a, b):
        return multi_mul(a, b)

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return a.is_constant() and not a.is_zero() and self.cring.is_unit(a.constant())

    def divmod(self, a, b):
        qs, r = multi_divrem(a, [b])
        return qs[0], r

    def exact_div(self, a, b):
        return multi_exact_div(a, b)

    def divides(self, a, b):
        return multi_divides(a, b)

    def normalize_unit(self, a):
        if a.is_zero():
            return self.one, a
        K = self.cring
        unit, _ = K.normalize_unit(a.lc())
        if K.is_one(unit):
            return self.one, a
        inv = K.unit_inverse(unit)
        return self.from_coeff(unit), multi_scale(a, inv)

    def gcd(self, a, b):
        from .multigcd import multi_gcd

        return multi_gcd(a, b)

    def factor(self, a):
        from .multifactor import factor_multipoly

        return factor_multipoly(self, a)

    def random_element(self, rng, **opts):
        return multi_random(self, rng, **opts)

    def format(self, a) -> str:
        from .parse import format_multipoly

        return format_multipoly(self, a)

    def symbols(self):
        out = {
            name: self.from_coeff(el)
            for name, el in self.cring.symbols().items()
        }
        for v in self.vars:
            out[v] = self.var(v)
        return out

    def spec_string(self):
        return "Poly(%s; %s; %s)" % (
            self.cring.spec_string(),
            ",".join(self.vars),
            self.order.name,
        )

    def _key(self):
        return self.cring, self.vars, self.order
