"""Sparse distributed multivariate polynomials.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
Monomial orders produce sortable keys (bigger key = bigger monomial), so
descending term iteration is a sort.  Multiplication packs exponent
vectors into single integer keys when the bit budget allows; division is
the standard multi-divisor reduction driven by a lazy max-heap.

This module owns evaluation: `term_values` substitutes a point into every
term from one power cache, and the full value, the partial substitution and
the univariate image in one variable are built on it.  The conversions
between a MultiPoly in one variable and a UniPoly live here too.
"""

import heapq
import itertools
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

    def sorted_terms(self):
        """Terms in descending monomial order."""
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def degrees(self):
        """Per-variable maximum exponents, cached."""
        if self._degs is None:
            n = len(self.ring.vars)
            degs = [0] * n
            for e in self.terms:
                for i, x in enumerate(e):
                    if x > degs[i]:
                        degs[i] = x
            self._degs = tuple(degs)
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
    K = a.ring.cring
    out = dict(a.terms)
    mod = getattr(K, "coeff_modulus", None)
    if mod is not None:
        for e, c in b.terms.items():
            s = (out.get(e, 0) + c) % mod
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(a.ring, out)
    for e, c in b.terms.items():
        if e in out:
            s = K.add(out[e], c)
            if K.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return MultiPoly(a.ring, out)


def multi_sub(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    K = a.ring.cring
    mod = getattr(K, "coeff_modulus", None)
    if mod is not None:
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = (out.get(e, 0) - c) % mod
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(a.ring, out)
    return multi_add(a, multi_neg(b))


def multi_neg(a: MultiPoly) -> MultiPoly:
    K = a.ring.cring
    return MultiPoly(a.ring, {e: K.neg(c) for e, c in a.terms.items()})


def multi_scale(a: MultiPoly, c) -> MultiPoly:
    K = a.ring.cring
    if K.is_zero(c):
        return MultiPoly(a.ring, {})
    return _mk(a.ring, {e: K.mul(coef, c) for e, coef in a.terms.items()})


def multi_mono_mul(a: MultiPoly, exp, c) -> MultiPoly:
    """a * c*x^exp for a single monomial."""
    K = a.ring.cring
    out = {}
    mod = getattr(K, "coeff_modulus", None)
    if mod is not None:
        for e, coef in a.terms.items():
            v = coef * c % mod
            if v:
                out[tuple(x + y for x, y in zip(e, exp))] = v
        return MultiPoly(a.ring, out)
    for e, coef in a.terms.items():
        v = K.mul(coef, c)
        if not K.is_zero(v):
            out[tuple(x + y for x, y in zip(e, exp))] = v
    return MultiPoly(a.ring, out)


def _pack_widths(a: MultiPoly, b: MultiPoly):
    """Per-variable bit widths for the packed product, or None on overflow."""
    n = len(a.ring.vars)
    widths = []
    total = 0
    for i in range(n):
        m = a.degree(i) + b.degree(i)
        w = max(1, m.bit_length())
        widths.append(w)
        total += w
    if total > 62:
        return None
    return widths


def _pack(terms, widths):
    packed = {}
    for e, c in terms.items():
        key = 0
        for x, w in zip(e, widths):
            key = (key << w) | x
        packed[key] = c
    return packed


def _unpack_exp(key, widths, n):
    out = [0] * n
    for i in range(n - 1, -1, -1):
        w = widths[i]
        out[i] = key & ((1 << w) - 1)
        key >>= w
    return tuple(out)


def multi_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
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
    widths = _pack_widths(a, b)
    if widths is None:
        return multi_mul_naive(a, b)
    return _mul_packed(a, b, widths)


def _mul_packed(a: MultiPoly, b: MultiPoly, widths) -> MultiPoly:
    K = a.ring.cring
    A = _pack(a.terms, widths)
    B = _pack(b.terms, widths)
    acc = {}
    mod = getattr(K, "coeff_modulus", None)
    if mod is not None:
        for ka, ca in A.items():
            for kb, cb in B.items():
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        n = len(a.ring.vars)
        out = {}
        rev = list(range(n - 1, -1, -1))
        masks = [(widths[i], (1 << widths[i]) - 1) for i in range(n)]
        for k, c in acc.items():
            v = c % mod
            if not v:
                continue
            e = [0] * n
            for i in rev:
                w, msk = masks[i]
                e[i] = k & msk
                k >>= w
            out[tuple(e)] = v
        return MultiPoly(a.ring, out)
    if isinstance(K, rings.IntegerRing):
        for ka, ca in A.items():
            for kb, cb in B.items():
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        n = len(a.ring.vars)
        return MultiPoly(
            a.ring, {_unpack_exp(k, widths, n): c for k, c in acc.items() if c}
        )
    zero = K.zero
    for ka, ca in A.items():
        for kb, cb in B.items():
            k = ka + kb
            acc[k] = K.add(acc.get(k, zero), K.mul(ca, cb))
    n = len(a.ring.vars)
    return MultiPoly(
        a.ring,
        {
            _unpack_exp(k, widths, n): c
            for k, c in acc.items()
            if not K.is_zero(c)
        },
    )


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
    if e < 0:
        raise ValueError("negative power of a polynomial")
    out = a.ring.one
    base = a
    while e:
        if e & 1:
            out = multi_mul(out, base)
        e >>= 1
        if e:
            base = multi_mul(base, base)
    return out


def _neg_key(key):
    return tuple(-x for x in key)


def multi_divrem(f: MultiPoly, dividers):
    """(quotients, remainder) with f = sum(q_i*d_i) + r.

    Divisor selection is first-match in the given order.  A term is
    reducible when the leading monomial divides it and the coefficient
    quotient exists (always, over a field).  No remainder term is
    reducible by any divider's leading term.
    """
    ring = f.ring
    K = ring.cring
    if not dividers:
        raise ValueError("need at least one divider")
    leads = []
    for d in dividers:
        if d.ring != ring:
            raise ValueError("polynomial rings differ")
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        leads.append((d.leading_exponent(), d.lc(), d))
    okey = ring.order.key
    work = dict(f.terms)
    heap = [_neg_key(okey(e)) for e in work]
    heapq.heapify(heap)
    keyed = {okey(e): e for e in work}  # order key -> exponent tuple
    qs = [{} for _ in dividers]
    rem = {}
    is_field = K.is_field
    while heap:
        nk = heapq.heappop(heap)
        k = _neg_key(nk)
        e = keyed.get(k)
        if e is None or e not in work:
            continue
        c = work.pop(e)
        if K.is_zero(c):
            continue
        hit = None
        for i, (le, lcoef, d) in enumerate(leads):
            if all(x >= y for x, y in zip(e, le)):
                if is_field:
                    q = K.div(c, lcoef)
                else:
                    try:
                        q = K.exact_div(c, lcoef)
                    except (ArithmeticError, UnsupportedRingError):
                        continue
                hit = (i, q, le, d)
                break
        if hit is None:
            rem[e] = c
            continue
        i, q, le, d = hit
        delta = tuple(x - y for x, y in zip(e, le))
        qd = qs[i]
        if delta in qd:
            qd[delta] = K.add(qd[delta], q)
        else:
            qd[delta] = q
        for u, cu in d.terms.items():
            if u == le:
                continue
            v = tuple(x + y for x, y in zip(delta, u))
            piece = K.mul(q, cu)
            if v in work:
                s = K.sub(work[v], piece)
                if K.is_zero(s):
                    del work[v]
                else:
                    work[v] = s
            else:
                work[v] = K.neg(piece)
                kv = okey(v)
                keyed[kv] = v
                heapq.heappush(heap, _neg_key(kv))
    return [MultiPoly(ring, q) for q in qs], MultiPoly(ring, rem)


def multi_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    qs, r = multi_divrem(a, [b])
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return qs[0]


def multi_divides(b: MultiPoly, a: MultiPoly) -> bool:
    """True when b divides a exactly."""
    if b.is_zero():
        return a.is_zero()
    if a.is_zero():
        return True
    return multi_divrem(a, [b])[1].is_zero()


# ------------------------------------------------------------------ evaluate


def term_values(K, exps, values, coeffs=None):
    """Value of each term c * prod(values[i] ** e[i]), in the order of exps.

    `values` maps variable indices to points of K; a variable it leaves out
    contributes no factor.  `coeffs` runs parallel to `exps` and defaults to
    all ones, which gives monomial values.  Each power of a point is computed
    once.  This is the one place a MultiPoly is evaluated: every shape below
    and the probe evaluators of the gcd build on it.
    """
    caches = [(i, v, {}) for i, v in values.items()]
    if coeffs is None:
        coeffs = itertools.repeat(K.one)
    out = []
    mod = getattr(K, "coeff_modulus", None)
    if mod is not None:
        for e, c in zip(exps, coeffs):
            for i, v, pw in caches:
                x = e[i]
                if x:
                    w = pw.get(x)
                    if w is None:
                        w = pw[x] = pow(v, x, mod)
                    c = c * w % mod
            out.append(c)
        return out
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
    acc = K.zero
    for v in term_values(K, f.terms, values, f.terms.values()):
        acc = K.add(acc, v)
    return acc


def multi_subs(f: MultiPoly, values) -> MultiPoly:
    """f with x_i = values[i] substituted, in the same ring."""
    ring = f.ring
    K = ring.cring
    mask = tuple(0 if i in values else 1 for i in range(len(ring.vars)))
    out = {}
    for e, v in zip(f.terms, term_values(K, f.terms, values, f.terms.values())):
        if K.is_zero(v):
            continue
        e = tuple(map(operator.mul, e, mask))
        s = out.get(e)
        if s is None:
            out[e] = v
            continue
        s = K.add(s, v)
        if K.is_zero(s):
            del out[e]
        else:
            out[e] = s
    return MultiPoly(ring, out)


def univariate_image(f: MultiPoly, m, values) -> UniPoly:
    """UniPoly in x_m after substituting values[i] for the other variables."""
    K = f.ring.cring
    coeffs = [K.zero] * (f.degree(m) + 1)
    for e, v in zip(f.terms, term_values(K, f.terms, values, f.terms.values())):
        coeffs[e[m]] = K.add(coeffs[e[m]], v)
    return _poly(K, coeffs)


def multi_eval(f: MultiPoly, assignment):
    """Substitute variables by name; full evaluation gives a coefficient.

    Partial assignments return a MultiPoly in the same ring with the
    assigned variables eliminated from the support.
    """
    ring = f.ring
    K = ring.cring
    for name in assignment:
        if name not in ring.vars:
            raise ValueError("unknown variable %r" % name)
    values = {ring.vars.index(name): K.of(v) for name, v in assignment.items()}
    if len(values) == len(ring.vars):
        return multi_value(f, values)
    return multi_subs(f, values)


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


def content_primitive(f: MultiPoly, var):
    """(content, primitive part) of f viewed in R[other vars][var].

    The content is the gcd of the var-coefficients, computed with the
    first-vs-sum-of-rest shortcut and verified by divisibility before
    falling back to a pairwise fold.
    """
    from .multigcd import gcd_many

    ring = f.ring
    if f.is_zero():
        return MultiPoly(ring, {}), MultiPoly(ring, {})
    coeffs = list(coefficients_in(f, var).values())
    content = gcd_many(coeffs)
    primitive = multi_exact_div(f, content)
    return content, primitive


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
        if not isinstance(order, MonomialOrder):
            order = ORDERS[str(order).upper()]
        self.cring = cring
        self.vars = names
        self.order = order
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
        lc = a.lc()
        if K.is_field:
            if K.is_one(lc):
                return self.one, a
            return self.from_coeff(lc), multi_scale(a, K.inv(lc))
        unit, _ = K.normalize_unit(lc)
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

    def __eq__(self, other):
        return (
            isinstance(other, MultiRing)
            and other.cring == self.cring
            and other.vars == self.vars
            and other.order == self.order
        )

    def __hash__(self):
        return hash((type(self), self.cring, self.vars, self.order))
