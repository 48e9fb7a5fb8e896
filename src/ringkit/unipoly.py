"""Dense univariate polynomials over an arbitrary coefficient ring.

A UniPoly is a coefficient list (lowest degree first, no trailing zeros)
plus the coefficient ring.  Zp coefficients take specialized int
paths; every other ring goes through the generic ring operations.
"""

from . import rings
from .errors import UnsupportedRingError
from .modular import crt_pair, symmetric_lift
from .primes import next_prime

KARATSUBA_THRESHOLD = 32  # coefficients; below this schoolbook wins
PACKED_MUL_THRESHOLD = 40  # Zp: pack into one big int above this
NEWTON_DIV_THRESHOLD = 60  # remainder degree where Newton division kicks in
HALF_GCD_THRESHOLD = 180  # degree where the gcd loop switches to Half-GCD


class UniPoly:
    """Immutable dense polynomial; `ring` is the coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        # constructor trusts its input; use UniRing.of_coeffs to coerce
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lc(self):
        return self.coeffs[-1] if self.coeffs else self.ring.zero

    def constant(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def monic(self):
        return uni_monic(self)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.coeffs)))

    def __add__(self, other):
        return uni_add(self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return uni_sub(self, self._coerce(other))

    def __rsub__(self, other):
        return uni_sub(self._coerce(other), self)

    def __neg__(self):
        return uni_neg(self)

    def __mul__(self, other):
        return uni_mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, e):
        return uni_pow(self, e)

    def __divmod__(self, other):
        return uni_divrem(self, self._coerce(other))

    def __mod__(self, other):
        return uni_divrem(self, self._coerce(other))[1]

    def __floordiv__(self, other):
        return uni_divrem(self, self._coerce(other))[0]

    def _coerce(self, x):
        if isinstance(x, UniPoly):
            if x.ring != self.ring:
                raise ValueError("coefficient rings differ")
            return x
        return _poly(self.ring, [self.ring.of(x)])

    def __repr__(self):
        return "UniPoly(%r, %r)" % (self.ring, self.coeffs)


def _poly(K, coeffs):
    """Trim trailing zeros and wrap."""
    while coeffs and K.is_zero(coeffs[-1]):
        coeffs.pop()
    return UniPoly(K, coeffs)


def _is_zp(K):
    return isinstance(K, rings.ZpRing)


# ---------------------------------------------------------------- arithmetic


def uni_add(a: UniPoly, b: UniPoly) -> UniPoly:
    K = a.ring
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = x[:]
    if _is_zp(K):
        p = K.p
        for i, c in enumerate(y):
            s = out[i] + c
            out[i] = s - p if s >= p else s
    else:
        for i, c in enumerate(y):
            out[i] = K.add(out[i], c)
    return _poly(K, out)


def uni_sub(a: UniPoly, b: UniPoly) -> UniPoly:
    return uni_add(a, uni_neg(b))


def uni_neg(a: UniPoly) -> UniPoly:
    K = a.ring
    if _is_zp(K):
        p = K.p
        return UniPoly(K, [p - c if c else 0 for c in a.coeffs])
    return UniPoly(K, [K.neg(c) for c in a.coeffs])


def uni_scale(a: UniPoly, c) -> UniPoly:
    K = a.ring
    if K.is_zero(c):
        return UniPoly(K, [])
    if _is_zp(K):
        p = K.p
        return _poly(K, [x * c % p for x in a.coeffs])
    return _poly(K, [K.mul(x, c) for x in a.coeffs])


def uni_shift(a: UniPoly, k: int) -> UniPoly:
    """Multiply by x^k."""
    if a.is_zero() or k == 0:
        return a
    return UniPoly(a.ring, [a.ring.zero] * k + a.coeffs)


def uni_monic(a: UniPoly) -> UniPoly:
    K = a.ring
    if a.is_zero() or K.is_one(a.lc()):
        return a
    return uni_scale(a, K.inv(a.lc()))


def _school_int(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return out


def _kara_int(x, y):
    n = min(len(x), len(y))
    if n <= KARATSUBA_THRESHOLD:
        return _school_int(x, y)
    h = max(len(x), len(y)) // 2
    x0, x1 = x[:h], x[h:]
    y0, y1 = y[:h], y[h:]
    lo = _kara_int(x0, y0) if x0 and y0 else []
    hi = _kara_int(x1, y1) if x1 and y1 else []
    sx = [a + b for a, b in zip(x0, x1)] + (x1[len(x0) :] or x0[len(x1) :])
    sy = [a + b for a, b in zip(y0, y1)] + (y1[len(y0) :] or y0[len(y1) :])
    mid = _kara_int(sx, sy) if sx and sy else []
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(lo):
        out[i] += c
    for i, c in enumerate(mid):
        out[i + h] += c
    for i, c in enumerate(lo):
        out[i + h] -= c
    for i, c in enumerate(hi):
        out[i + h] -= c
        out[i + 2 * h] += c
    return out


def _packed_int(x, y, p):
    """Convolution by packing coefficient slots into one big integer."""
    slot_bits = 2 * (p - 1).bit_length() + max(len(x), len(y)).bit_length() + 1
    s = (slot_bits + 7) // 8
    a = int.from_bytes(b"".join(c.to_bytes(s, "little") for c in x), "little")
    b = int.from_bytes(b"".join(c.to_bytes(s, "little") for c in y), "little")
    raw = (a * b).to_bytes(s * (len(x) + len(y)), "little")
    return [
        int.from_bytes(raw[k * s : (k + 1) * s], "little")
        for k in range(len(x) + len(y) - 1)
    ]


def _school_generic(K, x, y):
    add, mul, zero = K.add, K.mul, K.zero
    out = [zero] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if not K.is_zero(xi):
            for j, yj in enumerate(y):
                out[i + j] = add(out[i + j], mul(xi, yj))
    return out


def _kara_generic(K, x, y):
    n = min(len(x), len(y))
    if n <= KARATSUBA_THRESHOLD:
        return _school_generic(K, x, y)
    h = max(len(x), len(y)) // 2
    x0, x1 = x[:h], x[h:]
    y0, y1 = y[:h], y[h:]
    lo = _kara_generic(K, x0, y0) if x0 and y0 else []
    hi = _kara_generic(K, x1, y1) if x1 and y1 else []
    sx = [K.add(a, b) for a, b in zip(x0, x1)] + (x1[len(x0) :] or x0[len(x1) :])
    sy = [K.add(a, b) for a, b in zip(y0, y1)] + (y1[len(y0) :] or y0[len(y1) :])
    mid = _kara_generic(K, sx, sy) if sx and sy else []
    out = [K.zero] * (len(x) + len(y) - 1)
    for i, c in enumerate(lo):
        out[i] = K.add(out[i], c)
    for i, c in enumerate(mid):
        out[i + h] = K.add(out[i + h], c)
    for i, c in enumerate(lo):
        out[i + h] = K.sub(out[i + h], c)
    for i, c in enumerate(hi):
        out[i + h] = K.sub(out[i + h], c)
        out[i + 2 * h] = K.add(out[i + 2 * h], c)
    return out


def uni_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """Product; schoolbook below KARATSUBA_THRESHOLD, Karatsuba above,
    packed big-int convolution for large Zp operands."""
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    x, y = a.coeffs, b.coeffs
    if _is_zp(K):
        p = K.p
        if min(len(x), len(y)) >= PACKED_MUL_THRESHOLD:
            raw = _packed_int(x, y, p)
        elif min(len(x), len(y)) <= KARATSUBA_THRESHOLD:
            raw = _school_int(x, y)
        else:
            raw = _kara_int(x, y)
        return _poly(K, [c % p for c in raw])
    if min(len(x), len(y)) <= KARATSUBA_THRESHOLD:
        return _poly(K, _school_generic(K, x, y))
    return _poly(K, _kara_generic(K, x, y))


def uni_mul_schoolbook(a: UniPoly, b: UniPoly) -> UniPoly:
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    if _is_zp(K):
        return _poly(K, [c % K.p for c in _school_int(a.coeffs, b.coeffs)])
    return _poly(K, _school_generic(K, a.coeffs, b.coeffs))


def uni_mul_karatsuba(a: UniPoly, b: UniPoly) -> UniPoly:
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    if _is_zp(K):
        return _poly(K, [c % K.p for c in _kara_int(a.coeffs, b.coeffs)])
    return _poly(K, _kara_generic(K, a.coeffs, b.coeffs))


def uni_pow(a: UniPoly, e: int) -> UniPoly:
    if e < 0:
        raise ValueError("negative polynomial power")
    result = _poly(a.ring, [a.ring.one])
    while e:
        if e & 1:
            result = uni_mul(result, a)
        a = uni_mul(a, a)
        e >>= 1
    return result


# ------------------------------------------------------------------ division


def _divrem_classical(a: UniPoly, b: UniPoly):
    K = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    da, db = a.degree, b.degree
    if da < db:
        return UniPoly(K, []), a
    if _is_zp(K):
        p = K.p
        r = a.coeffs[:]
        binv = rings.mod_inverse(b.coeffs[-1], p)
        bc = b.coeffs
        q = [0] * (da - db + 1)
        for i in range(da - db, -1, -1):
            c = r[i + db] % p
            if c:
                c = c * binv % p
                q[i] = c
                for j in range(db + 1):
                    r[i + j] -= c * bc[j]
        return _poly(K, q), _poly(K, [c % p for c in r[:db]])
    lc = b.coeffs[-1]
    invertible = True
    try:
        lc_inv = K.inv(lc)
    except (UnsupportedRingError, ArithmeticError, NotImplementedError):
        invertible = False
    r = a.coeffs[:]
    q = [K.zero] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = r[i + db]
        if K.is_zero(c):
            continue
        c = K.mul(c, lc_inv) if invertible else K.exact_div(c, lc)
        q[i] = c
        for j in range(db + 1):
            r[i + j] = K.sub(r[i + j], K.mul(c, b.coeffs[j]))
    return _poly(K, q), _poly(K, r[:db])


class InverseModMonomial:
    """Cached Newton-iteration power series inverse of f modulo x^n.

    The cache only grows; reusing one instance across repeated divisions by
    the same divider amortizes the iteration.
    """

    def __init__(self, f: UniPoly):
        K = f.ring
        if f.is_zero() or K.is_zero(f.constant()):
            raise ValueError("constant term must be invertible")
        self.f = f
        self.ring = K
        self._g = _poly(K, [K.inv(f.constant())])
        self._prec = 1

    def inverse(self, n: int) -> UniPoly:
        """g with f*g = 1 mod x^n."""
        K = self.ring
        while self._prec < n:
            m = self._prec * 2
            g = self._g
            fg = _trunc(uni_mul(_trunc(self.f, m), g), m)
            two_minus = uni_sub(_poly(K, [K.add(K.one, K.one)]), fg)
            self._g = _trunc(uni_mul(g, two_minus), m)
            self._prec = m
        return _trunc(self._g, n)


def _trunc(a: UniPoly, n: int) -> UniPoly:
    if len(a.coeffs) <= n:
        return a
    return _poly(a.ring, a.coeffs[:n])


def _reverse(a: UniPoly, n: int) -> UniPoly:
    """Coefficient reversal padded to degree n."""
    K = a.ring
    out = [K.zero] * (n + 1)
    for i, c in enumerate(a.coeffs):
        out[n - i] = c
    return _poly(K, out)


class FastDivision:
    """Division with remainder by a fixed divider via Newton iteration."""

    def __init__(self, divider: UniPoly):
        K = divider.ring
        if divider.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self.divider = divider
        self.monic_divider = uni_monic(divider)
        self.lc_inv = K.inv(divider.lc())
        self._rev_inv = InverseModMonomial(_reverse(self.monic_divider, divider.degree))

    def divrem(self, a: UniPoly):
        K = a.ring
        b = self.monic_divider
        da, db = a.degree, b.degree
        if da < db:
            return UniPoly(K, []), a
        if db == 0:
            return uni_scale(a, self.lc_inv), UniPoly(K, [])
        n = da - db + 1
        ra = _reverse(a, da)
        q = _reverse(_trunc(uni_mul(_trunc(ra, n), self._rev_inv.inverse(n)), n), n - 1)
        r = uni_sub(_trunc(a, db), _trunc(uni_mul(_trunc(q, db), _trunc(b, db)), db))
        return uni_scale(q, self.lc_inv), r

    def rem(self, a: UniPoly):
        return self.divrem(a)[1]


def uni_divrem(a: UniPoly, b: UniPoly):
    """Quotient and remainder; Newton path for large field divisions."""
    K = a.ring
    if (
        K.is_field
        and b.degree >= 1
        and a.degree - b.degree >= NEWTON_DIV_THRESHOLD
        and b.degree >= NEWTON_DIV_THRESHOLD
    ):
        return FastDivision(b).divrem(a)
    return _divrem_classical(a, b)


def uni_rem(a: UniPoly, b: UniPoly) -> UniPoly:
    return uni_divrem(a, b)[1]


def uni_exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    q, r = uni_divrem(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def uni_pseudo_divrem(a: UniPoly, b: UniPoly):
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r over any domain."""
    K = a.ring
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    da, db = a.degree, b.degree
    if da < db:
        return UniPoly(K, []), a
    lc = b.lc()
    r = a.coeffs[:]
    q = [K.zero] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = r[i + db]
        for k in range(len(q)):
            q[k] = K.mul(q[k], lc)
        q[i] = c
        for j in range(da + 1):
            r[j] = K.mul(r[j], lc)
        if not K.is_zero(c):
            for j in range(db + 1):
                r[i + j] = K.sub(r[i + j], K.mul(c, b.coeffs[j]))
    return _poly(K, q), _poly(K, r[:db])


# ----------------------------------------------------------------------- gcd


def _rem_zp(p, a, b):
    """Remainder of int coefficient lists mod p; b trimmed and nonempty."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return a
    binv = rings.mod_inverse(b[-1], p)
    r = a[:]
    for i in range(len(a) - 1 - db, -1, -1):
        c = r[i + db] % p
        if c:
            c = c * binv % p
            for j in range(db + 1):
                r[i + j] -= c * b[j]
    r = [c % p for c in r[:db]]
    while r and not r[-1]:
        r.pop()
    return r


def uni_gcd_euclid(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over a field by plain remainder iteration."""
    K = a.ring
    if _is_zp(K):
        p = K.p
        x, y = a.coeffs[:], b.coeffs[:]
        while y:
            x, y = y, _rem_zp(p, x, y)
        return uni_monic(_poly(K, x))
    x, y = a, b
    while not y.is_zero():
        x, y = y, uni_rem(x, y)
    return uni_monic(x)


def _mat_apply(M, a, b):
    m00, m01, m10, m11 = M
    return (
        uni_add(uni_mul(m00, a), uni_mul(m01, b)),
        uni_add(uni_mul(m10, a), uni_mul(m11, b)),
    )


def _mat_mul(A, B):
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    return (
        uni_add(uni_mul(a00, b00), uni_mul(a01, b10)),
        uni_add(uni_mul(a00, b01), uni_mul(a01, b11)),
        uni_add(uni_mul(a10, b00), uni_mul(a11, b10)),
        uni_add(uni_mul(a10, b01), uni_mul(a11, b11)),
    )


def _hgcd(a: UniPoly, b: UniPoly):
    """Matrix M with M*(a,b) = (c,d), deg c >= ceil(deg a/2) > deg d.

    Requires deg a > deg b >= 0.
    """
    K = a.ring
    one, zero = _poly(K, [K.one]), UniPoly(K, [])
    identity = (one, zero, zero, one)
    m = (a.degree + 1) // 2
    if b.degree < m:
        return identity
    a1 = _poly(K, a.coeffs[m:])
    b1 = _poly(K, b.coeffs[m:])
    M = _hgcd(a1, b1)
    if M != identity:
        a, b = _mat_apply(M, a, b)
    if b.degree < m:
        return M
    q, r = uni_divrem(a, b)
    a, b = b, r
    Q = (zero, one, one, uni_neg(q))
    M = _mat_mul(Q, M)
    if b.is_zero() or b.degree < m:
        return M
    k = 2 * m - a.degree
    if k < 0:
        k = 0
    a2 = _poly(K, a.coeffs[k:])
    b2 = _poly(K, b.coeffs[k:])
    S = _hgcd(a2, b2)
    if S != identity:
        return _mat_mul(S, M)
    return M


def uni_gcd_half(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over a field; Half-GCD matrix steps above the threshold."""
    K = a.ring
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero() and a.degree > HALF_GCD_THRESHOLD:
        if a.degree == b.degree:
            a, b = b, uni_rem(a, b)
            continue
        before = b.degree
        M = _hgcd(a, b)
        a, b = _mat_apply(M, a, b)
        if not b.is_zero() and b.degree >= before:
            a, b = b, uni_rem(a, b)  # guarantee progress
    return uni_gcd_euclid(a, b)


def uni_content(a: UniPoly):
    """Gcd of the coefficients, canonical in the coefficient ring."""
    K = a.ring
    c = K.zero
    for x in a.coeffs:
        c = K.gcd(c, x)
        if K.is_one(c):
            break
    return c


def uni_primitive(a: UniPoly):
    """(content, primitive part); primitive part has canonical-unit lc."""
    K = a.ring
    if a.is_zero():
        return K.zero, a
    c = uni_content(a)
    pp = a if K.is_one(c) else _poly(K, [K.exact_div(x, c) for x in a.coeffs])
    unit, _ = K.normalize_unit(pp.lc())
    if not K.is_one(unit):
        w = K.unit_inverse(unit)
        pp = _poly(K, [K.mul(x, w) for x in pp.coeffs])
        c = K.mul(c, unit)
    return c, pp


def uni_gcd_subresultant(a: UniPoly, b: UniPoly) -> UniPoly:
    """Primitive gcd over an integral domain via the subresultant PRS."""
    K = a.ring
    if a.is_zero():
        return uni_primitive(b)[1]
    if b.is_zero():
        return uni_primitive(a)[1]
    if a.degree < b.degree:
        a, b = b, a
    ca, a = uni_primitive(a)
    cb, b = uni_primitive(b)
    cont = K.gcd(ca, cb)
    g, h = K.one, K.one
    while True:
        delta = a.degree - b.degree
        _, r = uni_pseudo_divrem(a, b)
        if r.is_zero():
            break
        if r.degree == 0:
            b = _poly(K, [K.one])
            break
        beta = K.neg(K.mul(g, K.pow(h, delta)))
        a, b = b, _poly(K, [K.exact_div(c, beta) for c in r.coeffs])
        g = a.lc()
        if delta > 0:
            h = K.exact_div(K.pow(g, delta), K.pow(h, delta - 1))
    result = uni_primitive(b)[1]
    if not K.is_one(cont):
        result = uni_scale(result, cont)
    return result


def uni_gcd_z_brown(a: UniPoly, b: UniPoly) -> UniPoly:
    """Gcd over Z: images modulo machine primes, CRT, symmetric lift.

    The candidate must stabilize across two consecutive primes and is then
    verified by exact trial division.
    """
    K = a.ring
    ca, a = uni_primitive(a)
    cb, b = uni_primitive(b)
    cont = K.gcd(ca, cb)
    if a.degree < b.degree:
        a, b = b, a
    gamma = K.gcd(a.lc(), b.lc())
    p = (1 << 62) + 1
    best = None  # (degree, modulus, coeff lists as symmetric ints)
    stable = 0
    while True:
        p = next_prime(p)
        if a.lc() % p == 0 or b.lc() % p == 0:
            continue
        Zp = rings.ZpRing(p)
        ap = _poly(Zp, [c % p for c in a.coeffs])
        bp = _poly(Zp, [c % p for c in b.coeffs])
        gp = uni_gcd(ap, bp)
        if gp.degree == 0:
            return _poly(K, [cont])
        gp = uni_scale(gp, gamma % p)
        if best is not None and gp.degree > best[0]:
            continue  # unlucky prime
        if best is None or gp.degree < best[0]:
            lifted = [symmetric_lift(c, p) for c in gp.coeffs]
            best = (gp.degree, p, lifted)
            stable = 1
        else:
            deg, mod, cur = best
            combined = []
            changed = False
            for x, y in zip(cur, gp.coeffs):
                v, m = crt_pair(x % mod, mod, y, p)
                v = symmetric_lift(v, m)
                combined.append(v)
                if v != x:
                    changed = True
            best = (deg, mod * p, combined)
            stable = 1 if changed else stable + 1
        if stable >= 2:
            cand = _poly(K, best[2][:])
            _, cand = uni_primitive(cand)
            if _divides(cand, a) and _divides(cand, b):
                if not K.is_one(cont):
                    cand = uni_scale(cand, cont)
                return cand
            stable = 1  # keep accumulating primes


def _divides(d: UniPoly, a: UniPoly) -> bool:
    if d.is_zero():
        return a.is_zero()
    try:
        uni_exact_div(a, d)
        return True
    except ArithmeticError:
        return False


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Canonical gcd: monic over fields, positive primitive-content over Z.

    Strategy: Euclid below HALF_GCD_THRESHOLD and Half-GCD above it over
    fields; Brown's small-primes algorithm over Z; Frac(Z) clears
    denominators; anything else takes the subresultant sequence.
    """
    K = a.ring
    if a.is_zero():
        return _canonical_gcd_result(b)
    if b.is_zero():
        return _canonical_gcd_result(a)
    if isinstance(K, rings.FractionField) and isinstance(K.inner, rings.IntegerRing):
        _, az = K.clear_denominators(a.coeffs)
        _, bz = K.clear_denominators(b.coeffs)
        g = uni_gcd_z_brown(_poly(K.inner, az), _poly(K.inner, bz))
        return uni_monic(_poly(K, [K.from_inner(c) for c in g.coeffs]))
    if K.is_field:
        if max(a.degree, b.degree) > HALF_GCD_THRESHOLD:
            return uni_gcd_half(a, b)
        return uni_gcd_euclid(a, b)
    if isinstance(K, rings.IntegerRing):
        return uni_gcd_z_brown(a, b)
    return uni_gcd_subresultant(a, b)


def _canonical_gcd_result(a: UniPoly) -> UniPoly:
    K = a.ring
    if a.is_zero():
        return a
    if K.is_field:
        return uni_monic(a)
    # keep the content but strip the unit
    c, pp = uni_primitive(a)
    _, c = K.normalize_unit(c)
    return pp if K.is_one(c) else uni_scale(pp, c)


def uni_extended_gcd(a: UniPoly, b: UniPoly):
    """(g, s, t) over a field with s*a + t*b = g, g monic."""
    K = a.ring
    if not K.is_field:
        raise UnsupportedRingError("extended gcd needs field coefficients")
    zero, one = UniPoly(K, []), _poly(K, [K.one])
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = uni_divrem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, uni_sub(s0, uni_mul(q, s1))
        t0, t1 = t1, uni_sub(t0, uni_mul(q, t1))
    if r0.is_zero():
        return r0, s0, t0
    lc_inv = K.inv(r0.lc())
    return uni_scale(r0, lc_inv), uni_scale(s0, lc_inv), uni_scale(t0, lc_inv)


# ----------------------------------------------- calculus, evaluation, misc


def uni_derivative(a: UniPoly) -> UniPoly:
    K = a.ring
    if a.degree < 1:
        return UniPoly(K, [])
    out = [K.mul(c, K.of(i)) for i, c in enumerate(a.coeffs[1:], start=1)]
    return _poly(K, out)


def uni_eval(a: UniPoly, x):
    """Horner evaluation at a coefficient-ring point."""
    K = a.ring
    if a.is_zero():
        return K.zero
    if _is_zp(K):
        p = K.p
        acc = 0
        for c in reversed(a.coeffs):
            acc = (acc * x + c) % p
        return acc
    acc = K.zero
    for c in reversed(a.coeffs):
        acc = K.add(K.mul(acc, x), c)
    return acc


def uni_interpolate(K, xs, ys) -> UniPoly:
    """Unique degree < n interpolant through (xs[i], ys[i]) over a field."""
    if len(xs) != len(ys):
        raise ValueError("point/value count mismatch")
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    if n == 0:
        return UniPoly(K, [])
    # full node product, then per-node synthetic division
    full = _poly(K, [K.one])
    for x in xs:
        full = uni_mul(full, _poly(K, [K.neg(x), K.one]))
    out = UniPoly(K, [])
    for i in range(n):
        num = _synthetic_div(full, xs[i])
        den = uni_eval(num, xs[i])
        out = uni_add(out, uni_scale(num, K.div(ys[i], den)))
    return out


def _synthetic_div(a: UniPoly, x):
    """a / (X - x) when x is a root-free quotient context (exact by use)."""
    K = a.ring
    out = [K.zero] * a.degree
    acc = K.zero
    for i in range(a.degree, 0, -1):
        acc = K.add(a.coeffs[i], K.mul(acc, x))
        out[i - 1] = acc
    return _poly(K, out)


class NewtonInterpolator:
    """Incremental divided-difference interpolation over a field."""

    def __init__(self, K):
        self.K = K
        self.xs = []
        self._coeffs = []  # newton-basis coefficients
        self._basis = _poly(K, [K.one])  # prod (X - x_i)
        self._poly = UniPoly(K, [])

    def add_point(self, x, y):
        K = self.K
        val = uni_eval(self._poly, x)
        denom = uni_eval(self._basis, x)
        c = K.div(K.sub(y, val), denom)
        self._coeffs.append(c)
        self._poly = uni_add(self._poly, uni_scale(self._basis, c))
        self._basis = uni_mul(self._basis, _poly(K, [K.neg(x), K.one]))
        self.xs.append(x)

    @property
    def poly(self) -> UniPoly:
        return self._poly


def uni_squarefree(a: UniPoly):
    """Squarefree decomposition (lead, [(g, multiplicity), ...]).

    lead * prod(g^m) reproduces the input; lead is a constant polynomial
    (the lc over fields, the signed content over Z).  Yun's algorithm in
    characteristic zero, Musser's with p-th root descent over finite fields.
    """
    K = a.ring
    if a.is_zero():
        raise ArithmeticError("zero polynomial has no decomposition")
    if K.is_field:
        lead = a.lc()
        f = uni_monic(a)
    else:
        lead, f = uni_primitive(a)
    if f.degree < 1:
        return _poly(K, [K.mul(lead, f.constant())]), []
    parts = _yun(f) if K.characteristic == 0 else _musser(f)
    return _poly(K, [lead]), parts


def _yun(f: UniPoly):
    df = uni_derivative(f)
    g = uni_gcd(f, df)
    v = uni_exact_div(f, g)
    w = uni_exact_div(df, g)
    out = []
    i = 1
    while v.degree > 0:
        z = uni_sub(w, uni_derivative(v))
        h = uni_gcd(v, z)
        if h.degree > 0:
            out.append((h, i))
        v = uni_exact_div(v, h)
        w = uni_exact_div(z, h)
        i += 1
    return out


def _musser(f: UniPoly):
    K = f.ring
    p = K.characteristic
    df = uni_derivative(f)
    if df.is_zero():
        # f = g(x^p) = (pth root of g)^p
        return [(g, m * p) for g, m in _musser(_pth_root_poly(f))]
    parts = []
    c = uni_gcd(f, df)
    w = uni_exact_div(f, c)
    i = 1
    while w.degree > 0:
        y = uni_gcd(w, c)
        z = uni_exact_div(w, y)
        if z.degree > 0:
            parts.append((z, i))
        w = y
        c = uni_exact_div(c, y)
        i += 1
    if c.degree > 0:
        parts.extend((g, m * p) for g, m in _musser(_pth_root_poly(c)))
    merged = {}
    for g, m in parts:
        merged[m] = uni_mul(merged[m], g) if m in merged else g
    return [(g, m) for m, g in sorted(merged.items())]


def _pth_root_poly(f: UniPoly) -> UniPoly:
    """Inverse Frobenius: g with g(x)^p = f(x); f must be a p-th power."""
    K = f.ring
    p = K.characteristic
    out = []
    for i in range(0, f.degree + 1, p):
        for j in range(i + 1, min(i + p, f.degree + 1)):
            if not K.is_zero(f.coeffs[j]):
                raise ArithmeticError("not a p-th power")
        out.append(_coeff_pth_root(K, f.coeffs[i]))
    return _poly(K, out)


def _coeff_pth_root(K, c):
    if isinstance(K, rings.ZpRing):
        return c  # Frobenius is the identity on the prime field
    if K.is_finite and K.cardinality is not None:
        # c^(q/p) inverts x -> x^p in GF(q)
        return K.pow(c, K.cardinality // K.characteristic)
    raise UnsupportedRingError("p-th roots need a finite field")


def uni_random(K, degree: int, rng, monic=False) -> UniPoly:
    """Random polynomial of exactly the given degree."""
    coeffs = [K.random_element(rng) for _ in range(degree + 1)]
    if monic:
        coeffs[-1] = K.one
    else:
        while K.is_zero(coeffs[-1]):
            coeffs[-1] = K.random_element(rng)
    return _poly(K, coeffs)


class PolyModContext:
    """Arithmetic modulo a fixed polynomial with a cached series inverse."""

    def __init__(self, modulus: UniPoly):
        self.modulus = modulus
        self._fast = FastDivision(modulus) if modulus.degree >= 1 else None

    def rem(self, a: UniPoly) -> UniPoly:
        if self._fast is None:
            return UniPoly(a.ring, [])
        if a.degree < self.modulus.degree:
            return a
        if a.degree - self.modulus.degree < 8:
            return _divrem_classical(a, self.modulus)[1]
        return self._fast.rem(a)

    def mulmod(self, a: UniPoly, b: UniPoly) -> UniPoly:
        return self.rem(uni_mul(a, b))

    def powmod(self, a: UniPoly, e: int) -> UniPoly:
        K = a.ring
        result = _poly(K, [K.one])
        a = self.rem(a)
        while e:
            if e & 1:
                result = self.mulmod(result, a)
            a = self.mulmod(a, a)
            e >>= 1
        return result


# ------------------------------------------------------------ ring descriptor


class UniRing(rings.Ring):
    """Dense univariate polynomial ring R[var]."""

    def __init__(self, cring, var: str):
        if not var.isidentifier():
            raise ValueError("bad variable name: %r" % (var,))
        if var in cring.symbols():
            raise ValueError("variable %r collides with a coefficient symbol" % var)
        self.cring = cring
        self.var = var
        self.characteristic = cring.characteristic
        self.zero = UniPoly(cring, [])
        self.one = UniPoly(cring, [cring.one])

    def of(self, x):
        if isinstance(x, UniPoly):
            if x.ring != self.cring:
                raise ValueError("coefficient ring mismatch")
            return x
        return _poly(self.cring, [self.cring.of(x)])

    def of_coeffs(self, coeffs) -> UniPoly:
        return _poly(self.cring, [self.cring.of(c) for c in coeffs])

    def variable(self) -> UniPoly:
        return UniPoly(self.cring, [self.cring.zero, self.cring.one])

    def from_const(self, c) -> UniPoly:
        return _poly(self.cring, [c])

    def add(self, a, b):
        return uni_add(a, b)

    def sub(self, a, b):
        return uni_sub(a, b)

    def neg(self, a):
        return uni_neg(a)

    def mul(self, a, b):
        return uni_mul(a, b)

    def is_zero(self, a):
        return a.is_zero()

    def is_one(self, a):
        return len(a.coeffs) == 1 and self.cring.is_one(a.coeffs[0])

    def is_unit(self, a):
        return a.degree == 0 and (
            self.cring.is_field or self.cring.is_unit(a.constant())
        )

    def divmod(self, a, b):
        return uni_divrem(a, b)

    def exact_div(self, a, b):
        return uni_exact_div(a, b)

    def normalize_unit(self, a):
        K = self.cring
        if a.is_zero():
            return self.one, a
        if K.is_field:
            lc = a.lc()
            return self.from_const(lc), uni_monic(a)
        unit, _ = K.normalize_unit(a.lc())
        if K.is_one(unit):
            return self.one, a
        w = K.unit_inverse(unit)
        return self.from_const(unit), uni_scale(a, w)

    def unit_inverse(self, u):
        K = self.cring
        if u.degree != 0:
            raise ArithmeticError("not a unit")
        if K.is_field:
            return self.from_const(K.inv(u.constant()))
        return self.from_const(K.unit_inverse(u.constant()))

    def gcd(self, a, b):
        return uni_gcd(a, b)

    def extended_gcd(self, a, b):
        if self.cring.is_field:
            return uni_extended_gcd(a, b)
        return rings.extended_gcd(self, a, b)

    def factor(self, a):
        from . import unifactor

        return unifactor.factor_unipoly(self, a)

    def random_element(self, rng, degree=6, **opts):
        d = rng.randrange(degree + 1)
        coeffs = [self.cring.random_element(rng, **opts) for _ in range(d + 1)]
        return _poly(self.cring, coeffs)

    def format(self, a):
        from .parse import format_unipoly

        return format_unipoly(self, a)

    def symbols(self):
        out = {self.var: self.variable()}
        for name, el in self.cring.symbols().items():
            out[name] = self.from_const(el)
        return out

    def spec_string(self):
        return "Poly(%s; %s)" % (self.cring.spec_string(), self.var)

    def __eq__(self, other):
        return (
            isinstance(other, UniRing)
            and other.cring == self.cring
            and other.var == self.var
        )

    def __hash__(self):
        return hash((UniRing, self.cring, self.var))
