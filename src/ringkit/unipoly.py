"""Dense univariate polynomials over an arbitrary coefficient ring.

A UniPoly is a coefficient list (lowest degree first, no trailing zeros)
plus the coefficient ring.  Sums, negation, scaling and evaluation are the
coefficient ring's list steps (`Ring.vadd` ... `Ring.horner`), which Z/m
and Zp run on ints reduced mod m.  Products, classical division and the
Euclid loop of the residue rings (those with a `coeff_modulus`) defer the
reduction or pack the residues into big integers instead.

Division is classical except over Zp, where `PolyModContext` is the one
fast division: a packed Barrett step with the Newton inverse of the
reversed modulus (von zur Gathen and Gerhard, Modern Computer Algebra,
section 9.1).  `uni_divrem` hands a long quotient to a one-off context.
"""

import sys
from array import array

from . import rings
from .errors import UnsupportedRingError
from .modular import gcd_coeff_bound, mod_inverse, modular_gcd

KARATSUBA_THRESHOLD = 32  # generic rings: schoolbook up to this length
# residue rings: schoolbook below these lengths, one packed big-int product
# at or above them.  Balanced operands, both results reduced mod m: for
# moduli up to 62 bits packing wins from length 6-8 (p = 17, 20, 31 and 62
# bits) and at length 10 is 1.5-2.2x faster; it wins from length 10 for 63
# and 93 bits and from 18-20 for 361 bits
PACKED_MUL_WORD_THRESHOLD = 8  # moduli up to 62 bits
PACKED_MUL_THRESHOLD = 20
# PolyModContext over Zp packs its mulmod from these modulus degrees on: in
# powmod, slots of at most 8 bytes (p up to 30 bits) win from degree 4,
# 16-byte slots (31 and 62 bits) break even at 6 and win by 1.1-1.2x at 7
PACKED_MULMOD_WORD_DEGREE = 4
PACKED_MULMOD_DEGREE = 7
# PolyModContext over Zp takes its Barrett step for a quotient of degree
# k >= n - 1 only from this degree n of f on, and uni_divrem one for k >=
# n - 2 only from twice it: below, classical division was faster
LONG_QUOTIENT_DEGREE = 32
# Half-GCD against Euclid over Zp, random inputs: Half-GCD wins from degree
# about 450 for a 62-bit prime, 550 for a 20-bit one and 700 for p = 17
HALF_GCD_THRESHOLD = 500  # degree where the gcd loop switches to Half-GCD
# below this degree _hgcd takes remainder steps; 75-100 was fastest at
# degrees 300-2000, about 30% under recursing down to degree 1
HGCD_BASE = 100


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


# ---------------------------------------------------------------- arithmetic


def uni_add(a: UniPoly, b: UniPoly) -> UniPoly:
    return _poly(a.ring, a.ring.vadd(a.coeffs, b.coeffs))


def uni_sub(a: UniPoly, b: UniPoly) -> UniPoly:
    return uni_add(a, uni_neg(b))


def uni_neg(a: UniPoly) -> UniPoly:
    return UniPoly(a.ring, a.ring.vneg(a.coeffs))


def uni_scale(a: UniPoly, c) -> UniPoly:
    K = a.ring
    if K.is_zero(c):
        return UniPoly(K, [])
    return _poly(K, K.vscale(a.coeffs, c))


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


# word-aligned slots pack through array('I') and array('Q'), which are in
# native byte order: only on little-endian hosts, where that order is the
# packing's, and where 'I' is 4 bytes
_WORD_SLOTS = sys.byteorder == "little" and array("I").itemsize == 4
_WORD_TYPE = {4: "I", 8: "Q"}


def _slot_bytes(p, terms):
    """Bytes per slot holding a sum of `terms` products of residues mod p.

    Rounded up to half a machine word (4 bytes), one word (8) or two (16),
    so that packing and unpacking run through `array` and `memoryview.cast`
    on 4- or 8-byte items; wider slots keep their exact byte count.
    """
    s = (2 * (p - 1).bit_length() + terms.bit_length() + 7) // 8
    if not _WORD_SLOTS or s > 16:
        return s
    return 4 if s <= 4 else 8 if s <= 8 else 16


def _pack(x, s):
    """Residues as the slots of one big integer: each below 2^(8s), and
    below 2^64 for 16-byte slots."""
    if _WORD_SLOTS:
        if s in _WORD_TYPE:
            return int.from_bytes(array(_WORD_TYPE[s], x), "little")
        if s == 16:
            w = array("Q", bytes(16 * len(x)))
            w[::2] = array("Q", x)
            return int.from_bytes(w, "little")
    return int.from_bytes(b"".join(c.to_bytes(s, "little") for c in x), "little")


def _unpack(v, s, count):
    """The first `count` slots of s bytes of a packed integer below
    2^(8 * s * count)."""
    raw = v.to_bytes(s * count, "little")
    if _WORD_SLOTS:
        if s in _WORD_TYPE:
            return memoryview(raw).cast(_WORD_TYPE[s]).tolist()
        if s == 16:
            w = memoryview(raw).cast("Q")
            return [lo | hi << 64 if hi else lo for lo, hi in zip(w[::2], w[1::2])]
    return [int.from_bytes(raw[k * s : (k + 1) * s], "little") for k in range(count)]


def _packed_int(x, y, p):
    """Convolution by packing coefficient slots into one big integer."""
    s = _slot_bytes(p, min(len(x), len(y)))
    return _unpack(_pack(x, s) * _pack(y, s), s, len(x) + len(y) - 1)


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
    sx, sy = K.vadd(x0, x1), K.vadd(y0, y1)
    mid = _kara_generic(K, sx, sy) if sx and sy else []
    mid = K.vadd(mid, K.vneg(K.vadd(lo, hi)))  # x0 * y1 + x1 * y0
    # lo + mid * t^h + hi * t^2h; trailing zeros are left to the caller
    return K.vadd(K.vadd(lo, [K.zero] * h + mid), [K.zero] * (2 * h) + hi)


def uni_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """Product.

    Over a residue ring: schoolbook on ints below PACKED_MUL_THRESHOLD
    (PACKED_MUL_WORD_THRESHOLD for moduli up to 62 bits), one packed
    big-int convolution at or above it, no Karatsuba.  Over any other
    ring: schoolbook up to KARATSUBA_THRESHOLD, Karatsuba above.
    """
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    x, y = a.coeffs, b.coeffs
    m = K.coeff_modulus
    if m is not None:
        n = min(len(x), len(y))
        if n >= PACKED_MUL_THRESHOLD or (
            n >= PACKED_MUL_WORD_THRESHOLD and m.bit_length() <= 62
        ):
            raw = _packed_int(x, y, m)
        else:
            raw = _school_int(x, y)
        return _poly(K, [c % m for c in raw])
    if min(len(x), len(y)) <= KARATSUBA_THRESHOLD:
        return _poly(K, _school_generic(K, x, y))
    return _poly(K, _kara_generic(K, x, y))


def uni_mul_schoolbook(a: UniPoly, b: UniPoly) -> UniPoly:
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    m = K.coeff_modulus
    if m is not None:
        return _poly(K, [c % m for c in _school_int(a.coeffs, b.coeffs)])
    return _poly(K, _school_generic(K, a.coeffs, b.coeffs))


def uni_mul_karatsuba(a: UniPoly, b: UniPoly) -> UniPoly:
    """Karatsuba product through the ring operations, for any ring."""
    K = a.ring
    if a.is_zero() or b.is_zero():
        return UniPoly(K, [])
    return _poly(K, _kara_generic(K, a.coeffs, b.coeffs))


def uni_pow(a: UniPoly, e: int) -> UniPoly:
    return rings.power(uni_mul, _poly(a.ring, [a.ring.one]), a, e)


# ------------------------------------------------------------------ division


def _divrem_mod(x, y, m):
    """(q, r) of trimmed residue lists mod m with len(x) >= len(y) > 0.

    Reduction is deferred to the coefficient about to be eliminated, and
    that coefficient, never read again, is not updated.  A leading
    coefficient of y that is not a unit raises NonInvertibleError.
    """
    db = len(y) - 1
    yinv = mod_inverse(y[-1], m)
    r = x[:]
    q = [0] * (len(x) - db)
    for i in range(len(x) - 1 - db, -1, -1):
        c = r[i + db] % m
        if c:
            c = c * yinv % m
            q[i] = c
            for j in range(db):
                r[i + j] -= c * y[j]
    r = [c % m for c in r[:db]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _divrem_classical(a: UniPoly, b: UniPoly):
    K = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    da, db = a.degree, b.degree
    if da < db:
        return UniPoly(K, []), a
    m = K.coeff_modulus
    if m is not None:
        q, r = _divrem_mod(a.coeffs, b.coeffs, m)
        return UniPoly(K, q), UniPoly(K, r)
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


def uni_divrem(a: UniPoly, b: UniPoly):
    """Quotient and remainder: over Zp, a quotient of degree k >= deg b - 2
    by b of degree >= 2 * LONG_QUOTIENT_DEGREE takes the Barrett step of a
    one-off PolyModContext; every other division is classical."""
    n = b.degree
    if n >= 2 * LONG_QUOTIENT_DEGREE and a.degree - n >= n - 2:
        K = a.ring
        if K.is_field and K.coeff_modulus is not None:
            return PolyModContext(b).divrem(a)
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


def _rem_mod(x, y, m):
    """`_divrem_mod(x, y, m)[1]`; a quotient q1*t + q0 of degree 1 takes one
    pass, remainder coefficient j being x_j - q0*y_j - q1*y_(j-1) mod m."""
    if len(x) != len(y) + 1:
        return _divrem_mod(x, y, m)[1]
    inv = mod_inverse(y[-1], m)
    shifted = [0] + y
    q1 = x[-1] * inv % m
    q0 = (x[-2] - q1 * shifted[-2]) * inv % m
    r = [(a - q0 * b - q1 * c) % m for a, b, c in zip(x, y, shifted)]
    r.pop()  # the t^deg(y) coefficient, zero by the choice of q0
    while r and not r[-1]:
        r.pop()
    return r


def uni_gcd_euclid(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over a field by plain remainder iteration; over Zp each
    step is `_rem_mod`, whose usual degree-1 quotient takes one pass."""
    K = a.ring
    m = K.coeff_modulus
    if m is not None:
        x, y = a.coeffs, b.coeffs
        if len(x) < len(y):
            x, y = y, x
        while y:
            x, y = y, _rem_mod(x, y, m)
        return uni_monic(UniPoly(K, x))
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
    if a.degree < HGCD_BASE:
        return _hgcd_euclid(a, b, m, identity)[1]
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


def _hgcd_euclid(a, b, m, M):
    """(last remainder, M') from remainder steps until deg b < m, where M'
    is M times their matrix: _hgcd's base case, and at m = 0 the whole
    cofactor sequence of uni_extended_gcd."""
    m00, m01, m10, m11 = M
    while not b.is_zero() and b.degree >= m:
        q, r = uni_divrem(a, b)
        a, b = b, r
        m00, m01, m10, m11 = (
            m10,
            m11,
            uni_sub(m00, uni_mul(q, m10)),
            uni_sub(m01, uni_mul(q, m11)),
        )
    return a, (m00, m01, m10, m11)


def uni_gcd_half(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over a field; Half-GCD matrix steps above the threshold."""
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
        pp = uni_scale(pp, w)
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
    """Gcd over Z: the contents' gcd times the gcd of the primitive parts,
    which `modular.modular_gcd` builds from gcds modulo primes."""
    if a.is_zero() or b.is_zero():
        return uni_gcd(a, b)
    K = a.ring
    ca, a = uni_primitive(a)
    cb, b = uni_primitive(b)
    cont = K.gcd(ca, cb)
    gamma = K.gcd(a.lc(), b.lc())

    def image(p):
        Zp = rings.ZpRing(p)
        ap = _poly(Zp, [c % p for c in a.coeffs])
        gp = uni_gcd(ap, _poly(Zp, [c % p for c in b.coeffs]))
        return dict(enumerate(gp.coeffs)) if gp.degree else None

    def as_poly(terms):
        return _poly(K, [terms.get(i, 0) for i in range(max(terms) + 1)])

    def divides(terms):
        g = as_poly(terms)
        return _divides(g, a) and _divides(g, b)

    bound = gcd_coeff_bound(gamma, (a.coeffs, a.degree), (b.coeffs, b.degree))
    terms = modular_gcd(image, lambda d: d, divides, gamma, (a.lc(), b.lc()), bound)
    if not terms:
        return _poly(K, [cont])
    g = as_poly(terms)
    return g if K.is_one(cont) else uni_scale(g, cont)


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
    fields; over Z, Brown's algorithm: gcds modulo word-size primes just
    above `modular.PRIME_FLOOR` combined by `modular.modular_gcd` until a
    candidate passes trial division; Q clears denominators and takes the
    Z gcd; anything else takes the subresultant sequence.
    """
    K = a.ring
    if a.is_zero():
        return _canonical_gcd_result(b)
    if b.is_zero():
        return _canonical_gcd_result(a)
    if K == rings.QQ:
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
    g, (s, t, _, _) = _hgcd_euclid(a, b, 0, (one, zero, zero, one))
    if g.is_zero():
        return g, s, t
    w = K.inv(g.lc())
    return uni_scale(g, w), uni_scale(s, w), uni_scale(t, w)


# ----------------------------------------------- calculus, evaluation, misc


def uni_derivative(a: UniPoly) -> UniPoly:
    K = a.ring
    if a.degree < 1:
        return UniPoly(K, [])
    out = [K.mul(c, K.of(i)) for i, c in enumerate(a.coeffs[1:], start=1)]
    return _poly(K, out)


def uni_eval(a: UniPoly, x):
    """Horner evaluation at a coefficient-ring point."""
    return a.ring.horner(a.coeffs, x)


def uni_lagrange_basis(K, xs):
    """Lagrange basis over distinct nodes xs of a field: the i-th UniPoly
    has degree len(xs) - 1, is 1 at xs[i] and 0 at every other node."""
    # full node product, then per-node synthetic division
    full = _poly(K, [K.one])
    for x in xs:
        full = uni_mul(full, _poly(K, [K.neg(x), K.one]))
    out = []
    for x in xs:
        num = _synthetic_div(full, x)
        out.append(uni_scale(num, K.inv(uni_eval(num, x))))
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


def uni_squarefree(a: UniPoly):
    """Squarefree decomposition (lead, [(g, multiplicity), ...]).

    lead * prod(g^m) reproduces the input; lead is a constant polynomial
    (the lc over fields, the signed content over Z).  Yun's loop in
    characteristic 0, Musser's with p-th root descent over finite fields.
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
    if K.characteristic:
        return _poly(K, [lead]), _musser(f)
    parts = squarefree_parts(f, uni_gcd, uni_exact_div, uni_derivative, uni_sub)
    return _poly(K, [lead]), parts


def squarefree_parts(f, gcd, quo, diff, sub):
    """[(a_i, i), ...] with f = unit * prod a_i^i, by Yun's loop.

    Yun (1976); von zur Gathen and Gerhard, Modern Computer Algebra, 14.6.
    The a_i are squarefree and pairwise coprime when the characteristic is 0
    or above deg f.  gcd, quo (exact division), diff and sub act on f's type;
    when gcd(f, f') is constant f comes back whole, with no division.
    """
    df = diff(f)
    g = gcd(f, df)
    if g.is_constant():
        return [(f, 1)]
    v, w = quo(f, g), quo(df, g)
    parts = []
    i = 1
    while not v.is_constant():
        z = sub(w, diff(v))
        h = gcd(v, z)
        if not h.is_constant():
            parts.append((h, i))
        v, w = quo(v, h), quo(z, h)
        i += 1
    return parts


def _musser(f: UniPoly):
    """Musser's loop (1971) with p-th root descent, over a finite field."""
    c = uni_gcd(f, uni_derivative(f))
    if c.degree == 0:
        return [(f, 1)]
    w = uni_exact_div(f, c)
    parts = []
    i = 1
    while w.degree > 0:
        y = uni_gcd(w, c)
        z = uni_exact_div(w, y)
        if z.degree > 0:
            parts.append((z, i))
        w, c = y, uni_exact_div(c, y)
        i += 1
    # c is left with the factors whose multiplicity p divides: a p-th power
    if c.degree > 0:
        p = f.ring.characteristic
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
        out.append(K.pth_root(f.coeffs[i]))
    return _poly(K, out)


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
    """Arithmetic modulo a fixed polynomial f of degree n.

    Over Zp, from n = PACKED_MULMOD_WORD_DEGREE on when the slots of
    `_slot_bytes(p, n)` take at most 8 bytes and from PACKED_MULMOD_DEGREE
    on when they are wider, a quotient of degree k >= 8 with k <= n - 2 or
    n >= LONG_QUOTIENT_DEGREE comes from one packed
    Barrett step: the high part of the dividend times g, the Newton inverse
    of the reversed monic f to precision P, gives the quotient, and the low
    part minus the quotient times f's low part the remainder; both products
    run on word-slot big integers.  P is max(k + 1, n - 1) over the steps
    so far: g is built at the first step and grown when a longer quotient
    comes.  `mulmod` of reduced operands is one more packed product.  Other
    quotients, and every division over other rings, are classical.
    """

    def __init__(self, modulus: UniPoly):
        self.modulus = modulus
        K, n = modulus.ring, modulus.degree
        m = K.coeff_modulus
        s = _slot_bytes(m, n) if K.is_field and m is not None else 0
        gate = PACKED_MULMOD_WORD_DEGREE if s <= 8 else PACKED_MULMOD_DEGREE
        self._slot = s if s and n >= gate else None
        if self._slot is not None:
            self._lc_inv = mod_inverse(modulus.lc(), m)
            self._monic = uni_monic(modulus).coeffs
            self._g = [1]  # the reversal of monic f has constant term 1
            self._prec = 0  # nothing packed before the first Barrett step

    def _grow(self, prec):
        """Extend g to precision prec by Newton steps that at most double it,
        then pack it with the slot width and mask that go with it."""
        n, m = self.modulus.degree, self.modulus.ring.coeff_modulus
        rev, g = self._monic[::-1], self._g
        steps = [prec]
        while steps[-1] > 2 * len(g):
            steps.append((steps[-1] + 1) // 2)
        for t in reversed(steps):
            # rev * g = 1 + x^h * e mod x^t, and g - x^h * (g * e mod x^(t-h))
            # inverts rev mod x^t; both products run on packed slots
            h = len(g)
            s = _slot_bytes(m, t)
            G, mask = _pack(g, s), (1 << 8 * s * (t - h)) - 1
            e = _unpack(_pack(rev[:t], s) * G >> 8 * s * h & mask, s, t - h)
            e = _pack([c % m for c in e], s)
            g += [-c % m for c in _unpack(e * G & mask, s, t - h)]
        self._prec = P = len(g)
        self._slot = s = _slot_bytes(m, max(n, P))
        self._inv_rev = _pack(g[::-1], s)
        self._low = _pack(self._monic[:n], s)
        self._mask = (1 << 8 * s * n) - 1

    def _barrett(self, c):
        """(quotient by monic f, trimmed remainder) of the polynomial whose
        len(c) > n coefficients c are sums of at most n residue products."""
        n, m = self.modulus.degree, self.modulus.ring.coeff_modulus
        hi = [t % m for t in c[n:]]
        L = len(hi)
        if L > self._prec:
            self._grow(max(L, n - 1))
        s, inv = self._slot, self._inv_rev
        if L < self._prec:  # only g mod x^L counts: the top L slots
            inv >>= 8 * s * (self._prec - L)
        # quotient coefficient j is slot L-1+j of (high part) * reversed g
        q = _unpack(_pack(hi, s) * inv >> 8 * s * (L - 1), s, L)
        q = [t % m for t in q]
        low = _unpack(_pack(q[:n], s) * self._low & self._mask, s, n)  # mod x^n
        r = [(a - b) % m for a, b in zip(c, low)]
        while r and not r[-1]:
            r.pop()
        return q, r

    def divrem(self, a: UniPoly):
        f, K = self.modulus, a.ring
        n, k = f.degree, a.degree - f.degree
        # a quotient of degree below 8 divides faster classically
        if self._slot is None or k < 8 or (k >= n - 1 and n < LONG_QUOTIENT_DEGREE):
            return _divrem_classical(a, f)
        q, r = self._barrett(a.coeffs)
        if self._lc_inv != 1:
            q = [c * self._lc_inv % K.coeff_modulus for c in q]
        return UniPoly(K, q), UniPoly(K, r)

    def rem(self, a: UniPoly) -> UniPoly:
        return self.divrem(a)[1]

    def mulmod(self, a: UniPoly, b: UniPoly) -> UniPoly:
        s, n, K = self._slot, self.modulus.degree, a.ring
        if s is None:
            return self.rem(uni_mul(a, b))
        if a.degree >= n:
            a = self.rem(a)
        if b.degree >= n:
            b = self.rem(b)
        x, y = a.coeffs, b.coeffs
        if not x or not y:
            return UniPoly(K, [])
        X = _pack(x, s)
        c = _unpack(X * X if x is y else X * _pack(y, s), s, len(x) + len(y) - 1)
        if len(c) <= n:
            return _poly(K, [t % K.coeff_modulus for t in c])
        return UniPoly(K, self._barrett(c)[1])

    def powmod(self, a: UniPoly, e: int) -> UniPoly:
        return rings.power(self.mulmod, _poly(a.ring, [a.ring.one]), self.rem(a), e)


class FrobeniusMap:
    """h -> h^q mod f over a finite field of q elements, as a linear map.

    The map is linear over the field, so it stores the rows x^(i*q) mod f
    for i < deg f (one `powmod(x, q)`, then deg f - 2 products by x^q) and
    takes an image as sum(h_i * row_i).  The rows come from `context`, the
    PolyModContext of f: over Zp, from the degree its gate allows on, each
    is a packed `mulmod` (three big-int products, one Barrett step); below
    that degree and over other fields, a product and a classical remainder.
    Over a residue ring the rows are packed once into word-slot big
    integers, so an image is one pass of int-by-bigint products, one unpack
    and one reduction per slot; over other fields the sum runs through the
    ring operations.  `h` must be reduced mod f.
    """

    def __init__(self, f: UniPoly):
        self.ring = K = f.ring
        n = f.degree
        self.context = ctx = PolyModContext(f)
        rows = [_poly(K, [K.one])]
        if n > 1:
            xq = ctx.powmod(UniPoly(K, [K.zero, K.one]), K.cardinality)
            rows.append(xq)
            while len(rows) < n:
                rows.append(ctx.mulmod(rows[-1], xq))
        m = K.coeff_modulus
        if m is not None:
            self._slot = s = _slot_bytes(m, n)
            self._rows = [_pack(r.coeffs, s) for r in rows]
        else:
            self._rows = [r.coeffs for r in rows]

    def __call__(self, h: UniPoly) -> UniPoly:
        K = self.ring
        m = K.coeff_modulus
        if m is not None:
            acc = 0
            for c, row in zip(h.coeffs, self._rows):
                if c:
                    acc += c * row
            n = len(self._rows)
            return _poly(K, [c % m for c in _unpack(acc, self._slot, n)])
        out = []
        for c, row in zip(h.coeffs, self._rows):
            if not K.is_zero(c):
                out = K.vadd(out, K.vscale(row, c))
        return _poly(K, out)


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
        unit, _ = K.normalize_unit(a.lc())
        if K.is_one(unit):
            return self.one, a
        w = K.unit_inverse(unit)
        return self.from_const(unit), uni_scale(a, w)

    def unit_inverse(self, u):
        K = self.cring
        if u.degree != 0:
            raise ArithmeticError("not a unit")
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

    def _key(self):
        return self.cring, self.var
