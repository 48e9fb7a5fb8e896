"""Ring descriptors: elements are plain values, operations go through the ring.

Integers are Python ints, residues mod m (Z/m and Zp) are ints in [0, m),
fractions are Rational pairs over the inner ring.  Polynomial rings live in
unipoly.py and multipoly.py; GF(p, k) in galois.py.  All descriptors are
immutable.

Every descriptor also carries the coefficient-list and term-dict steps the
polynomial modules are built from (`vadd` ... `horner`, `add_terms`):
`Ring` defines them on `add`, `mul` and `neg`, and `ZmRing` overrides each
with int comprehensions reduced mod m, the one residue kernel of Z/m and Zp.
"""

import math
import operator
from functools import reduce

from .errors import UnsupportedRingError
from .modular import mod_inverse
from .primes import factor_integer, is_prime


class Ring:
    """Base ring descriptor; subclasses define the element operations."""

    is_field = False
    is_finite = False
    characteristic = 0
    cardinality = None  # None means infinite

    zero = None
    one = None
    # m when elements are ints in [0, m) under `% m` arithmetic; read only
    # by algorithms on unreduced int sums: uni_mul's packing, _divrem_mod,
    # PolyModContext, FrobeniusMap's rows, multi_mul, the Reducer, the
    # tables of term_values and slot_sums, and the factorizers' lifts
    coeff_modulus = None

    def of(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def is_unit(self, a):
        if self.is_field:
            return not self.is_zero(a)
        raise NotImplementedError

    def divmod(self, a, b):
        """Euclidean division; only rings with divmod support gcd machinery."""
        raise UnsupportedRingError("%s has no euclidean division" % (self,))

    def exact_div(self, a, b):
        q, r = self.divmod(a, b)
        if not self.is_zero(r):
            raise ArithmeticError("inexact division in %s" % (self,))
        return q

    def divides(self, a, b):
        """True when a divides b."""
        if self.is_zero(a):
            return self.is_zero(b)
        try:
            self.exact_div(b, a)
            return True
        except ArithmeticError:
            return False

    def inv(self, a):
        raise UnsupportedRingError("%s has no inverses" % (self,))

    def pth_root(self, a):
        """Inverse of Frobenius: the unique b with b^p = a, p the characteristic."""
        raise UnsupportedRingError("p-th roots need a finite field, not %s" % (self,))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return power(self.mul, self.one, a, e)

    def normalize_unit(self, a):
        """Split a = unit * canonical; canonical is the chosen associate."""
        if self.is_field:
            if self.is_zero(a):
                return self.one, a
            return a, self.one
        raise NotImplementedError

    def unit_inverse(self, u):
        if self.is_field:
            return self.inv(u)
        return self.exact_div(self.one, u)

    def gcd(self, a, b):
        """Canonical gcd via the euclidean loop; fields short-circuit."""
        if self.is_field:
            if self.is_zero(a) and self.is_zero(b):
                return self.zero
            return self.one
        while not self.is_zero(b):
            a, b = b, self.divmod(a, b)[1]
        return self.normalize_unit(a)[1]

    def extended_gcd(self, a, b):
        return extended_gcd(self, a, b)

    def factor(self, a):
        """Factor into (unit, [(irreducible, exponent), ...])."""
        raise UnsupportedRingError("%s has no factorization" % (self,))

    def random_element(self, rng, **opts):
        raise NotImplementedError

    # list and term-dict steps: lists keep their length, dicts drop zeros

    def vadd(self, x, y):
        """Elementwise x + y, the shorter list read as padded with zeros."""
        if len(x) < len(y):
            x, y = y, x
        out = list(map(self.add, x, y))
        out += x[len(y) :]
        return out

    def vneg(self, x):
        return list(map(self.neg, x))

    def vscale(self, x, c):
        return [self.mul(a, c) for a in x]

    def vmul(self, x, y):
        return list(map(self.mul, x, y))

    def vsum(self, x):
        return reduce(self.add, x, self.zero)

    def vsums(self, x, spans):
        """The sum of each slice x[lo:hi] for (lo, hi) in spans."""
        return [self.vsum(x[lo:hi]) for lo, hi in spans]

    def dot(self, x, y):
        """sum(x[i] * y[i]) over the length of the shorter operand."""
        return self.vsum(map(self.mul, x, y))

    def horner(self, x, t):
        """The polynomial with coefficients x, lowest first, at t."""
        acc = self.zero
        for c in reversed(x):
            acc = self.add(self.mul(acc, t), c)
        return acc

    def add_terms(self, a, b, sign=1):
        """The dict a + b (a - b for sign=-1) of {key: coefficient} dicts."""
        out = dict(a)
        for k, c in b.items():
            c = c if sign > 0 else self.neg(c)
            s = self.add(out[k], c) if k in out else c
            if self.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        from .parse import parse_element

        return parse_element(text, self)

    def symbols(self) -> dict:
        """Named generators usable in parsed expressions."""
        return {}

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.spec_string()

    # descriptors are equal when they are the same object, or of one type
    # with equal `_key()`: the parameters that define the ring
    def __eq__(self, other):
        return self is other or (type(other) is type(self) and other._key() == self._key())

    def __hash__(self):
        return hash((type(self), self._key()))


def power(mul, one, a, e):
    """a^e for e >= 0 by binary powering under `mul`, starting from `one`;
    the base is squared only while higher bits of e remain."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    result = one
    while True:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if not e:
            return result
        a = mul(a, a)


def extended_gcd(ring, a, b):
    """(g, x, y) with x*a + y*b = g and g canonical for the ring."""
    r0, r1 = a, b
    x0, x1 = ring.one, ring.zero
    y0, y1 = ring.zero, ring.one
    while not ring.is_zero(r1):
        q, r = ring.divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, ring.sub(x0, ring.mul(q, x1))
        y0, y1 = y1, ring.sub(y0, ring.mul(q, y1))
    unit, g = ring.normalize_unit(r0)
    if not ring.is_one(unit):
        w = ring.unit_inverse(unit)
        x0, y0 = ring.mul(x0, w), ring.mul(y0, w)
    return g, x0, y0


class IntegerRing(Ring):
    """The ring of integers; canonical associates are non-negative."""

    zero = 0
    one = 1

    def of(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("not an integer: %r" % (x,))
        return x

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def is_unit(self, a):
        return a in (1, -1)

    def divmod(self, a, b):
        return divmod(a, b)

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact integer division %d / %d" % (a, b))
        return q

    def normalize_unit(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def unit_inverse(self, u):
        return u

    def gcd(self, a, b):
        return math.gcd(a, b)

    def factor(self, a):
        if a == 0:
            raise ArithmeticError("cannot factor 0")
        unit = 1 if a > 0 else -1
        fac = factor_integer(abs(a))
        return unit, sorted(fac.items())

    def random_element(self, rng, bound=100, **opts):
        return rng.randint(-bound, bound)

    def spec_string(self):
        return "Z"

    def _key(self):
        return ()


class ZmRing(Ring):
    """Residue ring Z/mZ; residues are ints in [0, m) reduced with `% m`.

    Elements coprime to m are units; inverting any other element raises
    NonInvertibleError carrying its gcd with m.
    """

    is_finite = True
    zero = 0
    one = 1

    def __init__(self, m: int):
        if isinstance(m, bool) or not isinstance(m, int):
            raise TypeError("modulus must be an int, got %r" % (m,))
        if m < 2:
            raise ValueError("modulus must be at least 2, got %r" % (m,))
        self.m = m
        self.characteristic = m
        self.cardinality = m
        self.coeff_modulus = m

    def of(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("not an integer: %r" % (x,))
        return x % self.m

    def add(self, a, b):
        s = a + b
        return s - self.m if s >= self.m else s

    def sub(self, a, b):
        d = a - b
        return d + self.m if d < 0 else d

    def neg(self, a):
        return self.m - a if a else 0

    def mul(self, a, b):
        return a * b % self.m

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        return mod_inverse(a, self.m)

    def exact_div(self, a, b):
        """The least q with q*b = a, which exists when gcd(b, m) divides a;
        a*b^-1 for a unit b.  There is no divmod, so `Ring.gcd` still raises."""
        g = math.gcd(b, self.m)
        if a % g:
            raise ArithmeticError("inexact division in %s" % (self,))
        n = self.m // g
        return a // g * mod_inverse(b // g, n) % n

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.m)
        return pow(a, e, self.m)

    def vadd(self, x, y):
        if len(x) < len(y):
            x, y = y, x
        out = x[:]
        m = self.m
        for i, c in enumerate(y):
            s = out[i] + c
            out[i] = s - m if s >= m else s
        return out

    def vneg(self, x):
        m = self.m
        return [m - c if c else 0 for c in x]

    def vscale(self, x, c):
        m = self.m
        return [a * c % m for a in x]

    def vmul(self, x, y):
        m = self.m
        return [a * b % m for a, b in zip(x, y)]

    def vsum(self, x):
        return sum(x) % self.m

    def vsums(self, x, spans):
        m = self.m
        return [sum(x[lo:hi]) % m for lo, hi in spans]

    def dot(self, x, y):
        return sum(map(operator.mul, x, y)) % self.m

    def horner(self, x, t):
        m, acc = self.m, 0
        for c in reversed(x):
            acc = (acc * t + c) % m
        return acc

    def add_terms(self, a, b, sign=1):
        m, out = self.m, dict(a)
        for k, c in b.items():
            if s := (out.get(k, 0) + sign * c) % m:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def random_element(self, rng, **opts):
        return rng.randrange(self.m)

    def spec_string(self):
        return "Zm[%d]" % self.m

    def _key(self):
        return self.m


class ZpRing(ZmRing):
    """Prime field Z/pZ: the residue ring with a prime modulus.

    Any prime is accepted; Python ints make the reduction exact at every size.
    """

    is_field = True

    def __init__(self, p: int):
        super().__init__(p)
        if not is_prime(p):
            raise ValueError("Zp modulus must be prime, got %r" % (p,))
        self.p = p

    def divmod(self, a, b):
        return self.div(a, b), 0

    def exact_div(self, a, b):
        return self.div(a, b)

    def div(self, a, b):
        return a * mod_inverse(b, self.p) % self.p

    def pth_root(self, a):
        return a  # Frobenius is the identity on the prime field

    def spec_string(self):
        return "Zp[%d]" % self.p


class Rational:
    """Immutable numerator/denominator pair over some inner ring.

    Construct through FractionField so the invariants (reduced, canonical
    denominator) hold; the pair itself carries no ring pointer.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (
            isinstance(other, Rational)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "Rational(%r, %r)" % (self.num, self.den)


class FractionField(Ring):
    """Field of fractions over an integral domain with gcd."""

    is_field = True

    def __init__(self, inner: Ring):
        if inner.is_field:
            raise UnsupportedRingError("Frac over a field is pointless: %s" % inner)
        self.inner = inner
        self.characteristic = inner.characteristic
        self.zero = Rational(inner.zero, inner.one)
        self.one = Rational(inner.one, inner.one)

    def make(self, num, den):
        """Reduced fraction with canonical-associate denominator."""
        inner = self.inner
        if inner.is_zero(den):
            raise ZeroDivisionError("zero denominator in %s" % (self,))
        if inner.is_zero(num):
            return Rational(inner.zero, inner.one)
        g = inner.gcd(num, den)
        if not inner.is_one(g):
            num, den = inner.exact_div(num, g), inner.exact_div(den, g)
        unit, den = inner.normalize_unit(den)
        if not inner.is_one(unit):
            num = inner.mul(num, inner.unit_inverse(unit))
        return Rational(num, den)

    def of(self, x):
        if isinstance(x, Rational):
            return self.make(x.num, x.den)
        return Rational(self.inner.of(x), self.inner.one)

    def from_inner(self, a):
        return Rational(a, self.inner.one)

    def clear_denominators(self, coeffs):
        """(d, [c * d for c in coeffs]) with d the least common denominator.

        The products are elements of the inner ring.
        """
        inner = self.inner
        coeffs = list(coeffs)
        den = inner.one
        for c in coeffs:
            if not inner.is_one(c.den):
                den = inner.exact_div(inner.mul(den, c.den), inner.gcd(den, c.den))
        if inner.is_one(den):
            return den, [c.num for c in coeffs]
        return den, [inner.mul(c.num, inner.exact_div(den, c.den)) for c in coeffs]

    def add(self, a, b):
        inner = self.inner
        return self.make(
            inner.add(inner.mul(a.num, b.den), inner.mul(b.num, a.den)),
            inner.mul(a.den, b.den),
        )

    def neg(self, a):
        return Rational(self.inner.neg(a.num), a.den)

    def mul(self, a, b):
        return self.make(
            self.inner.mul(a.num, b.num), self.inner.mul(a.den, b.den)
        )

    def is_zero(self, a):
        return self.inner.is_zero(a.num)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in %s" % (self,))
        return self.make(a.den, a.num)

    def is_integral(self, a):
        return self.inner.is_one(a.den)

    def split_integral(self, a):
        """(whole, proper) with a = whole + proper and proper a true fraction."""
        q, r = self.inner.divmod(a.num, a.den)
        if isinstance(self.inner, IntegerRing) and r and a.num < 0:
            # integer quotients truncate toward zero, so the proper part
            # keeps the numerator's sign: -10/13 stays 0 + (-10)/13
            q += 1
            r -= a.den
        return q, self.make(r, a.den)

    def random_element(self, rng, **opts):
        inner = self.inner
        num = inner.random_element(rng, **opts)
        den = inner.zero
        while inner.is_zero(den):
            den = inner.random_element(rng, **opts)
        return self.make(num, den)

    def format(self, a):
        from .parse import format_fraction

        return format_fraction(self, a)

    def symbols(self):
        return {
            name: self.from_inner(el) for name, el in self.inner.symbols().items()
        }

    def spec_string(self):
        inner = self.inner.spec_string()
        return "Q" if inner == "Z" else "Frac(%s)" % inner

    def _key(self):
        return self.inner


ZZ = IntegerRing()
QQ = FractionField(ZZ)
