"""Ring descriptors: elements are plain values, operations go through the ring.

Integers are Python ints, Zp residues are ints in [0, p), fractions are
Rational pairs over the inner ring.  Polynomial rings live in unipoly.py and
multipoly.py; GF(p, k) in galois.py.  All descriptors are immutable.
"""

import math

from .errors import NonInvertibleError, UnsupportedRingError
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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

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


def solve_diophantine(ring, fs):
    """(g, [x_i]) with sum(x_i * f_i) = g = gcd(fs), by folding extended_gcd."""
    g, coeffs = ring.zero, []
    for f in fs:
        g, x, y = ring.extended_gcd(g, f)
        coeffs = [ring.mul(c, x) for c in coeffs]
        coeffs.append(y)
    return g, coeffs


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

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(IntegerRing)


class ZpRing(Ring):
    """Prime field Z/pZ; residues are ints in [0, p) reduced with `% p`.

    Any prime is accepted; Python ints make the reduction exact at every size.
    """

    is_field = True
    is_finite = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError("Zp modulus must be an int, got %r" % (p,))
        if not is_prime(p):
            raise ValueError("Zp modulus must be prime, got %r" % (p,))
        self.p = p
        self.characteristic = p
        self.cardinality = p
        # elements are plain ints; bulk code may defer reduction to the end
        self.coeff_modulus = p

    def of(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("not an integer: %r" % (x,))
        return x % self.p

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    def is_zero(self, a):
        return a == 0

    def divmod(self, a, b):
        return self.div(a, b), 0

    def exact_div(self, a, b):
        return self.div(a, b)

    def inv(self, a):
        return mod_inverse(a, self.p)

    def div(self, a, b):
        return a * mod_inverse(b, self.p) % self.p

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def random_element(self, rng, **opts):
        return rng.randrange(self.p)

    def spec_string(self):
        return "Zp[%d]" % self.p

    def __eq__(self, other):
        return isinstance(other, ZpRing) and other.p == self.p

    def __hash__(self):
        return hash((ZpRing, self.p))


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
            den = inner.exact_div(inner.mul(den, c.den), inner.gcd(den, c.den))
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

    def __eq__(self, other):
        return isinstance(other, FractionField) and other.inner == self.inner

    def __hash__(self):
        return hash((FractionField, self.inner))


ZZ = IntegerRing()
QQ = FractionField(ZZ)
