"""Galois fields GF(p, k) as Zp[t] modulo a random irreducible polynomial."""

import random

from . import rings, unifactor
from .unipoly import (
    PolyModContext,
    UniPoly,
    _poly,
    uni_add,
    uni_extended_gcd,
    uni_neg,
    uni_random,
    uni_sub,
)


class GFRing(rings.Ring):
    """Field with p^k elements; elements are Zp[t] residues of degree < k.

    The minimal polynomial is drawn deterministically from `seed` unless one
    is supplied.  For k = 1 that degenerates to x - c for a random c.
    """

    is_field = True
    is_finite = True

    def __init__(self, p: int, k: int, var: str = "t", seed: int = 0, min_poly=None):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if not var.isidentifier():
            raise ValueError("bad generator name: %r" % (var,))
        self.zp = rings.ZpRing(p)  # validates primality
        self.p = p
        self.k = k
        self.var = var
        self.characteristic = p
        self.cardinality = p**k
        if min_poly is None:
            min_poly = _random_irreducible(self.zp, k, random.Random(seed))
        else:
            min_poly = _poly(self.zp, [self.zp.of(c) for c in min_poly.coeffs])
            if min_poly.degree != k or not unifactor.uni_is_irreducible(min_poly):
                raise ValueError("minimal polynomial must be irreducible of degree k")
            if not self.zp.is_one(min_poly.lc()):
                raise ValueError("minimal polynomial must be monic")
        self.min_poly = min_poly
        self._ctx = PolyModContext(min_poly)
        self.zero = UniPoly(self.zp, [])
        self.one = _poly(self.zp, [1])

    # formatter duck-typing: elements print as univariate polynomials in var
    @property
    def cring(self):
        return self.zp

    def of(self, x):
        if isinstance(x, UniPoly):
            if x.ring != self.zp:
                raise ValueError("element from a different field")
            return self._ctx.rem(x)
        return _poly(self.zp, [self.zp.of(x)])

    def from_coeffs(self, coeffs) -> UniPoly:
        return self._ctx.rem(_poly(self.zp, [self.zp.of(c) for c in coeffs]))

    def generator(self) -> UniPoly:
        return self._ctx.rem(UniPoly(self.zp, [0, 1]))

    def add(self, a, b):
        return uni_add(a, b)

    def sub(self, a, b):
        return uni_sub(a, b)

    def neg(self, a):
        return uni_neg(a)

    def mul(self, a, b):
        return self._ctx.mulmod(a, b)

    def is_zero(self, a):
        return a.is_zero()

    def is_one(self, a):
        return len(a.coeffs) == 1 and a.coeffs[0] == 1

    def divmod(self, a, b):
        return self.div(a, b), self.zero

    def exact_div(self, a, b):
        return self.div(a, b)

    def inv(self, a):
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in %s" % (self,))
        g, s, _ = uni_extended_gcd(a, self.min_poly)
        assert self.is_one(g), "minimal polynomial is not irreducible"
        return self._ctx.rem(s)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return self._ctx.powmod(a, e)

    def pth_root(self, a):
        """Inverse of Frobenius: the unique b with b^p = a."""
        return self.pow(a, self.cardinality // self.p)

    def random_element(self, rng, **opts):
        return _poly(self.zp, [rng.randrange(self.p) for _ in range(self.k)])

    def format(self, a):
        from .parse import format_unipoly

        return format_unipoly(self, a)

    def symbols(self):
        return {self.var: self.generator()}

    def spec_string(self):
        return "GF[%d,%d,%s]" % (self.p, self.k, self.var)

    def _key(self):
        return self.p, self.k, self.var, self.min_poly


def _random_irreducible(zp, k, rng) -> UniPoly:
    while True:
        f = uni_random(zp, k, rng, monic=True)
        if k == 1 or unifactor.uni_is_irreducible(f):
            return f
