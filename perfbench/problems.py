"""Build, solve and verify one benchmark problem.

`build` turns a Problem's plain data into ringkit objects, `solve` makes the
one timed call into ringkit's public API, and `verify` checks the answer
independently of the algorithm that produced it.  Verification never runs
inside the timed region or under tracing.  `rk` is the namespace of ringkit
modules from the import that built the inputs.
"""

from collections import Counter


class Built:
    """A problem's library inputs plus what its verifier needs."""

    def __init__(self, args, **expect):
        self.args = args
        self.expect = expect


# ------------------------------------------------------------------ building


def ring_of(rk, ring):
    if ring == "Z":
        return rk.rings.ZZ
    if ring == "Q":
        return rk.rings.QQ
    return rk.rings.ZpRing(ring)


def _coeff(K, c):
    return K.make(*c) if isinstance(c, tuple) else K.of(c)


def mpoly(rk, R, terms):
    K = R.cring
    out = {}
    for e, c in terms:
        c = _coeff(K, c)
        if not K.is_zero(c):
            out[e] = c
    return rk.multipoly.MultiPoly(R, out)


def _xring(rk, K, n):
    return rk.multipoly.MultiRing(K, tuple("x%d" % i for i in range(1, n + 1)))


def _linear_form(R, coeffs):
    f = R.one
    for x, c in zip(R.gens(), coeffs):
        f = f + R.of(c) * x
    return f


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def build(rk, problem):
    K = ring_of(rk, problem.ring)
    d = problem.data
    kind = problem.kind
    if kind == "gcd_sparse":
        R = _xring(rk, K, d["vars"])
        a, b, g = (mpoly(rk, R, d[k]) for k in "abg")
        A, B = a * g, b * g
        if problem.control:
            return Built((A + R.one, B))
        return Built((A, B), g=g)
    if kind == "gcd_dense":
        R = _xring(rk, K, 7)
        forms = [_linear_form(R, c) ** d["exp"] for c in d["forms"]]
        a, b, g = forms[0] - R.one, forms[1] + R.one, forms[2] + R.of(3)
        A, B = a * g, b * g
        if problem.control:
            return Built((A + R.one, B))
        return Built((A, B), g=g)
    if kind == "factor_sparse":
        R = _xring(rk, K, d["vars"])
        f = R.one
        for part in d["parts"]:
            f = f * mpoly(rk, R, part)
        if problem.control:
            return Built((R, f + R.one), parts=1)
        return Built((R, f), parts=len(d["parts"]))
    if kind == "factor_dense":
        R = _xring(rk, K, 7)
        f = _linear_form(R, d["form"]) ** d["exp"] - R.one
        return Built((R, f), parts=d["parts"])
    if kind == "pdeg":
        U = rk.unipoly.UniRing(K, "x")
        coeffs = d["coeffs"]
        # over Z the input is irreducible; the pin is checked in the tests
        return Built((U, U.of_coeffs(coeffs)), degrees=[len(coeffs) - 1])
    if kind == "uni_product":
        U = rk.unipoly.UniRing(K, "x")
        prod = [1]
        for f in d["factors"]:
            prod = _int_mul(prod, f)
        return Built(
            (U, U.of_coeffs(prod)),
            degrees=sorted(len(f) - 1 for f in d["factors"]),
        )
    if kind == "groebner":
        R = rk.multipoly.MultiRing(K, tuple("x%d" % i for i in range(d["vars"])))
        return Built(([mpoly(rk, R, g) for g in d["gens"]],))
    raise ValueError("unknown problem kind %r" % kind)


# ------------------------------------------------------------------- solving


def solve(rk, problem, built):
    """The single call the benchmark times."""
    kind = problem.kind
    if kind.startswith("gcd"):
        return rk.multigcd.multi_gcd(*built.args)
    if kind.startswith("factor"):
        return rk.multifactor.factor_multipoly(*built.args)
    if kind in ("pdeg", "uni_product"):
        return rk.unifactor.factor_unipoly(*built.args)
    return rk.groebner.groebner_basis(*built.args)


# ---------------------------------------------------------------- verifying


def _divides(rk, d, f):
    return rk.multipoly.multi_divrem(f, [d])[1].is_zero()


def _check_gcd(rk, problem, built, G):
    A, B = built.args
    if problem.control:
        return None if G.degree() == 0 else "control gcd is not a constant"
    if G.is_zero() or not (_divides(rk, G, A) and _divides(rk, G, B)):
        return "gcd does not divide both inputs"
    if not _divides(rk, built.expect["g"], G):
        return "planted factor does not divide the gcd"
    return None


def _check_multi_factor(rk, problem, built, result):
    R, f = built.args
    unit, facs = result
    if not unit.is_constant():
        return "unit is not a constant"
    prod = unit
    nontrivial = 0
    for g, m in facs:
        if m < 1:
            return "multiplicity below 1"
        prod = prod * g**m
        if not g.is_constant():
            nontrivial += m
    if prod != f:
        return "factors do not multiply back to the input"
    if nontrivial < built.expect["parts"]:
        return "%d nonconstant factors, expected at least %d" % (
            nontrivial, built.expect["parts"])
    return None


def _uni_product(unit, facs, p):
    prod = list(unit.coeffs)
    for g, m in facs:
        for _ in range(m):
            prod = _int_mul(prod, g.coeffs)
    if p:
        prod = [c % p for c in prod]
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


def _content(coeffs):
    g = 0
    for c in coeffs:
        while c:
            g, c = c, g % c
    return abs(g)


def _check_uni_factor(rk, problem, built, result):
    U, f = built.args
    unit, facs = result
    p = problem.ring if isinstance(problem.ring, int) else 0
    if unit.degree > 0:
        return "unit is not a constant"
    if _uni_product(unit, facs, p) != list(f.coeffs):
        return "factors do not multiply back to the input"
    nonconstant = [(g, m) for g, m in facs if g.degree > 0]
    if p:
        for g, _ in nonconstant:
            if not rk.unifactor.uni_is_irreducible(g):
                return "a factor fails Rabin's irreducibility test"
        return None
    # over Z: primitive factors whose degrees match the known irreducible
    # factorization of the input, so none can split further
    for g, _ in nonconstant:
        if _content(g.coeffs) != 1:
            return "a factor is not primitive"
    degrees = sorted(g.degree for g, m in nonconstant for _ in range(m))
    if Counter(degrees) != Counter(built.expect["degrees"]):
        return "factor degrees %s, expected %s" % (degrees, built.expect["degrees"])
    return None


def _check_groebner(rk, problem, built, basis):
    (gens,) = built.args
    if not basis:
        return "empty basis"
    unit_ideal = len(basis) == 1 and basis[0].is_constant()
    if problem.control:
        return None if unit_ideal else "inconsistent system without basis [1]"
    if unit_ideal:
        return "basis [1] for a consistent system"
    if not rk.groebner.is_groebner_basis(basis):
        return "not a Groebner basis"
    for g in gens:
        if not rk.multipoly.multi_divrem(g, basis)[1].is_zero():
            return "a generator does not reduce to 0"
    return None


def verify(rk, problem, built, result):
    """None when the answer checks out, else a one-line reason."""
    kind = problem.kind
    if kind.startswith("gcd"):
        return _check_gcd(rk, problem, built, result)
    if kind.startswith("factor"):
        return _check_multi_factor(rk, problem, built, result)
    if kind in ("pdeg", "uni_product"):
        return _check_uni_factor(rk, problem, built, result)
    return _check_groebner(rk, problem, built, result)
