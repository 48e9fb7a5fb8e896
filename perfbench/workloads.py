"""Seeded inputs for the benchmark workloads.

Every input is drawn here as plain data: exponent tuples with integer or
(numerator, denominator) coefficients, and coefficient lists for univariate
inputs.  Polynomials are then built only through ringkit's
public constructors (MultiRing, MultiPoly, UniRing.of_coeffs) and its public
arithmetic, so a change to the library cannot change what the benchmark
feeds it.

Why each workload exists, and which layer it loads:

gcd        multi_gcd(a*g, b*g) over Z, Zp and Q, plus the dense seven-variable
           instance.  multigcd and unipoly.uni_gcd do most of the work; the
           inputs are built by multi_mul, which takes under 1% of solve time,
           so this is the workload that should not move when only the
           multipoly kernels change.
factor     factor_multipoly of a product of three sparse random polynomials
           over Z and Zp, plus the dense seven-variable instance.
           multipoly.multi_mul, multi_divrem and the lifting in multifactor do
           most of the work; the Zp rows carry the dense Taylor-shift tail.
unifactor  factor_unipoly of 1 + sum(i*x^i) over two prime fields and of
           products of random irreducibles over Z.  unipoly.uni_mul,
           uni_divrem and PolyModContext.powmod do most of the work; no
           multivariate layer runs.
groebner   groebner_basis of katsura and cyclic systems over Zp and Q.  The
           groebner module is almost all of the time; no gcd or factor layer
           runs.  The Zp rows keep coefficients word sized and the Q rows pay
           for coefficient growth.

Every workload also holds control problems that exit early: coprime gcd
pairs, irreducible inputs and inconsistent systems.  Their total time is
`trivial_s`, which is where a fixed cost added to each call shows first.
"""

import hashlib
import random
from dataclasses import dataclass

P_WORD = 1000003  # the word-size prime of the paper's protocol


@dataclass
class Problem:
    """One call into the library, described as plain data."""

    name: str
    control: bool
    ring: object  # "Z", "Q" or a prime p
    kind: str  # selects the build and verify code in problems.py
    data: dict


# ------------------------------------------------------------------ sampling


# Monomial supports and degrees come from this fixed label, coefficients
# from the run's seed.  Which problems hit the slow paths (an unusable
# evaluation point, a dense Taylor shift) depends mostly on the supports, so
# fixing them keeps a pass's cost steady across seeds while every seed still
# gives new inputs.
SHAPE = "shape"


def _rng(seed, *labels):
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _coeff(rng, ring):
    if ring == "Z":
        return rng.choice((-1, 1)) * rng.randint(1, 100)
    if ring == "Q":
        return (rng.choice((-1, 1)) * rng.randint(1, 100), rng.randint(1, 20))
    return rng.randrange(1, ring)


def _sharp(rng, n, dsum):
    """An exponent vector of total degree exactly dsum: the variables are
    visited in random order, each takes a uniform share of what is left and
    the last one takes the rest."""
    order = list(range(n))
    rng.shuffle(order)
    e = [0] * n
    rem = dsum
    for i in order[:-1]:
        e[i] = rng.randint(0, rem)
        rem -= e[i]
    e[order[-1]] = rem
    return tuple(e)


def _uniform(rng, n, hi):
    return tuple(rng.randint(0, hi) for _ in range(n))


def sparse_poly(shape, rng, ring, n, terms, exps):
    """Exactly `terms` distinct monomials, drawn by `exps` from `shape`, with
    nonzero coefficients drawn from `rng`."""
    support = set()
    while len(support) < terms:
        support.add(exps(shape, n))
    return tuple((e, _coeff(rng, ring)) for e in sorted(support))


def _nonconstant_sparse(shape, rng, ring, n, terms, hi):
    while True:
        f = sparse_poly(shape, rng, ring, n, terms, lambda r, k: _uniform(r, k, hi))
        if any(any(e) for e, _ in f):
            return f


# ---------------------------------------------------------------- univariate
# Small dense arithmetic over Z/p on coefficient lists (low degree first),
# used to draw random factors that are certified irreducible.


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod_p(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem_p(prod, f, p)


def _rem_p(a, f, p):
    a = [x % p for x in a]
    _trim(a)
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    while len(a) - 1 >= df:
        c = a[-1] * inv % p
        s = len(a) - 1 - df
        for i, y in enumerate(f):
            a[s + i] = (a[s + i] - c * y) % p
        _trim(a)
    return a


def _gcd_p(a, b, p):
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, _rem_p(a, b, p)
    return a


def _powmod_p(a, e, f, p):
    result, a = [1], _rem_p(a, f, p)
    while e:
        if e & 1:
            result = _mulmod_p(result, a, f, p)
        a = _mulmod_p(a, a, f, p)
        e >>= 1
    return result


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible_mod_p(f, p):
    """Rabin's test for a small-degree integer polynomial read modulo p."""
    f = _trim([x % p for x in f])
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    frob = [x]  # frob[j] = x^(p^j) mod f
    for _ in range(n):
        frob.append(_powmod_p(frob[-1], p, f, p))
    if frob[n] != _rem_p(x, f, p):
        return False
    for t in _prime_divisors(n):
        h = list(frob[n // t]) + [0] * 2
        h[1] -= 1
        if len(_gcd_p(f, h, p)) != 1:
            return False
    return True


def _random_irreducible_z(rng, deg):
    """A primitive integer polynomial of degree deg, positive leading
    coefficient, whose image mod 101 is irreducible, so it is irreducible
    over Z."""
    while True:
        f = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 9)]
        if f[-1] % 101 and irreducible_mod_p(f, 101):
            g = 0
            for c in f:
                g = _igcd(g, c)
            if g == 1:
                return f


def _igcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def pdeg_coeffs(deg):
    """1 + sum(i * x^i, i = 1..deg), low degree first."""
    return [1] + list(range(1, deg + 1))


# ----------------------------------------------------------- named systems


def katsura(n):
    """katsura-n in u0..un: sum(u_|i| u_|m-i|) = u_m for m < n and
    u0 + 2*(u1 + ... + un) = 1, as {exponent: integer coefficient} dicts."""
    nv = n + 1

    def mono(*idx):
        e = [0] * nv
        for i in idx:
            e[i] += 1
        return tuple(e)

    def add(poly, e, c):
        poly[e] = poly.get(e, 0) + c
        if not poly[e]:
            del poly[e]

    eqs = []
    for m in range(n):
        poly = {}
        for i in range(-n, n + 1):
            j = m - i
            if abs(j) <= n:
                add(poly, mono(abs(i), abs(j)), 1)
        add(poly, mono(m), -1)
        eqs.append(poly)
    lin = {}
    for i in range(-n, n + 1):
        add(lin, mono(abs(i)), 1)
    add(lin, mono(), -1)
    eqs.append(lin)
    return nv, eqs


def cyclic(n):
    """cyclic-n in x0..x(n-1): the elementary cyclic sums of degree 1..n-1
    vanish and the product of all variables is 1."""
    eqs = []
    for k in range(1, n):
        poly = {}
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            poly[tuple(e)] = poly.get(tuple(e), 0) + 1
        eqs.append(poly)
    eqs.append({(1,) * n: 1, (0,) * n: -1})
    return n, eqs


def _system(name, n, ring):
    nv, eqs = (katsura if name == "katsura" else cyclic)(n)
    return nv, [tuple(sorted((e, c % ring if isinstance(ring, int) else c)
                             for e, c in poly.items())) for poly in eqs]


# ---------------------------------------------------------------- workloads


def gcd_problems(seed, rows):
    out = []
    for label, ring, count, spec in rows:
        for k in range(count):
            rng, shape = _rng(seed, "gcd", label, k), _rng(SHAPE, "gcd", label, k)
            if spec["kind"] == "dense":
                forms = [
                    [rng.choice((-1, 1)) * rng.randrange(3, 17, 2) for _ in range(7)]
                    for _ in range(3)
                ]
                data = {"forms": forms, "exp": spec["exp"]}
                kind = "gcd_dense"
            else:
                n, t, d = spec["vars"], spec["terms"], spec["deg"]
                a, b, g = (
                    sparse_poly(shape, rng, ring, n, t, lambda r, m: _sharp(r, m, d))
                    for _ in range(3)
                )
                data = {"vars": n, "a": a, "b": b, "g": g}
                kind = "gcd_sparse"
            name = "%s#%d" % (label, k)
            out.append(Problem(name, False, ring, kind, data))
            if spec.get("control", True):
                out.append(Problem(name + "+1", True, ring, kind, data))
    return out


def factor_problems(seed, rows):
    """The inputs do not depend on the seed.  With the supports fixed, the
    coefficients alone still moved a problem's cost threefold (100 to 350 ms
    over Zp), and with six nontrivial problems a pass the slowest of them,
    tail_ms, moved by a quarter from seed to seed."""
    out = []
    for label, ring, count, spec in rows:
        for k in range(count):
            rng, shape = _rng(SHAPE, "coeffs", label, k), _rng(SHAPE, "factor", label, k)
            name = "%s#%d" % (label, k)
            if spec["kind"] == "dense":
                form = [rng.choice((-1, 1)) * rng.randrange(3, 17, 2) for _ in range(7)]
                data = {"form": form, "exp": spec["exp"], "parts": 2}
                out.append(Problem(name, False, ring, "factor_dense", data))
                continue
            n, t, hi = spec["vars"], spec["terms"], spec["hi"]
            parts = [_nonconstant_sparse(shape, rng, ring, n, t, hi) for _ in range(3)]
            out.append(Problem(name, False, ring, "factor_sparse", {"vars": n, "parts": parts}))
            # Over Zp the time to prove product+1 irreducible swings tenfold
            # with the coefficients.
            shape, fixed = _rng(SHAPE, "factor", label, k), _rng(SHAPE, "control", label, k)
            parts = [_nonconstant_sparse(shape, fixed, ring, n, t, hi) for _ in range(3)]
            out.append(Problem(name + "+1", True, ring, "factor_sparse", {"vars": n, "parts": parts}))
    return out


def unifactor_problems(seed, rows):
    """The inputs do not depend on the seed (see the comment below)."""
    out = []
    for label, ring, count, spec in rows:
        for k in range(count):
            shape = _rng(SHAPE, "unifactor", label, k)
            name = "%s#%d" % (label, k)
            if spec["kind"] == "pdeg":
                degs = spec["degs"]
                data = {"coeffs": pdeg_coeffs(degs[k % len(degs)])}
                out.append(Problem(name, spec.get("control", False), ring, "pdeg", data))
            else:
                # fixed like the factor controls: how the product splits
                # modulo a prime, and so the recombination work, depends on
                # the coefficients and swings the time with the seed
                facs = [
                    _random_irreducible_z(shape, shape.randint(*spec["degs"]))
                    for _ in range(spec["factors"])
                ]
                data = {"factors": facs}
                out.append(Problem(name, False, ring, "uni_product", data))
    return out


def groebner_problems(seed, rows):
    """The systems do not depend on the seed.  Scaling the variables by the
    seed, even by signs only, moved the cost of katsura-6 over Zp by up to
    30%, so the named systems stay as the paper states them."""
    out = []
    for label, ring, count, spec in rows:
        for k in range(count):
            name = "%s#%d" % (label, k)
            nv, gens = _system(spec["system"], spec["n"], ring)
            control = spec.get("control", False)
            if control:
                # katsura has small rational roots (u0 = 1, and u0 = un = 1/3);
                # all its roots are small, so a constant term in the
                # thousands keeps the form from vanishing on any of them.
                fixed = _rng(SHAPE, "groebner", label, k)
                form = {tuple(int(j == i) for j in range(nv)): fixed.choice((-2, -1, 1, 2))
                        for i in range(nv)}
                form[(0,) * nv] = fixed.randint(1000, 1999)
                gens = gens + [tuple(sorted(form.items()))]
            data = {"vars": nv, "gens": gens}
            out.append(Problem(name, control, ring, "groebner", data))
    return out


GENERATORS = {
    "gcd": gcd_problems,
    "factor": factor_problems,
    "unifactor": unifactor_problems,
    "groebner": groebner_problems,
}

_SPARSE5 = {"kind": "sparse", "vars": 5, "terms": 20, "deg": 20}
_SPARSE_F = {"kind": "sparse", "vars": 3, "terms": 6, "hi": 3}

# (label, ring, count, spec) per workload; one pass solves all of them.
# Sizes and counts keep a pass near 1.2 seconds on one core, so that a run
# holds a dozen passes or more and every problem's median time rests on a
# dozen samples or more.
WORKLOADS = {
    "gcd": [
        ("Z-sparse5", "Z", 1, _SPARSE5),
        ("Zp-sparse5", P_WORD, 2, _SPARSE5),
        ("Q-sparse4", "Q", 2, {"kind": "sparse", "vars": 4, "terms": 20, "deg": 15}),
        ("Z-dense7", "Z", 1, {"kind": "dense", "exp": 2}),
    ],
    "factor": [
        ("Z-sparse3", "Z", 2, _SPARSE_F),
        ("Zp-sparse3", P_WORD, 3, _SPARSE_F),
        ("Z-dense7", "Z", 1, {"kind": "dense", "exp": 3}),
    ],
    "unifactor": [
        ("Zp-pdeg", P_WORD, 1, {"kind": "pdeg", "degs": (100,)}),
        ("Zp17-pdeg", 17, 1, {"kind": "pdeg", "degs": (100,)}),
        ("Z-product", "Z", 2, {"kind": "product", "factors": 6, "degs": (6, 10)}),
        ("Z-pdeg", "Z", 1, {"kind": "pdeg", "degs": (60,), "control": True}),
    ],
    "groebner": [
        ("katsura6-Zp", P_WORD, 1, {"system": "katsura", "n": 6}),
        ("katsura5-Zp", P_WORD, 1, {"system": "katsura", "n": 5}),
        ("cyclic5-Zp", P_WORD, 1, {"system": "cyclic", "n": 5}),
        ("katsura5-Q", "Q", 1, {"system": "katsura", "n": 5}),
        ("cyclic5-Q", "Q", 1, {"system": "cyclic", "n": 5}),
        ("katsura6+lin-Zp", P_WORD, 2, {"system": "katsura", "n": 6, "control": True}),
        ("katsura6+lin-Q", "Q", 1, {"system": "katsura", "n": 6, "control": True}),
    ],
}

# One small untimed problem per workload, solved during set-up.
WARMUPS = {
    "gcd": ("warmup", P_WORD, 1, {"kind": "sparse", "vars": 3, "terms": 6, "deg": 6,
                                  "control": False}),
    "factor": ("warmup", "Z", 1, {"kind": "sparse", "vars": 2, "terms": 4, "hi": 3}),
    "unifactor": ("warmup", P_WORD, 1, {"kind": "pdeg", "degs": (40,)}),
    "groebner": ("warmup", P_WORD, 1, {"system": "katsura", "n": 3}),
}

# Input digests for seed 0; a change here means the inputs changed.
DIGESTS = {
    "gcd": "a975e9fa58a06d6d",
    "factor": "0344c91b43735477",
    "unifactor": "ae23473cfb561959",
    "groebner": "f8c5669cb5c514b0",
}


def problems_for(workload, seed):
    return GENERATORS[workload](seed, WORKLOADS[workload])


def warmup_for(workload):
    """The same for every seed, so that setup_s does not depend on it."""
    return GENERATORS[workload](0, [WARMUPS[workload]])[0]


def digest(problems):
    """Short hash of the plain input data, to pin the inputs for a seed."""
    h = hashlib.sha256()
    for p in problems:
        h.update(repr((p.name, p.control, p.ring, p.kind, sorted(p.data.items()))).encode())
    return h.hexdigest()[:16]
