"""Per-layer tracing from outside the library.

`Tracer.install` wraps the listed public functions of ringkit, in the module
that defines each one and in every ringkit module that bound it with
`from ... import`, and `remove` puts the originals back.  The wrappers record
only while `tracer.on` is true, which the runner sets around solve calls, so
building and verifying inputs are never traced.

A span is (function, start, end, parent span); spans stay in memory as flat
arrays.  A function's self time is the sum over its spans of the duration
minus the time covered by direct child spans.
"""

import sys
from array import array
from functools import wraps
from time import perf_counter

# (module, function, what to record); "span" gives .calls and .self_s,
# "count" gives .calls only.  Which end-to-end metric each layer should move
# is listed in perfbench/README.md.
TARGETS = (
    ("multigcd", "multi_gcd", "span"),
    ("multigcd", "gcd_many", "span"),
    ("unipoly", "uni_gcd", "span"),
    ("unipoly", "uni_extended_gcd", "span"),
    ("multipoly", "multi_mul", "span"),
    ("multipoly", "multi_divrem", "span"),
    ("multipoly", "multi_exact_div", "span"),
    ("multipoly", "multi_pow", "span"),
    ("multipoly", "content_primitive", "span"),
    ("multifactor", "factor_multipoly", "span"),
    ("unipoly", "uni_mul", "span"),
    ("unipoly", "uni_divrem", "span"),
    ("unipoly", "uni_squarefree", "span"),
    ("unipoly", "PolyModContext.powmod", "span"),
    ("unifactor", "factor_unipoly", "span"),
    ("unifactor", "factor_finite", "span"),
    ("unifactor", "factor_over_z", "span"),
    ("groebner", "groebner_basis", "span"),
    ("primes", "next_prime", "calls"),
    ("primes", "is_prime", "count"),
    ("primes", "factor_integer", "span"),
    ("modular", "crt_pair", "count"),
    ("modular", "mod_inverse", "count"),
)
# next_prime is traced as a span so primes_per_gcd can see its ancestors,
# but only its call count is reported.

NAMES = tuple("%s.%s" % (m, f) for m, f, _ in TARGETS)
_ID = {n: i for i, n in enumerate(NAMES)}

MULTI_GCD = _ID["multigcd.multi_gcd"]
FACTOR_MULTI = _ID["multifactor.factor_multipoly"]
UNI_FACTOR = {_ID[n] for n in ("unifactor.factor_unipoly", "unifactor.factor_finite",
                               "unifactor.factor_over_z")}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for (_, _, mode), name in zip(TARGETS, NAMES):
        out.append((name + ".calls", "count"))
        if mode == "span":
            out.append((name + ".self_s", "s"))
    out += [
        ("groebner.basis_len", "count"),
        ("multigcd.uni_gcd_per_gcd", "ratio"),
        ("multigcd.primes_per_gcd", "ratio"),
        ("multifactor.images_per_factor", "ratio"),
        ("multifactor.mul_per_factor", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.fn = array("i")  # span -> function id
        self.parent = array("i")  # span -> parent span, -1 at the top
        self.start = array("d")
        self.end = array("d")
        self.counts = [0] * len(NAMES)
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ wrapping

    def _span(self, fid, fn):
        fns, parents, starts, ends, stack = (
            self.fn, self.parent, self.start, self.end, self._stack)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def _count(self, fid, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                counts[fid] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for fid, (mod, name, mode) in enumerate(TARGETS):
            module = sys.modules["ringkit." + mod]
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._span(fid, orig))
                self._restore.append((owner, attr, orig))
                continue
            orig = getattr(module, name)
            wrapper = (self._count if mode == "count" else self._span)(fid, orig)
            for modname, other in list(sys.modules.items()):
                if modname != "ringkit" and not modname.startswith("ringkit."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, wrapper)
                        self._restore.append((other, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # ------------------------------------------------------------ reporting

    def report(self):
        """Per-layer metrics of everything recorded, by metric name."""
        n = len(self.fn)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        calls = list(self.counts)
        self_s = [0.0] * len(NAMES)
        child = [0.0] * n
        for i in range(n):
            d = ends[i] - starts[i]
            calls[fns[i]] += 1
            p = parents[i]
            if p >= 0:
                child[p] += d
        for i in range(n):
            self_s[fns[i]] += ends[i] - starts[i] - child[i]

        # parents precede children, so one forward pass marks ancestry
        in_gcd = bytearray(n)
        in_factor = bytearray(n)
        in_uni = bytearray(n)
        top_gcd = top_factor = 0
        uni_gcd = primes = images = muls = 0
        uni_gcd_id, next_prime_id, mul_id = (
            _ID["unipoly.uni_gcd"], _ID["primes.next_prime"], _ID["multipoly.multi_mul"])
        for i in range(n):
            f, p = fns[i], parents[i]
            if p >= 0:
                pf = fns[p]
                in_gcd[i] = in_gcd[p] or pf == MULTI_GCD
                in_factor[i] = in_factor[p] or pf == FACTOR_MULTI
                in_uni[i] = in_uni[p] or pf in UNI_FACTOR
            if f == MULTI_GCD and not in_gcd[i]:
                top_gcd += 1
            elif f == FACTOR_MULTI and not in_factor[i]:
                top_factor += 1
            if in_gcd[i]:
                uni_gcd += f == uni_gcd_id
                primes += f == next_prime_id
            if in_factor[i]:
                images += f in UNI_FACTOR and not in_uni[i]
                muls += f == mul_id

        out = {}
        for fid, (_, _, mode) in enumerate(TARGETS):
            out[NAMES[fid] + ".calls"] = calls[fid]
            if mode == "span":
                out[NAMES[fid] + ".self_s"] = self_s[fid]
        out["multigcd.uni_gcd_per_gcd"] = uni_gcd / top_gcd if top_gcd else 0.0
        out["multigcd.primes_per_gcd"] = primes / top_gcd if top_gcd else 0.0
        out["multifactor.images_per_factor"] = images / top_factor if top_factor else 0.0
        out["multifactor.mul_per_factor"] = muls / top_factor if top_factor else 0.0
        return out
