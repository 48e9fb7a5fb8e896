"""Wall times scaled to a nominal machine speed.

On a shared host the whole machine slows down and speeds up again, in phases
of a few seconds, as other tenants' load comes and goes: the same solve, the
same work to the function call, took 42 ms in one process and 74 ms in the
next one started a few seconds later, and a plain integer loop slowed with
it.  Taking the best of many passes does not remove that, because a phase
can outlast a whole run.

So every timed call is bracketed by a fixed calibration kernel, timed
right before and right after it, and its wall time is scaled by
NOMINAL_KERNEL_S over the kernel's mean time around the call.  A phase that
slows the machine slows the kernel as much, and cancels.  The kernel is
pure Python over dicts, tuples, word-size and multi-word integers, like
the library's inner loops over Zp, Z and Q.
It never touches ringkit and runs with the garbage collector off, so the
library's heap cannot change its time: only the machine's speed moves it.
A faster library still reads faster, by exactly its share.
"""

import gc
from math import gcd
from time import perf_counter

# The kernel's time per call at the reference speed: its typical time on
# one core of the machine the benchmark was tuned on, when that machine was
# quiet.  It only sets the scale of the reported times; change it and every
# time changes by the same factor, so it must stay fixed across commits.
NOMINAL_KERNEL_S = 0.00018
KERNEL_CALLS = 6  # before and after every timed call

_P = 1000003
_TERMS = tuple(((i % 5, i // 5), (i * 7919 + 1) % _P) for i in range(15))
_BIG = tuple(3 ** (60 + 7 * i) // (5 ** i + 1) for i in range(8))


def _kernel():
    """Square a 15-term bivariate polynomial mod p as dicts, then take
    products and gcds of multi-word integers."""
    a = dict(_TERMS)
    out = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            e = (i + k, j + m)
            out[e] = (out.get(e, 0) + c * d) % _P
    for x in _BIG:
        for y in _BIG:
            out[x & 7] = gcd(x * y + 1, y)
    return out


def kernel_s():
    """Mean wall time of one kernel call, over KERNEL_CALLS calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(KERNEL_CALLS):
            _kernel()
        return (perf_counter() - t0) / KERNEL_CALLS
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s, before_s, after_s):
    """Seconds at the reference speed, from a call's wall time and the
    kernel times measured right before and right after it."""
    return wall_s * NOMINAL_KERNEL_S / ((before_s + after_s) / 2.0)
