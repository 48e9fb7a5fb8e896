"""Integer modular helpers: inverses, CRT and symmetric lifting.

Residue arithmetic itself is plain Python int arithmetic (`a * b % p`) in the
ring descriptors; these are the operations that need more than one step.
"""

import math

from .errors import NonInvertibleError


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m; raises NonInvertibleError carrying the gcd."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertibleError(
            "%d is not invertible mod %d" % (a % m, m), gcd=math.gcd(a, m)
        ) from None


def crt_pair(r1: int, m1: int, r2: int, m2: int):
    """Combine a = r1 (mod m1), a = r2 (mod m2) for coprime m1, m2.

    Returns (x, m1*m2) with 0 <= x < m1*m2.
    """
    # inverse call doubles as the coprimality check
    t = mod_inverse(m1 % m2, m2)
    x = r1 + m1 * (((r2 - r1) * t) % m2)
    m = m1 * m2
    return x % m, m


def symmetric_lift(x: int, m: int) -> int:
    """Representative of x mod m in the symmetric range (-m/2, m/2]."""
    x %= m
    return x - m if x > m // 2 else x
