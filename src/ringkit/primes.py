"""Primality testing, integer factorization, and prime generation."""

import math
import random

# Jaeschke/Sinclair witness sets: deterministic Miller-Rabin below each bound
_MR_DETERMINISTIC = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

_TRIAL_BOUND = 1 << 16
_MR_ROUNDS = 48  # random Miller-Rabin bases above the deterministic range
_trial_primes = None  # lazy sieve cache, grows once and is then read-only


def primes_up_to(limit: int) -> list:
    """All primes <= limit by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses the compositeness of n; n-1 = d * 2^s, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic below 2^64; above, _MR_ROUNDS Miller-Rabin bases drawn
    from a generator seeded with n, so every call on n agrees."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_DETERMINISTIC:
        if n < bound:
            return not any(_miller_rabin_witness(n, a, d, s) for a in bases)
    rng = random.Random(n)
    bases = (rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS))
    return not any(_miller_rabin_witness(n, a, d, s) for a in bases)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


def _split(n: int, rng) -> int:
    """A proper factor of composite n with no factor < 2^16.

    Brent's cycle variant of Pollard's rho with gcds batched over 128 steps;
    a cycle that ends in g = n draws fresh parameters from rng.
    """
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m, g, r, q = 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # batch overshot; replay single steps from the saved point
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor_integer(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor_integer expects n >= 1, got %r" % (n,))
    global _trial_primes
    if _trial_primes is None:
        _trial_primes = primes_up_to(_TRIAL_BOUND)
    result = {}
    for p in _trial_primes:
        if p * p > n:
            break
        while n % p == 0:
            result[p] = result.get(p, 0) + 1
            n //= p
    if n == 1:
        return result
    rng = random.Random(n)  # the seed of rho's parameters
    stack = [n]
    while stack:
        m = stack.pop()
        for p in result:  # primes found so far divide out without rho
            while m % p == 0:
                result[p] += 1
                m //= p
        if m == 1:
            continue
        if is_prime(m):
            result[m] = result.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += (r, r)
            continue
        g = _split(m, rng)
        # the smaller part pops first: its primes may divide the larger out
        stack += sorted((g, m // g), reverse=True)
    return result
