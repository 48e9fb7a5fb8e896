import math
import random

import pytest

from ringkit import primes
from ringkit.primes import factor_integer, is_prime, next_prime, primes_up_to


def _sieve_oracle(limit):
    # independent of the library sieve: plain boolean list, no slicing tricks
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, limit + 1):
        if flags[i]:
            for j in range(2 * i, limit + 1, i):
                flags[j] = False
    return flags


def test_is_prime_agrees_with_sieve_exhaustively():
    limit = 200000
    flags = _sieve_oracle(limit)
    for n in range(limit + 1):
        assert is_prime(n) == flags[n], n


def test_primes_up_to_counts():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    million = primes_up_to(10**6)
    assert len(million) == 78498
    assert million[-1] == 999983


def test_known_prime_moduli():
    assert is_prime(524287)
    assert is_prime(1000003)
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    # Carmichael numbers must not fool the test
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_large_randomized_band():
    # above 2^64 the test goes probabilistic; spot-check both answers
    assert is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def test_next_prime_steps_to_every_prime():
    primes = primes_up_to(10**5)
    for p in primes:
        assert next_prime(p - 1) == p
    assert next_prime(524280) == 524287
    assert next_prime(-10) == 2
    assert next_prime(2) == 3


def _trial_division_oracle(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_matches_trial_division_oracle():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(2, 1 << 36)
        assert factor_integer(n) == _trial_division_oracle(n), n


def test_factor_semiprimes_built_from_known_primes():
    # 48-bit and larger inputs with the answer known by construction
    rng = random.Random(5)
    for bits in (24, 24, 31, 40, 45):
        while True:
            p = next_prime(rng.getrandbits(bits))
            q = next_prime(rng.getrandbits(bits))
            if p != q:
                break
        assert factor_integer(p * q) == {p: 1, q: 1}
        assert factor_integer(p * p * q) == {p: 2, q: 1}


def test_factor_square_takes_no_split(monkeypatch):
    # an exact square splits by its integer square root, not by rho
    p = next_prime(random.Random(3).getrandbits(50))

    def no_split(n, rng):
        raise AssertionError("rho called on %d" % n)

    monkeypatch.setattr(primes, "_split", no_split)
    assert factor_integer(p * p) == {p: 2}
    assert factor_integer(p**4) == {p: 4}


def test_factor_divides_cofactors_by_found_primes(monkeypatch):
    # p^2 * q splits once: the smaller part p pops first and divides p * q
    rng = random.Random(4)
    p, q = next_prime(rng.getrandbits(45)), next_prime(rng.getrandbits(45))
    calls = []

    def split_at_p(n, rng):
        calls.append(n)
        return p

    monkeypatch.setattr(primes, "_split", split_at_p)
    assert factor_integer(p * p * q) == {p: 2, q: 1}
    assert calls == [p * p * q]


def test_factor_roundtrip_random():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(2, 1 << 60)
        fac = factor_integer(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)


def test_factor_paper_style_denominator():
    assert factor_integer(2341352) == {2: 3, 13: 1, 47: 1, 479: 1}
    assert factor_integer(1) == {}
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_prime_power():
    assert factor_integer(3**20) == {3: 20}
    p = 2**31 - 1
    assert factor_integer(p * p) == {p: 2}
