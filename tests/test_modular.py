import random

import pytest

from ringkit.modular import crt_pair, mod_inverse, symmetric_lift
from ringkit.errors import NonInvertibleError
from ringkit.rings import ZpRing
from ringkit.unipoly import PACKED_MUL_THRESHOLD, _packed_int

SMALL_MODULI = [2, 3, 4, 5, 7, 8, 16, 251, 256, 65536, 65537, 524287]
BIG_MODULI = [2**31 - 1, 2**62 + 135, 2**64 - 59, 2**64 - 1, 10**18 + 9]


def _convolve(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def test_rejects_bad_moduli():
    for bad in (0, 1, -5, 4, 65536, 2**64):
        with pytest.raises(ValueError):
            ZpRing(bad)
    for bad in (7.0, True, "7"):
        with pytest.raises(TypeError):
            ZpRing(bad)


@pytest.mark.parametrize("p", SMALL_MODULI)
def test_reduce_exhaustive_small(p):
    # symmetric_lift reduces into (-p/2, p/2] for any modulus, even or odd
    for a in range(-(1 << 14), 1 << 14):
        s = symmetric_lift(a, p)
        assert s % p == a % p and -p < 2 * s <= p


@pytest.mark.parametrize("p", SMALL_MODULI + BIG_MODULI)
def test_reduce_random_wide(p):
    # native big-int division is the oracle
    rng = random.Random(0xC0FFEE ^ p)
    for bits in (64, 127):
        for _ in range(2000):
            a = rng.getrandbits(bits) * rng.choice((1, -1))
            s = symmetric_lift(a, p)
            assert s % p == a % p and -p < 2 * s <= p
    # packed convolution of reduced operands is exact for any modulus:
    # no slot overflows, so reducing the slots gives the products mod p
    for n in (PACKED_MUL_THRESHOLD, 2 * PACKED_MUL_THRESHOLD + 3):
        x = [rng.randrange(p) for _ in range(n)]
        y = [rng.randrange(p) for _ in range(n - 7)]
        assert _packed_int(x, y, p) == _convolve(x, y)
    worst = [p - 1] * (2 * PACKED_MUL_THRESHOLD)
    assert _packed_int(worst, worst, p) == _convolve(worst, worst)


def test_ring_ops_match_int_arithmetic():
    rng = random.Random(7)
    for p in (17, 524287, 2**31 - 1, 2**64 - 59):
        R = ZpRing(p)
        for _ in range(2000):
            a, b = rng.randrange(p), rng.randrange(p)
            assert R.add(a, b) == (a + b) % p
            assert R.sub(a, b) == (a - b) % p
            assert R.neg(a) == (-a) % p
            assert R.mul(a, b) == (a * b) % p
            assert R.of(a - 3 * p) == a


def test_pow_matches_builtin():
    rng = random.Random(99)
    for p in (17, 1000003, 2**61 - 1):
        R = ZpRing(p)
        for _ in range(500):
            a = rng.randrange(p)
            e = rng.randrange(0, 1 << 40)
            assert R.pow(a, e) == pow(a, e, p)
    R = ZpRing(17)
    assert R.pow(5, -1) == pow(5, 15, 17)
    assert R.pow(5, -2) == pow(pow(5, 15, 17), 2, 17)


def test_inverse_roundtrip_and_failure():
    rng = random.Random(3)
    for p in (2, 17, 524287, 1000003, 2**31 - 1):
        for _ in range(800):
            a = rng.randrange(1, p)
            assert a * mod_inverse(a, p) % p == 1
    with pytest.raises(NonInvertibleError) as info:
        mod_inverse(6, 15)
    assert info.value.gcd == 3
    with pytest.raises(NonInvertibleError):
        mod_inverse(0, 7)


def test_crt_pair_exhaustive_scan():
    # oracle: scan every residue below m1*m2
    for m1, m2 in [(3, 5), (4, 9), (7, 8), (2, 3)]:
        for r1 in range(m1):
            for r2 in range(m2):
                x, m = crt_pair(r1, m1, r2, m2)
                assert m == m1 * m2
                expected = [c for c in range(m) if c % m1 == r1 and c % m2 == r2]
                assert expected == [x]


def test_crt_pair_random_large():
    rng = random.Random(11)
    for _ in range(300):
        m1 = rng.getrandbits(60) | 1
        m2 = 2 ** rng.randrange(1, 50)
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        x, m = crt_pair(r1, m1, r2, m2)
        assert x % m1 == r1 and x % m2 == r2 and 0 <= x < m


def test_crt_pair_requires_coprime_moduli():
    with pytest.raises(NonInvertibleError):
        crt_pair(1, 6, 2, 9)


def test_symmetric_lift():
    assert symmetric_lift(6, 7) == -1
    assert symmetric_lift(3, 7) == 3
    assert symmetric_lift(5, 10) == 5
    assert symmetric_lift(6, 10) == -4
    for m in (2, 3, 10, 101):
        for x in range(m):
            s = symmetric_lift(x, m)
            assert s % m == x and -m // 2 <= s <= m // 2
