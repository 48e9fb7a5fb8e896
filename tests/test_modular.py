import random

import pytest

from ringkit.modular import (
    PRIME_FLOOR,
    crt_pair,
    mod_inverse,
    modular_gcd,
    symmetric_lift,
)
from ringkit import modular, primes
from ringkit.errors import NonInvertibleError
from ringkit.multigcd import multi_gcd
from ringkit.multipoly import MultiPoly, MultiRing, multi_mul
from ringkit.primes import next_prime
from ringkit.rings import ZZ, ZpRing
from ringkit.unipoly import (
    PACKED_MUL_THRESHOLD,
    UniRing,
    _packed_int,
    uni_gcd,
    uni_gcd_subresultant,
    uni_mul,
)

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


# ------------------------------------------------------------ modular_gcd


# the prime width: every prime modular_gcd takes has W bits, and the
# synthetic coefficients below are sized in units of W
W = PRIME_FLOOR.bit_length()


def _primes(k):
    out, p = [], PRIME_FLOOR
    for _ in range(k):
        p = next_prime(p)
        out.append(p)
    return out


class _Frame:
    """Synthetic driver for modular_gcd: images of a target polynomial T
    (exponent -> int), with chosen primes answering other dicts, and a
    trial division that accepts exactly T."""

    def __init__(self, target, others=None):
        self.target = target
        self.others = others or {}
        self.asked = []
        self.candidates = []

    def image(self, p):
        self.asked.append(p)
        if p in self.others:
            return self.others[p]
        t = self.target
        inv = pow(t[max(t)], -1, p)
        return {e: c * inv % p for e, c in t.items()}

    def divides(self, terms):
        self.candidates.append(terms)
        return terms == self.target

    def run(self, gamma=None, lcs=(), bound=None):
        lc = self.target[max(self.target)]
        gamma = lc if gamma is None else gamma
        bound = 10**400 if bound is None else bound
        return modular_gcd(self.image, lambda e: e, self.divides, gamma, lcs, bound)


def test_modular_gcd_drops_image_with_larger_lead():
    # needs two primes; the second prime answers a degree-2 image, which
    # must be dropped rather than combined
    target = {1: 1, 0: 3 * 2 ** (3 * W // 2) + 1}
    p1, p2, p3 = _primes(3)
    frame = _Frame(target, {p2: {2: 1, 0: 5}})
    assert frame.run() == target
    assert frame.asked == [p1, p2, p3]
    assert len(frame.candidates) == 2


def test_modular_gcd_restarts_on_smaller_lead():
    # the first prime answers a degree-3 image; the true degree-1 images
    # that follow restart the accumulation without it
    target = {1: 1, 0: -(5 * 2 ** (3 * W // 2) + 7)}
    p1, p2, p3 = _primes(3)
    frame = _Frame(target, {p1: {3: 1, 1: 7}})
    assert frame.run() == target
    assert frame.asked == [p1, p2, p3]
    assert frame.candidates[0] == {3: 1, 1: 7}
    assert frame.candidates[1] == {1: 1, 0: symmetric_lift(target[0], p2)}


def test_modular_gcd_unit_image_gives_empty():
    frame = _Frame({1: 1, 0: 2}, {p: None for p in _primes(1)})
    assert frame.run() == {}
    assert frame.candidates == []


def test_modular_gcd_combines_three_primes():
    # coefficients of 5W/2 bits need three primes of W bits; the images are
    # monic, so gamma = 6 over lc 3 scales them to 2 * target before the
    # primitive part is taken; the first prime divides an lc and is skipped
    target = {2: 3, 1: -(2 ** (5 * W // 2) + 5), 0: 2 ** (5 * W // 2 - 1) + 2}
    p0, p1, p2, p3 = _primes(4)
    frame = _Frame(target)
    assert frame.run(gamma=6, lcs=(6, p0 * 5)) == target
    assert frame.asked == [p1, p2, p3]
    assert len(frame.candidates) == 3
    assert frame.candidates[1] != target


def test_modular_gcd_stops_at_the_bound():
    # a trial division that never accepts ends once the modulus passes
    # twice the bound: here after the second prime
    frame = _Frame({1: 1, 0: 2 ** (3 * W // 2)})
    frame.divides = lambda terms: False
    with pytest.raises(ArithmeticError):
        frame.run(bound=PRIME_FLOOR)
    assert len(frame.asked) == 2


def _big(rng, bits):
    return rng.randrange(-(1 << bits), 1 << bits) or 1


def test_uni_gcd_over_z_with_4200_bit_coefficients():
    rng = random.Random(42)
    U = UniRing(ZZ, "x")
    # primitive (constant term 1) with a positive lead
    g = U.of_coeffs(
        [1] + [_big(rng, 4200) for _ in range(4)] + [1 + abs(_big(rng, 4200))]
    )
    a = U.of_coeffs([_big(rng, 4200) for _ in range(4)])
    b = U.of_coeffs([_big(rng, 4200) for _ in range(3)])
    assert uni_gcd_subresultant(a, b).degree == 0
    fa, fb = uni_mul(a, g), uni_mul(b, g)
    h = uni_gcd(fa, fb)
    assert h == g
    assert h == uni_gcd_subresultant(fa, fb)


def _planted_uni_gcd(seed, bits):
    rng = random.Random(seed)
    U = UniRing(ZZ, "x")
    g = U.of_coeffs([1] + [_big(rng, bits) for _ in range(3)] + [1 + abs(_big(rng, bits))])
    a = U.of_coeffs([_big(rng, bits) for _ in range(4)])
    b = U.of_coeffs([_big(rng, bits) for _ in range(3)])
    assert uni_gcd(uni_mul(a, g), uni_mul(b, g)) == g


def test_z_gcds_share_one_prime_search(monkeypatch):
    # every Z gcd reads the primes above PRIME_FLOOR from one list: a later
    # gcd tests no candidate at or below the largest prime already found
    calls = []
    real = primes.is_prime
    monkeypatch.setattr(primes, "is_prime", lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(modular, "_CRT_PRIMES", [])
    _planted_uni_gcd(44, 1000)
    found = list(modular._CRT_PRIMES)
    assert calls and found == _primes(len(found))
    del calls[:]
    _planted_uni_gcd(45, 1000)
    _planted_uni_gcd(46, 600)
    assert all(n > found[-1] for n in calls)
    _planted_uni_gcd(47, 3000)
    assert calls and all(n > found[-1] for n in calls)
    assert modular._CRT_PRIMES == _primes(len(modular._CRT_PRIMES))
    del calls[:]
    _planted_uni_gcd(44, 1000)
    assert calls == []


def test_multi_gcd_over_z_with_4200_bit_coefficients():
    rng = random.Random(43)
    R = MultiRing(ZZ, ("x", "y"))
    x, y = R.gens()
    # primitive (constant term 1) with a positive lead
    g = MultiPoly(
        R,
        {
            (2, 1): 1 + abs(_big(rng, 4200)),
            (1, 1): _big(rng, 4200),
            (0, 2): _big(rng, 4200),
            (0, 0): 1,
        },
    )
    a = x * y + R.one  # distinct irreducible cofactors: coprime
    b = x + y + 2 * R.one
    assert multi_gcd(multi_mul(a, g), multi_mul(b, g)) == g
