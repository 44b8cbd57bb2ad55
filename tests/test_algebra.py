import random

from snowteam.algebra import gf_mul


def gf_mul_school(a: int, b: int) -> int:
    """Independent oracle: shift-and-xor expansion, then long division."""
    prod = 0
    for i in range(64):
        if (a >> i) & 1:
            prod ^= b << i
    full_mod = (1 << 64) | 0x1B
    for bit in range(126, 63, -1):
        if (prod >> bit) & 1:
            prod ^= full_mod << (bit - 64)
    return prod


def test_gf_identity():
    rng = random.Random(0)
    for _ in range(20):
        a = rng.getrandbits(64)
        assert gf_mul(1, a) == a
        assert gf_mul(a, 1) == a
        assert gf_mul(0, a) == 0


def test_gf_one_reduction_step():
    # x * x^63 = x^64 = x^4 + x^3 + x + 1
    assert gf_mul(2, 1 << 63) == 0x1B


def test_gf_matches_school_oracle():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert gf_mul(a, b) == gf_mul_school(a, b)


def test_gf_commutative_distributive():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (rng.getrandbits(64) for _ in range(3))
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
