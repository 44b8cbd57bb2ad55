import random
import warnings

import numpy as np

from snowteam.algebra import _clmul_reduce_arrays, gf_mul


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


# words whose bit classes fill up: every column of the kernel's integer
# products reaches its largest count on some pair of them
CARRY_WORDS = [
    0x1111111111111111,
    0x2222222222222222,
    0x8888888888888888,
    0xAAAAAAAAAAAAAAAA,
    0x5555555555555555,
    (1 << 64) - 1,
    0xFFFFFFFF00000000,
    0x00000000FFFFFFFF,
]


def test_kernel_carry_words_against_school_oracle():
    rng = random.Random(3)
    words = CARRY_WORDS + [rng.getrandbits(64) for _ in range(40)]
    arr = np.array(words, dtype=np.uint64)
    got = _clmul_reduce_arrays(arr[:, None], arr[None, :]).tolist()
    for x, row in zip(words, got):
        for y, g in zip(words, row):
            assert g == gf_mul_school(x, y), (hex(x), hex(y))


def test_kernel_random_pairs_against_school_oracle():
    rng = random.Random(4)
    xs = [rng.getrandbits(64) for _ in range(2000)]
    ys = [rng.getrandbits(64) for _ in range(2000)]
    got = _clmul_reduce_arrays(np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64))
    assert got.tolist() == [gf_mul_school(x, y) for x, y in zip(xs, ys)]


def test_kernel_output_shapes():
    x, y = 0xFFFFFFFF00000000, 0x8888888888888888
    scalar = _clmul_reduce_arrays(np.array(x, dtype=np.uint64), np.array(y, dtype=np.uint64))
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()
    assert int(scalar) == gf_mul_school(x, y)
    empty = _clmul_reduce_arrays(np.zeros((0, 1), np.uint64), np.zeros((0, 3), np.uint64))
    assert empty.shape == (0, 3)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 1 << 64, size=(4, 1, 32), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(1, 5, 32), dtype=np.uint64)
    got = _clmul_reduce_arrays(a, b)
    assert got.shape == (4, 5, 32)
    for (i, j, w), g in np.ndenumerate(got):
        assert int(g) == gf_mul_school(int(a[i, 0, w]), int(b[0, j, w]))
    # non-contiguous views
    big = rng.integers(0, 1 << 64, size=(8, 6), dtype=np.uint64)
    va, vb = big[::2, 1::2], big.T[:4, :6:2]
    assert not va.flags.c_contiguous and not vb.flags.c_contiguous
    got = _clmul_reduce_arrays(va, vb)
    assert got.shape == (4, 3)
    for (x, y), g in zip(zip(va.flat, vb.flat), got.flat):
        assert int(g) == gf_mul_school(int(x), int(y))


def test_kernel_raises_no_warnings():
    words = np.array(CARRY_WORDS, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _clmul_reduce_arrays(words[:, None], words[None, :])
        _clmul_reduce_arrays(words[0], words[-1])
        _clmul_reduce_arrays(np.uint64(CARRY_WORDS[5]), np.uint64(CARRY_WORDS[5]))
