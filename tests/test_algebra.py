import random

import numpy as np
import pytest

from snowteam.algebra import (
    AlgebraValue,
    GroupAlgebraElem,
    ga_mul_fast,
    ga_mul_naive,
    gf_mul,
    zval_mul,
)


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


def _random_elem(rng, k):
    return GroupAlgebraElem(k, np.array([rng.getrandbits(64) for _ in range(1 << k)], dtype=np.uint64))


def test_basis_group_law():
    k = 3
    for u in range(8):
        for v in range(8):
            prod = ga_mul_naive(GroupAlgebraElem.basis(k, u), GroupAlgebraElem.basis(k, v))
            assert prod == GroupAlgebraElem.basis(k, u ^ v)


def test_char2_square_vanishing():
    for k in range(0, 6):
        for v in range(1 << k):
            e_plus_g = GroupAlgebraElem.identity(k) + GroupAlgebraElem.basis(k, v)
            assert ga_mul_fast(e_plus_g, e_plus_g).is_zero()
            assert ga_mul_naive(e_plus_g, e_plus_g).is_zero()


def test_fast_identity():
    rng = random.Random(3)
    for k in range(0, 6):
        a = _random_elem(rng, k)
        assert ga_mul_fast(GroupAlgebraElem.identity(k), a) == a


def test_fast_k1_hand_expansion():
    rng = random.Random(4)
    for _ in range(50):
        al, be, ga, de = (rng.getrandbits(64) for _ in range(4))
        a = GroupAlgebraElem(1, np.array([al, be], dtype=np.uint64))
        b = GroupAlgebraElem(1, np.array([ga, de], dtype=np.uint64))
        prod = ga_mul_fast(a, b)
        assert int(prod.coeffs[0]) == gf_mul(al, ga) ^ gf_mul(be, de)
        assert int(prod.coeffs[1]) == gf_mul(al, de) ^ gf_mul(be, ga)


@pytest.mark.parametrize("k", range(1, 7))
def test_fast_equals_naive(k):
    rng = random.Random(100 + k)
    for _ in range(40):
        a, b = _random_elem(rng, k), _random_elem(rng, k)
        assert ga_mul_fast(a, b) == ga_mul_naive(a, b)


def test_fast_equals_naive_exhaustive_small_subfield():
    # all pairs over a 4-value coefficient sample for k <= 3
    vals = [0, 1, 2, 0x1B]
    rng = random.Random(5)
    for k in (1, 2, 3):
        for _ in range(60):
            a = GroupAlgebraElem(k, np.array([rng.choice(vals) for _ in range(1 << k)], dtype=np.uint64))
            b = GroupAlgebraElem(k, np.array([rng.choice(vals) for _ in range(1 << k)], dtype=np.uint64))
            assert ga_mul_fast(a, b) == ga_mul_naive(a, b)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        ga_mul_fast(GroupAlgebraElem.identity(1), GroupAlgebraElem.identity(2))
    with pytest.raises(ValueError):
        ga_mul_naive(GroupAlgebraElem.identity(1), GroupAlgebraElem.identity(2))


def test_associativity_distributivity_random():
    rng = random.Random(6)
    for k in (1, 2, 4):
        for _ in range(10):
            a, b, c = (_random_elem(rng, k) for _ in range(3))
            assert ga_mul_fast(ga_mul_fast(a, b), c) == ga_mul_fast(a, ga_mul_fast(b, c))
            assert ga_mul_fast(a, b + c) == ga_mul_fast(a, b) + ga_mul_fast(a, c)


def test_dependent_products_vanish():
    """Products of (g_v0 + g_vw) terms vanish iff the offsets v0^vw are dependent."""
    rng = random.Random(7)
    k = 4
    for _ in range(30):
        v0 = rng.getrandbits(k)
        # craft offsets: two independent vectors and their sum (dependent triple)
        u1, u2 = 0b0011, 0b0101
        dep = [u1, u2, u1 ^ u2]
        prod = GroupAlgebraElem.identity(k)
        for u in dep:
            term = GroupAlgebraElem.basis(k, v0) + GroupAlgebraElem.basis(k, v0 ^ u)
            prod = ga_mul_fast(prod, term)
        assert prod.is_zero()
        indep = [0b0001, 0b0010, 0b0100]
        prod = GroupAlgebraElem.identity(k)
        for u in indep:
            term = GroupAlgebraElem.basis(k, v0) + GroupAlgebraElem.basis(k, v0 ^ u)
            prod = ga_mul_fast(prod, term)
        assert not prod.is_zero()


def _random_value(rng, zcap, k):
    return AlgebraValue(zcap, tuple(_random_elem(rng, k) for _ in range(zcap + 1)))


def test_zval_degree_zero_products():
    rng = random.Random(8)
    k, zcap = 2, 3
    a = AlgebraValue.zero(zcap, k)
    b = AlgebraValue.zero(zcap, k)
    pa, pb = _random_elem(rng, k), _random_elem(rng, k)
    a = AlgebraValue(zcap, (pa,) + a.parts[1:])
    b = AlgebraValue(zcap, (pb,) + b.parts[1:])
    prod = zval_mul(a, b)
    assert prod.parts[0] == ga_mul_fast(pa, pb)
    assert all(p.is_zero() for p in prod.parts[1:])


def test_zval_truncation():
    # (z*e) * (z*e) with zcap=1 -> degree 2 dropped
    k = 1
    ze = AlgebraValue(1, (GroupAlgebraElem.zero(k), GroupAlgebraElem.identity(k)))
    prod = zval_mul(ze, ze)
    assert all(p.is_zero() for p in prod.parts)


def test_zval_matches_schoolbook():
    rng = random.Random(9)
    k, zcap = 2, 3
    for _ in range(10):
        a, b = _random_value(rng, zcap, k), _random_value(rng, zcap, k)
        want = [GroupAlgebraElem.zero(k) for _ in range(zcap + 1)]
        for i in range(zcap + 1):
            for j in range(zcap + 1):
                if i + j <= zcap:
                    want[i + j] = want[i + j] + ga_mul_naive(a.parts[i], b.parts[j])
        got = zval_mul(a, b)
        assert got.parts == tuple(want)


def test_zval_truncation_soundness():
    """Computing at zcap=t+3 then truncating matches computing at zcap=t."""
    rng = random.Random(10)
    k, t = 2, 2
    for _ in range(10):
        wide_a = _random_value(rng, t + 3, k)
        wide_b = _random_value(rng, t + 3, k)
        narrow_a = AlgebraValue(t, wide_a.parts[: t + 1])
        narrow_b = AlgebraValue(t, wide_b.parts[: t + 1])
        wide = zval_mul(wide_a, wide_b)
        narrow = zval_mul(narrow_a, narrow_b)
        assert wide.parts[: t + 1] == narrow.parts

