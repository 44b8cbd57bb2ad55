"""GF(2^64) arithmetic for the randomized monomial detection.

Field: GF(2)[x] / (x^64 + x^4 + x^3 + x + 1), one element per machine word.
``gf_mul`` is the scalar reference product; ``_clmul_reduce_arrays`` is the
vectorised kernel the detector runs, checked against it by the
``algebra-kernels`` acceptance check.
"""

from __future__ import annotations

import numpy as np

# x^4 + x^3 + x + 1: the low part of the reduction polynomial for x^64.
REDUCTION = 0x1B
MASK64 = (1 << 64) - 1

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def gf_mul(a: int, b: int) -> int:
    """Carry-less product reduced modulo x^64 + x^4 + x^3 + x + 1."""
    a &= MASK64
    b &= MASK64
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        carry = a >> 63
        a = (a << 1) & MASK64
        if carry:
            a ^= REDUCTION
    return r


def _clmul_reduce_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of uint64 arrays (broadcasting allowed)."""
    a, b = np.broadcast_arrays(a, b)
    acc = np.zeros(a.shape, dtype=np.uint64)
    cur = np.array(a, dtype=np.uint64)
    bb = np.array(b, dtype=np.uint64)
    tmp = np.empty_like(acc)
    one, s63, red = np.uint64(1), np.uint64(63), np.uint64(REDUCTION)
    for _ in range(64):
        np.bitwise_and(bb, one, out=tmp)
        np.multiply(tmp, _ALL_ONES, out=tmp)
        np.bitwise_and(tmp, cur, out=tmp)
        np.bitwise_xor(acc, tmp, out=acc)
        np.right_shift(cur, s63, out=tmp)
        np.multiply(tmp, red, out=tmp)
        np.left_shift(cur, one, out=cur)
        np.bitwise_xor(cur, tmp, out=cur)
        np.right_shift(bb, one, out=bb)
    return acc
