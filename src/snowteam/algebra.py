"""GF(2^64) arithmetic for the randomized monomial detection.

Field: GF(2)[x] / (x^64 + x^4 + x^3 + x + 1), one element per machine word.
``gf_mul`` is the scalar reference product; ``_clmul_reduce_arrays`` is the
vectorised kernel the detector runs, checked against it by the
``algebra-kernels`` acceptance check.

The kernel gets carry-less products from ordinary wrapping integer
multiplication on bit-spaced operands, as in BearSSL's constant-time GHASH
(``bmul64`` in ``ghash_ctmul64.c``).  Split each operand into four bit
classes, x_r = x & (0x1111...1 << r), holding the bits at positions
congruent to r mod 4.  In the integer product x_i * y_j every nonzero
column sits at a position p = i + j (mod 4), and it counts the pairs of
set bits at positions (q, p - q) with q in class i, at most 16 of them.
A count below 16 fits in the four bits p..p+3, which reach no other
column of that class, so bit p of the product is the count's parity: the
carry-less column.  A count of 16 needs all sixteen q of class i, so
p >= 60 + i, and its carry lands at p + 4 >= 64, past the low word.
Hence class r of the carry-less product's low word is class r of
x_0*y_r ^ x_1*y_(r-1) ^ x_2*y_(r-2) ^ x_3*y_(r-3) (indices mod 4): 16
multiplies and no loop over bits.

The high word comes from the same routine on bit-reversed operands:
reversing a 64-bit word maps the product's bits 63..126 onto bits 63..0
of the reversed operands' low word, so high = rev64(low(rev64 a, rev64 b))
>> 1.  ``rev64`` is a byte-wise bit-reversal table followed by a byte swap.
Reduction uses x^64 = x^4 + x^3 + x + 1.  Multiplying the high word h by
it would push h >> 60 and h >> 61 past bit 63 (h has degree at most 62, so
the shift by 1 pushes nothing out), and those bits reduce by the same rule,
so they are XORed into h first; the folded word is then XORed into the low
word at shifts 0, 1, 3 and 4.

The kernel issues about a hundred numpy calls whatever the array size, and
every constant is an ``np.uint64``, so no mixed-type promotion occurs under
either numpy promotion rule.
"""

from __future__ import annotations

import numpy as np

# x^4 + x^3 + x + 1: the low part of the reduction polynomial for x^64.
REDUCTION = 0x1B
MASK64 = (1 << 64) - 1

# _CLASS[r]: the bits at positions congruent to r mod 4
_CLASS = tuple(np.uint64(0x1111111111111111 << r) for r in range(4))
# _REV8[b]: byte b with its bit order reversed (unpacked low bit first,
# packed high bit first)
_REV8 = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"), axis=1
).ravel()
_S1, _S3, _S4, _S60, _S61 = (np.uint64(s) for s in (1, 3, 4, 60, 61))


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


def _rev64(x: np.ndarray) -> np.ndarray:
    """Each word with its 64 bits in reverse order."""
    out = np.take(_REV8, np.ascontiguousarray(x).view(np.uint8)).view(np.uint64)
    return out.byteswap(inplace=True)


def _clmul_low(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Low 64 bits of the carry-less products x * y (broadcasting)."""
    xs = [x & m for m in _CLASS]
    ys = [y & m for m in _CLASS]
    out = z = tmp = None
    for r in range(4):
        z = np.multiply(xs[0], ys[r], out=z)
        for i in range(1, 4):
            tmp = np.multiply(xs[i], ys[(r - i) % 4], out=tmp)
            z ^= tmp
        z &= _CLASS[r]
        if out is None:
            out, z = z, None
        else:
            out |= z
    return out


def _clmul_reduce_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of uint64 arrays (broadcasting allowed)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    # 0-d operands would turn into numpy scalars, which warn on overflow
    a, b = np.atleast_1d(a, b)
    lo = _clmul_low(a, b)
    hi = _rev64(_clmul_low(_rev64(a), _rev64(b)))
    hi >>= _S1
    hi ^= (hi >> _S60) ^ (hi >> _S61)
    lo ^= hi
    for s in (_S1, _S3, _S4):
        lo ^= hi << s
    return lo.reshape(shape)
