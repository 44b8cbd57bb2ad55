"""GF(2^64) and group-algebra arithmetic for randomized monomial detection.

Field: GF(2)[x] / (x^64 + x^4 + x^3 + x + 1), one element per machine word.
Group algebra: vectors of 2^k field coefficients indexed by k-bit masks;
multiplication is xor-convolution, which kills squares in characteristic 2:
(e + g_v)^2 = 0 for every mask v.

The fast convolution lifts field coefficients bitwise to integers, applies
the 2^k-point +/-1 transform (natural binary index order) with uint64
wraparound, multiplies pointwise as integer polynomials in the field
generator, inverse-transforms, divides exactly by 2^k and reduces mod 2.
Wraparound arithmetic is safe because only the parity of value/2^k is
needed at the end and k < 64, so bits 0..63 of every intermediate carry
all the information required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_BITS = 64
# x^4 + x^3 + x + 1: the low part of the reduction polynomial for x^64.
REDUCTION = 0x1B
MASK64 = (1 << 64) - 1
MAX_DIM_LOG = 24

_SHIFTS64 = np.arange(64, dtype=np.uint64)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def gf_add(a: int, b: int) -> int:
    return a ^ b


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


def _bit_expand(x: np.ndarray) -> np.ndarray:
    """(..., ) uint64 -> (..., 64) bit planes, lowest bit first."""
    return (x[..., None] >> _SHIFTS64) & np.uint64(1)


def _fwht(x: np.ndarray) -> np.ndarray:
    """+/-1 transform over axis -2 with uint64 wraparound; self-inverse up to 2^k."""
    x = np.ascontiguousarray(x)
    out = x.copy()
    g = out.shape[-2]
    h = 1
    while h < g:
        v = out.reshape(out.shape[:-2] + (g // (2 * h), 2, h, out.shape[-1]))
        a = v[..., 0, :, :].copy()
        v[..., 0, :, :] = a + v[..., 1, :, :]
        v[..., 1, :, :] = a - v[..., 1, :, :]
        h *= 2
    return out


def _poly_mul_acc(acc: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> None:
    """acc[..., 0:127] += convolution of bit-plane polynomials ta, tb (mod 2^64)."""
    for s in range(64):
        acc[..., s : s + 64] += ta[..., s : s + 1] * tb


def _parity_to_gf(parity: np.ndarray) -> np.ndarray:
    """Pack (..., 127) 0/1 planes into field elements and reduce to 64 bits."""
    lo = np.bitwise_xor.reduce(parity[..., :64] << _SHIFTS64, axis=-1)
    hi = np.bitwise_xor.reduce(parity[..., 64:] << _SHIFTS64[:63], axis=-1)
    lo ^= hi ^ (hi << np.uint64(1)) ^ (hi << np.uint64(3)) ^ (hi << np.uint64(4))
    hi2 = (hi >> np.uint64(63)) ^ (hi >> np.uint64(61)) ^ (hi >> np.uint64(60))
    return lo ^ hi2 ^ (hi2 << np.uint64(1)) ^ (hi2 << np.uint64(3)) ^ (hi2 << np.uint64(4))


def _xor_convolve(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Group-algebra product of (..., 2^k) coefficient arrays via the lifted transform."""
    ta = _fwht(_bit_expand(a))
    tb = _fwht(_bit_expand(b))
    acc = np.zeros(ta.shape[:-1] + (127,), dtype=np.uint64)
    _poly_mul_acc(acc, ta, tb)
    inv = _fwht(acc)
    return _parity_to_gf((inv >> np.uint64(k)) & np.uint64(1))


@dataclass(frozen=True)
class GroupAlgebraElem:
    """Element of GF(2^64)[Z_2^k]: 2^k field coefficients indexed by masks."""

    dim_log: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (0 <= self.dim_log <= MAX_DIM_LOG):
            raise ValueError(f"dim_log must be in [0, {MAX_DIM_LOG}]")
        c = np.asarray(self.coeffs, dtype=np.uint64)
        if c.shape != (1 << self.dim_log,):
            raise ValueError("coefficient vector has wrong length")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, k: int) -> "GroupAlgebraElem":
        return cls(k, np.zeros(1 << k, dtype=np.uint64))

    @classmethod
    def basis(cls, k: int, mask: int, scalar: int = 1) -> "GroupAlgebraElem":
        c = np.zeros(1 << k, dtype=np.uint64)
        c[mask] = scalar
        return cls(k, c)

    @classmethod
    def identity(cls, k: int) -> "GroupAlgebraElem":
        return cls.basis(k, 0, 1)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        if self.dim_log != other.dim_log:
            raise ValueError("dimension mismatch")
        return GroupAlgebraElem(self.dim_log, self.coeffs ^ other.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElem)
            and self.dim_log == other.dim_log
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.dim_log, self.coeffs.tobytes()))


def ga_mul_naive(a: GroupAlgebraElem, b: GroupAlgebraElem) -> GroupAlgebraElem:
    """Reference xor-convolution: all 4^k pairwise field products, no transform."""
    if a.dim_log != b.dim_log:
        raise ValueError("dimension mismatch")
    g = 1 << a.dim_log
    table = _clmul_reduce_arrays(a.coeffs[:, None], b.coeffs[None, :])
    idx = np.arange(g)
    # out[t] = xor over u of a[u] * b[u ^ t]
    gathered = table[idx[:, None], idx[:, None] ^ idx[None, :]]
    return GroupAlgebraElem(a.dim_log, np.bitwise_xor.reduce(gathered, axis=0))


def ga_mul_fast(a: GroupAlgebraElem, b: GroupAlgebraElem) -> GroupAlgebraElem:
    """Transform-based product; equals ga_mul_naive, O~(2^k) field-word work."""
    if a.dim_log != b.dim_log:
        raise ValueError("dimension mismatch")
    if a.dim_log >= FIELD_BITS:
        raise ValueError("dim_log too large for exact word arithmetic")
    return GroupAlgebraElem(a.dim_log, _xor_convolve(a.coeffs, b.coeffs, a.dim_log))


@dataclass(frozen=True)
class AlgebraValue:
    """z-degree-truncated vector of group-algebra elements; parts[d] is the z^d slice."""

    zcap: int
    parts: tuple[GroupAlgebraElem, ...]

    def __post_init__(self):
        if len(self.parts) != self.zcap + 1:
            raise ValueError("need zcap+1 parts")
        ks = {p.dim_log for p in self.parts}
        if len(ks) > 1:
            raise ValueError("mixed group dimensions")

    @property
    def dim_log(self) -> int:
        return self.parts[0].dim_log

    @classmethod
    def zero(cls, zcap: int, k: int) -> "AlgebraValue":
        return cls(zcap, tuple(GroupAlgebraElem.zero(k) for _ in range(zcap + 1)))

    def __add__(self, other: "AlgebraValue") -> "AlgebraValue":
        if self.zcap != other.zcap:
            raise ValueError("zcap mismatch")
        return AlgebraValue(self.zcap, tuple(p + q for p, q in zip(self.parts, other.parts)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraValue)
            and self.zcap == other.zcap
            and self.parts == other.parts
        )


def zval_mul(a: AlgebraValue, b: AlgebraValue) -> AlgebraValue:
    """Degree-additive convolution of the z-parts, truncated at zcap."""
    if a.zcap != b.zcap:
        raise ValueError("zcap mismatch")
    if a.dim_log != b.dim_log:
        raise ValueError("dimension mismatch")
    k = a.dim_log
    out = [GroupAlgebraElem.zero(k) for _ in range(a.zcap + 1)]
    for i, pa in enumerate(a.parts):
        if pa.is_zero():
            continue
        for j, pb in enumerate(b.parts):
            if i + j > a.zcap:
                break
            if pb.is_zero():
                continue
            out[i + j] = out[i + j] + ga_mul_fast(pa, pb)
    return AlgebraValue(a.zcap, tuple(out))

