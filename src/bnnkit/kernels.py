"""Binary convolution arithmetic: bit-matrix multiplication, packed im2col,
and direct convolution with a deferred byte-sum reduction.

All binary dot products are computed as "match counts": the number of bit
positions on which two packed vectors agree (popcount of their xnor).
``match_to_dot`` turns a match count into the signed ±1 dot product,
correcting for channel pad bits, which are 0 in both operands and therefore
always counted as matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import FloatTensor, Layout, PackedTensor, group_count

__all__ = [
    "BinMatrix",
    "ConvParams",
    "MAX_GROUPS_PER_DOT",
    "bgemm",
    "bgemm_no_addv",
    "im2col_packed",
    "match_to_dot",
    "binary_direct_conv",
    "binary_direct_conv_counts",
]

# A 16-bit accumulator lane grows by at most 8 per step, so this many packed
# groups per dot product is the widening-accumulation capacity: 8 * 8191 < 2**16.
MAX_GROUPS_PER_DOT = (2**16 - 1) // 8

# Filters processed together in the direct convolution; the k walk restarts
# per block so the working set stays small.
OUTPUT_CHANNEL_BLOCK = 32


@dataclass(frozen=True, eq=False)
class BinMatrix:
    """Matrix whose elements are packed bit vectors of ``vec_bits`` bits.

    ``data`` has shape (rows, cols, vec_bits // 8), dtype uint8, row-major,
    little-endian bit order inside each vector.
    """

    rows: int
    cols: int
    vec_bits: int
    data: np.ndarray

    def __post_init__(self) -> None:
        rows, cols, vec_bits = int(self.rows), int(self.cols), int(self.vec_bits)
        if rows < 0 or cols < 0:
            raise ValueError("rows and cols must be non-negative")
        if vec_bits < 8 or vec_bits % 8:
            raise ValueError("vec_bits must be a positive multiple of 8")
        data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if data.shape != (rows, cols, vec_bits // 8):
            raise ValueError("data shape does not match extents")
        data.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vec_bits", vec_bits)
        object.__setattr__(self, "data", data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols, self.vec_bits)
            == (other.rows, other.cols, other.vec_bits)
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass(frozen=True)
class ConvParams:
    """Geometry of a convolution over the packed layout."""

    kernel: tuple[int, int]
    channels: int
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        object.__setattr__(self, "stride", tuple(int(s) for s in self.stride))
        object.__setattr__(self, "padding", tuple(int(p) for p in self.padding))
        object.__setattr__(self, "channels", int(self.channels))
        if len(self.kernel) != 2 or min(self.kernel) < 1:
            raise ValueError("kernel extents must be >= 1")
        if len(self.stride) != 2 or min(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        if len(self.padding) != 2 or min(self.padding) < 0:
            raise ValueError("padding must be >= 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")

    def out_extent(self, h: int, w: int) -> tuple[int, int]:
        """Output spatial extents for an (h, w) input."""
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        return (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1


def _check_pair(a: BinMatrix, b: BinMatrix) -> None:
    if a.cols != b.rows or a.vec_bits != b.vec_bits:
        raise ValueError("dimension mismatch")


def bgemm(a: BinMatrix, b: BinMatrix) -> np.ndarray:
    """Binary matrix multiply over packed vectors.

    Entry (i, j) counts the bit positions where row i of ``a`` agrees with
    column j of ``b``.  The k loop is outermost: each step is a rank-1
    update from column k of ``a`` and row k of ``b``, and every update
    reduces its xnor/cnt bytes to a scalar immediately, because the
    accumulator holds plain 32-bit integers.  Returns (M, N) int32.
    """
    _check_pair(a, b)
    out = np.zeros((a.rows, b.cols), dtype=np.int32)
    for k in range(a.cols):
        agree = np.bitwise_not(np.bitwise_xor(a.data[:, k, None, :], b.data[None, k, :, :]))
        out += np.bitwise_count(agree).sum(axis=2, dtype=np.int32)
    return out


def bgemm_no_addv(a: BinMatrix, b: BinMatrix) -> np.ndarray:
    """Timing-only variant of ``bgemm`` with the byte-sum reduction removed.

    Keeps the xnor, the per-byte counting and the 32-bit accumulation, but
    folds in only the first count byte of each update instead of reducing
    the whole vector.  The numbers are meaningless for inference; this
    exists solely to expose the reduction's share of the multiply cost.
    """
    _check_pair(a, b)
    out = np.zeros((a.rows, b.cols), dtype=np.int32)
    for k in range(a.cols):
        agree = np.bitwise_not(np.bitwise_xor(a.data[:, k, None, :], b.data[None, k, :, :]))
        out += np.bitwise_count(agree)[:, :, 0]
    return out


def _conv_geometry(input: PackedTensor, p: ConvParams) -> tuple[int, int]:
    if p.channels != input.dims[1]:
        raise ValueError(
            f"channel mismatch: tensor has {input.dims[1]}, params say {p.channels}"
        )
    outh, outw = p.out_extent(input.dims[2], input.dims[3])
    if outh < 1 or outw < 1:
        raise ValueError("kernel larger than padded input")
    return outh, outw


def _image_taps(
    img: np.ndarray, p: ConvParams, outh: int, outw: int
) -> list[np.ndarray]:
    """Per kernel tap (row-major), the (c1, outh*outw, nbytes) input slab.

    Spatial padding is all-zero groups, i.e. logical +1 values.
    """
    kh, kw = p.kernel
    sh, sw = p.stride
    ph, pw = p.padding
    c1, _, _, nbytes = img.shape
    padded = np.pad(img, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    taps = []
    for ky in range(kh):
        for kx in range(kw):
            tap = padded[:, ky : ky + sh * outh : sh, kx : kx + sw * outw : sw, :]
            taps.append(np.ascontiguousarray(tap).reshape(c1, outh * outw, nbytes))
    return taps


def im2col_packed(input: PackedTensor, p: ConvParams) -> BinMatrix:
    """Unfold a single-image packed tensor into convolution columns.

    Row order is kernel-row major, then kernel column, then channel group;
    column j is output position j in row-major (out_h, out_w) order.  Taps
    that fall outside the image contribute all-zero vectors (logical +1
    padding).
    """
    if input.dims[0] != 1:
        raise ValueError("im2col expects a single-image tensor")
    outh, outw = _conv_geometry(input, p)
    c1 = input.c1
    taps = _image_taps(input.data[0], p, outh, outw)
    kh, kw = p.kernel
    cols = np.empty((kh * kw * c1, outh * outw, input.c2 // 8), dtype=np.uint8)
    for t, tap in enumerate(taps):
        cols[t * c1 : (t + 1) * c1] = tap
    return BinMatrix(kh * kw * c1, outh * outw, input.c2, cols)


def match_to_dot(match, p: ConvParams, c2: int):
    """Convert xnor match counts into signed ±1 dot products.

    Each dot product spans kh*kw vectors of c1*c2 bits, of which only c per
    vector are real channels.  Pad bits are 0 in both operands, so each of
    the kh*kw*(c1*c2 - c) pad positions inflates the raw count by exactly
    one match; after subtracting them, dot = matches - mismatches over the
    kh*kw*c valid positions.  Works on scalars and arrays alike.
    """
    kh, kw = p.kernel
    c1 = group_count(p.channels, c2)
    pad_positions = kh * kw * (c1 * c2 - p.channels)
    valid = kh * kw * p.channels
    return 2 * (match - pad_positions) - valid


def binary_direct_conv_counts(
    input: PackedTensor, weights: BinMatrix, p: ConvParams
) -> np.ndarray:
    """Raw per-position match counts of a direct convolution.

    Returns (n, M, out_h * out_w) int32.  Each dot product accumulates the
    per-byte cnt results of all K = kh*kw*c1 taps in widening 16-bit lanes
    and reduces the lane vector to a scalar once at the end, instead of
    after every tap; K beyond the lane capacity raises ``OverflowError``.
    Output filters are processed in blocks with the K walk innermost.
    """
    outh, outw = _conv_geometry(input, p)
    if weights.vec_bits != input.c2:
        raise ValueError("group width mismatch between weights and input")
    c1 = input.c1
    kh, kw = p.kernel
    k_total = kh * kw * c1
    if weights.cols != k_total:
        raise ValueError(
            f"weight matrix has {weights.cols} vectors per filter, expected {k_total}"
        )
    if k_total > MAX_GROUPS_PER_DOT:
        raise OverflowError("reduction overflow")
    npos = outh * outw
    m = weights.rows
    wdata = weights.data
    out = np.empty((input.dims[0], m, npos), dtype=np.int32)
    for img in range(input.dims[0]):
        taps = _image_taps(input.data[img], p, outh, outw)
        for m0 in range(0, m, OUTPUT_CHANNEL_BLOCK):
            m1 = min(m0 + OUTPUT_CHANNEL_BLOCK, m)
            acc = np.zeros((m1 - m0, npos, input.c2 // 8), dtype=np.uint16)
            k = 0
            for tap in taps:
                for g in range(c1):
                    agree = np.bitwise_not(
                        np.bitwise_xor(wdata[m0:m1, k][:, None, :], tap[g][None, :, :])
                    )
                    acc += np.bitwise_count(agree)
                    k += 1
            out[img, m0:m1] = acc.sum(axis=2, dtype=np.int32)
    return out


def binary_direct_conv(
    input: PackedTensor, weights: BinMatrix, p: ConvParams
) -> FloatTensor:
    """Direct binary convolution; output holds signed dot products, NHWC, c = M."""
    counts = binary_direct_conv_counts(input, weights, p)
    dots = match_to_dot(counts, p, input.c2)
    outh, outw = p.out_extent(input.dims[2], input.dims[3])
    nhwc = dots.transpose(0, 2, 1).reshape(input.dims[0], outh, outw, weights.rows)
    return FloatTensor.from_array(nhwc.astype(np.float32), Layout.NHWC)
