"""Binary convolution arithmetic: the word-plane direct convolution, and
bit-matrix multiplication and packed im2col as benchmark baselines.

The direct convolution, which inference runs, xors 64-bit (or narrower)
words of all filters against one contiguous plane of input words per step
and adds the popcounts into 16-bit mismatch accumulators, one per output,
so a dot product may span at most 8 * ``MAX_GROUPS_PER_DOT`` = 65528 bits.
Words that hold only channel pad bits are skipped, and pad bits are 0 in
both operands, so pads never reach a count: over the kh*kw*c real bits,
dot = kh*kw*c - 2 * mismatches.

``bgemm`` (with its timing variant ``bgemm_no_addv``) over ``im2col_packed``
columns is the baseline: it counts matches, the popcount of the xnor of
whole groups, pad bits included, and ``match_to_dot`` removes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import FloatTensor, Layout, PackedTensor, check_group_bits, group_count

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

# Bytes (8-bit groups) one dot product may span: its mismatch count is held
# in a 16-bit accumulator, and 8 * 8191 = 65528 bits < 2**16.
MAX_GROUPS_PER_DOT = (2**16 - 1) // 8


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
        check_group_bits(vec_bits)
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
        # as in ONNX: a padding as large as the kernel gives windows over padding only
        if any(pad >= k for pad, k in zip(self.padding, self.kernel)):
            raise ValueError(
                f"padding {self.padding} must be smaller than kernel {self.kernel}"
            )

    def out_extent(self, h: int, w: int) -> tuple[int, int]:
        """Output spatial extents for an (h, w) input; both must be >= 1."""
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        if ph > h or pw > w:  # with the padding below the kernel: output <= 2 * input
            raise ValueError(f"padding {self.padding} exceeds input extents {(h, w)}")
        outh, outw = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        if outh < 1 or outw < 1:
            raise ValueError("kernel larger than padded input")
        return outh, outw


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
    return p.out_extent(input.dims[2], input.dims[3])


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
    (kh, kw), (sh, sw), (ph, pw) = p.kernel, p.stride, p.padding
    c1, nbytes = input.c1, input.c2 // 8
    padded = np.pad(input.data[0], ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = np.empty((kh * kw, c1, outh, outw, nbytes), dtype=np.uint8)
    for ky in range(kh):
        for kx in range(kw):
            cols[ky * kw + kx] = padded[:, ky : ky + sh * outh : sh, kx : kx + sw * outw : sw]
    cols = cols.reshape(kh * kw * c1, outh * outw, nbytes)
    return BinMatrix(kh * kw * c1, outh * outw, input.c2, cols)


def match_to_dot(match, p: ConvParams, c2: int):
    """Convert ``bgemm`` match counts into signed ±1 dot products.

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


def binary_direct_conv(
    input: PackedTensor, weights: BinMatrix, p: ConvParams
) -> FloatTensor:
    """Direct binary convolution; output holds signed dot products, NHWC, c = M.

    Each c2-bit group is read as words of the widest unsigned type dividing
    it.  The image is gathered once into word planes, one contiguous row of
    out_h * out_w words per (kernel tap, channel group, word) that holds a
    real channel; each step xors one weight word of all M filters against
    one plane and adds the popcounts into a (M, out_h * out_w) uint16
    mismatch accumulator, read once, transposed, into the output as
    kh*kw*c - 2 * mismatches.  A dot product may span at most
    ``MAX_GROUPS_PER_DOT`` bytes, else ``OverflowError``.  Skipped words
    hold only pad bits, which are 0 in both operands (``PackedWeight``
    checks weights, ``pack_to_nc1hwc2`` writes zeros), so never mismatch.
    """
    outh, outw = _conv_geometry(input, p)
    if weights.vec_bits != input.c2:
        raise ValueError("group width mismatch between weights and input")
    c1, c2 = input.c1, input.c2
    (kh, kw), (sh, sw), (ph, pw) = p.kernel, p.stride, p.padding
    if weights.cols != kh * kw * c1:
        raise ValueError(
            f"weight matrix has {weights.cols} vectors per filter, expected {kh * kw * c1}"
        )
    if kh * kw * c1 * c2 // 8 > MAX_GROUPS_PER_DOT:
        raise OverflowError("reduction overflow")
    word = np.dtype(f"u{math.gcd(c2 // 8, 8)}")  # widest unsigned word dividing a group
    word_bits = 8 * word.itemsize
    slots = c1 * c2 // word_bits  # (group, word) slots per tap
    live = group_count(p.channels, word_bits)  # the leading slots, with a real channel
    n, _, h, w = input.dims
    m, npos = weights.rows, outh * outw
    wcols = weights.data.view(word).reshape(m, kh * kw, slots)[:, :, :live].reshape(m, -1).T
    mismatch = np.empty((m, npos), dtype=word)
    bits = np.empty((m, npos), dtype=np.uint8)
    out = np.empty((n, npos, m), dtype=np.float32)
    for img in range(n):
        image = np.zeros((live, h + 2 * ph, w + 2 * pw), dtype=word)
        words = input.data[img].view(word).transpose(0, 3, 1, 2)
        image[:, ph : ph + h, pw : pw + w] = words.reshape(-1, h, w)[:live]
        planes = np.empty((kh, kw, live, outh, outw), dtype=word)
        for ky in range(kh):
            for kx in range(kw):
                planes[ky, kx] = image[:, ky : ky + sh * outh : sh, kx : kx + sw * outw : sw]
        acc = np.zeros((m, npos), dtype=np.uint16)
        for plane, wcol in zip(planes.reshape(-1, npos), wcols):
            np.bitwise_xor(wcol[:, None], plane, out=mismatch)
            np.bitwise_count(mismatch, out=bits)
            acc += bits
        np.multiply(acc.T, np.float32(-2), out=out[img])
        out[img] += np.float32(kh * kw * p.channels)  # a dot of 0 is +0.0
    return FloatTensor.from_array(out.reshape(n, outh, outw, m), Layout.NHWC)


def binary_direct_conv_counts(
    input: PackedTensor, weights: BinMatrix, p: ConvParams
) -> np.ndarray:
    """Per-position match counts of the direct convolution, pad bits counted
    as matches (as ``bgemm`` counts them): (n, M, out_h * out_w) int32.

    The inverse of dot = 2 * (matches - kh*kw*(c1*c2 - c)) - kh*kw*c.
    """
    dots = binary_direct_conv(input, weights, p).array4d()
    n, outh, outw, m = dots.shape
    offset = math.prod(p.kernel) * (2 * input.c1 * input.c2 - p.channels)
    matches = (dots.reshape(n, outh * outw, m).astype(np.int32) + offset) // 2
    return np.ascontiguousarray(matches.transpose(0, 2, 1))
