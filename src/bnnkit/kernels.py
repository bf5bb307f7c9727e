"""Binary convolution arithmetic: the word-plane direct convolution and the
packed-weight container it reads.

The direct convolution, which inference runs, xors 64-bit (or narrower)
words of all filters against one contiguous plane of input words per step
and sums the popcounts into 16-bit mismatch accumulators, one per output,
so a dot product may span at most 8 * ``MAX_GROUPS_PER_DOT`` = 65528 bits.
Words that hold only channel pad bits are skipped, and pad bits are 0 in
both operands, so pads never reach a count: over the kh*kw*c real bits,
dot = kh*kw*c - 2 * mismatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import FloatTensor, PackedTensor, check_group_bits, group_count

__all__ = [
    "BinMatrix",
    "ConvParams",
    "MAX_GROUPS_PER_DOT",
    "binary_direct_conv",
]

# Bytes (8-bit groups) one dot product may span: its mismatch count is held
# in a 16-bit accumulator, and 8 * 8191 = 65528 bits < 2**16.
MAX_GROUPS_PER_DOT = (2**16 - 1) // 8

# numpy's largest ufunc buffer, in elements
_MAX_BUFSIZE = 10_000_000


def _row_bufsize(inner: int) -> int:
    """A ufunc buffer size, in elements, under which no step of a conv loop
    whose rows hold at least ``inner`` elements is buffered.

    numpy copies the operands of a broadcast call such as ``col[:, None] ^ row``
    through its ufunc buffer (8192 elements by default) whenever the inner
    axis holds fewer than about a third of the buffer, which costs 2-4x per
    element.  Twice the row, rounded up to numpy's multiple of 16, is short
    enough to skip that copy (for rows of 6 or more) and still gives an op
    that must buffer, such as a casting add, chunks of two rows.  The loops
    are elementwise, so the buffer size changes no value.  It can change the
    bits of a float NaN where two NaNs of different bits meet: numpy keeps
    the first operand's bits in its SIMD blocks and the second's in its
    remainder loop, and the buffer's chunks move where that split falls.
    """
    return min(-(-2 * inner // 16) * 16, _MAX_BUFSIZE)


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


def _conv_geometry(input: PackedTensor, p: ConvParams) -> tuple[int, int]:
    if p.channels != input.dims[1]:
        raise ValueError(
            f"channel mismatch: tensor has {input.dims[1]}, params say {p.channels}"
        )
    return p.out_extent(input.dims[2], input.dims[3])


def binary_direct_conv(
    input: PackedTensor, weights: BinMatrix, p: ConvParams
) -> FloatTensor:
    """Direct binary convolution; output holds signed dot products, NHWC, c = M.

    Each c2-bit group is read as words of the widest unsigned type dividing
    it.  The image is gathered once into word planes, one contiguous row of
    out_h * out_w words per (kernel tap, channel group, word) that holds a
    real channel; each step xors one weight word of all M filters against
    one plane and popcounts the result.  Up to 255 // word bits steps sum
    their counts in a uint8 partial, which one widening add then puts into
    a uint16 mismatch accumulator, read once into the output as
    kh*kw*c - 2 * mismatches.  The accumulator puts the longer of filters
    and positions on its inner axis, (positions, M) when M > out_h * out_w,
    else (M, positions), and the loop runs under a ufunc buffer sized from
    that axis, so no xor or popcount is buffered.  A dot product may span
    at most ``MAX_GROUPS_PER_DOT`` bytes, else ``OverflowError``.  Skipped
    words hold only pad bits, which are 0 in both operands (``PackedWeight``
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
    wcols = weights.data.view(word).reshape(m, kh * kw, slots)[:, :, :live].reshape(m, -1)
    wcols = np.ascontiguousarray(wcols.T)  # one row of M words per step
    wide = m > npos  # filters on the accumulator's inner axis
    if wide:
        shape, plane_shape = (npos, m), (-1, npos, 1)
    else:
        shape, plane_shape, wcols = (m, npos), (-1, npos), wcols[:, :, None]
    mismatch = np.empty(shape, dtype=word)
    bits, partial = np.empty(shape, dtype=np.uint8), np.empty(shape, dtype=np.uint8)
    batch = 255 // word_bits  # popcounts a uint8 partial sum holds
    out = np.empty((n, npos, m), dtype=np.float32)
    with np.errstate():
        np.setbufsize(_row_bufsize(max(m, npos)))
        for img in range(n):
            image = np.zeros((live, h + 2 * ph, w + 2 * pw), dtype=word)
            words = input.data[img].view(word).transpose(0, 3, 1, 2)
            image[:, ph : ph + h, pw : pw + w] = words.reshape(-1, h, w)[:live]
            planes = np.empty((kh, kw, live, outh, outw), dtype=word)
            for ky in range(kh):
                for kx in range(kw):
                    planes[ky, kx] = image[:, ky : ky + sh * outh : sh, kx : kx + sw * outw : sw]
            planes = planes.reshape(plane_shape)
            acc = np.zeros(shape, dtype=np.uint16)
            for s in range(0, len(wcols), batch):
                np.bitwise_xor(wcols[s], planes[s], out=mismatch)
                np.bitwise_count(mismatch, out=partial)
                for plane, wcol in zip(planes[s + 1 : s + batch], wcols[s + 1 : s + batch]):
                    np.bitwise_xor(wcol, plane, out=mismatch)
                    np.add(partial, np.bitwise_count(mismatch, out=bits), out=partial)
                acc += partial  # the one widening add per batch
            np.multiply(acc if wide else acc.T, np.float32(-2), out=out[img])
            out[img] += np.float32(kh * kw * p.channels)  # a dot of 0 is +0.0
    return FloatTensor.from_array(out.reshape(n, outh, outw, m))
