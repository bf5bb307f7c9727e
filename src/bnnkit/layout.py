"""Dense float tensors and the channel-grouped bit-packed layout.

``FloatTensor`` carries (n, c, h, w) logical extents plus a storage-order
tag (NCHW or NHWC) over flat float32 data.  ``PackedTensor`` is the
binarized form: the channel axis is split into c1 = ceil(c / c2) groups of
c2 bits each, stored in (n, c1, h, w, c2-bit group) order, so one
contiguous group holds all channels of a group at a fixed spatial position
and a spatial window walk touches whole groups.  Channel slots past c in
the last group are pad bits and are always 0 (logical +1).

Activations and filter banks are both packed by ``pack_to_nc1hwc2``;
``check_pad_bits`` guards packed data that arrives from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Layout",
    "FloatTensor",
    "PackedTensor",
    "check_group_bits",
    "check_pad_bits",
    "group_count",
    "pack_to_nc1hwc2",
    "signed_ones",
]


class Layout(str, Enum):
    NCHW = "NCHW"
    NHWC = "NHWC"


def check_group_bits(c2: int) -> int:
    """Validate a channel-group width: a positive multiple of 8 bits."""
    c2 = int(c2)
    if c2 < 8 or c2 % 8:
        raise ValueError("invalid group width")
    return c2


def group_count(c: int, c2: int) -> int:
    """Number of c2-bit channel groups covering c channels."""
    return -(-int(c) // int(c2))


def check_pad_bits(groups: np.ndarray, c: int) -> None:
    """Reject packed groups whose channel pad bits are not all 0.

    ``groups`` has shape (..., c1, c2 // 8): the channel group on the
    second-to-last axis, its bytes on the last.  Slots past channel c in the
    last group are pad bits, which the match-count correction assumes are 0.
    """
    c1, nbytes = groups.shape[-2:]
    used = int(c) - (c1 - 1) * nbytes * 8
    if groups.size == 0 or used == nbytes * 8:
        return
    pad_mask = np.packbits(np.arange(nbytes * 8) >= used, bitorder="little")
    if np.any(groups[..., -1, :] & pad_mask):
        raise ValueError("channel pad bits must be 0")


@dataclass(frozen=True, eq=False)
class FloatTensor:
    """Storage-order-tagged 4-D float32 tensor over flat read-only data."""

    dims: tuple[int, int, int, int]
    layout: Layout
    data: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 4 or any(d < 0 for d in dims):
            raise ValueError(f"bad dims {self.dims!r}")
        layout = Layout(self.layout)
        data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        n, c, h, w = dims
        if data.size != n * c * h * w:
            raise ValueError("data length does not match dims")
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "data", data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.layout is other.layout
            and self.data.tobytes() == other.data.tobytes()
        )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Extents in storage-axis order."""
        n, c, h, w = self.dims
        return (n, c, h, w) if self.layout is Layout.NCHW else (n, h, w, c)

    @classmethod
    def from_array(cls, array, layout: Layout = Layout.NHWC) -> "FloatTensor":
        """Wrap a 4-D array whose axes follow the given storage order."""
        arr = np.asarray(array, dtype=np.float32)
        if arr.ndim != 4:
            raise ValueError("expected a 4-D array")
        layout = Layout(layout)
        if layout is Layout.NCHW:
            n, c, h, w = arr.shape
        else:
            n, h, w, c = arr.shape
        return cls((n, c, h, w), layout, arr.reshape(-1))

    def array4d(self) -> np.ndarray:
        """Read-only view shaped in storage order."""
        return self.data.reshape(self.shape)

    def nhwc_array(self) -> np.ndarray:
        """Values as an (n, h, w, c) array; a transposed view for NCHW storage."""
        a = self.array4d()
        return a if self.layout is Layout.NHWC else np.transpose(a, (0, 2, 3, 1))


@dataclass(frozen=True, eq=False)
class PackedTensor:
    """Bit-packed binary tensor in channel-grouped order.

    ``data`` has shape (n, c1, h, w, c2 // 8) with dtype uint8.  Bit j of a
    group (little-endian within each byte) is channel group_index * c2 + j.
    """

    dims: tuple[int, int, int, int]
    c2: int
    data: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 4 or any(d < 0 for d in dims):
            raise ValueError(f"bad dims {self.dims!r}")
        c2 = check_group_bits(self.c2)
        n, c, h, w = dims
        data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if data.shape != (n, group_count(c, c2), h, w, c2 // 8):
            raise ValueError("data shape does not match dims")
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "data", data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.c2 == other.c2
            and self.data.tobytes() == other.data.tobytes()
        )

    @property
    def c1(self) -> int:
        return group_count(self.dims[1], self.c2)


def pack_to_nc1hwc2(t: FloatTensor, c2: int = 128) -> PackedTensor:
    """Binarize to sign bits and pack into the channel-grouped layout."""
    c2 = check_group_bits(c2)
    n, c, h, w = t.dims
    c1 = group_count(c, c2)
    if 0 in (n, c, h, w):
        return PackedTensor(t.dims, c2, np.zeros((n, c1, h, w, c2 // 8), np.uint8))
    nhwc = np.ascontiguousarray(t.nhwc_array())
    sign = (nhwc.view(np.uint32) >> np.uint32(31)).astype(np.uint8)
    if c1 * c2 != c:
        pad = np.zeros((n, h, w, c1 * c2 - c), np.uint8)
        sign = np.concatenate([sign, pad], axis=-1)
    grouped = sign.reshape(n, h, w, c1, c2).transpose(0, 3, 1, 2, 4)
    return PackedTensor(t.dims, c2, np.packbits(grouped, axis=-1, bitorder="little"))


def signed_ones(words: np.ndarray) -> np.ndarray:
    """±1 float32: bit 31 of each uint32 word, the bit the packer packs, ORed into 1.0."""
    return ((words & np.uint32(0x80000000)) | np.uint32(0x3F800000)).view(np.float32)
