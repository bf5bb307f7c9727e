"""Raw tensor files: a 16-byte header of four little-endian u32 extents
(n, c, h, w) followed by the float32 NHWC payload."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .layout import FloatTensor

__all__ = ["TensorFileError", "read_tensor", "write_tensor"]

_HEADER = struct.Struct("<4I")


class TensorFileError(ValueError):
    """Raised when a raw tensor file does not match its declared extents."""


def write_tensor(path, t: FloatTensor) -> None:
    data = t.data.astype("<f4", copy=False)
    Path(path).write_bytes(_HEADER.pack(*t.dims) + data.tobytes())


def read_tensor(path) -> FloatTensor:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TensorFileError("truncated tensor file")
    n, c, h, w = _HEADER.unpack_from(raw)
    expected = _HEADER.size + n * c * h * w * 4
    if len(raw) < expected:
        raise TensorFileError("truncated tensor file")
    if len(raw) > expected:
        raise TensorFileError("trailing bytes in tensor file")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return FloatTensor((n, c, h, w), data)
