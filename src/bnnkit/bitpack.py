"""Sequential sign-bit packing: the baseline of the ``packing`` benchmark.

``pack_naive`` handles one element per step.  Its output is the byte stream
the runtime packer ``layout.pack_to_nc1hwc2`` produces when one channel
group spans all channels (c2 == c), so the benchmark times the two against
each other after checking that their bytes agree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_naive"]


def pack_naive(values) -> np.ndarray:
    """Pack one element per step; bit i of the result is the sign bit of values[i].

    Returns ceil(n / 8) uint8 bytes with bit i in byte i // 8 at position
    i % 8; unused trailing bits of the last byte are 0.  Deliberately
    sequential: each step takes one float32 bit pattern, extracts its sign
    and inserts it at the target position.
    """
    raw = np.ascontiguousarray(values, dtype=np.float32).reshape(-1).view(np.uint32)
    out = [0] * ((raw.size + 7) // 8)
    for i, pattern in enumerate(raw.tolist()):
        out[i >> 3] |= (pattern >> 31) << (i & 7)
    return np.array(out, dtype=np.uint8)
