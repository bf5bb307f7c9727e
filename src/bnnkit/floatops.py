"""Full-precision operators for the non-binary layers of a network, plus the
float reference convolution that validates the packed kernels.

Operators accept tensors in either storage order and always return NHWC.
Reductions accumulate in a fixed element order (documented per function),
one float32 addition per contribution, so results are bit-reproducible and
can be compared exactly against naive scalar loops with the same nesting.
"""

from __future__ import annotations

import numpy as np

from .kernels import ConvParams
from .layout import FloatTensor, Layout, signed_ones

__all__ = [
    "conv2d_f32",
    "oracle_binary_conv",
    "sign_op",
    "batchnorm",
    "bn_scale",
    "relu",
    "add",
    "maxpool",
    "avgpool",
    "global_avgpool",
    "fully_connected",
    "flatten",
]


def _nhwc(t: FloatTensor) -> np.ndarray:
    return np.ascontiguousarray(t.nhwc_array())


def _oihw(weights: FloatTensor) -> np.ndarray:
    """Weight values as an (out, in, kh, kw) array regardless of storage order."""
    a = weights.array4d()
    return np.ascontiguousarray(
        a if weights.layout is Layout.NCHW else np.transpose(a, (0, 3, 1, 2))
    )


# Output positions per conv accumulator tile: numpy's broadcast multiply is
# about 4x slower per element on shorter rows, and at 64 filters the tile and
# its product buffer (1 MB each) stay in a 4 MB L2.
_TILE_POSITIONS = 4096


def _ordered_conv(
    x: np.ndarray,
    w: np.ndarray,
    bias,
    p: ConvParams,
    pad_value: float,
) -> np.ndarray:
    """Cross-correlation with a fixed accumulation order.

    Per output element the additions run kernel-row fastest, then kernel
    column, then input channel, starting from 0 + bias.  One float32 add
    per contribution keeps the result bit-identical to a scalar reference
    loop with the same nesting.

    Whole output rows are taken about ``_TILE_POSITIONS`` positions at a
    time into a (filters, positions) accumulator; each tap gathers its input
    plane into a contiguous buffer, multiplies it by the tap's weight column
    and adds the products into the tile.
    """
    n, h, wd, c = x.shape
    m, wc, kh, kw = w.shape
    if wc != c:
        raise ValueError(f"weights expect {wc} input channels, tensor has {c}")
    sh, sw = p.stride
    ph, pw = p.padding
    outh, outw = p.out_extent(h, wd)
    padded = np.full((n, c, h + 2 * ph, wd + 2 * pw), pad_value, dtype=np.float32)
    padded[:, :, ph : ph + h, pw : pw + wd] = np.transpose(x, (0, 3, 1, 2))
    init = np.zeros(m, dtype=np.float32)
    if bias is not None:
        init += np.asarray(bias, dtype=np.float32)
    out = np.empty((n, outh, outw, m), dtype=np.float32)
    rows = max(1, min(outh, _TILE_POSITIONS // outw))
    acc_buf = np.empty((m, rows * outw), dtype=np.float32)
    prod_buf = np.empty_like(acc_buf)
    plane_buf = np.empty(rows * outw, dtype=np.float32)
    for img in range(n):
        for y0 in range(0, outh, rows):
            r = min(rows, outh - y0)
            acc, prod = acc_buf[:, : r * outw], prod_buf[:, : r * outw]
            plane = plane_buf[: r * outw]
            acc[...] = init[:, None]
            for ci in range(c):
                for kx in range(kw):
                    for ky in range(kh):
                        y = ky + sh * y0
                        np.copyto(
                            plane.reshape(r, outw),
                            padded[img, ci, y : y + sh * r : sh, kx : kx + sw * outw : sw],
                        )
                        np.multiply(plane, w[:, ci, ky, kx, None], out=prod)
                        np.add(acc, prod, out=acc)
            out[img, y0 : y0 + r] = acc.T.reshape(r, outw, m)
    return out


def _conv_params(p: ConvParams | None, kh: int, kw: int, c: int) -> ConvParams:
    if p is None:
        return ConvParams(kernel=(kh, kw), channels=c)
    if p.kernel != (kh, kw):
        raise ValueError("params kernel does not match weight extents")
    if p.channels != c:
        raise ValueError("params channels does not match weight extents")
    return p


def conv2d_f32(
    input: FloatTensor,
    weights: FloatTensor,
    bias=None,
    p: ConvParams | None = None,
) -> FloatTensor:
    """Full-precision convolution; spatial padding contributes 0.0.

    ``weights`` holds (out_channels, in_channels, kh, kw) extents.
    """
    x = _nhwc(input)
    w = _oihw(weights)
    p = _conv_params(p, w.shape[2], w.shape[3], w.shape[1])
    out = _ordered_conv(x, w, bias, p, 0.0)
    return FloatTensor.from_array(out, Layout.NHWC)


def oracle_binary_conv(
    input: FloatTensor,
    weights: FloatTensor,
    p: ConvParams | None = None,
) -> FloatTensor:
    """Float reference for the packed kernels.

    Binarizes both operands to ±1 by the sign-bit rule, then convolves in
    float32 with spatial padding contributing +1.0, mirroring the packed
    path where pad bits read as +1.
    """
    x = signed_ones(_nhwc(input).view(np.uint32))
    w = signed_ones(_oihw(weights).view(np.uint32))
    p = _conv_params(p, w.shape[2], w.shape[3], w.shape[1])
    out = _ordered_conv(x, w, None, p, 1.0)
    return FloatTensor.from_array(out, Layout.NHWC)


def sign_op(input: FloatTensor) -> FloatTensor:
    """Elementwise binarization to ±1 by the raw sign bit (-0.0 -> -1)."""
    return FloatTensor.from_array(signed_ones(_nhwc(input).view(np.uint32)), Layout.NHWC)


def bn_scale(var, eps: float) -> np.ndarray:
    """Per-channel denominator sqrt(var + eps), in float32."""
    v = np.asarray(var, dtype=np.float32)
    if np.any(v < 0):
        raise ValueError("negative variance")
    return np.sqrt(v + np.float32(eps))


def batchnorm(
    input: FloatTensor, gamma, beta, mean, var, eps: float = 1e-5
) -> FloatTensor:
    """Per-channel affine normalization: ((x - mean) / sqrt(var + eps)) * gamma + beta."""
    x = _nhwc(input)
    c = input.dims[1]
    g, b, mu = (np.asarray(v, dtype=np.float32) for v in (gamma, beta, mean))
    s = bn_scale(var, eps)
    for name, vec in (("gamma", g), ("beta", b), ("mean", mu), ("var", s)):
        if vec.shape != (c,):
            raise ValueError(f"{name} length does not match {c} channels")
    out = ((x - mu) / s) * g + b
    return FloatTensor.from_array(out, Layout.NHWC)


def relu(input: FloatTensor) -> FloatTensor:
    return FloatTensor.from_array(np.maximum(_nhwc(input), np.float32(0.0)), Layout.NHWC)


def add(a: FloatTensor, b: FloatTensor) -> FloatTensor:
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return FloatTensor.from_array(_nhwc(a) + _nhwc(b), Layout.NHWC)


def _pool_slabs(x, window, stride, padding, fill):
    n, h, w, c = x.shape
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    outh, outw = ConvParams(window, c, stride, padding).out_extent(h, w)
    if ph or pw:
        padded = np.full((n, h + 2 * ph, w + 2 * pw, c), fill, dtype=np.float32)
        padded[:, ph : ph + h, pw : pw + w, :] = x
    else:
        padded = x
    for wy in range(wh):
        for wx in range(ww):
            yield padded[:, wy : wy + sh * outh : sh, wx : wx + sw * outw : sw, :]


def maxpool(
    input: FloatTensor,
    window: tuple[int, int],
    stride: tuple[int, int] | None = None,
    padding: tuple[int, int] = (0, 0),
) -> FloatTensor:
    """Window maximum; padded positions never win (they read as -inf)."""
    x = _nhwc(input)
    out = None
    for slab in _pool_slabs(x, window, stride or window, padding, -np.inf):
        out = slab.copy() if out is None else np.maximum(out, slab)
    return FloatTensor.from_array(out, Layout.NHWC)


def avgpool(
    input: FloatTensor,
    window: tuple[int, int],
    stride: tuple[int, int] | None = None,
    padding: tuple[int, int] = (0, 0),
) -> FloatTensor:
    """Window mean over valid (non-pad) positions only.

    Sums walk the window row-major; the divisor counts only in-image
    positions, so borders are not diluted by padding.
    """
    x = _nhwc(input)
    stride = stride or window
    total = None
    for slab in _pool_slabs(x, window, stride, padding, 0.0):
        total = slab.copy() if total is None else total + slab
    count = None
    for slab in _pool_slabs(np.ones(x.shape, np.float32), window, stride, padding, 0.0):
        count = slab.copy() if count is None else count + slab
    return FloatTensor.from_array(total / count, Layout.NHWC)


def global_avgpool(input: FloatTensor) -> FloatTensor:
    """Spatial mean per channel, accumulated row-major; output is (n, c, 1, 1)."""
    x = _nhwc(input)
    n, h, w, c = x.shape
    acc = np.zeros((n, c), dtype=np.float32)
    for y in range(h):
        for xw in range(w):
            acc += x[:, y, xw, :]
    acc /= np.float32(h * w)
    return FloatTensor.from_array(acc.reshape(n, 1, 1, c), Layout.NHWC)


def _channel_major_flat(t: FloatTensor) -> np.ndarray:
    """(n, c*h*w) features in channel-major (c, then h, then w) order."""
    a = t.array4d()
    if t.layout is Layout.NHWC:
        a = np.transpose(a, (0, 3, 1, 2))
    return np.ascontiguousarray(a).reshape(t.dims[0], -1)


def flatten(input: FloatTensor) -> FloatTensor:
    """Collapse (c, h, w) into the channel axis in channel-major order."""
    flat = _channel_major_flat(input)
    return FloatTensor.from_array(flat.reshape(input.dims[0], 1, 1, -1), Layout.NHWC)


# Dense-layer terms per block: 4 MB of float32, so a large classifier does
# not hold all its products at once (Bi-Real-Net-18's and VGG-small's fit one).
_DENSE_TERMS = 1 << 20


def fully_connected(input: FloatTensor, weights, bias=None) -> FloatTensor:
    """Dense layer over channel-major flattened features.

    ``weights`` is (out_features, in_features).  Accumulation walks input
    features in order, one float32 add per feature, starting from 0 + bias:
    a block of outputs gets that start value and all its products in one
    (n, outputs, 1 + in) array, and ``np.add.accumulate``, sequential by
    definition, sums each row left to right.
    """
    feats = _channel_major_flat(input)
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim != 2 or w.shape[1] != feats.shape[1]:
        raise ValueError(
            f"weight shape {w.shape} does not match {feats.shape[1]} input features"
        )
    n, (out, f) = feats.shape[0], w.shape
    init = np.zeros(out, dtype=np.float32)
    if bias is not None:
        init += np.asarray(bias, dtype=np.float32)
    acc = np.empty((n, out), dtype=np.float32)
    block = max(1, _DENSE_TERMS // (n * (1 + f)))
    for o in range(0, out, block):
        terms = np.empty((n, min(block, out - o), 1 + f), dtype=np.float32)
        terms[..., 0] = init[o : o + block]
        np.multiply(feats[:, None, :], w[o : o + block], out=terms[..., 1:])
        acc[:, o : o + block] = np.add.accumulate(terms, axis=2, out=terms)[..., -1]
    return FloatTensor.from_array(acc.reshape(n, 1, 1, out), Layout.NHWC)
