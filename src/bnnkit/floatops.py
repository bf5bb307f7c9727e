"""Full-precision operators for the non-binary layers of a network, plus the
float reference convolution that validates the packed kernels.

Reductions accumulate in a fixed element order (documented per function),
one float32 addition per contribution, so results are bit-reproducible and
can be compared exactly against naive scalar loops with the same nesting.
"""

from __future__ import annotations

import contextvars
import os
import threading
from itertools import product

import numpy as np

from .kernels import ConvParams, _row_bufsize
from .layout import FloatTensor, signed_ones

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


# Bytes of a conv's accumulator tile and product tile together: half of one
# core's L2, so a tile's multiply and add run from cache.  On a 2-vCPU x86 VM
# with 2 MB of L2 per core (sysfs ``cache/index2``, one CPU per L2), the 7x7
# stem at 64 filters (8 bytes per position and filter) took 40.9 / 49.7 ms
# (minimum / median of 15 interleaved in-process rounds) in 2048-position
# tiles, against 49.6 / 59.1 ms in the 4096-position tiles that overflow it
# (1536: 41.7 / 51.4 ms, 1024: 43.1 / 54.9 ms); split between the caller and
# one helper thread (``_ordered_conv``), each on scratch the caller allocates,
# it took 26.3 / 33.3 ms.  Shorter tiles cost no more per element only while
# the ufunc buffer is sized from them: at numpy's default size, broadcast
# operands of rows under about 2730 elements are copied through the buffer,
# at 2-4x the cost (``kernels._row_bufsize``).
_TILE_BYTES = 1 << 20


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_conv(
    x: np.ndarray,
    w: np.ndarray,
    bias,
    p: ConvParams,
    pad_value: float,
) -> np.ndarray:
    """Cross-correlation of NHWC ``x`` with (filters, kh, kw, channels) ``w``
    in a fixed accumulation order.

    Per output element the additions run kernel-row fastest, then kernel
    column, then input channel, starting from 0 + bias.  One float32 add
    per contribution keeps the result bit-identical to a scalar reference
    loop with the same nesting.

    Whole output rows are taken into a contiguous accumulator tile, as many
    as keep the tile and its product buffer within ``_TILE_BYTES``.  A tile
    first fills a channel-planar slab with ``pad_value`` and copies in the
    input rows its windows read, so no padded copy of the whole image exists;
    each tap then gathers its plane from the slab into a contiguous buffer,
    multiplies it by the tap's weights and adds the products into the tile.
    The tile is (positions, filters) when filters outnumber a tile's positions, else
    (filters, positions), and the loop runs under a ufunc buffer sized from
    the shortest inner axis, so no multiply or add is buffered.

    With two or more tiles and at least two usable CPUs, one plain helper
    thread computes every other tile for the length of the call, in a copy of
    this thread's context, where numpy keeps its errstate and ufunc buffer
    size.  This thread allocates the scratch of both, so the helper never
    calls the allocator; the helper is joined before the call returns, and an
    exception it raised is raised here.  Each tile is computed whole by one
    thread in the same order, so the split changes no output byte.  A
    standard-library thread pool cost Bi-Real-Net-18 about 2 MB of peak RSS:
    its import (``logging``, ``queue`` and more) and its worker's own malloc
    arena, which held the worker's scratch.
    """
    n, h, wd, c = x.shape
    m, kh, kw, wc = w.shape
    if wc != c:
        raise ValueError(f"weights expect {wc} input channels, tensor has {c}")
    sh, sw = p.stride
    ph, pw = p.padding
    outh, outw = p.out_extent(h, wd)
    init = np.zeros(m, dtype=np.float32)
    if bias is not None:
        init += np.asarray(bias, dtype=np.float32)
    out = np.empty((n, outh, outw, m), dtype=np.float32)
    rows = max(1, min(outh, _TILE_BYTES // (8 * m * outw)))
    # one row of m weights per tap, taps in accumulation order
    taps = np.ascontiguousarray(np.transpose(w, (3, 2, 1, 0))).reshape(c * kw * kh, m)
    wide = m > rows * outw  # filters on the tile's inner axis
    if not wide:
        taps, init = taps[:, :, None], init[:, None]
    inner = m if wide else ((outh - 1) % rows + 1) * outw  # the last tile is the shortest
    tiles = [(img, y0) for img in range(n) for y0 in range(0, outh, rows)]

    def scratch():
        """Accumulator, product, plane and padded-slab buffers for one thread's tiles."""
        return (
            np.empty(m * rows * outw, dtype=np.float32),
            np.empty(m * rows * outw, dtype=np.float32),
            np.empty(rows * outw, dtype=np.float32),
            np.empty((c, sh * (rows - 1) + kh, wd + 2 * pw), dtype=np.float32),
        )

    def run(tiles, buffers):
        acc_buf, prod_buf, plane_buf, slab_buf = buffers
        for img, y0 in tiles:
            r = min(rows, outh - y0)
            # the tile's windows read input rows top, top + 1, ...; rows
            # outside lo .. hi - 1 are padding
            top, slab = sh * y0 - ph, slab_buf[:, : sh * (r - 1) + kh]
            lo, hi = max(top, 0), min(top + slab.shape[1], h)
            slab.fill(pad_value)
            slab[:, lo - top : hi - top, pw : pw + wd] = np.transpose(x[img, lo:hi], (2, 0, 1))
            shape = (r * outw, m) if wide else (m, r * outw)
            acc = acc_buf[: m * r * outw].reshape(shape)
            prod = prod_buf[: m * r * outw].reshape(shape)
            plane = plane_buf[: r * outw]
            acc[...] = init
            factor = plane[:, None] if wide else plane
            for (ci, kx, ky), tap in zip(product(range(c), range(kw), range(kh)), taps):
                np.copyto(
                    plane.reshape(r, outw),
                    slab[ci, ky : ky + sh * r : sh, kx : kx + sw * outw : sw],
                )
                np.multiply(factor, tap, out=prod)
                np.add(acc, prod, out=acc)
            out[img, y0 : y0 + r] = (acc if wide else acc.T).reshape(r, outw, m)

    with np.errstate():
        np.setbufsize(_row_bufsize(inner))
        if len(tiles) > 1 and _cpus() > 1:
            mine, theirs = scratch(), scratch()
            raised = []

            def helper():
                try:
                    run(tiles[1::2], theirs)
                except BaseException as e:
                    raised.append(e)

            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(helper,), name="bnnkit-conv-tiles"
            )
            thread.start()
            try:
                run(tiles[::2], mine)
            finally:
                thread.join()
            if raised:
                raise raised[0]
        else:
            run(tiles, scratch())
    return out


def _conv_params(p: ConvParams | None, weights: FloatTensor) -> ConvParams:
    _, c, kh, kw = weights.dims
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

    ``weights`` has (out_channels, in_channels, kh, kw) dims.
    """
    p = _conv_params(p, weights)
    out = _ordered_conv(input.nhwc_array(), weights.nhwc_array(), bias, p, 0.0)
    return FloatTensor.from_array(out)


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
    p = _conv_params(p, weights)
    x = signed_ones(input.nhwc_array().view(np.uint32))
    w = signed_ones(weights.nhwc_array().view(np.uint32))
    return FloatTensor.from_array(_ordered_conv(x, w, None, p, 1.0))


# The elementwise ops below take a keyword-only ``out``: a writable NHWC array
# of the output's shape, which only the runtime passes, to write into the
# buffer of an input that no later step reads.  Each computes the same passes
# in the same order either way, so ``out`` changes no byte.


def sign_op(input: FloatTensor, *, out: np.ndarray | None = None) -> FloatTensor:
    """Elementwise binarization to ±1 by the raw sign bit (-0.0 -> -1)."""
    words = None if out is None else out.view(np.uint32)
    return FloatTensor.from_array(signed_ones(input.nhwc_array().view(np.uint32), words))


def bn_scale(var, eps: float) -> np.ndarray:
    """Per-channel denominator sqrt(var + eps), in float32."""
    v = np.asarray(var, dtype=np.float32)
    if np.any(v < 0):
        raise ValueError("negative variance")
    return np.sqrt(v + np.float32(eps))


def batchnorm(
    input: FloatTensor,
    gamma,
    beta,
    mean,
    var,
    eps: float = 1e-5,
    *,
    out: np.ndarray | None = None,
) -> FloatTensor:
    """Per-channel affine normalization: ((x - mean) / sqrt(var + eps)) * gamma + beta."""
    x = input.nhwc_array()
    c = input.dims[1]
    g, b, mu = (np.asarray(v, dtype=np.float32) for v in (gamma, beta, mean))
    s = bn_scale(var, eps)
    for name, vec in (("gamma", g), ("beta", b), ("mean", mu), ("var", s)):
        if vec.shape != (c,):
            raise ValueError(f"{name} length does not match {c} channels")
    # the expression's four passes in the same order, in one output buffer
    out = np.subtract(x, mu, out=out)
    np.divide(out, s, out=out)
    np.multiply(out, g, out=out)
    np.add(out, b, out=out)
    return FloatTensor.from_array(out)


def relu(input: FloatTensor, *, out: np.ndarray | None = None) -> FloatTensor:
    return FloatTensor.from_array(np.maximum(input.nhwc_array(), np.float32(0.0), out=out))


def add(a: FloatTensor, b: FloatTensor, *, out: np.ndarray | None = None) -> FloatTensor:
    """Elementwise a + b.  ``out`` may be ``b``'s buffer, never ``a``'s: numpy
    2.4 adds a one-element array into its own first operand through its
    reduction loop, which keeps the other operand's bits where two NaNs meet."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return FloatTensor.from_array(np.add(a.nhwc_array(), b.nhwc_array(), out=out))


def _pool_geometry(x, window, stride, padding):
    """Output extents, and per window tap the output slice it reaches
    inside the image and the strided input slice it reads there."""
    n, h, w, c = x.shape
    outh, outw = ConvParams(window, c, stride, padding).out_extent(h, w)

    def reach(tap, s, p, size, out):
        # outputs o with 0 <= o*s + tap - p < size
        first = max(0, -((tap - p) // s))
        last = min(out, (size - 1 + p - tap) // s + 1)
        if last <= first:
            return None
        start = first * s + tap - p
        return slice(first, last), slice(start, start + s * (last - first - 1) + 1, s)

    rows = [reach(t, stride[0], padding[0], h, outh) for t in range(window[0])]
    cols = [reach(t, stride[1], padding[1], w, outw) for t in range(window[1])]
    taps = [(r, q) for r in rows if r for q in cols if q]
    return (n, outh, outw, c), taps


def maxpool(
    input: FloatTensor,
    window: tuple[int, int],
    stride: tuple[int, int] | None = None,
    padding: tuple[int, int] = (0, 0),
) -> FloatTensor:
    """Window maximum; padded positions never win (they read as -inf).

    Taps fold row-major into a -inf output, each over the outputs whose
    window holds it inside the image, so no padded copy of the input exists.
    """
    x = input.nhwc_array()
    shape, taps = _pool_geometry(x, window, stride or window, padding)
    out = np.full(shape, -np.inf, dtype=np.float32)
    for (oy, iy), (ox, ix) in taps:
        region = out[:, oy, ox]
        np.maximum(region, x[:, iy, ix], out=region)
    return FloatTensor.from_array(out)


def avgpool(
    input: FloatTensor,
    window: tuple[int, int],
    stride: tuple[int, int] | None = None,
    padding: tuple[int, int] = (0, 0),
) -> FloatTensor:
    """Window mean over valid (non-pad) positions only.

    Sums walk the window row-major, padded positions adding 0.0; the divisor
    counts only in-image positions, so borders are not diluted by padding.
    """
    x = input.nhwc_array()
    n, h, w, c = x.shape
    (wh, ww), (sh, sw), (ph, pw) = window, stride or window, padding
    shape, taps = _pool_geometry(x, window, (sh, sw), padding)
    if ph or pw:
        padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=np.float32)
        padded[:, ph : ph + h, pw : pw + w, :] = x
    else:
        padded = x
    outh, outw = shape[1:3]
    total = None
    for wy in range(wh):
        for wx in range(ww):
            slab = padded[:, wy : wy + sh * outh : sh, wx : wx + sw * outw : sw, :]
            total = slab.copy() if total is None else np.add(total, slab, out=total)
    count = np.zeros((outh, outw, 1), dtype=np.float32)
    for (oy, _), (ox, _) in taps:
        count[oy, ox] += 1
    return FloatTensor.from_array(np.divide(total, count, out=total))


def global_avgpool(input: FloatTensor) -> FloatTensor:
    """Spatial mean per channel, accumulated row-major; output is (n, c, 1, 1)."""
    x = input.nhwc_array()
    n, h, w, c = x.shape
    acc = np.zeros((n, c), dtype=np.float32)
    for y in range(h):
        for xw in range(w):
            acc += x[:, y, xw, :]
    acc /= np.float32(h * w)
    return FloatTensor.from_array(acc.reshape(n, 1, 1, c))


def _channel_major_flat(t: FloatTensor) -> np.ndarray:
    """(n, c*h*w) features in channel-major (c, then h, then w) order."""
    a = np.transpose(t.nhwc_array(), (0, 3, 1, 2))
    return np.ascontiguousarray(a).reshape(t.dims[0], -1)


def flatten(input: FloatTensor) -> FloatTensor:
    """Collapse (c, h, w) into the channel axis in channel-major order."""
    flat = _channel_major_flat(input)
    return FloatTensor.from_array(flat.reshape(input.dims[0], 1, 1, -1))


# Dense-layer terms per block: 0.5 MB of float32, so the classifier's
# products never outweigh the activations (Bi-Real-Net-18's 512 -> 1000 layer
# takes four blocks).  Each output row sums alone, so the block size never
# changes a byte.
_DENSE_TERMS = 1 << 17


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
    block = max(1, min(out, _DENSE_TERMS // (n * (1 + f))))
    buf = np.empty((n, block, 1 + f), dtype=np.float32)
    for o in range(0, out, block):
        terms = buf[:, : min(block, out - o)]
        terms[..., 0] = init[o : o + block]
        np.multiply(feats[:, None, :], w[o : o + block], out=terms[..., 1:])
        acc[:, o : o + block] = np.add.accumulate(terms, axis=2, out=terms)[..., -1]
    return FloatTensor.from_array(acc.reshape(n, 1, 1, out))
