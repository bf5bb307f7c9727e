"""Construction of an 18-layer residual binary network.

The topology follows the usual 18-layer residual recipe with a
full-precision stem and classifier; every 3x3 convolution in the residual
stages is binary (Sign then packed convolution then batch norm) and wears
its own identity shortcut, so a shortcut wraps each convolution rather
than each two-convolution block.  Downsampling shortcuts are average pool
2x2 followed by a full-precision 1x1 convolution.

The network is emitted as an interchange graph of standard ops whose binary
convolutions carry ±1 float weights, and ``build_birealnet18`` packs it
with ``convert_model`` like any converted document.  Weights are randomly
generated from a caller-supplied generator; the builder exists for shape,
determinism and benchmark coverage, not accuracy.
"""

from __future__ import annotations

import numpy as np

from .convert import InterchangeGraph, InterchangeNode, convert_model
from .runtime import PackedModel

__all__ = ["birealnet18_graph", "build_birealnet18"]

_STAGE_CHANNELS = (64, 128, 256, 512)
_BLOCKS_PER_STAGE = 2
_NUM_CLASSES = 1000  # ImageNet's classes


def _window(k: int, stride: int, pad: int) -> dict:
    return {"kernel_shape": [k, k], "strides": [stride, stride], "pads": [pad] * 4}


def birealnet18_graph(rng: np.random.Generator, input_hw: int) -> InterchangeGraph:
    """The 18-layer residual binary network with random weights, as an
    interchange graph.  Node ``n`` writes ``n.out`` and its initializers are
    named ``n.<param>``; the classifier writes ``output``."""
    nodes: list[InterchangeNode] = []
    inits: dict[str, np.ndarray] = {}

    def emit(op, name, inputs, attributes=None, output=None):
        output = output or f"{name}.out"
        nodes.append(InterchangeNode(op, name, tuple(inputs), output, attributes or {}))
        return output

    def conv(name, x, w, stride, pad):
        inits[f"{name}.w"] = w
        return emit("Conv", name, (x, f"{name}.w"), _window(w.shape[2], stride, pad))

    def float_conv(name, x, cin, cout, k, stride, pad):
        w = rng.standard_normal((cout, cin, k, k)) / np.sqrt(cin * k * k)
        return conv(name, x, w.astype(np.float32), stride, pad)

    def batch_norm(name, x, c):
        params = {
            "gamma": rng.uniform(0.5, 1.5, c),
            "beta": rng.standard_normal(c) * 0.1,
            "mean": rng.standard_normal(c) * 0.1,
            "var": rng.uniform(0.5, 1.5, c),
        }
        for p, values in params.items():
            inits[f"{name}.{p}"] = values.astype(np.float32)
        weights = tuple(f"{name}.{p}" for p in params)
        return emit("BatchNormalization", name, (x, *weights), {"epsilon": 1e-5})

    def unit(prefix, x, cin, cout, stride):
        """Sign -> binary 3x3 -> BN, plus an identity or downsampling shortcut."""
        y = emit("Sign", f"{prefix}.sign", (x,))
        w = rng.choice(np.array([-1.0, 1.0], np.float32), size=(cout, cin, 3, 3))
        y = batch_norm(f"{prefix}.bn", conv(f"{prefix}.conv", y, w, stride, 1), cout)
        if stride != 1 or cin != cout:
            x = emit("AveragePool", f"{prefix}.down.pool", (x,), _window(2, 2, 0))
            x = float_conv(f"{prefix}.down.conv", x, cin, cout, 1, 1, 0)
        return emit("Add", f"{prefix}.add", (y, x))

    x = float_conv("conv1", "input", 3, 64, 7, 2, 3)
    x = batch_norm("bn1", x, 64)
    x = emit("MaxPool", "pool1", (x,), _window(3, 2, 1))
    channels = 64
    for stage, cout in enumerate(_STAGE_CHANNELS):
        for i in range(2 * _BLOCKS_PER_STAGE):
            stride = 2 if stage > 0 and i == 0 else 1
            x = unit(f"s{stage}.b{i // 2}.u{i % 2}", x, channels, cout, stride)
            channels = cout
    x = emit("Flatten", "flat", (emit("GlobalAveragePool", "gap", (x,)),))
    inits["fc.w"] = (
        rng.standard_normal((_NUM_CLASSES, channels)) / np.sqrt(channels)
    ).astype(np.float32)
    inits["fc.b"] = np.zeros(_NUM_CLASSES, np.float32)
    emit("Gemm", "fc", (x, "fc.w", "fc.b"), {"transB": 1}, output="output")
    inputs = (("input", (1, 3, input_hw, input_hw)),)
    return InterchangeGraph(inputs, inits, tuple(nodes), "output")


def build_birealnet18(
    rng: np.random.Generator | None = None,
    input_hw: int = 224,
) -> PackedModel:
    """Build the 18-layer residual binary network with random weights.

    ``input_hw`` must survive the stem's two stride-2 reductions and four
    stage strides cleanly; 224 (the full-size default) and 32 (a quick
    test size) both do.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    graph = birealnet18_graph(rng, input_hw)
    return convert_model(graph)[0]
