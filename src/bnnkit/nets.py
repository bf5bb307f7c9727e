"""Construction of an 18-layer residual binary network.

The topology follows the usual 18-layer residual recipe with a
full-precision stem and classifier; every 3x3 convolution in the residual
stages is binary (Sign then packed convolution then batch norm) and wears
its own identity shortcut, so a shortcut wraps each convolution rather
than each two-convolution block.  Downsampling shortcuts are average pool
2x2 followed by a full-precision 1x1 convolution.

Weights are randomly generated from a caller-supplied generator; the
builder exists for shape, determinism and benchmark coverage, not
accuracy.
"""

from __future__ import annotations

import numpy as np

from .convert import pack_conv_weight
from .runtime import (
    Graph,
    GraphInput,
    Initializer,
    Node,
    NodeAttrs,
    OpKind,
    PackedModel,
)

__all__ = ["build_birealnet18"]

_STAGE_CHANNELS = (64, 128, 256, 512)
_BLOCKS_PER_STAGE = 2
_C2 = 128  # channel-group width of the packed binary filters


def build_birealnet18(
    rng: np.random.Generator | None = None,
    num_classes: int = 1000,
    input_hw: int = 224,
) -> PackedModel:
    """Build the 18-layer residual binary network with random weights.

    ``input_hw`` must survive the stem's two stride-2 reductions and four
    stage strides cleanly; 224 (the full-size default) and 32 (a quick
    test size) both do.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    nodes: list[Node] = []
    inits: dict[str, Initializer] = {}

    def float_conv(name, x, cin, cout, k, stride, pad, out):
        fan = cin * k * k
        w = (rng.standard_normal((cout, cin, k, k)) / np.sqrt(fan)).astype(np.float32)
        inits[f"{name}.w"] = w
        attrs = NodeAttrs(kernel=(k, k), stride=(stride, stride), padding=(pad, pad))
        nodes.append(Node(OpKind.FLOAT_CONV, name, (x,), out, attrs, (f"{name}.w",)))
        return out

    def batch_norm(name, x, c, out):
        inits[f"{name}.gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
        inits[f"{name}.beta"] = (rng.standard_normal(c) * 0.1).astype(np.float32)
        inits[f"{name}.mean"] = (rng.standard_normal(c) * 0.1).astype(np.float32)
        inits[f"{name}.var"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
        weights = tuple(f"{name}.{p}" for p in ("gamma", "beta", "mean", "var"))
        attrs = NodeAttrs(epsilon=1e-5)
        nodes.append(Node(OpKind.BATCH_NORM, name, (x,), out, attrs, weights))
        return out

    def binary_conv(name, x, cin, cout, stride, out):
        w = rng.choice(np.array([-1.0, 1.0], np.float32), size=(cout, cin, 3, 3))
        inits[f"{name}.w"] = pack_conv_weight(w, _C2)
        attrs = NodeAttrs(kernel=(3, 3), stride=(stride, stride), padding=(1, 1))
        nodes.append(Node(OpKind.BINARY_CONV, name, (x,), out, attrs, (f"{name}.w",)))
        return out

    def unit(prefix, x, cin, cout, stride):
        """Sign -> binary 3x3 -> BN, plus an identity or downsampling shortcut."""
        sign_out = f"{prefix}.sign.out"
        nodes.append(Node(OpKind.SIGN, f"{prefix}.sign", (x,), sign_out))
        y = binary_conv(f"{prefix}.conv", sign_out, cin, cout, stride, f"{prefix}.conv.out")
        y = batch_norm(f"{prefix}.bn", y, cout, f"{prefix}.bn.out")
        if stride != 1 or cin != cout:
            pool_out = f"{prefix}.down.pool.out"
            attrs = NodeAttrs(kernel=(2, 2), stride=(2, 2), padding=(0, 0))
            nodes.append(Node(OpKind.AVG_POOL, f"{prefix}.down.pool", (x,), pool_out, attrs))
            shortcut = float_conv(
                f"{prefix}.down.conv", pool_out, cin, cout, 1, 1, 0, f"{prefix}.down.conv.out"
            )
        else:
            shortcut = x
        out = f"{prefix}.add.out"
        nodes.append(Node(OpKind.ADD, f"{prefix}.add", (y, shortcut), out))
        return out

    x = float_conv("conv1", "input", 3, 64, 7, 2, 3, "conv1.out")
    x = batch_norm("bn1", x, 64, "bn1.out")
    nodes.append(
        Node(
            OpKind.MAX_POOL,
            "pool1",
            (x,),
            "pool1.out",
            NodeAttrs(kernel=(3, 3), stride=(2, 2), padding=(1, 1)),
        )
    )
    x = "pool1.out"
    channels = 64
    for stage, cout in enumerate(_STAGE_CHANNELS):
        for block in range(_BLOCKS_PER_STAGE):
            for half in range(2):
                first = block == 0 and half == 0
                stride = 2 if (stage > 0 and first) else 1
                x = unit(f"s{stage}.b{block}.u{half}", x, channels, cout, stride)
                channels = cout
    nodes.append(Node(OpKind.GLOBAL_AVG_POOL, "gap", (x,), "gap.out"))
    nodes.append(Node(OpKind.FLATTEN, "flat", ("gap.out",), "flat.out"))
    inits["fc.w"] = (
        rng.standard_normal((num_classes, _STAGE_CHANNELS[-1]))
        / np.sqrt(_STAGE_CHANNELS[-1])
    ).astype(np.float32)
    inits["fc.b"] = np.zeros(num_classes, np.float32)
    nodes.append(
        Node(OpKind.FULLY_CONNECTED, "fc", ("flat.out",), "output", weights=("fc.w", "fc.b"))
    )
    graph = Graph(
        tuple(nodes),
        (GraphInput("input", (1, 3, input_hw, input_hw)),),
        inits,
        "output",
    )
    return PackedModel(graph)
