"""Operator graph, topological execution, and the packed model container.

Graphs are ordered node lists over named activations: every node input must
be a graph input or the output of an earlier node, which makes the list its
own schedule.  Weights live in a separate initializer namespace holding
either raw float32 arrays or bit-packed filter banks; binary convolution
nodes must reference a packed initializer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from . import floatops
from .kernels import BinMatrix, ConvParams, binary_direct_conv
from .layout import FloatTensor, Layout, check_pad_bits, group_count, pack_to_nc1hwc2

__all__ = [
    "GraphError",
    "OpKind",
    "NodeAttrs",
    "Node",
    "PackedWeight",
    "Initializer",
    "GraphInput",
    "Graph",
    "PackedModel",
    "execute",
    "float_order_key",
]


class GraphError(RuntimeError):
    """Graph validation or execution failure; messages name the offending node."""


class OpKind(Enum):
    SIGN = "Sign"
    BINARY_CONV = "BinaryConv"
    FLOAT_CONV = "FloatConv"
    BATCH_NORM = "BatchNorm"
    RELU = "Relu"
    MAX_POOL = "MaxPool"
    AVG_POOL = "AvgPool"
    GLOBAL_AVG_POOL = "GlobalAvgPool"
    ADD = "Add"
    FULLY_CONNECTED = "FullyConnected"
    FLATTEN = "Flatten"
    # Fused batch-norm + sign: per-channel comparison against a precomputed
    # boundary in the float total order.
    THRESHOLD_SIGN = "ThresholdSign"


@dataclass(frozen=True)
class NodeAttrs:
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        for field in ("kernel", "stride", "padding"):
            pair = getattr(self, field)
            if pair is not None:
                object.__setattr__(self, field, (int(pair[0]), int(pair[1])))
        if self.epsilon is not None:
            # stored at single precision in model files; normalize up front so
            # a saved and reloaded node compares equal to the original
            object.__setattr__(self, "epsilon", float(np.float32(self.epsilon)))


_NO_ATTRS = NodeAttrs()


@dataclass(frozen=True)
class Node:
    kind: OpKind
    name: str
    inputs: tuple[str, ...]
    output: str
    attrs: NodeAttrs = _NO_ATTRS
    weights: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "weights", tuple(self.weights))


@dataclass(frozen=True)
class PackedWeight:
    """Bit-packed convolution filter bank with its logical extents.

    ``matrix`` row m holds the kh*kw*c1 packed vectors of filter m in the
    same order im2col produces columns: kernel-row major, then kernel
    column, then channel group.  Channel pad bits must be 0.
    """

    dims: tuple[int, int, int, int]  # (out_channels, in_channels, kh, kw)
    c2: int
    matrix: BinMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m, c, kh, kw = self.dims
        c1 = group_count(c, self.c2)
        if (
            self.matrix.rows != m
            or self.matrix.cols != kh * kw * c1
            or self.matrix.vec_bits != self.c2
        ):
            raise ValueError("matrix extents do not match dims")
        check_pad_bits(self.matrix.data.reshape(m, kh * kw, c1, self.c2 // 8), c)


Initializer = Union[np.ndarray, PackedWeight]


@dataclass(frozen=True)
class GraphInput:
    name: str
    dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) != 4 or any(d < 1 for d in self.dims):
            raise ValueError(f"graph input '{self.name}' needs 4 positive extents")


@dataclass(frozen=True)
class Graph:
    nodes: tuple[Node, ...]
    inputs: tuple[GraphInput, ...]
    initializers: dict[str, Initializer]
    output: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "initializers", dict(self.initializers))
        self._validate()

    def _validate(self) -> None:
        produced = {gi.name for gi in self.inputs}
        if len(produced) != len(self.inputs):
            raise GraphError("duplicate graph input names")
        for node in self.nodes:
            for src in node.inputs:
                if src not in produced:
                    raise GraphError(f"node '{node.name}': unresolved input '{src}'")
            for ref in node.weights:
                if ref not in self.initializers:
                    raise GraphError(f"node '{node.name}': missing initializer '{ref}'")
            if node.output in produced:
                raise GraphError(
                    f"node '{node.name}': output '{node.output}' already defined"
                )
            if node.kind is OpKind.BINARY_CONV:
                if len(node.weights) != 1 or not isinstance(
                    self.initializers[node.weights[0]], PackedWeight
                ):
                    raise GraphError(
                        f"node '{node.name}': binary convolution weight must be packed"
                    )
            produced.add(node.output)
        if self.output not in produced:
            raise GraphError(f"graph output '{self.output}' is not produced")


@dataclass(frozen=True)
class PackedModel:
    graph: Graph
    version: int = 1


def float_order_key(a) -> np.ndarray:
    """Monotone uint32 key over float32 values (sign-magnitude total order).

    x < y as floats implies key(x) < key(y); NaNs sort beyond the infinities
    of their sign.
    """
    bits = np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)
    neg = bits >> np.uint32(31)
    return np.where(neg, np.uint32(0xFFFFFFFF) - bits, bits + np.uint32(0x80000000))


def execute(model: PackedModel, input: FloatTensor) -> FloatTensor:
    """Run the graph on one input tensor.

    Bit-deterministic: identical model bytes and input bytes give identical
    output bytes.  Binary convolutions pack their input activations on the
    fly; everything else runs in float32.
    """
    graph = model.graph
    if len(graph.inputs) != 1:
        raise GraphError("model must declare exactly one input")
    gi = graph.inputs[0]
    if tuple(input.dims) != gi.dims:
        raise GraphError(f"input dims {input.dims} do not match declared {gi.dims}")
    env: dict[str, FloatTensor] = {gi.name: input}
    for node in graph.nodes:
        try:
            env[node.output] = _eval_node(node, env, graph.initializers)
        except GraphError:
            raise
        except Exception as exc:
            raise GraphError(f"node '{node.name}': {exc}") from exc
    return env[graph.output]


def _float_init(inits: dict[str, Initializer], node: Node, idx: int) -> np.ndarray:
    if idx >= len(node.weights):
        raise ValueError(f"expects at least {idx + 1} weights")
    value = inits[node.weights[idx]]
    if isinstance(value, PackedWeight):
        raise ValueError(f"initializer '{node.weights[idx]}' must be full precision")
    return value


def _spatial(node: Node) -> tuple[tuple[int, int], tuple[int, int]]:
    attrs = node.attrs
    return attrs.stride or (1, 1), attrs.padding or (0, 0)


def _eval_binary_conv(
    node: Node, x: FloatTensor, inits: dict[str, Initializer]
) -> FloatTensor:
    weight = inits[node.weights[0]]
    if not isinstance(weight, PackedWeight):
        raise ValueError("weight initializer is not packed")
    m, c, kh, kw = weight.dims
    if node.attrs.kernel is not None and tuple(node.attrs.kernel) != (kh, kw):
        raise ValueError("kernel attribute does not match weight extents")
    stride, padding = _spatial(node)
    params = ConvParams(kernel=(kh, kw), channels=c, stride=stride, padding=padding)
    packed = pack_to_nc1hwc2(x, weight.c2)
    return binary_direct_conv(packed, weight.matrix, params)


def _eval_float_conv(
    node: Node, x: FloatTensor, inits: dict[str, Initializer]
) -> FloatTensor:
    w = _float_init(inits, node, 0)
    if w.ndim != 4:
        raise ValueError("float convolution weights must have 4 extents")
    bias = _float_init(inits, node, 1) if len(node.weights) > 1 else None
    if node.attrs.kernel is not None and tuple(node.attrs.kernel) != w.shape[2:]:
        raise ValueError("kernel attribute does not match weight extents")
    stride, padding = _spatial(node)
    params = ConvParams(
        kernel=w.shape[2:], channels=w.shape[1], stride=stride, padding=padding
    )
    return floatops.conv2d_f32(x, FloatTensor.from_array(w, Layout.NCHW), bias, params)


def _eval_threshold_sign(
    node: Node, x: FloatTensor, inits: dict[str, Initializer]
) -> FloatTensor:
    keys = _float_init(inits, node, 0)
    invert = _float_init(inits, node, 1)
    c = x.dims[1]
    if keys.shape != (c,) or invert.shape != (c,):
        raise ValueError("threshold tables do not match channel count")
    order = float_order_key(np.ascontiguousarray(x.nhwc_array()))
    below = order < np.ascontiguousarray(keys, dtype=np.float32).view(np.uint32)
    flip = np.ascontiguousarray(invert, dtype=np.float32) != 0
    bit = below ^ flip
    return FloatTensor.from_array(
        np.where(bit, np.float32(-1.0), np.float32(1.0)), Layout.NHWC
    )


def _eval_node(
    node: Node, env: dict[str, FloatTensor], inits: dict[str, Initializer]
) -> FloatTensor:
    for src in node.inputs:
        if src not in env:
            raise ValueError(f"input '{src}' has not been computed")
    kind = node.kind
    x = env[node.inputs[0]] if node.inputs else None
    if kind is OpKind.SIGN:
        return floatops.sign_op(x)
    if kind is OpKind.BINARY_CONV:
        return _eval_binary_conv(node, x, inits)
    if kind is OpKind.FLOAT_CONV:
        return _eval_float_conv(node, x, inits)
    if kind is OpKind.BATCH_NORM:
        if len(node.weights) != 4:
            raise ValueError("expects gamma, beta, mean, var weights")
        g, b, mu, var = (_float_init(inits, node, i) for i in range(4))
        eps = node.attrs.epsilon if node.attrs.epsilon is not None else 1e-5
        return floatops.batchnorm(x, g, b, mu, var, eps)
    if kind is OpKind.RELU:
        return floatops.relu(x)
    if kind in (OpKind.MAX_POOL, OpKind.AVG_POOL):
        if node.attrs.kernel is None:
            raise ValueError("missing kernel attribute")
        stride, padding = _spatial(node)
        pool = floatops.maxpool if kind is OpKind.MAX_POOL else floatops.avgpool
        return pool(x, node.attrs.kernel, stride, padding)
    if kind is OpKind.GLOBAL_AVG_POOL:
        return floatops.global_avgpool(x)
    if kind is OpKind.ADD:
        return floatops.add(env[node.inputs[0]], env[node.inputs[1]])
    if kind is OpKind.FULLY_CONNECTED:
        w = _float_init(inits, node, 0)
        bias = _float_init(inits, node, 1) if len(node.weights) > 1 else None
        return floatops.fully_connected(x, w, bias)
    if kind is OpKind.FLATTEN:
        return floatops.flatten(x)
    if kind is OpKind.THRESHOLD_SIGN:
        return _eval_threshold_sign(node, x, inits)
    raise ValueError(f"unsupported op kind {kind!r}")
