"""Operator graph, load-time op table, and the packed model container.

Graphs are ordered node lists over named activations: every node input must
be a graph input or the output of an earlier node, which makes the list its
own schedule.  Weights live in a separate initializer namespace holding
either raw float32 arrays or bit-packed filter banks.  Constructing a
``Graph`` checks every node against its row in the ``_OPS`` table once and
keeps the resulting plan, which ``execute`` walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from . import floatops
from .kernels import MAX_GROUPS_PER_DOT, BinMatrix, ConvParams, binary_direct_conv
from .layout import FloatTensor, Layout, check_pad_bits, group_count, pack_to_nc1hwc2, signed_ones

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
        """Build every node through ``_OPS`` into the plan ``execute`` walks:
        per node, its run function and the activations it reads last."""
        if len(self.inputs) != 1:
            raise GraphError("model must declare exactly one input")
        dims = {gi.name: gi.dims for gi in self.inputs}
        last_reader: dict[str, int] = {}
        runs = []
        for i, node in enumerate(self.nodes):
            arity, build = _OPS[node.kind]
            try:
                for src in node.inputs:
                    if src not in dims:
                        raise ValueError(f"unresolved input '{src}'")
                    last_reader[src] = i
                for ref in node.weights:
                    if ref not in self.initializers:
                        raise ValueError(f"missing initializer '{ref}'")
                if node.output in dims:
                    raise ValueError(f"output '{node.output}' already defined")
                if len(node.inputs) != arity:
                    raise ValueError(f"expects {arity} inputs, got {len(node.inputs)}")
                weights = [self.initializers[ref] for ref in node.weights]
                out, run = build(node, weights, *[dims[src] for src in node.inputs])
                if min(out) < 1:
                    raise ValueError(f"output dims {out} are not all positive")
            except ValueError as exc:
                raise GraphError(f"node '{node.name}': {exc}") from exc
            dims[node.output] = out
            last_reader[node.output] = i
            runs.append(run)
        if self.output not in dims:
            raise GraphError(f"graph output '{self.output}' is not produced")
        last_reader.pop(self.output, None)
        dead: list[list[str]] = [[] for _ in runs]
        for name, i in last_reader.items():
            dead[i].append(name)
        object.__setattr__(self, "_plan", tuple(zip(self.nodes, runs, dead)))

    def __reduce__(self):
        # the plan holds closures, so a copy or unpickle builds it again
        return Graph, (self.nodes, self.inputs, self.initializers, self.output)


@dataclass(frozen=True)
class PackedModel:
    graph: Graph


def float_order_key(a) -> np.ndarray:
    """Monotone uint32 key over float32 values (sign-magnitude total order).

    x < y as floats implies key(x) < key(y); NaNs sort beyond the infinities
    of their sign.
    """
    bits = np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)
    # all ones for a set sign bit (flip every bit), else just the sign bit
    mask = (bits.view(np.int32) >> 31).view(np.uint32) | np.uint32(0x80000000)
    return bits ^ mask


def execute(model: PackedModel, input: FloatTensor) -> FloatTensor:
    """Run the graph on one input tensor.

    Bit-deterministic: identical model bytes and input bytes give identical
    output bytes.  Binary convolutions pack their input activations on the
    fly; everything else runs in float32.  Each activation is released after
    its last reader has run.
    """
    graph = model.graph
    gi = graph.inputs[0]
    if tuple(input.dims) != gi.dims:
        raise GraphError(f"input dims {input.dims} do not match declared {gi.dims}")
    env: dict[str, FloatTensor] = {gi.name: input}
    for node, run, dead in graph._plan:
        try:
            env[node.output] = run(*[env[src] for src in node.inputs])
        except Exception as exc:
            raise GraphError(f"node '{node.name}': {exc}") from exc
        for name in dead:
            del env[name]
    return env[graph.output]


def _floats(node: Node, weights: list, *counts: int) -> list[np.ndarray]:
    if len(weights) not in counts:
        expected = " or ".join(map(str, counts))
        raise ValueError(f"expects {expected} weights, got {len(weights)}")
    for ref, w in zip(node.weights, weights):
        if isinstance(w, PackedWeight):
            raise ValueError(f"initializer '{ref}' must be full precision")
    return [np.asarray(w, dtype=np.float32) for w in weights]


def _vectors(c: int, names: str, tables) -> None:
    for name, table in zip(names.split(), tables):
        if table.shape != (c,):
            raise ValueError(f"{name} length does not match {c} channels")


def _window(node: Node, kernel, x) -> tuple[ConvParams, tuple[int, int]]:
    """Conv or pool geometry over input dims ``x``, and the output extents."""
    attrs = node.attrs
    if attrs.kernel not in (None, tuple(kernel)):
        raise ValueError("kernel attribute does not match weight extents")
    p = ConvParams(kernel, x[1], attrs.stride or (1, 1), attrs.padding or (0, 0))
    return p, p.out_extent(x[2], x[3])


def _binary_conv(node, weights, x):
    if len(weights) != 1 or not isinstance(weights[0], PackedWeight):
        raise ValueError("binary convolution weight must be packed")
    w = weights[0]
    m, c, kh, kw = w.dims
    if c != x[1]:
        raise ValueError(f"weight expects {c} input channels, input has {x[1]}")
    p, out = _window(node, (kh, kw), x)
    if w.matrix.cols * w.c2 // 8 > MAX_GROUPS_PER_DOT:
        raise ValueError(
            f"dot product of {w.matrix.cols * w.c2} bits exceeds the "
            f"{8 * MAX_GROUPS_PER_DOT}-bit accumulator capacity"
        )
    return (x[0], m, *out), lambda t: binary_direct_conv(
        pack_to_nc1hwc2(t, w.c2), w.matrix, p
    )


def _float_conv(node, weights, x):
    w, *bias = _floats(node, weights, 1, 2)
    if w.ndim != 4 or w.shape[1] != x[1]:
        raise ValueError(f"weights {w.shape} do not fit {x[1]} input channels")
    _vectors(w.shape[0], "bias", bias)
    p, out = _window(node, w.shape[2:], x)
    wt = FloatTensor.from_array(w, Layout.NCHW)
    b = bias[0] if bias else None
    return (x[0], w.shape[0], *out), lambda t: floatops.conv2d_f32(t, wt, b, p)


def _batch_norm(node, weights, x):
    g, b, mu, var = params = _floats(node, weights, 4)
    _vectors(x[1], "gamma beta mean var", params)
    if np.any(var < 0):
        raise ValueError("negative variance")
    eps = 1e-5 if node.attrs.epsilon is None else node.attrs.epsilon
    return x, lambda t: floatops.batchnorm(t, g, b, mu, var, eps)


def _threshold_sign(node, weights, x):
    keys, invert = tables = _floats(node, weights, 2)
    _vectors(x[1], "threshold invert", tables)
    bound, flip = keys.view(np.uint32), invert != 0

    def run(t: FloatTensor) -> FloatTensor:
        negative = (float_order_key(t.nhwc_array()) < bound) ^ flip
        return FloatTensor.from_array(signed_ones(negative.astype(np.uint32) << np.uint32(31)))

    return x, run


def _pool(node, weights, x):
    if node.attrs.kernel is None:
        raise ValueError("missing kernel attribute")
    p, out = _window(node, node.attrs.kernel, x)
    name = "maxpool" if node.kind is OpKind.MAX_POOL else "avgpool"
    return (*x[:2], *out), lambda t: getattr(floatops, name)(
        t, p.kernel, p.stride, p.padding
    )


def _fully_connected(node, weights, x):
    w, *bias = _floats(node, weights, 1, 2)
    features = x[1] * x[2] * x[3]
    if w.ndim != 2 or w.shape[1] != features:
        raise ValueError(f"weight shape {w.shape} does not match {features} features")
    _vectors(w.shape[0], "bias", bias)
    b = bias[0] if bias else None
    return (x[0], w.shape[0], 1, 1), lambda t: floatops.fully_connected(t, w, b)


def _add(node, weights, a, b):
    if a != b:
        raise ValueError(f"shape mismatch: {a} vs {b}")
    return a, lambda s, t: floatops.add(s, t)


def _weightless(name: str, out_dims=lambda x: x):
    """Builder of a unary op without weights or attributes: ``floatops.<name>``."""
    return lambda node, weights, x: (out_dims(x), lambda t: getattr(floatops, name)(t))


# (data-input count, builder) per op kind.  ``build(node, weights, *input
# dims) -> (output dims, run)`` raises ValueError for anything that does not
# fit.  Run functions look up ``floatops.<name>``, ``binary_direct_conv`` and
# ``pack_to_nc1hwc2`` when called, so a wrapper installed on those module
# attributes sees every call.
_OPS = {
    OpKind.SIGN: (1, _weightless("sign_op")),
    OpKind.BINARY_CONV: (1, _binary_conv),
    OpKind.FLOAT_CONV: (1, _float_conv),
    OpKind.BATCH_NORM: (1, _batch_norm),
    OpKind.RELU: (1, _weightless("relu")),
    OpKind.MAX_POOL: (1, _pool),
    OpKind.AVG_POOL: (1, _pool),
    OpKind.GLOBAL_AVG_POOL: (1, _weightless("global_avgpool", lambda x: (*x[:2], 1, 1))),
    OpKind.ADD: (2, _add),
    OpKind.FULLY_CONNECTED: (1, _fully_connected),
    OpKind.FLATTEN: (1, _weightless("flatten", lambda x: (x[0], x[1] * x[2] * x[3], 1, 1))),
    OpKind.THRESHOLD_SIGN: (1, _threshold_sign),
}
