"""JSON interchange parsing, binary-convolution detection, and model packing.

The interchange document carries standard NCHW operator semantics in JSON:

    {"inputs": [{"name", "dims"}], "initializers": [{"name", "dims",
     "values"}], "nodes": [{"op", "name", "inputs", "outputs",
     "attributes"}], "output": name}

Conversion recognizes convolutions that are binary by construction (data
input produced by a Sign node, weights exactly ±1), packs their weights
into per-filter bit rows, and maps everything else onto the float runtime
ops.  A report records per-initializer byte sizes before and after.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import floatops
from .kernels import BinMatrix
from .layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    check_group_bits,
    group_count,
    pack_to_nc1hwc2,
    unpack_from_nc1hwc2,
)
from .runtime import (
    Graph,
    GraphError,
    GraphInput,
    Initializer,
    Node,
    NodeAttrs,
    OpKind,
    PackedModel,
    PackedWeight,
    float_order_key,
)

__all__ = [
    "ConversionError",
    "InterchangeNode",
    "InterchangeGraph",
    "ConvertOptions",
    "ConversionReport",
    "parse_interchange",
    "detect_binary_convs",
    "convert_model",
    "pack_conv_weight",
    "unpack_conv_weight",
]

SUPPORTED_OPS = {
    "Sign",
    "Conv",
    "BatchNormalization",
    "Relu",
    "MaxPool",
    "AveragePool",
    "GlobalAveragePool",
    "Add",
    "Gemm",
    "Flatten",
}

_INPUT_COUNTS = {
    "Sign": (1, 1),
    "Conv": (2, 3),
    "BatchNormalization": (5, 5),
    "Relu": (1, 1),
    "MaxPool": (1, 1),
    "AveragePool": (1, 1),
    "GlobalAveragePool": (1, 1),
    "Add": (2, 2),
    "Gemm": (2, 3),
    "Flatten": (1, 1),
}


class ConversionError(ValueError):
    """Interchange document or conversion failure, with a JSON-path context."""


@dataclass(frozen=True)
class InterchangeNode:
    op: str
    name: str
    inputs: tuple[str, ...]
    output: str
    attributes: dict


@dataclass(frozen=True)
class InterchangeGraph:
    inputs: tuple[tuple[str, tuple[int, ...]], ...]
    initializers: dict[str, np.ndarray]
    nodes: tuple[InterchangeNode, ...]
    output: str


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConversionError(f"{where}: missing '{key}'")
    return doc[key]


def _as_name(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConversionError(f"{where}: expected a non-empty string")
    return value


def _as_dims(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(d, int) and d >= 0 for d in value
    ):
        raise ConversionError(f"{where}: dims must be non-negative integers")
    return tuple(value)


def parse_interchange(text: str) -> InterchangeGraph:
    """Parse and structurally validate an interchange JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConversionError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConversionError("$: document must be an object")

    inputs = []
    raw_inputs = _require(doc, "inputs", "$")
    if not isinstance(raw_inputs, list):
        raise ConversionError("$.inputs: expected a list")
    for i, item in enumerate(raw_inputs):
        where = f"$.inputs[{i}]"
        if not isinstance(item, dict):
            raise ConversionError(f"{where}: expected an object")
        name = _as_name(_require(item, "name", where), f"{where}.name")
        dims = _as_dims(_require(item, "dims", where), f"{where}.dims")
        inputs.append((name, dims))

    initializers: dict[str, np.ndarray] = {}
    raw_inits = doc.get("initializers", [])
    if not isinstance(raw_inits, list):
        raise ConversionError("$.initializers: expected a list")
    for i, item in enumerate(raw_inits):
        where = f"$.initializers[{i}]"
        if not isinstance(item, dict):
            raise ConversionError(f"{where}: expected an object")
        name = _as_name(_require(item, "name", where), f"{where}.name")
        dims = _as_dims(_require(item, "dims", where), f"{where}.dims")
        values = _require(item, "values", where)
        if not isinstance(values, list):
            raise ConversionError(f"{where}.values: expected a list")
        count = 1
        for d in dims:
            count *= d
        if len(values) != count:
            raise ConversionError(
                f"{where}.values: got {len(values)} values for dims {list(dims)}"
            )
        if name in initializers:
            raise ConversionError(f"{where}: duplicate initializer '{name}'")
        try:
            arr = np.asarray(values, dtype=np.float32).reshape(dims)
        except (TypeError, ValueError) as exc:
            raise ConversionError(f"{where}.values: {exc}") from exc
        initializers[name] = arr

    available = {name for name, _ in inputs} | set(initializers)
    if len(available) != len(inputs) + len(initializers):
        raise ConversionError("$: duplicate names across inputs and initializers")

    nodes = []
    raw_nodes = _require(doc, "nodes", "$")
    if not isinstance(raw_nodes, list):
        raise ConversionError("$.nodes: expected a list")
    for i, item in enumerate(raw_nodes):
        where = f"$.nodes[{i}]"
        if not isinstance(item, dict):
            raise ConversionError(f"{where}: expected an object")
        op = _as_name(_require(item, "op", where), f"{where}.op")
        name = item.get("name") or f"{op}_{i}"
        if op not in SUPPORTED_OPS:
            raise ConversionError(f"{where}: unknown op '{op}' (node '{name}')")
        node_inputs = _require(item, "inputs", where)
        if not isinstance(node_inputs, list):
            raise ConversionError(f"{where}.inputs: expected a list")
        node_inputs = tuple(
            _as_name(s, f"{where}.inputs[{j}]") for j, s in enumerate(node_inputs)
        )
        lo, hi = _INPUT_COUNTS[op]
        if not lo <= len(node_inputs) <= hi:
            raise ConversionError(
                f"{where}: op '{op}' takes {lo}..{hi} inputs, got {len(node_inputs)}"
            )
        for j, src in enumerate(node_inputs):
            if src not in available:
                raise ConversionError(f"{where}.inputs[{j}]: unresolved name '{src}'")
        outputs = _require(item, "outputs", where)
        if not isinstance(outputs, list) or len(outputs) != 1:
            raise ConversionError(f"{where}.outputs: exactly one output required")
        output = _as_name(outputs[0], f"{where}.outputs[0]")
        if output in available:
            raise ConversionError(f"{where}: output '{output}' already defined")
        attributes = item.get("attributes", {})
        if not isinstance(attributes, dict):
            raise ConversionError(f"{where}.attributes: expected an object")
        if op == "Conv" and node_inputs[1] not in initializers:
            raise ConversionError(f"{where}: Conv weight must be an initializer")
        available.add(output)
        nodes.append(InterchangeNode(op, name, node_inputs, output, attributes))

    output = _as_name(_require(doc, "output", "$"), "$.output")
    if output not in available:
        raise ConversionError(f"$.output: unresolved name '{output}'")
    return InterchangeGraph(tuple(inputs), initializers, tuple(nodes), output)


def detect_binary_convs(g: InterchangeGraph) -> set[str]:
    """Conv nodes that are binary by construction.

    A Conv qualifies when its data input is produced by a Sign node and its
    weight initializer contains exactly ±1.0 values and nothing else.
    """
    sign_outputs = {n.output for n in g.nodes if n.op == "Sign"}
    detected = set()
    for node in g.nodes:
        if node.op != "Conv" or node.inputs[0] not in sign_outputs:
            continue
        w = g.initializers.get(node.inputs[1])
        if w is None or w.size == 0:
            continue
        if bool(np.all((w == np.float32(1.0)) | (w == np.float32(-1.0)))):
            detected.add(node.name)
    return detected


def pack_conv_weight(values: np.ndarray, c2: int = 128) -> PackedWeight:
    """Pack an (out, in, kh, kw) ±-signed filter bank into per-filter bit rows.

    The bank is packed as an NCHW tensor, then row m is reordered to walk
    taps kernel-row major, then kernel column, then channel group: exactly
    the order im2col produces columns.
    """
    w = np.asarray(values, dtype=np.float32)
    if w.ndim != 4:
        raise ValueError("expected (out, in, kh, kw) weights")
    m, c, kh, kw = w.shape
    packed = pack_to_nc1hwc2(FloatTensor.from_array(w, Layout.NCHW), c2)
    k = kh * kw * packed.c1
    rows = packed.data.transpose(0, 2, 3, 1, 4).reshape(m, k, packed.c2 // 8)
    return PackedWeight((m, c, kh, kw), packed.c2, BinMatrix(m, k, packed.c2, rows))


def unpack_conv_weight(weight: PackedWeight) -> np.ndarray:
    """Recover the ±1 float32 (out, in, kh, kw) filter bank from packed rows."""
    m, c, kh, kw = weight.dims
    c1 = group_count(c, weight.c2)
    groups = weight.matrix.data.reshape(m, kh, kw, c1, weight.c2 // 8)
    packed = PackedTensor(weight.dims, weight.c2, groups.transpose(0, 3, 1, 2, 4))
    return unpack_from_nc1hwc2(packed).nhwc_array().transpose(0, 3, 1, 2).copy()


@dataclass(frozen=True)
class ConvertOptions:
    c2: int = 128
    fuse_bn_sign: bool = False


@dataclass
class ConversionReport:
    """Per-initializer byte accounting plus conversion warnings.

    ``ratio`` is total bytes before over total bytes after; initializers
    created by rewrites count 0 before, dropped ones count 0 after.
    """

    initializers: list[dict] = field(default_factory=list)
    ratio: float = 1.0
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "initializers": self.initializers,
                "ratio": self.ratio,
                "warnings": self.warnings,
            },
            indent=2,
        )


def _attr_pair(node: InterchangeNode, key: str, default) -> tuple[int, int]:
    value = node.attributes.get(key, default)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) for v in value)
    ):
        raise ConversionError(f"node '{node.name}': bad '{key}' attribute")
    return (value[0], value[1])


def _attr_pads(node: InterchangeNode) -> tuple[int, int]:
    value = node.attributes.get("pads", [0, 0, 0, 0])
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or not all(isinstance(v, int) and v >= 0 for v in value)
    ):
        raise ConversionError(f"node '{node.name}': bad 'pads' attribute")
    top, left, bottom, right = value
    if top != bottom or left != right:
        raise ConversionError(f"node '{node.name}': asymmetric pads unsupported")
    return (top, left)


def _require_attr(node: InterchangeNode, key: str, expected) -> None:
    value = node.attributes.get(key, expected)
    if value != expected:
        raise ConversionError(
            f"node '{node.name}': unsupported '{key}' value {value!r}"
        )


def _param_init(g: InterchangeGraph, node: InterchangeNode, idx: int) -> str:
    name = node.inputs[idx]
    if name not in g.initializers:
        raise ConversionError(
            f"node '{node.name}': input '{name}' must be an initializer"
        )
    return name


class _GraphBuilder:
    def __init__(self, g: InterchangeGraph, options: ConvertOptions) -> None:
        self.source = g
        self.options = options
        self.nodes: list[Node] = []
        self.inits: dict[str, Initializer] = {}
        self.warnings: list[str] = []
        self.binary = detect_binary_convs(g)
        self.input_refs: dict[str, int] = {}
        for node in g.nodes:
            for src in node.inputs:
                self.input_refs[src] = self.input_refs.get(src, 0) + 1

    def _copy_float(self, name: str) -> str:
        self.inits.setdefault(name, self.source.initializers[name])
        return name

    def convert_node(self, node: InterchangeNode) -> None:
        op = node.op
        if op == "Sign":
            self.nodes.append(Node(OpKind.SIGN, node.name, node.inputs, node.output))
        elif op == "Conv":
            self._convert_conv(node)
        elif op == "BatchNormalization":
            eps = float(node.attributes.get("epsilon", 1e-5))
            params = tuple(
                self._copy_float(_param_init(self.source, node, i)) for i in range(1, 5)
            )
            self.nodes.append(
                Node(
                    OpKind.BATCH_NORM,
                    node.name,
                    node.inputs[:1],
                    node.output,
                    NodeAttrs(epsilon=eps),
                    params,
                )
            )
        elif op == "Relu":
            self.nodes.append(Node(OpKind.RELU, node.name, node.inputs, node.output))
        elif op in ("MaxPool", "AveragePool"):
            if op == "AveragePool":
                _require_attr(node, "count_include_pad", 0)
            kind = OpKind.MAX_POOL if op == "MaxPool" else OpKind.AVG_POOL
            attrs = NodeAttrs(
                kernel=_attr_pair(node, "kernel_shape", None),
                stride=_attr_pair(node, "strides", [1, 1]),
                padding=_attr_pads(node),
            )
            self.nodes.append(Node(kind, node.name, node.inputs, node.output, attrs))
        elif op == "GlobalAveragePool":
            self.nodes.append(
                Node(OpKind.GLOBAL_AVG_POOL, node.name, node.inputs, node.output)
            )
        elif op == "Add":
            for src in node.inputs:
                if src in self.source.initializers:
                    raise ConversionError(
                        f"node '{node.name}': Add with initializer input unsupported"
                    )
            self.nodes.append(Node(OpKind.ADD, node.name, node.inputs, node.output))
        elif op == "Gemm":
            _require_attr(node, "alpha", 1.0)
            _require_attr(node, "beta", 1.0)
            _require_attr(node, "transA", 0)
            _require_attr(node, "transB", 1)
            names = [self._copy_float(_param_init(self.source, node, 1))]
            if len(node.inputs) > 2:
                names.append(self._copy_float(_param_init(self.source, node, 2)))
            self.nodes.append(
                Node(
                    OpKind.FULLY_CONNECTED,
                    node.name,
                    node.inputs[:1],
                    node.output,
                    weights=tuple(names),
                )
            )
        elif op == "Flatten":
            _require_attr(node, "axis", 1)
            self.nodes.append(Node(OpKind.FLATTEN, node.name, node.inputs, node.output))
        else:  # unreachable after parse validation
            raise ConversionError(f"node '{node.name}': unknown op '{op}'")

    def _convert_conv(self, node: InterchangeNode) -> None:
        _require_attr(node, "group", 1)
        _require_attr(node, "dilations", [1, 1])
        weight_name = node.inputs[1]
        w = self.source.initializers[weight_name]
        if w.ndim != 4:
            raise ConversionError(
                f"node '{node.name}': Conv weights must have 4 dims, got {w.ndim}"
            )
        kernel = _attr_pair(node, "kernel_shape", list(w.shape[2:]))
        if tuple(kernel) != w.shape[2:]:
            raise ConversionError(
                f"node '{node.name}': kernel_shape does not match weight extents"
            )
        stride = _attr_pair(node, "strides", [1, 1])
        padding = _attr_pads(node)
        attrs = NodeAttrs(kernel=kernel, stride=stride, padding=padding)
        has_bias = len(node.inputs) > 2
        shared = self.input_refs.get(weight_name, 0) > 1
        if node.name in self.binary and has_bias:
            self.warnings.append(
                f"conv '{node.name}': bias input prevents binary packing; kept full precision"
            )
        if node.name in self.binary and shared and not has_bias:
            self.warnings.append(
                f"conv '{node.name}': weight '{weight_name}' is shared; kept full precision"
            )
        if node.name in self.binary and not has_bias and not shared:
            packed = pack_conv_weight(w, self.options.c2)
            self.inits[weight_name] = packed
            if max(padding) > 0:
                self.warnings.append(
                    f"conv '{node.name}': border taps use +1 padding after binarization, "
                    "not the float zero padding"
                )
            self.nodes.append(
                Node(
                    OpKind.BINARY_CONV,
                    node.name,
                    node.inputs[:1],
                    node.output,
                    attrs,
                    (weight_name,),
                )
            )
            return
        names = [self._copy_float(weight_name)]
        if has_bias:
            names.append(self._copy_float(_param_init(self.source, node, 2)))
        self.nodes.append(
            Node(
                OpKind.FLOAT_CONV,
                node.name,
                node.inputs[:1],
                node.output,
                attrs,
                tuple(names),
            )
        )


def _key_to_float(keys: np.ndarray) -> np.ndarray:
    """Inverse of ``float_order_key``."""
    keys = np.asarray(keys, dtype=np.uint32)
    pos = keys >= np.uint32(0x80000000)
    bits = np.where(pos, keys - np.uint32(0x80000000), np.uint32(0xFFFFFFFF) - keys)
    return bits.astype(np.uint32).view(np.float32)


def _threshold_tables(gamma, beta, mean, scale):
    """Per-channel (boundary key, invert flag) reproducing signbit(bn(x)).

    Every float32 step of the normalization is weakly monotone in x, so per
    channel the sign bit as a function of the float total-order key flips at
    most once.  The boundary is found by bisection over the uint32 key space
    using the normalization arithmetic itself, which makes the fused
    comparison exact for every non-NaN float32 input, infinities included.
    Callers must rule out zero gamma first: there an overflowed intermediate
    turns into NaN and the sign is no longer a single threshold.
    """
    c = gamma.shape[0]

    def signbit_at(keys: np.ndarray) -> np.ndarray:
        x = _key_to_float(keys)
        with np.errstate(over="ignore", invalid="ignore"):
            y = ((x - mean) / scale) * gamma + beta
        return np.ascontiguousarray(y, dtype=np.float32).view(np.uint32) >> np.uint32(31)

    lo_key = int(float_order_key([-np.inf])[0])
    hi_key = int(float_order_key([np.inf])[0])
    p_lo = signbit_at(np.full(c, lo_key, np.uint32))
    p_hi = signbit_at(np.full(c, hi_key, np.uint32))
    direction = (p_lo == 0).astype(np.uint32)  # 1 when the sign bit rises with x
    lo = np.full(c, lo_key, np.uint64)
    hi = np.full(c, hi_key, np.uint64)
    for _ in range(33):
        if int((hi - lo).max()) <= 1:
            break
        mid = (lo + hi) >> np.uint64(1)
        q = signbit_at(mid.astype(np.uint32)) ^ direction
        lo = np.where(q == 1, mid, lo)
        hi = np.where(q == 1, hi, mid)
    boundary = hi.astype(np.uint32)
    constant = p_lo == p_hi
    keys = np.where(constant, np.uint32(0), boundary)
    invert = np.where(constant, p_lo, direction).astype(np.uint8)
    return keys, invert


def _fuse_bn_sign(
    nodes: list[Node],
    inits: dict[str, Initializer],
    graph_output: str,
    warnings: list[str],
) -> list[Node]:
    """Replace BatchNorm -> Sign pairs with a single threshold comparison.

    Only fused when the Sign node is the sole consumer of the BatchNorm
    output and that output is not the graph output; degenerate parameters
    (non-finite, or a zero denominator) are skipped with a warning.
    """
    by_input: dict[str, list[Node]] = {}
    for node in nodes:
        for src in node.inputs:
            by_input.setdefault(src, []).append(node)
    fused: dict[str, Node] = {}  # bn output -> replacement
    dropped: set[str] = set()
    for node in nodes:
        if node.kind is not OpKind.BATCH_NORM or node.output == graph_output:
            continue
        users = by_input.get(node.output, [])
        if len(users) != 1 or users[0].kind is not OpKind.SIGN:
            continue
        sign = users[0]
        gamma, beta, mean, var = (np.asarray(inits[n], np.float32) for n in node.weights)
        eps = node.attrs.epsilon if node.attrs.epsilon is not None else 1e-5
        finite = (
            np.all(np.isfinite(gamma))
            and np.all(gamma != 0)
            and np.all(np.isfinite(beta))
            and np.all(np.isfinite(mean))
            and np.all(np.isfinite(var))
            and np.all(var >= 0)
        )
        scale = floatops.bn_scale(var, eps) if finite else None
        if scale is None or not np.all(np.isfinite(scale) & (scale > 0)):
            warnings.append(
                f"bn '{node.name}': degenerate parameters, fusion with '{sign.name}' skipped"
            )
            continue
        keys, invert = _threshold_tables(gamma, beta, mean, scale)
        key_name = f"{node.name}.thresh_key"
        inv_name = f"{node.name}.thresh_invert"
        inits[key_name] = keys.view(np.float32)
        inits[inv_name] = invert.astype(np.float32)
        fused[node.output] = Node(
            OpKind.THRESHOLD_SIGN,
            f"{node.name}+{sign.name}",
            node.inputs,
            sign.output,
            weights=(key_name, inv_name),
        )
        dropped.add(sign.name)
    if not fused:
        return nodes
    out: list[Node] = []
    for node in nodes:
        if node.kind is OpKind.BATCH_NORM and node.output in fused:
            out.append(fused[node.output])
        elif node.kind is OpKind.SIGN and node.name in dropped:
            continue
        else:
            out.append(node)
    return out


def _payload_bytes(init: Initializer) -> int:
    if isinstance(init, PackedWeight):
        return init.matrix.data.nbytes
    return int(np.asarray(init).size) * 4


def convert_model(
    g: InterchangeGraph, options: ConvertOptions = ConvertOptions()
) -> tuple[PackedModel, ConversionReport]:
    """Convert an interchange graph into a packed model plus a size report."""
    check_group_bits(options.c2)
    builder = _GraphBuilder(g, options)
    for node in g.nodes:
        builder.convert_node(node)
    nodes = builder.nodes
    inits = builder.inits
    if options.fuse_bn_sign:
        nodes = _fuse_bn_sign(nodes, inits, g.output, builder.warnings)

    referenced: set[str] = set()
    for node in nodes:
        referenced.update(node.weights)
    for name in list(inits):
        if name not in referenced:
            del inits[name]

    rows = []
    before_total = after_total = 0
    for name, arr in g.initializers.items():
        before = arr.size * 4
        after = _payload_bytes(inits[name]) if name in inits else 0
        rows.append({"name": name, "bytes_before": before, "bytes_after": after})
        before_total += before
        after_total += after
    for name in inits:
        if name not in g.initializers:
            after = _payload_bytes(inits[name])
            rows.append({"name": name, "bytes_before": 0, "bytes_after": after})
            after_total += after

    ratio = (before_total / after_total) if after_total else 1.0
    report = ConversionReport(rows, float(ratio), builder.warnings)

    for name, dims in g.inputs:
        if len(dims) != 4:
            raise ConversionError(f"graph input '{name}' must have 4 dims")
    graph_inputs = tuple(GraphInput(name, dims) for name, dims in g.inputs)
    try:
        graph = Graph(tuple(nodes), graph_inputs, inits, g.output)
    except GraphError as exc:
        raise ConversionError(str(exc)) from exc
    return PackedModel(graph), report
