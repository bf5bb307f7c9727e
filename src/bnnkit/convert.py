"""JSON interchange parsing, binary-convolution detection, and model packing.

The interchange document carries standard NCHW operator semantics in JSON:

    {"inputs": [{"name", "dims"}], "initializers": [{"name", "dims",
     "values"}], "nodes": [{"op", "name", "inputs", "outputs",
     "attributes"}], "output": name}

Every supported op is one row of ``_OPS``: the runtime op it becomes, how
many of its inputs are activations, how many initializers follow them, and
the reader of its attributes.  Parsing checks inputs against the row;
conversion reads it once per node, packs the weights of convolutions that
are binary by construction (data input produced by a Sign node, weights
exactly ±1) into per-filter bit rows, and can fold BatchNorm -> Sign pairs
into threshold comparisons on the way.  A report records per-initializer
byte sizes before and after.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.scanner import NUMBER_RE

import numpy as np

from . import floatops
from .kernels import BinMatrix
from .layout import FloatTensor, Layout, check_group_bits, pack_to_nc1hwc2
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
]

# the model format stores extents as u32 and attribute values as i32
_DIM_LIMIT = 1 << 32
_ATTR_LIMIT = 1 << 31


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
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ConversionError(f"{where}: name is not valid UTF-8") from None
    return value


def _is_int(value, lo: int, hi: int) -> bool:
    """A JSON integer in [lo, hi); ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value < hi


def _as_dims(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(_is_int(d, 0, _DIM_LIMIT) for d in value):
        raise ConversionError(
            f"{where}: dims must be non-negative integers below {_DIM_LIMIT}"
        )
    return tuple(value)


def _attr_ints(node: InterchangeNode, key: str, default, count: int, lo: int = -_ATTR_LIMIT):
    value = node.attributes.get(key, default)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != count
        or not all(_is_int(v, lo, _ATTR_LIMIT) for v in value)
    ):
        raise ConversionError(f"node '{node.name}': bad '{key}' attribute")
    return tuple(value)


def _require_attr(node: InterchangeNode, key: str, expected) -> None:
    value = node.attributes.get(key, expected)
    items = value if isinstance(value, list) else [value]
    if value != expected or any(isinstance(v, bool) for v in items):
        raise ConversionError(
            f"node '{node.name}': unsupported '{key}' value {value!r}"
        )


def _window_attrs(node: InterchangeNode, kernel) -> NodeAttrs:
    kernel = _attr_ints(node, "kernel_shape", kernel, 2)
    stride = _attr_ints(node, "strides", [1, 1], 2)
    top, left, bottom, right = _attr_ints(node, "pads", [0, 0, 0, 0], 4, lo=0)
    if top != bottom or left != right:
        raise ConversionError(f"node '{node.name}': asymmetric pads unsupported")
    return NodeAttrs(kernel=kernel, stride=stride, padding=(top, left))


# Attribute readers: (node, its initializer arrays) -> NodeAttrs, raising
# ConversionError for any attribute value the runtime op cannot express.
def _no_attrs(node, params) -> NodeAttrs:
    return NodeAttrs()


def _conv_attrs(node, params) -> NodeAttrs:
    _require_attr(node, "group", 1)
    _require_attr(node, "dilations", [1, 1])
    w = params[0]
    if w.ndim != 4:
        raise ConversionError(
            f"node '{node.name}': Conv weights must have 4 dims, got {w.ndim}"
        )
    return _window_attrs(node, list(w.shape[2:]))


def _batch_norm_attrs(node, params) -> NodeAttrs:
    eps = node.attributes.get("epsilon", 1e-5)
    if not (isinstance(eps, float) or _is_int(eps, -_ATTR_LIMIT, _ATTR_LIMIT)):
        raise ConversionError(f"node '{node.name}': bad 'epsilon' attribute")
    return NodeAttrs(epsilon=eps)


def _pool_attrs(node, params) -> NodeAttrs:
    return _window_attrs(node, None)


def _avg_pool_attrs(node, params) -> NodeAttrs:
    _require_attr(node, "count_include_pad", 0)
    return _window_attrs(node, None)


def _gemm_attrs(node, params) -> NodeAttrs:
    for key, expected in (("alpha", 1.0), ("beta", 1.0), ("transA", 0), ("transB", 1)):
        _require_attr(node, key, expected)
    return NodeAttrs()


def _flatten_attrs(node, params) -> NodeAttrs:
    _require_attr(node, "axis", 1)
    return NodeAttrs()


# Interchange op -> (runtime op, activation inputs, (fewest, most)
# initializer inputs after them, attribute reader).  A Conv becomes
# BINARY_CONV instead when ``detect_binary_convs`` picks it and its weight
# can be packed.
_OPS = {
    "Sign": (OpKind.SIGN, 1, (0, 0), _no_attrs),
    "Conv": (OpKind.FLOAT_CONV, 1, (1, 2), _conv_attrs),
    "BatchNormalization": (OpKind.BATCH_NORM, 1, (4, 4), _batch_norm_attrs),
    "Relu": (OpKind.RELU, 1, (0, 0), _no_attrs),
    "MaxPool": (OpKind.MAX_POOL, 1, (0, 0), _pool_attrs),
    "AveragePool": (OpKind.AVG_POOL, 1, (0, 0), _avg_pool_attrs),
    "GlobalAveragePool": (OpKind.GLOBAL_AVG_POOL, 1, (0, 0), _no_attrs),
    "Add": (OpKind.ADD, 2, (0, 0), _no_attrs),
    "Gemm": (OpKind.FULLY_CONNECTED, 1, (1, 2), _gemm_attrs),
    "Flatten": (OpKind.FLATTEN, 1, (0, 0), _flatten_attrs),
}


def _float32_values(values: list) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError("expected a flat list of numbers")
    # null decodes as NaN; only a document with NaNs pays for the scan
    if np.isnan(arr).any() and None in values:
        raise ValueError("null is not a number")
    # numpy reads the string "1" and true as 1.0.  sum() stops at a string
    # in C time, and a boolean reads as 0 or 1, so only a list that fails
    # sum() or holds a 0 or 1 pays for the scan of every element's type.
    try:
        sum(values)
        plain = not ((arr == 0) | (arr == 1)).any()
    except (TypeError, OverflowError):
        plain = False
    if not plain:
        odd = {type(v).__name__ for v in values} - {"float", "int"}
        if odd:
            raise ValueError(f"expected numbers, got {', '.join(sorted(odd))}")
    return arr


def _decode_object(pairs: list) -> dict:
    """JSON object hook: an initializer's value list becomes a float32 array
    as soon as the decoder closes it, so the parse holds one initializer's
    Python floats at a time.  A list that does not convert stays, for
    ``parse_interchange`` to report with its path."""
    obj = dict(pairs)
    values = obj.get("values")
    if "dims" in obj and isinstance(values, list):
        try:
            obj["values"] = _float32_values(values)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


# A "values" key whose list ``_decode_cut`` may read from the raw text
_VALUES_KEY = re.compile(r'"values"[ \t\n\r]*:[ \t\n\r]*\[')
_WHITESPACE = " \t\n\r"
_CHUNK = 1 << 18
# masks keeping the low n bytes of a little-endian uint64 key, by n
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)


class _Declined(Exception):
    """The cut-out document cannot stand for the original one."""


def _token_keys(chunk: str) -> np.ndarray | None:
    """Each number token of ``chunk``, a comma-cut piece of a number list,
    as a uint64 of its (at most 8) ASCII bytes; None when a token is empty
    or longer, a byte is NUL or not ASCII (a NUL would vanish from a key),
    or whitespace sits anywhere but after the commas."""
    chunk = chunk.strip(_WHITESPACE)
    if "\0" in chunk:
        return None
    try:
        text = np.frombuffer(chunk.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        return None
    commas = np.flatnonzero(text == ord(","))
    # json.dumps writes the same whitespace after every comma: " ", or a
    # newline and an indent.  Tokens start past that many bytes.  Tokens
    # that read as numbers hold no whitespace, so if the chunk holds as
    # much whitespace as it skips, the skipped bytes are all whitespace.
    after = chunk[commas[0] + 1 : commas[0] + 65] if len(commas) else ""
    gap = len(after) - len(after.lstrip(_WHITESPACE))
    starts = np.empty(len(commas) + 1, np.intp)
    starts[0] = 0
    starts[1:] = commas + 1 + gap
    lengths = np.empty_like(starts)
    lengths[:-1] = commas
    lengths[-1] = len(text)
    lengths -= starts
    if lengths.min() < 1 or lengths.max() > 8:
        return None
    if sum(np.count_nonzero(text == ord(c)) for c in _WHITESPACE) != gap * len(commas):
        return None
    padded = np.zeros(len(text) + 8, np.uint8)
    padded[: len(text)] = text
    words = np.ndarray(len(text), "<u8", padded, strides=(1,))
    return words[starts] & _KEY_MASKS[lengths]


def _read_tokens(keys: np.ndarray) -> list | None:
    """The numbers json reads from the tokens ``keys`` spell, or None when
    one is not a JSON number."""
    numbers = []
    for key in keys.tolist():
        token = key.to_bytes(8, "little").rstrip(b"\0").decode("ascii")
        match = NUMBER_RE.fullmatch(token)
        if match is None:
            return None
        _, frac, exp = match.groups()
        numbers.append(float(token) if frac or exp else int(token))
    return numbers


def _read_values(text: str, lo: int, close: int) -> np.ndarray | None:
    """The float32 values of the number list ``text[lo:close]``, or None to
    leave the list to json.

    The list is read in comma-cut chunks of about 256 KB.  Each distinct
    token of a chunk is read once, as json reads it, and converted as
    ``_float32_values`` converts it.  A token longer than 8 bytes or not a
    JSON number (``NaN`` and ``Infinity`` included) declines the list, and
    so does a list where more than one token in eight so far needed its own
    read, which the first chunk decides: a declined list costs one chunk."""
    parts = []
    tokens = distinct_tokens = 0
    pos = lo
    while pos <= close:
        end = close if close - pos <= _CHUNK else text.rfind(",", pos, pos + _CHUNK)
        keys = _token_keys(text[pos:end]) if end >= 0 else None
        if keys is None:
            return None
        ordered = np.sort(keys)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        tokens += len(keys)
        distinct_tokens += len(distinct)
        if 8 * distinct_tokens > tokens:
            return None
        numbers = _read_tokens(distinct)
        if numbers is None:
            return None
        index = np.searchsorted(distinct, keys).astype(np.min_scalar_type(len(distinct)))
        parts.append((np.asarray(numbers, dtype=np.float32), index))
        pos = end + 1
    values = np.empty(tokens, np.float32)
    at = 0
    for numbers, index in parts:
        np.take(numbers, index, out=values[at : at + len(index)])
        at += len(index)
    return values


def _decode_cut(text: str):
    """Decode ``text`` with the number lists of its "values" keys read by
    ``_read_values``, or return None to leave the whole text to json.

    Each list read is cut out of the text and a numbered placeholder string
    takes its place; json decodes the rest, and the object hook puts back
    the float32 values (an object with "dims") or json's own list of the
    cut span (any other object).  A rest that does not decode, an object
    with a repeated key, or a placeholder not found exactly once as the
    value of a "values" key (the key ``"\\"values"`` also matches) sends
    the whole text to json, so every document and error reads as if json
    had decoded it all.  Strict JSON can put a NUL in a string only as the
    escape ``\\u0000``, so a rest holding no escape but the placeholders'
    cannot forge one."""
    pieces, lists = [], []
    done = pos = 0
    while (match := _VALUES_KEY.search(text, pos)) is not None:
        # the search resumes past the list's "]", read or not, so it never
        # scans a number list; a "values" key skipped inside is json's
        lo = match.end()
        close = text.find("]", lo)
        if close < 0:
            break
        pos = close + 1
        values = _read_values(text, lo, close)
        if values is None:
            continue
        pieces += [text[done : lo - 1], f'"\\u0000{len(lists)}"']
        lists.append((values, lo - 1, pos))
        done = pos
    if not lists:
        return None
    pieces.append(text[done:])
    rest = "".join(pieces)
    if rest.count("\\u0000") != len(lists):
        return None
    slots = {f"\0{i}": i for i in range(len(lists))}
    uses = [0] * len(lists)

    def hook(pairs: list) -> dict:
        obj = _decode_object(pairs)
        if len(obj) != len(pairs):
            raise _Declined  # the dropped value may be a placeholder
        values = obj.get("values")
        if isinstance(values, str) and values in slots:
            i = slots[values]
            uses[i] += 1
            array, start, end = lists[i]
            obj["values"] = array if "dims" in obj else json.loads(text[start:end])
        return obj

    try:
        doc = json.loads(rest, object_pairs_hook=hook)
    except (ValueError, RecursionError, _Declined):
        return None
    return doc if uses == [1] * len(lists) else None


def parse_interchange(text: str) -> InterchangeGraph:
    """Parse and structurally validate an interchange JSON document."""
    doc = _decode_cut(text)
    if doc is None:
        try:
            doc = json.loads(text, object_pairs_hook=_decode_object)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers integers too long to convert, RecursionError
            # nesting too deep for the decoder
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
        if not isinstance(values, (list, np.ndarray)):
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
            if isinstance(values, list):
                values = _float32_values(values)
            initializers[name] = values.reshape(dims)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConversionError(f"{where}.values: {exc}") from exc

    available = {name for name, _ in inputs} | set(initializers)
    if len(available) != len(inputs) + len(initializers):
        raise ConversionError("$: duplicate names across inputs and initializers")

    nodes = []
    node_names: set[str] = set()
    raw_nodes = _require(doc, "nodes", "$")
    if not isinstance(raw_nodes, list):
        raise ConversionError("$.nodes: expected a list")
    for i, item in enumerate(raw_nodes):
        where = f"$.nodes[{i}]"
        if not isinstance(item, dict):
            raise ConversionError(f"{where}: expected an object")
        op = _as_name(_require(item, "op", where), f"{where}.op")
        name = item.get("name")
        name = f"{op}_{i}" if name in (None, "") else _as_name(name, f"{where}.name")
        if name in node_names:
            raise ConversionError(f"{where}: duplicate node name '{name}'")
        node_names.add(name)
        if op not in _OPS:
            raise ConversionError(f"{where}: unknown op '{op}' (node '{name}')")
        node_inputs = _require(item, "inputs", where)
        if not isinstance(node_inputs, list):
            raise ConversionError(f"{where}.inputs: expected a list")
        node_inputs = tuple(
            _as_name(s, f"{where}.inputs[{j}]") for j, s in enumerate(node_inputs)
        )
        _, data, (fewest, most), _ = _OPS[op]
        lo, hi = data + fewest, data + most
        if not lo <= len(node_inputs) <= hi:
            raise ConversionError(
                f"{where}: op '{op}' takes {lo}..{hi} inputs, got {len(node_inputs)}"
            )
        for j, src in enumerate(node_inputs):
            if src not in available:
                raise ConversionError(f"{where}.inputs[{j}]: unresolved name '{src}'")
            if j >= data and src not in initializers:
                raise ConversionError(
                    f"{where}.inputs[{j}]: '{src}' of node '{name}' must be an initializer"
                )
        outputs = _require(item, "outputs", where)
        if not isinstance(outputs, list) or len(outputs) != 1:
            raise ConversionError(f"{where}.outputs: exactly one output required")
        output = _as_name(outputs[0], f"{where}.outputs[0]")
        if output in available:
            raise ConversionError(f"{where}: output '{output}' already defined")
        attributes = item.get("attributes", {})
        if not isinstance(attributes, dict):
            raise ConversionError(f"{where}.attributes: expected an object")
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

    The bank is packed as m * kh * kw one-pixel NHWC images of c channels,
    so row m already walks taps kernel-row major, then kernel column, then
    channel group: exactly the order im2col produces columns.
    """
    w = np.asarray(values, dtype=np.float32)
    if w.ndim != 4:
        raise ValueError("expected (out, in, kh, kw) weights")
    m, c, kh, kw = w.shape
    taps = w.transpose(0, 2, 3, 1).reshape(m * kh * kw, 1, 1, c)
    packed = pack_to_nc1hwc2(FloatTensor.from_array(taps, Layout.NHWC), c2)
    k = kh * kw * packed.c1
    rows = packed.data.reshape(m, k, packed.c2 // 8)
    return PackedWeight((m, c, kh, kw), packed.c2, BinMatrix(m, k, packed.c2, rows))


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


def _key_to_float(keys: np.ndarray) -> np.ndarray:
    """Inverse of ``float_order_key``."""
    keys = np.asarray(keys, dtype=np.uint32)
    pos = keys >= np.uint32(0x80000000)
    bits = np.where(pos, keys - np.uint32(0x80000000), np.uint32(0xFFFFFFFF) - keys)
    return bits.astype(np.uint32).view(np.float32)


def _threshold_tables(gamma, beta, mean, var, eps: float):
    """Per-channel (boundary key, invert flag) reproducing signbit(bn(x)).

    Every float32 step of the normalization is weakly monotone in x, so per
    channel the sign bit as a function of the float total-order key flips at
    most once.  The boundary is found by bisection over the uint32 key space
    using ``floatops.batchnorm`` itself, the arithmetic the unfused node
    runs, which makes the fused comparison exact for every non-NaN float32
    input, infinities included.
    Callers must rule out zero gamma first: there an overflowed intermediate
    turns into NaN and the sign is no longer a single threshold.
    """
    c = gamma.shape[0]

    def signbit_at(keys: np.ndarray) -> np.ndarray:
        x = FloatTensor.from_array(_key_to_float(keys).reshape(1, 1, 1, c))
        with np.errstate(over="ignore", invalid="ignore"):
            y = floatops.batchnorm(x, gamma, beta, mean, var, eps)
        return y.data.view(np.uint32) >> np.uint32(31)

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
    bn: InterchangeNode,
    sign: InterchangeNode,
    params: list[np.ndarray],
    eps: float,
    initializers: dict[str, np.ndarray],
    warnings: list[str],
) -> dict[str, np.ndarray] | None:
    """Threshold tables that replace a BatchNorm -> Sign pair, keyed by name.

    Returns None, with a warning, when the parameters are degenerate
    (non-finite, or a zero denominator) or a table name is already an
    initializer of the document.
    """
    key_name = f"{bn.name}.thresh_key"
    inv_name = f"{bn.name}.thresh_invert"
    taken = [n for n in (key_name, inv_name) if n in initializers]
    if taken:
        warnings.append(
            f"bn '{bn.name}': initializer '{taken[0]}' already exists, "
            f"fusion with '{sign.name}' skipped"
        )
        return None
    gamma, beta, mean, var = (np.asarray(a, np.float32) for a in params)
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
            f"bn '{bn.name}': degenerate parameters, fusion with '{sign.name}' skipped"
        )
        return None
    keys, invert = _threshold_tables(gamma, beta, mean, var, eps)
    return {key_name: keys.view(np.float32), inv_name: invert.astype(np.float32)}


def _payload_bytes(init: Initializer) -> int:
    if isinstance(init, PackedWeight):
        return init.matrix.data.nbytes
    return int(np.asarray(init).size) * 4


def convert_model(
    g: InterchangeGraph, options: ConvertOptions = ConvertOptions()
) -> tuple[PackedModel, ConversionReport]:
    """Convert an interchange graph into a packed model plus a size report."""
    check_group_bits(options.c2)
    binary = detect_binary_convs(g)
    readers: dict[str, list[InterchangeNode]] = {}
    for node in g.nodes:
        for src in node.inputs:
            readers.setdefault(src, []).append(node)
    nodes: list[Node] = []
    inits: dict[str, Initializer] = {}
    warnings: list[str] = []
    fusion_warnings: list[str] = []
    folded: set[str] = set()  # Sign nodes already part of a ThresholdSign
    for node in g.nodes:
        if node.name in folded:
            continue
        kind, data, _, read_attrs = _OPS[node.op]
        inputs, weights = node.inputs[:data], node.inputs[data:]
        name, output = node.name, node.output
        params = [g.initializers[w] for w in weights]
        attrs = read_attrs(node, params)
        added: dict[str, Initializer] = dict(zip(weights, params))
        if node.name in binary:
            if len(weights) > 1:
                warnings.append(
                    f"conv '{node.name}': bias input prevents binary packing; kept full precision"
                )
            elif len(readers[weights[0]]) > 1:
                warnings.append(
                    f"conv '{node.name}': weight '{weights[0]}' is shared; kept full precision"
                )
            else:
                kind = OpKind.BINARY_CONV
                added = {weights[0]: pack_conv_weight(params[0], options.c2)}
                if max(attrs.padding) > 0:
                    warnings.append(
                        f"conv '{node.name}': border taps use +1 padding after binarization, "
                        "not the float zero padding"
                    )
        users = readers.get(output, [])
        if (
            options.fuse_bn_sign
            and kind is OpKind.BATCH_NORM
            and output != g.output
            and len(users) == 1
            and users[0].op == "Sign"
        ):
            sign = users[0]
            tables = _fuse_bn_sign(
                node, sign, params, attrs.epsilon, g.initializers, fusion_warnings
            )
            if tables is not None:
                kind, attrs, weights = OpKind.THRESHOLD_SIGN, NodeAttrs(), tuple(tables)
                name, output, added = f"{node.name}+{sign.name}", sign.output, tables
                folded.add(sign.name)
        inits.update(added)
        nodes.append(Node(kind, name, inputs, output, attrs, weights))

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
    report = ConversionReport(rows, float(ratio), warnings + fusion_warnings)

    try:
        graph_inputs = tuple(GraphInput(name, dims) for name, dims in g.inputs)
        graph = Graph(tuple(nodes), graph_inputs, inits, g.output)
    except (GraphError, ValueError) as exc:
        raise ConversionError(str(exc)) from exc
    return PackedModel(graph), report
