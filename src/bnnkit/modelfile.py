"""Binary serialization of packed models.

File layout, all little-endian:

    magic "DABN" | version u32 | graph_len u32 | weight_len u64
    graph section | weight section | crc32 u32 over everything before it

The graph section holds node records (op code u8, name/input/output/weight
string indices, attribute records), the graph inputs with their extents,
the output name, and finally a string table with every name in first-use
order (length-prefixed UTF-8).  The weight section holds one record per
initializer: name index, kind (0 float / 1 packed), extents, the group
width for packed weights, then the raw payload.

Serialization is canonical, and loading accepts only that encoding: every
file that loads saves back to the same bytes.  Loading raises
``ModelFormatError`` for names that are not UTF-8, a string table that does
not hold each name once in first-use order, repeated initializer names,
initializer records out of ``_initializer_order``, attribute records out of
key order or that do not re-pack to their bytes, float initializers of more
dims than numpy can build and nonzero channel pad bits.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .kernels import BinMatrix
from .layout import check_group_bits, group_count
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
)

__all__ = [
    "ModelFormatError",
    "MAGIC",
    "FORMAT_VERSION",
    "serialize_model",
    "deserialize_model",
    "save_model",
    "load_model",
]

MAGIC = b"DABN"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIIQ")
_TRAILER = struct.Struct("<I")

# Wire op codes are part of the format; never renumber.
_OP_TO_CODE = {
    OpKind.SIGN: 0,
    OpKind.BINARY_CONV: 1,
    OpKind.FLOAT_CONV: 2,
    OpKind.BATCH_NORM: 3,
    OpKind.RELU: 4,
    OpKind.MAX_POOL: 5,
    OpKind.AVG_POOL: 6,
    OpKind.GLOBAL_AVG_POOL: 7,
    OpKind.ADD: 8,
    OpKind.FULLY_CONNECTED: 9,
    OpKind.FLATTEN: 10,
    OpKind.THRESHOLD_SIGN: 11,
}
_CODE_TO_OP = {v: k for k, v in _OP_TO_CODE.items()}

# Attribute record key -> (NodeAttrs field, payload format).  Keys are part
# of the format; never renumber.
_ATTRS = {
    0: ("kernel", "<2i"),
    1: ("stride", "<2i"),
    2: ("padding", "<2i"),
    3: ("epsilon", "<f"),
}
_KIND_FLOAT, _KIND_PACKED = 0, 1


class ModelFormatError(ValueError):
    """Raised when model bytes cannot be parsed or fail their checksum."""


def _pack_attrs(attrs: NodeAttrs) -> bytes:
    records = []
    for key, (field, fmt) in _ATTRS.items():
        value = getattr(attrs, field)
        if value is not None:
            values = value if isinstance(value, tuple) else (value,)
            records.append(struct.pack("<B", key) + struct.pack(fmt, *values))
    return struct.pack("<B", len(records)) + b"".join(records)


def _initializer_order(graph: Graph) -> list[str]:
    """Initializers in first-read order, then the unread ones by name."""
    read = dict.fromkeys(name for node in graph.nodes for name in node.weights)
    return [*read, *sorted(graph.initializers.keys() - read)]


def _pack_initializer(name_idx: int, init: Initializer) -> bytes:
    if isinstance(init, PackedWeight):
        m, c, kh, kw = init.dims
        head = struct.pack("<IBB4I", name_idx, _KIND_PACKED, 4, m, c, kh, kw)
        head += struct.pack("<I", init.c2)
        return head + init.matrix.data.tobytes()
    arr = np.ascontiguousarray(init, dtype="<f4")
    head = struct.pack("<IBB", name_idx, _KIND_FLOAT, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def serialize_model(model: PackedModel) -> bytes:
    graph = model.graph
    table: dict[str, int] = {}  # string -> index, in first-use order

    def idx(s: str) -> int:
        return table.setdefault(s, len(table))

    body = bytearray(struct.pack("<I", len(graph.nodes)))
    for node in graph.nodes:
        body += struct.pack("<BI", _OP_TO_CODE[node.kind], idx(node.name))
        body += struct.pack("<I", len(node.inputs))
        for s in node.inputs:
            body += struct.pack("<I", idx(s))
        body += struct.pack("<I", idx(node.output))
        body += struct.pack("<I", len(node.weights))
        for s in node.weights:
            body += struct.pack("<I", idx(s))
        body += _pack_attrs(node.attrs)
    body += struct.pack("<I", len(graph.inputs))
    for gi in graph.inputs:
        body += struct.pack("<I4I", idx(gi.name), *gi.dims)
    body += struct.pack("<I", idx(graph.output))
    order = _initializer_order(graph)
    weights = bytearray(struct.pack("<I", len(order)))
    for name in order:
        weights += _pack_initializer(idx(name), graph.initializers[name])
    body += struct.pack("<I", len(table))
    for s in table:
        raw = s.encode("utf-8")
        body += struct.pack("<I", len(raw)) + raw
    payload = _HEADER.pack(MAGIC, FORMAT_VERSION, len(body), len(weights))
    payload += bytes(body) + bytes(weights)
    return payload + _TRAILER.pack(zlib.crc32(payload))


class _Reader:
    def __init__(self, data: bytes, start: int, end: int) -> None:
        self._data = data
        self._pos = start
        self._end = end

    @property
    def exhausted(self) -> bool:
        return self._pos == self._end

    def take(self, n: int) -> bytes:
        if self._pos + n > self._end:
            raise ModelFormatError("truncated payload")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack(self, fmt: str):
        s = struct.Struct(fmt)
        return s.unpack(self.take(s.size))

    def u8(self) -> int:
        return self.unpack("<B")[0]

    def u32(self) -> int:
        return self.unpack("<I")[0]


def _read_attrs(r: _Reader) -> NodeAttrs:
    fields: dict = {}
    last = -1
    records = bytearray([r.u8()])
    for _ in range(records[0]):
        key = r.u8()
        if key not in _ATTRS:
            raise ModelFormatError(f"unknown attribute key {key}")
        if key <= last:  # ``_pack_attrs`` writes each key once, in increasing order
            raise ModelFormatError(f"attribute key {key} out of order or repeated")
        last = key
        field, fmt = _ATTRS[key]
        payload = r.take(struct.calcsize(fmt))
        records += bytes([key]) + payload
        values = struct.unpack(fmt, payload)
        fields[field] = values if len(values) > 1 else values[0]
    attrs = NodeAttrs(**fields)
    # NodeAttrs rounds epsilon through float32, which quiets a signalling NaN
    if _pack_attrs(attrs) != records:
        raise ModelFormatError("attribute record does not re-pack to its bytes")
    return attrs


def _read_initializer(r: _Reader) -> tuple[int, Initializer]:
    name_idx = r.u32()
    kind = r.u8()
    rank = r.u8()
    extents = tuple(r.unpack(f"<{rank}I")) if rank else ()
    if kind == _KIND_FLOAT:
        raw = r.take(math.prod(extents) * 4)
        try:  # the payload fits the extents, so only a rank numpy cannot build fails
            return name_idx, np.frombuffer(raw, dtype="<f4").reshape(extents)
        except ValueError as exc:
            raise ModelFormatError(f"invalid float initializer: {exc}") from exc
    if kind == _KIND_PACKED:
        if rank != 4:
            raise ModelFormatError("packed initializer must have 4 extents")
        m, c, kh, kw = extents
        c2 = r.u32()
        try:
            check_group_bits(c2)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
        k = kh * kw * group_count(c, c2)
        raw = r.take(m * k * (c2 // 8))
        data = np.frombuffer(raw, dtype=np.uint8).reshape(m, k, c2 // 8)
        try:
            weight = PackedWeight((m, c, kh, kw), c2, BinMatrix(m, k, c2, data))
        except ValueError as exc:
            raise ModelFormatError(f"invalid packed initializer: {exc}") from exc
        return name_idx, weight
    raise ModelFormatError(f"unknown initializer kind {kind}")


def deserialize_model(data: bytes) -> PackedModel:
    if len(data) < 4 or data[:4] != MAGIC:
        raise ModelFormatError("bad magic")
    if len(data) < _HEADER.size:
        raise ModelFormatError("truncated payload")
    _, version, graph_len, weight_len = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise ModelFormatError("unsupported version")
    expected = _HEADER.size + graph_len + weight_len + _TRAILER.size
    if len(data) < expected:
        raise ModelFormatError("truncated payload")
    if len(data) > expected:
        raise ModelFormatError("trailing bytes")
    (stored_crc,) = _TRAILER.unpack_from(data, expected - _TRAILER.size)
    if zlib.crc32(memoryview(data)[: expected - _TRAILER.size]) != stored_crc:
        raise ModelFormatError("checksum mismatch")

    g = _Reader(data, _HEADER.size, _HEADER.size + graph_len)
    raw_nodes = []
    for _ in range(g.u32()):
        code = g.u8()
        op = _CODE_TO_OP.get(code)
        if op is None:
            raise ModelFormatError(f"unknown op code {code}")
        name_idx = g.u32()
        input_idxs = [g.u32() for _ in range(g.u32())]
        output_idx = g.u32()
        weight_idxs = [g.u32() for _ in range(g.u32())]
        attrs = _read_attrs(g)
        raw_nodes.append((op, name_idx, input_idxs, output_idx, weight_idxs, attrs))
    raw_inputs = [(g.u32(), g.unpack("<4I")) for _ in range(g.u32())]
    output_idx = g.u32()
    strings = []
    for _ in range(g.u32()):
        try:
            strings.append(g.take(g.u32()).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError("string table entry is not valid UTF-8") from exc
    if not g.exhausted:
        raise ModelFormatError("malformed graph section")

    def name(idx: int) -> str:
        if idx >= len(strings):
            raise ModelFormatError("string index out of range")
        return strings[idx]

    w = _Reader(data, _HEADER.size + graph_len, _HEADER.size + graph_len + weight_len)
    initializers: dict[str, Initializer] = {}
    for _ in range(w.u32()):
        name_idx, init = _read_initializer(w)
        key = name(name_idx)
        if key in initializers:
            raise ModelFormatError(f"duplicate initializer '{key}'")
        initializers[key] = init
    if not w.exhausted:
        raise ModelFormatError("malformed weight section")

    nodes = tuple(
        Node(
            kind=op,
            name=name(name_idx),
            inputs=tuple(name(i) for i in input_idxs),
            output=name(out_idx),
            attrs=attrs,
            weights=tuple(name(i) for i in weight_idxs),
        )
        for op, name_idx, input_idxs, out_idx, weight_idxs, attrs in raw_nodes
    )
    try:
        inputs = tuple(GraphInput(name(i), dims) for i, dims in raw_inputs)
        graph = Graph(nodes, inputs, initializers, name(output_idx))
    except (GraphError, ValueError) as exc:
        raise ModelFormatError(f"invalid graph: {exc}") from exc
    # ``serialize_model`` lists each name once, in first-use order
    used = [s for n in nodes for s in (n.name, *n.inputs, n.output, *n.weights)]
    used += [gi.name for gi in inputs] + [graph.output, *initializers]
    if list(dict.fromkeys(used)) != strings:
        raise ModelFormatError("string table is not each name once in first-use order")
    if list(initializers) != _initializer_order(graph):
        raise ModelFormatError("initializer records out of order")
    return PackedModel(graph)


def save_model(model: PackedModel, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> PackedModel:
    return deserialize_model(Path(path).read_bytes())
