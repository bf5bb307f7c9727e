import functools
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refeval
from bnnkit.cli import main
from bnnkit.convert import (
    ConvertOptions,
    convert_model,
    pack_conv_weight,
    parse_interchange,
)
from bnnkit.modelfile import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from bnnkit.nets import build_birealnet18
from bnnkit.layout import FloatTensor
from bnnkit.runtime import (
    Graph,
    GraphInput,
    Node,
    NodeAttrs,
    OpKind,
    PackedModel,
    PackedWeight,
)
from bnnkit.tensorio import write_tensor


def tiny_model():
    graph = Graph(
        nodes=(Node(OpKind.SIGN, "s", ("input",), "out"),),
        inputs=(GraphInput("input", (1, 1, 2, 2)),),
        initializers={},
        output="out",
    )
    return PackedModel(graph)


def rich_model(rng):
    """One node of every kind, float and packed weights, and an orphan initializer."""
    wv = rng.choice(np.array([-1.0, 1.0], np.float32), size=(4, 6, 3, 3))
    inits = {
        "conv.w": pack_conv_weight(wv, 16),
        "fconv.w": rng.standard_normal((6, 6, 1, 1)).astype(np.float32),
        "fconv.b": rng.standard_normal(6).astype(np.float32),
        "bn.g": rng.uniform(0.5, 1.5, 4).astype(np.float32),
        "bn.b": rng.standard_normal(4).astype(np.float32),
        "bn.mu": rng.standard_normal(4).astype(np.float32),
        "bn.var": rng.uniform(0.5, 1.5, 4).astype(np.float32),
        "ts.k": rng.integers(0, 2**32, 4, dtype=np.uint32).view(np.float32),
        "ts.i": rng.integers(0, 2, 4).astype(np.float32),
        "fc.w": rng.standard_normal((3, 4)).astype(np.float32),
        "orphan Δ": rng.standard_normal(2).astype(np.float32),
    }
    nodes = (
        Node(
            OpKind.FLOAT_CONV,
            "fconv",
            ("input",),
            "fconv.out",
            NodeAttrs(kernel=(1, 1), stride=(1, 1), padding=(0, 0)),
            ("fconv.w", "fconv.b"),
        ),
        Node(OpKind.SIGN, "sign", ("fconv.out",), "sign.out"),
        Node(
            OpKind.BINARY_CONV,
            "conv",
            ("sign.out",),
            "conv.out",
            NodeAttrs(kernel=(3, 3), stride=(1, 1), padding=(1, 1)),
            ("conv.w",),
        ),
        Node(
            OpKind.BATCH_NORM,
            "bn",
            ("conv.out",),
            "bn.out",
            NodeAttrs(epsilon=1e-4),
            ("bn.g", "bn.b", "bn.mu", "bn.var"),
        ),
        Node(OpKind.THRESHOLD_SIGN, "ts", ("bn.out",), "ts.out", weights=("ts.k", "ts.i")),
        Node(OpKind.RELU, "relu", ("ts.out",), "relu.out"),
        Node(
            OpKind.MAX_POOL,
            "mp",
            ("relu.out",),
            "mp.out",
            NodeAttrs(kernel=(2, 2), stride=(2, 2), padding=(0, 0)),
        ),
        Node(
            OpKind.AVG_POOL,
            "ap",
            ("mp.out",),
            "ap.out",
            NodeAttrs(kernel=(2, 2), stride=(1, 1), padding=(1, 1)),
        ),
        Node(OpKind.ADD, "add", ("ap.out", "ap.out"), "add.out"),
        Node(OpKind.GLOBAL_AVG_POOL, "gap", ("add.out",), "gap.out"),
        Node(OpKind.FLATTEN, "flat", ("gap.out",), "flat.out"),
        Node(OpKind.FULLY_CONNECTED, "fc", ("flat.out",), "out", weights=("fc.w",)),
    )
    graph = Graph(
        nodes=nodes,
        inputs=(GraphInput("input", (1, 6, 8, 8)),),
        initializers=inits,
        output="out",
    )
    return PackedModel(graph)


def reseal(raw) -> bytes:
    """Recompute the CRC trailer over mutated model bytes."""
    body = bytes(raw[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def with_extra_byte(raw: bytes, section: str) -> bytes:
    """Append one zero byte to the graph or weight section, rebuilding its
    length in the header and the CRC trailer."""
    _, version, graph_len, weight_len = struct.unpack_from("<4sIIQ", raw)
    end = 20 + graph_len + (weight_len if section == "weight" else 0)
    graph_len += section == "graph"
    weight_len += section == "weight"
    header = struct.pack("<4sIIQ", MAGIC, version, graph_len, weight_len)
    return reseal(header + raw[20:end] + b"\x00" + raw[end:])


def assert_graphs_equal(a: Graph, b: Graph) -> None:
    assert a.nodes == b.nodes
    assert a.inputs == b.inputs
    assert a.output == b.output
    assert set(a.initializers) == set(b.initializers)
    for name, init in a.initializers.items():
        other = b.initializers[name]
        if isinstance(init, PackedWeight):
            assert init == other
        else:
            assert isinstance(other, np.ndarray)
            assert init.shape == other.shape
            assert init.tobytes() == other.tobytes()


class TestRoundTrip:
    def test_tiny(self):
        raw = serialize_model(tiny_model())
        model = deserialize_model(raw)
        assert serialize_model(model) == raw

    def test_every_op_kind(self, rng):
        original = rich_model(rng)
        raw = serialize_model(original)
        model = deserialize_model(raw)
        assert serialize_model(model) == raw
        assert_graphs_equal(original.graph, model.graph)

    def test_converted_model_with_fusion(self, rng):
        text = refeval.random_interchange_doc(
            np.random.default_rng(11), force_fusable=True
        )
        model, _ = convert_model(
            parse_interchange(text), ConvertOptions(c2=16, fuse_bn_sign=True)
        )
        raw = serialize_model(model)
        assert serialize_model(deserialize_model(raw)) == raw

    def test_serialization_is_deterministic(self, rng):
        model = rich_model(rng)
        assert serialize_model(model) == serialize_model(model)

    def test_save_load_files(self, tmp_path, rng):
        model = rich_model(rng)
        path = tmp_path / "model.dabn"
        save_model(model, path)
        loaded = load_model(path)
        assert_graphs_equal(model.graph, loaded.graph)
        save_model(loaded, tmp_path / "again.dabn")
        assert path.read_bytes() == (tmp_path / "again.dabn").read_bytes()

    def test_packed_weights_are_aligned_copies(self):
        # a packed row is read as 64-bit words; memoryview slices of the file
        # put them at any address
        model = deserialize_model(bireal32_bytes())
        packed = [
            w.matrix.data
            for w in model.graph.initializers.values()
            if isinstance(w, PackedWeight)
        ]
        assert len(packed) == 16
        for data in packed:
            assert data.ctypes.data % 8 == 0
            while isinstance(data, np.ndarray):
                data = data.base
            assert type(data) is bytes

    def test_header_fields(self):
        raw = serialize_model(tiny_model())
        magic, version, graph_len, weight_len = struct.unpack_from("<4sIIQ", raw)
        assert magic == MAGIC
        assert version == FORMAT_VERSION
        assert len(raw) == 20 + graph_len + weight_len + 4


class TestCorruption:
    def test_bad_magic(self):
        raw = bytearray(serialize_model(tiny_model()))
        raw[:4] = b"NOPE"
        with pytest.raises(ModelFormatError, match="bad magic"):
            deserialize_model(bytes(raw))

    def test_unsupported_version(self):
        raw = bytearray(serialize_model(tiny_model()))
        raw[4:8] = struct.pack("<I", 2)
        with pytest.raises(ModelFormatError, match="unsupported version"):
            deserialize_model(bytes(raw))

    def test_checksum_mismatch(self):
        raw = bytearray(serialize_model(tiny_model()))
        raw[24] ^= 0xFF
        with pytest.raises(ModelFormatError, match="checksum mismatch"):
            deserialize_model(bytes(raw))

    def test_truncated(self):
        raw = serialize_model(tiny_model())
        with pytest.raises(ModelFormatError, match="truncated payload"):
            deserialize_model(raw[:-3])

    def test_header_shorter_than_20_bytes(self, tmp_path, capsys):
        raw = serialize_model(tiny_model())[:19]
        assert raw[:4] == MAGIC
        with pytest.raises(ModelFormatError, match="truncated payload"):
            deserialize_model(raw)
        model, x = tmp_path / "m.dabn", tmp_path / "x.bin"
        model.write_bytes(raw)
        write_tensor(x, FloatTensor.from_array(np.zeros((1, 2, 2, 1), np.float32)))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: bad model file: truncated payload"]

    @pytest.mark.parametrize("section", ["graph", "weight"])
    def test_extra_byte_inside_section(self, section):
        raw = with_extra_byte(serialize_model(tiny_model()), section)
        with pytest.raises(ModelFormatError, match=f"malformed {section} section"):
            deserialize_model(raw)

    def test_trailing_bytes(self):
        raw = serialize_model(tiny_model())
        with pytest.raises(ModelFormatError, match="trailing bytes"):
            deserialize_model(raw + b"\x00")

    def test_unknown_op_code(self):
        raw = bytearray(serialize_model(tiny_model()))
        # first node record starts right after the header and the node count
        assert raw[24] == 0  # Sign op code
        raw[24] = 200
        body = bytes(raw[:-4])
        with pytest.raises(ModelFormatError, match="unknown op code 200"):
            deserialize_model(body + struct.pack("<I", zlib.crc32(body)))

    def test_errors_are_distinct(self):
        raw = serialize_model(tiny_model())
        seen = set()
        for mutate in ("magic", "version", "crc"):
            data = bytearray(raw)
            if mutate == "magic":
                data[:4] = b"XXXX"
            elif mutate == "version":
                data[4:8] = struct.pack("<I", 9)
            else:
                data[-1] ^= 0x01
            with pytest.raises(ModelFormatError) as err:
                deserialize_model(bytes(data))
            seen.add(str(err.value))
        assert len(seen) == 3


class TestHostileFiles:
    """Files with a valid checksum whose contents break a load-time rule."""

    @pytest.fixture(scope="class")
    def bireal(self):
        return build_birealnet18(np.random.default_rng(1), input_hw=32)

    def test_undecodable_name(self, bireal):
        raw = bytearray(serialize_model(bireal))
        entry = raw.index(struct.pack("<I", 5) + b"conv1")
        raw[entry + 4] = 0xFF
        with pytest.raises(ModelFormatError, match="UTF-8"):
            deserialize_model(reseal(raw))

    def test_nonzero_pad_bit(self, bireal):
        name, weight = next(
            (k, w)
            for k, w in bireal.graph.initializers.items()
            if isinstance(w, PackedWeight) and w.dims[1] == 64 and w.c2 == 128
        )
        raw = bytearray(serialize_model(bireal))
        payload = raw.index(weight.matrix.data.tobytes())
        raw[payload + 8] |= 0x01  # channel 64 of the first group: a pad bit
        with pytest.raises(ModelFormatError, match="pad bits"):
            deserialize_model(reseal(raw))

    def test_packed_initializer_bad_group_width(self):
        wv = np.ones((2, 3, 1, 1), np.float32)
        graph = Graph(
            nodes=(Node(OpKind.SIGN, "s", ("input",), "out"),),
            inputs=(GraphInput("input", (1, 1, 2, 2)),),
            initializers={"w": pack_conv_weight(wv, 8)},
            output="out",
        )
        raw = bytearray(serialize_model(PackedModel(graph)))
        (graph_len,) = struct.unpack_from("<I", raw, 8)
        # past the initializer count, its name, kind, rank and four extents
        c2_at = 20 + graph_len + 4 + 4 + 1 + 1 + 4 * 4
        assert struct.unpack_from("<I", raw, c2_at) == (8,)
        raw[c2_at : c2_at + 4] = struct.pack("<I", 0)
        with pytest.raises(ModelFormatError, match="^invalid group width$"):
            deserialize_model(reseal(raw))

    def test_duplicate_initializer_name(self):
        graph = Graph(
            nodes=(Node(OpKind.SIGN, "s", ("input",), "out"),),
            inputs=(GraphInput("input", (1, 1, 2, 2)),),
            initializers={n: np.zeros(2, np.float32) for n in ("a", "b")},
            output="out",
        )
        raw = bytearray(serialize_model(PackedModel(graph)))
        (graph_len,) = struct.unpack_from("<I", raw, 8)
        first = 20 + graph_len + 4  # past the header and the initializer count
        second = first + 4 + 1 + 1 + 4 + 2 * 4  # name, kind, rank, extent, payload
        raw[second : second + 4] = raw[first : first + 4]
        with pytest.raises(ModelFormatError, match="duplicate initializer 'a'"):
            deserialize_model(reseal(raw))

    def test_two_inputs(self, tmp_path, capsys):
        graph = object.__new__(Graph)  # skips the checks, as a hostile writer would
        fields = {
            "nodes": (Node(OpKind.ADD, "add", ("a", "b"), "out"),),
            "inputs": (GraphInput("a", (1, 1, 2, 2)), GraphInput("b", (1, 1, 2, 2))),
            "initializers": {},
            "output": "out",
        }
        for name, value in fields.items():
            object.__setattr__(graph, name, value)
        raw = serialize_model(PackedModel(graph))
        with pytest.raises(ModelFormatError, match="exactly one input"):
            deserialize_model(raw)
        model, x = tmp_path / "m.dabn", tmp_path / "x.bin"
        model.write_bytes(raw)
        write_tensor(x, FloatTensor.from_array(np.zeros((1, 2, 2, 1), np.float32)))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert "bad model file" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_zero_input_extent(self, tmp_path, capsys):
        raw = bytearray(serialize_model(tiny_model()))
        dims = raw.index(struct.pack("<4I", 1, 1, 2, 2))
        raw[dims + 4 : dims + 8] = struct.pack("<I", 0)
        with pytest.raises(ModelFormatError, match="4 positive extents"):
            deserialize_model(reseal(raw))
        model, x = tmp_path / "m.dabn", tmp_path / "x.bin"
        model.write_bytes(reseal(raw))
        write_tensor(x, FloatTensor.from_array(np.zeros((1, 2, 2, 1), np.float32)))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert "bad model file" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_float_initializer_rank_above_64(self, tmp_path, capsys):
        graph = Graph(
            nodes=(Node(OpKind.SIGN, "s", ("input",), "out"),),
            inputs=(GraphInput("input", (1, 1, 2, 2)),),
            initializers={"a": np.zeros(2, np.float32)},
            output="out",
        )
        raw = serialize_model(PackedModel(graph))
        (graph_len,) = struct.unpack_from("<I", raw, 8)
        (name_idx,) = struct.unpack_from("<I", raw, 20 + graph_len + 4)
        # an empty payload: numpy cannot build an array of more than 64 dims
        weights = struct.pack("<IIBB65I", 1, name_idx, 0, 65, *[0] * 65)
        header = struct.pack("<4sIIQ", b"DABN", 1, graph_len, len(weights))
        raw = reseal(header + raw[20 : 20 + graph_len] + weights + bytes(4))
        with pytest.raises(ModelFormatError, match="invalid float initializer"):
            deserialize_model(raw)
        model, x = tmp_path / "m.dabn", tmp_path / "x.bin"
        model.write_bytes(raw)
        write_tensor(x, FloatTensor.from_array(np.zeros((1, 2, 2, 1), np.float32)))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert "bad model file: invalid float initializer" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "records",
        [[(1, (1, 1)), (0, (2, 2))], [(0, (2, 2)), (0, (2, 2))]],
        ids=["swapped", "repeated"],
    )
    def test_attribute_records_out_of_order(self, records, tmp_path, capsys):
        graph = Graph(
            nodes=(
                Node(
                    OpKind.MAX_POOL,
                    "p",
                    ("input",),
                    "out",
                    NodeAttrs(kernel=(2, 2), stride=(1, 1)),
                ),
            ),
            inputs=(GraphInput("input", (1, 1, 4, 4)),),
            initializers={},
            output="out",
        )
        raw = bytearray(serialize_model(PackedModel(graph)))

        def attrs(recs):
            return bytes([len(recs)]) + b"".join(
                struct.pack("<B2i", key, *pair) for key, pair in recs
            )

        at = raw.index(attrs([(0, (2, 2)), (1, (1, 1))]))
        raw[at : at + len(attrs(records))] = attrs(records)
        with pytest.raises(ModelFormatError, match="out of order or repeated"):
            deserialize_model(reseal(raw))
        model, x = tmp_path / "m.dabn", tmp_path / "x.bin"
        model.write_bytes(reseal(raw))
        write_tensor(x, FloatTensor.from_array(np.zeros((1, 4, 4, 1), np.float32)))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert "bad model file" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestOneEncoding:
    """Files that the parser could read but ``serialize_model`` never writes:
    each would load and save back to other bytes, so each must fail."""

    def test_string_table_reordered(self):
        raw = bytearray(serialize_model(tiny_model()))
        # swap table entries 0 ("s") and 1 ("input") and the indices naming them
        table = raw.index(struct.pack("<I", 1) + b"s")
        raw[table : table + 14] = struct.pack("<I", 5) + b"input" + struct.pack("<I", 1) + b"s"
        for at in (25, 33, 50):  # node name, node input, graph input
            assert raw[at] in (0, 1)
            raw[at] ^= 1
        with pytest.raises(ModelFormatError, match="first-use order"):
            deserialize_model(reseal(raw))

    def test_unused_string_table_entry(self):
        raw = bytearray(serialize_model(tiny_model()))
        (graph_len,) = struct.unpack_from("<I", raw, 8)
        table = raw.index(struct.pack("<I", 1) + b"s") - 4
        raw[table : table + 4] = struct.pack("<I", 4)  # entry count
        raw[20 + graph_len : 20 + graph_len] = struct.pack("<I", 5) + b"spare"
        raw[8:12] = struct.pack("<I", graph_len + 9)
        with pytest.raises(ModelFormatError, match="first-use order"):
            deserialize_model(reseal(raw))

    def test_repeated_string_table_entry(self):
        # two sign nodes of one name
        raw = bytearray(bireal32_bytes())
        entry = raw.index(struct.pack("<I", 13) + b"s0.b0.u1.sign")
        raw[entry + 4 : entry + 17] = b"s0.b0.u0.sign"
        with pytest.raises(ModelFormatError, match="first-use order"):
            deserialize_model(reseal(raw))

    def test_initializer_records_reversed(self):
        raw = bireal32_bytes()
        _, payloads = bireal32_weight_records()
        ends = [end for _, end in payloads]
        # the first record starts past the header, graph section and record count
        starts = [20 + struct.unpack_from("<I", raw, 8)[0] + 4, *ends[:-1]]
        records = [raw[a:b] for a, b in zip(starts, ends)]
        raw = raw[: starts[0]] + b"".join(reversed(records)) + raw[ends[-1] :]
        with pytest.raises(ModelFormatError, match="initializer records out of order"):
            deserialize_model(reseal(raw))

    def test_signalling_nan_epsilon(self):
        raw = bytearray(bireal32_bytes())
        # a list of one attribute record: key 3 (epsilon), float32 1e-5
        at = raw.index(bytes([1, 3]) + struct.pack("<f", 1e-5)) + 2
        raw[at : at + 4] = struct.pack("<I", 0x7F800001)
        with pytest.raises(ModelFormatError, match="does not re-pack"):
            deserialize_model(reseal(raw))


@functools.lru_cache(maxsize=1)
def bireal32_bytes() -> bytes:
    model = build_birealnet18(np.random.default_rng(1), input_hw=32)
    return serialize_model(model)


@functools.lru_cache(maxsize=1)
def bireal32_weight_records() -> tuple[list[int], list[tuple[int, int]]]:
    """Offsets of every initializer record header byte (name index, kind,
    rank, extents, ``c2``) and the [start, end) of every payload."""
    raw = bireal32_bytes()
    (graph_len,) = struct.unpack_from("<I", raw, 8)
    (count,) = struct.unpack_from("<I", raw, 20 + graph_len)
    pos = 20 + graph_len + 4
    headers, payloads = [], []
    for _ in range(count):
        kind, rank = raw[pos + 4], raw[pos + 5]
        extents = struct.unpack_from(f"<{rank}I", raw, pos + 6)
        head = 6 + 4 * rank
        if kind == 1:  # packed: c2 follows the extents
            m, c, kh, kw = extents
            (c2,) = struct.unpack_from("<I", raw, pos + head)
            head += 4
            size = m * kh * kw * -(-c // c2) * c2 // 8
        else:
            size = 4 * math.prod(extents)
        headers.extend(range(pos, pos + head))
        payloads.append((pos + head, pos + head + size))
        pos += head + size
    assert pos == len(raw) - 4
    return headers, payloads


def assert_loads_canonically_or_fails_cleanly(raw) -> None:
    raw = reseal(raw)
    try:
        model = deserialize_model(raw)
    except ModelFormatError:
        return
    assert serialize_model(model) == raw


class TestMutationFuzz:
    """Random byte edits of a Bi-Real-Net-18 file, with the CRC resealed.

    Every mutated file either fails with ModelFormatError or loads into a
    model that saves back to the same bytes.  Mutated models are
    only loaded, never run: a mutated padding can ask for huge activations.
    """

    @settings(max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_loads_canonically_or_fails_cleanly(self, data):
        raw = bytearray(bireal32_bytes())
        (graph_len,) = struct.unpack_from("<I", raw, 8)
        byte_edit = st.tuples(st.integers(0, 20 + graph_len - 1), st.integers(0, 255))
        for pos, value in data.draw(st.lists(byte_edit, min_size=1, max_size=4)):
            raw[pos] = value
        assert_loads_canonically_or_fails_cleanly(raw)

    @settings(max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_weight_section_edits(self, data):
        headers, payloads = bireal32_weight_records()
        raw = bytearray(bireal32_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.integers(0, 4)):  # four edits in five hit a record header
                pos = data.draw(st.sampled_from(headers))
            else:
                start, end = data.draw(st.sampled_from(payloads))
                pos = data.draw(st.integers(start, end - 1))
            raw[pos] = data.draw(st.integers(0, 255))
        assert_loads_canonically_or_fails_cleanly(raw)
