import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refeval
from refeval import unpack_conv_weight
from bnnkit import convert, runtime
from bnnkit.cli import main
from bnnkit.convert import (
    ConversionError,
    ConvertOptions,
    convert_model,
    detect_binary_convs,
    pack_conv_weight,
    parse_interchange,
)
from bnnkit.layout import FloatTensor, Layout
from bnnkit.modelfile import serialize_model
from bnnkit.runtime import OpKind, execute


def make_doc(*, inputs, initializers=(), nodes, output):
    return json.dumps(
        {
            "inputs": list(inputs),
            "initializers": list(initializers),
            "nodes": list(nodes),
            "output": output,
        }
    )


def init_entry(name, arr):
    arr = np.asarray(arr, np.float32)
    return {
        "name": name,
        "dims": list(arr.shape),
        "values": [float(v) for v in arr.reshape(-1)],
    }


def conv_doc(weights, *, in_hw=4, with_sign=True, bias=None, pads=(0, 0), extra_conv_attrs=None):
    """Input -> [Sign] -> Conv document with the given weight array."""
    m, c, k, _ = weights.shape
    nodes = []
    data = "input"
    if with_sign:
        nodes.append({"op": "Sign", "name": "sg", "inputs": ["input"], "outputs": ["sg.out"]})
        data = "sg.out"
    attrs = {
        "kernel_shape": [k, k],
        "strides": [1, 1],
        "pads": [pads[0], pads[1], pads[0], pads[1]],
    }
    if extra_conv_attrs:
        attrs.update(extra_conv_attrs)
    inits = [init_entry("w", weights)]
    conv_inputs = [data, "w"]
    if bias is not None:
        inits.append(init_entry("bias", bias))
        conv_inputs.append("bias")
    nodes.append(
        {
            "op": "Conv",
            "name": "cv",
            "inputs": conv_inputs,
            "outputs": ["cv.out"],
            "attributes": attrs,
        }
    )
    return make_doc(
        inputs=[{"name": "input", "dims": [1, c, in_hw, in_hw]}],
        initializers=inits,
        nodes=nodes,
        output="cv.out",
    )


def pm1(rng, shape):
    return rng.choice(np.array([-1.0, 1.0], np.float32), size=shape)


class TestParse:
    def test_minimal_conv_document(self, rng):
        g = parse_interchange(conv_doc(pm1(rng, (2, 3, 1, 1)), with_sign=False))
        assert [n.op for n in g.nodes] == ["Conv"]
        assert g.output == "cv.out"
        assert g.initializers["w"].shape == (2, 3, 1, 1)

    def test_unknown_op_names_node(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            nodes=[{"op": "Foo", "name": "mystery", "inputs": ["input"], "outputs": ["y"]}],
            output="y",
        )
        with pytest.raises(ConversionError, match="unknown op 'Foo'.*mystery"):
            parse_interchange(doc)

    def test_dangling_input(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            nodes=[{"op": "Relu", "name": "r", "inputs": ["ghost"], "outputs": ["y"]}],
            output="y",
        )
        with pytest.raises(ConversionError, match="unresolved name 'ghost'"):
            parse_interchange(doc)

    def test_malformed_json(self):
        with pytest.raises(ConversionError, match="malformed JSON"):
            parse_interchange("{nope")

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"inputs": ' + "7" * 5000 + "}"],
        ids=["deep_nesting", "long_integer"],
    )
    def test_json_beyond_decoder_limits(self, text):
        with pytest.raises(ConversionError, match="malformed JSON"):
            parse_interchange(text)

    @pytest.mark.parametrize(
        "values,message",
        [
            ([None, 1.0], "null is not a number"),
            ([1.0, 10**400], "too large"),
            ([[None], [1.0]], "flat list"),
            ([[1.0], [2.0]], "flat list"),
            (["1", 2.0], "got str"),
            ([True, 1.0], "got bool"),
            ([1.0, True], "got bool"),
        ],
        ids=["null", "huge_integer", "nested_null", "nested", "string", "bool_first", "bool_last"],
    )
    def test_values_must_be_a_flat_list_of_numbers(self, values, message):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[{"name": "w", "dims": [2], "values": values}],
            nodes=[],
            output="input",
        )
        where = r"\$\.initializers\[0\]\.values"
        with pytest.raises(ConversionError, match=f"{where}: .*{message}"):
            parse_interchange(doc)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("order", [(0, 0, 1), (1, 0, 0)], ids=["huge_first", "huge_last"])
    def test_integers_summing_past_float_range_load(self, order):
        # 2 * 1.7e308 as an integer does not convert to float when 1.5 is added
        huge = 17 * 10**307
        values = [(huge, 1.5)[i] for i in order]
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[{"name": "w", "dims": [3], "values": values}],
            nodes=[],
            output="input",
        )
        w = parse_interchange(doc).initializers["w"]
        assert w.tolist() == [float(np.float32(v)) for v in values]

    def test_nan_token_still_loads(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[{"name": "w", "dims": [2], "values": [float("nan"), 1.0]}],
            nodes=[],
            output="input",
        )
        w = parse_interchange(doc).initializers["w"]
        assert w.dtype == np.float32 and np.isnan(w[0]) and w[1] == 1.0

    def test_parse_holds_one_initializers_floats_at_a_time(self):
        # json.loads alone holds all 800,000 values as Python floats at once
        rng = np.random.default_rng(3)
        text = make_doc(
            inputs=[{"name": "x", "dims": [1, 1, 1, 1]}],
            initializers=[
                {
                    "name": f"w{i}",
                    "dims": [200_000],
                    "values": np.round(rng.standard_normal(200_000), 3).tolist(),
                }
                for i in range(4)
            ],
            nodes=[{"op": "Relu", "inputs": ["x"], "outputs": ["y"]}],
            output="y",
        )
        json_peak = refeval.traced_peak(json.loads, text)
        assert refeval.traced_peak(parse_interchange, text) <= 0.5 * json_peak

    @pytest.mark.parametrize("count,indent", [(2_000_000, None), (400_000, 2)])
    def test_pm1_lists_parse_in_a_quarter_of_jsons_peak(self, count, indent, rng):
        # json.loads holds one Python float per value; the parse holds the
        # float32 result and a small index per value
        text = json.dumps(
            {
                "inputs": [{"name": "x", "dims": [1, 1, 1, 1]}],
                "initializers": [
                    {"name": "w", "dims": [count], "values": pm1(rng, count).tolist()}
                ],
                "nodes": [{"op": "Relu", "inputs": ["x"], "outputs": ["y"]}],
                "output": "y",
            },
            indent=indent,
        )
        json_peak = refeval.traced_peak(json.loads, text)
        assert refeval.traced_peak(parse_interchange, text) <= 0.25 * json_peak

    def test_document_must_be_object(self):
        with pytest.raises(ConversionError, match=r"\$: document"):
            parse_interchange("[1, 2]")

    def test_missing_output(self):
        with pytest.raises(ConversionError, match="missing 'output'"):
            parse_interchange('{"inputs": [], "nodes": []}')

    def test_value_count_mismatch(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[{"name": "w", "dims": [2, 2], "values": [1.0]}],
            nodes=[],
            output="input",
        )
        with pytest.raises(ConversionError, match="values"):
            parse_interchange(doc)

    def test_duplicate_names(self):
        doc = make_doc(
            inputs=[{"name": "x", "dims": [1, 1, 1, 1]}],
            initializers=[init_entry("x", np.zeros(1))],
            nodes=[],
            output="x",
        )
        with pytest.raises(ConversionError, match="duplicate"):
            parse_interchange(doc)

    def test_conv_weight_must_be_initializer(self):
        doc = make_doc(
            inputs=[
                {"name": "input", "dims": [1, 1, 1, 1]},
                {"name": "w", "dims": [1, 1, 1, 1]},
            ],
            nodes=[
                {"op": "Conv", "name": "c", "inputs": ["input", "w"], "outputs": ["y"]}
            ],
            output="y",
        )
        with pytest.raises(ConversionError, match="initializer"):
            parse_interchange(doc)

    def test_single_output_required(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            nodes=[{"op": "Relu", "name": "r", "inputs": ["input"], "outputs": ["a", "b"]}],
            output="a",
        )
        with pytest.raises(ConversionError, match="exactly one output"):
            parse_interchange(doc)

    def test_asymmetric_pads_rejected(self, rng):
        doc = conv_doc(pm1(rng, (1, 1, 3, 3)))
        doc = doc.replace('"pads": [0, 0, 0, 0]', '"pads": [1, 0, 0, 0]')
        with pytest.raises(ConversionError, match="asymmetric pads"):
            convert_model(parse_interchange(doc))


# Number tokens the parser reads from the raw text ...
_SHORT_TOKENS = [
    "1.0", "-1.0", "1", "-1", "0", "-0", "-0.0", "0.0", "1.00", "1e5", "1E+2",
    "-2.5e-3", "12345678", "0.5", "1e999",
]
# ... and ones that send a list to json: too long, not JSON numbers (NaN and
# Infinity are Python's extensions), or breaking the document
_ODD_TOKENS = [
    "123456789", "0.30000001192092896", "NaN", "Infinity", "-Infinity", "01",
    "1.", ".5", "+1", "1e", "--1", "1 .0", "true", '"1"', "null", "1\x0b", "[1.0]",
    "-", "1\xa0",
]
_SEPARATORS = [", ", ", ", ",", ",\n  ", ",\n\t", ",\r\n    ", " , ", ",\x0b", ",\xa0"]


@st.composite
def value_lists(draw):
    """(JSON text of a number list, its length)."""
    if draw(st.integers(0, 5)) == 0:
        floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
        tokens = [repr(v) for v in draw(st.lists(floats, max_size=40))]
    else:
        alphabet = draw(st.lists(st.sampled_from(_SHORT_TOKENS), min_size=1, max_size=3))
        # a list is read from the text only if at most one token in 8 is distinct
        size = draw(st.sampled_from([0, 1, 5, 16, 40, 80]))
        tokens = draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size + 20))
    if tokens and draw(st.integers(0, 4)) == 0:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    separator = draw(st.sampled_from(_SEPARATORS[:4])) if draw(st.booleans()) else ", "
    text = separator.join(tokens)
    if len(tokens) > 2 and draw(st.booleans()):
        at = text.find(separator, len(text) // 2)
        text = text[:at] + draw(st.sampled_from(_SEPARATORS)) + text[at + len(separator):]
    opening, closing = draw(st.sampled_from([("", ""), (" ", " "), ("\n    ", "\n  ")]))
    return f"[{opening}{text}{closing}]", len(tokens)


@st.composite
def value_documents(draw):
    """Interchange documents whose number lists test the raw-text reader."""
    inits = []
    for i in range(draw(st.integers(1, 3))):
        values, count = draw(value_lists())
        dims = count + draw(st.sampled_from([0, 0, 0, 1]))
        name = draw(st.sampled_from([f"w{i}", f'w{i} \\"values\\": [1.0, 1.0]']))
        key = draw(st.sampled_from(['"values"', '"values"', '"\\u0076alues"']))
        extra = draw(
            st.sampled_from(["", "", "", ', "values": [1.0, -1.0]'] + [', "\\"values": ' + values] * 2)
        )
        shown = values
        if draw(st.integers(0, 4)) == 0:
            # a string spelling the placeholder of a list read from the text
            shown = '"\\u0000%d"' % draw(st.sampled_from([0, 0, 1]))
        fields = [f'"name": "{name}"', f'"dims": [{dims}]', f"{key}: {shown}{extra}"]
        if draw(st.booleans()):
            fields.reverse()
        inits.append("{" + ", ".join(fields) + "}")
    attributes = "{}"
    if draw(st.booleans()):
        attributes = '{"values": %s}' % draw(value_lists())[0]
    text = (
        '{"inputs": [{"name": "x", "dims": [1, 1, 1, 1]}], "initializers": [%s], '
        '"nodes": [{"op": "Relu", "inputs": ["x"], "outputs": ["y"], "attributes": %s}], '
        '"output": "y"}' % (", ".join(inits), attributes)
    )
    if draw(st.integers(0, 3)) == 0:
        try:
            text = json.dumps(json.loads(text), indent=2)
        except ValueError:
            pass
    return text


def parse_outcome(text):
    """What parse_interchange makes of ``text``, in comparable form."""
    try:
        g = parse_interchange(text)
    except ConversionError as exc:
        return ("error", str(exc))
    return (
        g.inputs,
        {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in g.initializers.items()},
        [(n.op, n.name, n.inputs, n.output, repr(n.attributes)) for n in g.nodes],
        g.output,
    )


def plain_outcome(text):
    """The same, with every list left to json's decoder."""
    with mock.patch.object(convert, "_decode_cut", lambda text: None):
        return parse_outcome(text)


def comparable(value):
    """A decoded JSON value with arrays as bytes and numbers by type and repr."""
    if isinstance(value, dict):
        return {k: comparable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [comparable(v) for v in value]
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tobytes())
    if isinstance(value, (int, float)):
        return (type(value).__name__, repr(value))
    return value


class TestRawValueLists:
    """Number lists read from the raw text parse exactly as json's decoder
    and ``_float32_values`` parse them, or leave the list to that path."""

    @settings(max_examples=400, derandomize=True)
    @given(text=value_documents())
    def test_same_as_plain_path(self, text):
        assert parse_outcome(text) == plain_outcome(text)
        # a document read from the text is json's own, even where an earlier
        # error would hide the difference from parse_interchange
        doc = convert._decode_cut(text)
        if doc is not None:
            plain = json.loads(text, object_pairs_hook=convert._decode_object)
            assert comparable(doc) == comparable(plain)

    @staticmethod
    def one_list_doc(values: str, count: int) -> str:
        """A document with the list text ``values`` as an initializer's
        values and as a node attribute."""
        return (
            '{"inputs": [{"name": "x", "dims": [1, 1, 1, 1]}], '
            '"initializers": [{"name": "w", "dims": [%d], "values": %s}], '
            '"nodes": [{"op": "Relu", "inputs": ["x"], "outputs": ["y"], '
            '"attributes": {"values": %s}}], "output": "y"}' % (count, values, values)
        )

    @pytest.mark.parametrize("separator", [", ", ",\n      "], ids=["compact", "indented"])
    def test_short_tokens_are_read_from_text(self, separator):
        odd = ["-0", "-0.0", "1", "-1", "1.00", "1E+2", "12345678", "-2.5e-3"]
        tokens = ["1.0", "-1.0"] * 36 + odd
        text = self.one_list_doc("[" + separator.join(tokens) + "]", len(tokens))
        assert convert._decode_cut(text) is not None
        assert parse_outcome(text) == plain_outcome(text)
        w = parse_interchange(text).initializers["w"]
        assert not np.signbit(w[72]) and np.signbit(w[73])  # "-0" is the integer 0

    def test_placeholder_cannot_be_forged(self):
        # the key "x\"values" matches the key search, so its list is read and
        # cut; the string "\u00000" spells that list's placeholder
        text = (
            '{"inputs": [{"name": "x", "dims": [1, 1, 1, 1]}], '
            '"initializers": [{"name": "w", "dims": [8], "values": "\\u00000", '
            '"x\\"values": [1, 1, 1, 1, 1, 1, 1, 1]}], "nodes": [], "output": "x"}'
        )
        assert convert._decode_cut(text) is None
        assert parse_outcome(text) == plain_outcome(text)
        assert parse_outcome(text) == ("error", "$.initializers[0].values: expected a list")

    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "123456789", "1 .0"], ids=["nan", "inf", "long", "split"]
    )
    def test_odd_token_leaves_list_to_json(self, token):
        text = self.one_list_doc("[" + ", ".join(["1.0"] * 31 + [token]) + "]", 32)
        assert convert._decode_cut(text) is None
        assert parse_outcome(text) == plain_outcome(text)


class TestDetection:
    def test_sign_fed_binary_weights_detected(self, rng):
        g = parse_interchange(conv_doc(pm1(rng, (2, 4, 3, 3))))
        assert detect_binary_convs(g) == {"cv"}

    def test_float_weights_not_detected(self, rng):
        w = pm1(rng, (2, 4, 3, 3))
        w[0, 0, 0, 0] = 0.5
        g = parse_interchange(conv_doc(w))
        assert detect_binary_convs(g) == set()

    def test_no_sign_not_detected(self, rng):
        g = parse_interchange(conv_doc(pm1(rng, (2, 4, 3, 3)), with_sign=False))
        assert detect_binary_convs(g) == set()

    def test_sign_must_feed_directly(self, rng):
        w = pm1(rng, (2, 4, 1, 1))
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 4, 3, 3]}],
            initializers=[init_entry("w", w)],
            nodes=[
                {"op": "Sign", "name": "sg", "inputs": ["input"], "outputs": ["s"]},
                {"op": "Relu", "name": "rl", "inputs": ["s"], "outputs": ["r"]},
                {"op": "Conv", "name": "cv", "inputs": ["r", "w"], "outputs": ["y"]},
            ],
            output="y",
        )
        assert detect_binary_convs(parse_interchange(doc)) == set()


class TestWeightPacking:
    @pytest.mark.parametrize("c,c2", [(8, 8), (16, 8), (130, 128), (3, 32)])
    def test_round_trip(self, c, c2, rng):
        w = pm1(rng, (3, c, 3, 3))
        back = unpack_conv_weight(pack_conv_weight(w, c2))
        assert np.array_equal(back, w)

    def test_row_count(self, rng):
        packed = pack_conv_weight(pm1(rng, (5, 20, 3, 3)), 8)
        assert packed.matrix.rows == 5
        assert packed.matrix.cols == 9 * 3  # 3 groups of 8 bits cover 20 channels
        assert packed.c2 == 8

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            pack_conv_weight(np.ones((2, 3), np.float32), 8)


class TestCompression:
    def test_exact_32x(self, rng):
        doc = conv_doc(pm1(rng, (128, 128, 3, 3)), in_hw=8)
        _, report = convert_model(parse_interchange(doc), ConvertOptions(c2=128))
        (row,) = [r for r in report.initializers if r["name"] == "w"]
        assert row["bytes_before"] == 589_824
        assert row["bytes_after"] == 18_432
        assert report.ratio == 32.0

    def test_partial_group_overhead(self, rng):
        doc = conv_doc(pm1(rng, (4, 130, 3, 3)), in_hw=6)
        _, report = convert_model(parse_interchange(doc), ConvertOptions(c2=128))
        assert report.ratio == 32 * 130 / 256  # 16.25

    def test_no_sign_graph_unchanged(self, rng):
        doc = conv_doc(np.asarray(rng.standard_normal((4, 8, 3, 3)), np.float32), with_sign=False)
        model, report = convert_model(parse_interchange(doc))
        kinds = [n.kind for n in model.graph.nodes]
        assert OpKind.BINARY_CONV not in kinds
        for row in report.initializers:
            assert row["bytes_after"] == row["bytes_before"]
        assert report.ratio == 1.0


class TestConversionRules:
    def test_bias_keeps_full_precision(self, rng):
        doc = conv_doc(pm1(rng, (2, 8, 3, 3)), bias=rng.standard_normal(2))
        model, report = convert_model(parse_interchange(doc))
        kinds = [n.kind for n in model.graph.nodes]
        assert OpKind.FLOAT_CONV in kinds and OpKind.BINARY_CONV not in kinds
        assert any("bias" in w for w in report.warnings)

    def test_shared_weight_keeps_full_precision(self, rng):
        w = pm1(rng, (4, 4, 1, 1))
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 4, 3, 3]}],
            initializers=[init_entry("w", w)],
            nodes=[
                {"op": "Sign", "name": "sg", "inputs": ["input"], "outputs": ["s"]},
                {"op": "Conv", "name": "cv1", "inputs": ["s", "w"], "outputs": ["y1"]},
                {"op": "Sign", "name": "sg2", "inputs": ["y1"], "outputs": ["s2"]},
                {"op": "Conv", "name": "cv2", "inputs": ["s2", "w"], "outputs": ["y2"]},
            ],
            output="y2",
        )
        model, report = convert_model(parse_interchange(doc))
        kinds = [n.kind for n in model.graph.nodes]
        assert OpKind.BINARY_CONV not in kinds
        assert any("shared" in w for w in report.warnings)

    def test_padding_warning_on_packed_conv(self, rng):
        doc = conv_doc(pm1(rng, (2, 8, 3, 3)), pads=(1, 1))
        model, report = convert_model(parse_interchange(doc))
        assert any("padding" in w for w in report.warnings)
        assert any(n.kind is OpKind.BINARY_CONV for n in model.graph.nodes)

    @pytest.mark.parametrize(
        "attrs,message",
        [
            ({"dilations": [2, 2]}, "dilations"),
            ({"group": 2}, "group"),
        ],
    )
    def test_unsupported_conv_attributes(self, attrs, message, rng):
        doc = conv_doc(pm1(rng, (2, 4, 3, 3)), extra_conv_attrs=attrs)
        with pytest.raises(ConversionError, match=message):
            convert_model(parse_interchange(doc))

    def test_unsupported_gemm_transb(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 3, 1, 1]}],
            initializers=[init_entry("w", np.ones((3, 2), np.float32))],
            nodes=[
                {
                    "op": "Gemm",
                    "name": "gm",
                    "inputs": ["input", "w"],
                    "outputs": ["y"],
                    "attributes": {"transB": 0},
                }
            ],
            output="y",
        )
        with pytest.raises(ConversionError, match="transB"):
            convert_model(parse_interchange(doc))

    def test_unsupported_flatten_axis(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 3, 2, 2]}],
            nodes=[
                {
                    "op": "Flatten",
                    "name": "fl",
                    "inputs": ["input"],
                    "outputs": ["y"],
                    "attributes": {"axis": 2},
                }
            ],
            output="y",
        )
        with pytest.raises(ConversionError, match="axis"):
            convert_model(parse_interchange(doc))

    def test_average_pool_count_include_pad(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 3, 4, 4]}],
            nodes=[
                {
                    "op": "AveragePool",
                    "name": "ap",
                    "inputs": ["input"],
                    "outputs": ["y"],
                    "attributes": {"kernel_shape": [2, 2], "count_include_pad": 1},
                }
            ],
            output="y",
        )
        with pytest.raises(ConversionError, match="count_include_pad"):
            convert_model(parse_interchange(doc))

    def test_add_with_initializer_input(self):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[init_entry("w", np.ones((1, 1, 1, 1), np.float32))],
            nodes=[{"op": "Add", "name": "ad", "inputs": ["input", "w"], "outputs": ["y"]}],
            output="y",
        )
        with pytest.raises(ConversionError, match="node 'ad': unresolved input 'w'"):
            convert_model(parse_interchange(doc))

    def test_kernel_shape_must_match_weights(self, rng):
        doc = conv_doc(pm1(rng, (2, 4, 3, 3)), extra_conv_attrs={"kernel_shape": [1, 1]})
        with pytest.raises(ConversionError, match="kernel attribute does not match"):
            convert_model(parse_interchange(doc))

    def test_report_json_keys(self, rng):
        doc = conv_doc(pm1(rng, (2, 8, 1, 1)))
        _, report = convert_model(parse_interchange(doc))
        assert set(json.loads(report.to_json())) == {"initializers", "ratio", "warnings"}


class TestWholeGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_execute_matches_reference(self, seed):
        gen = np.random.default_rng(seed)
        g = parse_interchange(refeval.random_interchange_doc(gen))
        x = refeval.random_input_for(g, gen)
        model, _ = convert_model(g, ConvertOptions(c2=int(gen.choice([8, 16, 32]))))
        assert execute(model, x) == refeval.reference_eval(g, x)

    def test_two_inputs_rejected(self):
        doc = make_doc(
            inputs=[{"name": "a", "dims": [1, 1, 2, 2]}, {"name": "b", "dims": [1, 1, 2, 2]}],
            nodes=[{"op": "Add", "name": "add", "inputs": ["a", "b"], "outputs": ["y"]}],
            output="y",
        )
        with pytest.raises(ConversionError, match="exactly one input"):
            convert_model(parse_interchange(doc))

    def test_conversion_is_deterministic(self, rng):
        text = refeval.random_interchange_doc(np.random.default_rng(5))
        a, _ = convert_model(parse_interchange(text))
        b, _ = convert_model(parse_interchange(text))
        assert serialize_model(a) == serialize_model(b)


def bn_sign_doc(gamma, beta, mean, var, hw=4, eps=1e-5):
    c = len(gamma)
    return make_doc(
        inputs=[{"name": "input", "dims": [1, c, hw, hw]}],
        initializers=[
            init_entry("g", gamma),
            init_entry("b", beta),
            init_entry("m", mean),
            init_entry("v", var),
        ],
        nodes=[
            {
                "op": "BatchNormalization",
                "name": "bn",
                "inputs": ["input", "g", "b", "m", "v"],
                "outputs": ["bn.out"],
                "attributes": {"epsilon": eps},
            },
            {"op": "Sign", "name": "sg", "inputs": ["bn.out"], "outputs": ["sg.out"]},
        ],
        output="sg.out",
    )


def key_to_float(key: int) -> np.float32:
    if key >= 0x80000000:
        bits = key - 0x80000000
    else:
        bits = 0xFFFFFFFF - key
    return np.uint32(bits).view(np.float32)


class TestBnSignFusion:
    GAMMA = [1.0, -1.0, 1e-30, -1e-20, 2.5]
    BETA = [0.1, -3e5, 1e30, -1e-25, 0.0]
    MEAN = [0.0, 1.0, -2.0, 3.0, 1e10]
    VAR = [1.0, 0.25, 4.0, 1e-10, 1e10]

    def fused_and_plain(self, doc):
        fused, freport = convert_model(
            parse_interchange(doc), ConvertOptions(fuse_bn_sign=True)
        )
        plain, _ = convert_model(parse_interchange(doc))
        return fused, plain, freport

    def test_rewrites_pair(self):
        doc = bn_sign_doc(self.GAMMA, self.BETA, self.MEAN, self.VAR)
        fused, plain, report = self.fused_and_plain(doc)
        assert [n.kind for n in fused.graph.nodes] == [OpKind.THRESHOLD_SIGN]
        assert fused.graph.nodes[0].name == "bn+sg"
        assert "bn.thresh_key" in fused.graph.initializers
        assert "bn.thresh_invert" in fused.graph.initializers
        assert "g" not in fused.graph.initializers  # BN params dropped
        created = {r["name"] for r in report.initializers if r["bytes_before"] == 0}
        assert created == {"bn.thresh_key", "bn.thresh_invert"}
        dropped = [r for r in report.initializers if r["name"] == "g"]
        assert dropped[0]["bytes_after"] == 0
        assert [n.kind for n in plain.graph.nodes] == [OpKind.BATCH_NORM, OpKind.SIGN]

    def test_exact_on_adversarial_inputs(self):
        doc = bn_sign_doc(self.GAMMA, self.BETA, self.MEAN, self.VAR)
        fused, plain, _ = self.fused_and_plain(doc)
        c = len(self.GAMMA)
        keys = fused.graph.initializers["bn.thresh_key"].view(np.uint32)
        values = np.empty((1, 4, 4, c), np.float32)
        rng = np.random.default_rng(99)
        for ci in range(c):
            boundary = key_to_float(int(keys[ci]))
            if np.isnan(boundary):
                boundary = np.float32(1.0)
            with np.errstate(over="ignore"):
                below = np.nextafter(boundary, -np.inf, dtype=np.float32)
                above = np.nextafter(boundary, np.inf, dtype=np.float32)
            candidates = [
                boundary,
                below,
                above,
                np.float32(0.0),
                np.float32(-0.0),
                np.float32(np.inf),
                np.float32(-np.inf),
                np.float32(1e-45),
                np.float32(-1e-45),
                np.finfo(np.float32).max,
                np.finfo(np.float32).min,
            ]
            candidates += list(rng.standard_normal(5).astype(np.float32) * 10)
            values[0, :, :, ci] = np.array(candidates[:16], np.float32).reshape(4, 4)
        x = FloatTensor.from_array(values, Layout.NHWC)
        with np.errstate(over="ignore"):
            assert execute(fused, x) == execute(plain, x)

    def test_exact_on_random_inputs(self, rng):
        doc = bn_sign_doc(self.GAMMA, self.BETA, self.MEAN, self.VAR)
        fused, plain, _ = self.fused_and_plain(doc)
        x = FloatTensor.from_array(
            (rng.standard_normal((1, 4, 4, 5)) * 3).astype(np.float32), Layout.NHWC
        )
        assert execute(fused, x) == execute(plain, x)

    def test_zero_gamma_skipped_with_warning(self):
        doc = bn_sign_doc([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        fused, _, report = self.fused_and_plain(doc)
        assert [n.kind for n in fused.graph.nodes] == [OpKind.BATCH_NORM, OpKind.SIGN]
        assert any("degenerate" in w for w in report.warnings)

    def test_second_consumer_blocks_fusion(self):
        doc = json.loads(bn_sign_doc([1.0], [0.0], [0.0], [1.0]))
        doc["nodes"].append(
            {"op": "Relu", "name": "rl", "inputs": ["bn.out"], "outputs": ["rl.out"]}
        )
        fused, _ = convert_model(
            parse_interchange(json.dumps(doc)), ConvertOptions(fuse_bn_sign=True)
        )
        kinds = [n.kind for n in fused.graph.nodes]
        assert OpKind.THRESHOLD_SIGN not in kinds

    def test_graph_output_blocks_fusion(self):
        doc = json.loads(bn_sign_doc([1.0], [0.0], [0.0], [1.0]))
        doc["output"] = "bn.out"
        fused, _ = convert_model(
            parse_interchange(json.dumps(doc)), ConvertOptions(fuse_bn_sign=True)
        )
        assert OpKind.BATCH_NORM in [n.kind for n in fused.graph.nodes]

    @pytest.mark.parametrize("seed", [21, 22])
    def test_fused_random_graph_matches_reference(self, seed):
        gen = np.random.default_rng(seed)
        g = parse_interchange(refeval.random_interchange_doc(gen, force_fusable=True))
        x = refeval.random_input_for(g, gen)
        model, _ = convert_model(g, ConvertOptions(c2=16, fuse_bn_sign=True))
        assert execute(model, x) == refeval.reference_eval(g, x)


def every_op_doc() -> str:
    """One node per interchange op, and every warning kind in one report.

    A degenerate (zero-gamma) BatchNorm -> Sign comes first, ahead of a
    padded binary conv, a conv whose bias blocks packing and two convs
    sharing one weight, so a fused report pins conversion warnings in node
    order followed by fusion warnings.  ``unused`` is read by no node.
    """
    rng = np.random.default_rng(606)
    c = 4
    inits, nodes = [], []

    def init(name, arr):
        inits.append(init_entry(name, arr))
        return name

    def bn_params(tag, gamma):
        return [
            init(f"{tag}.g", gamma),
            init(f"{tag}.b", rng.standard_normal(c) * 0.2),
            init(f"{tag}.m", rng.standard_normal(c) * 0.2),
            init(f"{tag}.v", rng.uniform(0.5, 2.0, c)),
        ]

    def node(op, name, inputs, output, **attributes):
        nodes.append(
            {
                "op": op,
                "name": name,
                "inputs": inputs,
                "outputs": [output],
                "attributes": attributes,
            }
        )

    init("unused", np.ones(3))
    bn0 = bn_params("bn0", [0.0, 1.0, -1.0, 0.5])
    node("BatchNormalization", "bn0", ["input", *bn0], "t0", epsilon=1e-3)
    node("Sign", "s0", ["t0"], "t1")
    w0 = init("w0", pm1(rng, (c, c, 3, 3)))
    node("Conv", "padded", ["t1", w0], "t2", kernel_shape=[3, 3], pads=[1, 1, 1, 1])
    node("BatchNormalization", "bn1", ["t2", *bn_params("bn1", rng.uniform(0.5, 1.5, c))], "t3")
    node("Sign", "s1", ["t3"], "t4")
    w1, b1 = init("w1", pm1(rng, (c, c, 1, 1))), init("b1", rng.standard_normal(c))
    node("Conv", "biased", ["t4", w1, b1], "t5")
    node("Relu", "relu", ["t5"], "t6")
    node("Sign", "s2", ["t6"], "t7")
    node("Conv", "shared_a", ["t7", init("ws", pm1(rng, (c, c, 1, 1)))], "t8")
    node("Sign", "s3", ["t8"], "t9")
    node("Conv", "shared_b", ["t9", "ws"], "t10")
    node("Add", "add", ["t10", "t5"], "t11")
    node("MaxPool", "maxpool", ["t11"], "t12", kernel_shape=[2, 2])
    node(
        "AveragePool", "avgpool", ["t12"], "t13",
        kernel_shape=[3, 3], pads=[1, 1, 1, 1], count_include_pad=0,
    )
    node("GlobalAveragePool", "gap", ["t13"], "t14")
    node("Flatten", "flatten", ["t14"], "t15", axis=1)
    wf, bf = init("wf", rng.standard_normal((3, c))), init("bf", rng.standard_normal(3))
    node("Gemm", "fc", ["t15", wf, bf], "t16", transB=1)
    return make_doc(
        inputs=[{"name": "input", "dims": [1, c, 5, 5]}],
        initializers=inits,
        nodes=nodes,
        output="t16",
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGolden:
    """Model bytes and report JSON, pinned at c2 = 128."""

    DOCS = {
        "rand7": lambda: refeval.random_interchange_doc(
            np.random.default_rng(7), force_fusable=True
        ),
        "every_op": every_op_doc,
    }
    # (document, fused) -> (sha256 of serialize_model bytes, of report.to_json())
    DIGESTS = {
        ("rand7", False): (
            "e57b279e82206366eebf661c8195da4469846060aafdd047174e691b413dca2a",
            "f88e64c1eb8da490ea852e415d3723eb229057e2f9adf1719192b8dbc31564a1",
        ),
        ("rand7", True): (
            "20a30b050f968caf2c1ca6137eaaa68b751f5f50c8a881a4dcd8895021cabbcc",
            "dc5a9e2b5cfa3bb6dfc614c0a5843ebf99783a201f824f5be2f8bbe3974c0fa2",
        ),
        ("every_op", False): (
            "b89dade39c6840473249f572e87f6eb4742c38932bdc43df1cfb74ed70e6564f",
            "ac944d3068b08fa367a7a365eb8ddfe168dcb1adcc4f89fb887cf059bb11b48a",
        ),
        ("every_op", True): (
            "4f0bfc4b8cfc73fba03b6bf21e4f3662ab07953d31a8118e0a8d31b0807fd16b",
            "bbd0865dffaaf4fa4318ea6477e1fb8624d645329d476fb87fc1d7efff4defdd",
        ),
    }

    @pytest.mark.parametrize("doc,fused", sorted(DIGESTS))
    def test_bytes(self, doc, fused):
        g = parse_interchange(self.DOCS[doc]())
        model, report = convert_model(g, ConvertOptions(c2=128, fuse_bn_sign=fused))
        digests = (sha256(serialize_model(model)), sha256(report.to_json().encode()))
        assert digests == self.DIGESTS[doc, fused]

    def test_warning_order(self):
        g = parse_interchange(every_op_doc())
        _, report = convert_model(g, ConvertOptions(fuse_bn_sign=True))
        assert [w.split(":")[0] for w in report.warnings] == [
            "conv 'padded'",
            "conv 'biased'",
            "conv 'shared_a'",
            "conv 'shared_b'",
            "bn 'bn0'",
        ]


class TestOpTable:
    def test_every_row_has_a_runtime_op(self):
        assert {row[0] for row in convert._OPS.values()} <= set(runtime._OPS)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("c2", [8, 128])
    def test_every_op_document_matches_reference(self, c2, fused, rng):
        text = every_op_doc()
        assert {n["op"] for n in json.loads(text)["nodes"]} == set(convert._OPS)
        g = parse_interchange(text)
        x = refeval.random_input_for(g, rng)
        model, _ = convert_model(g, ConvertOptions(c2=c2, fuse_bn_sign=fused))
        kinds = {n.kind for n in model.graph.nodes}
        assert OpKind.BINARY_CONV in kinds and (OpKind.THRESHOLD_SIGN in kinds) == fused
        assert execute(model, x) == refeval.reference_eval(g, x)

    @given(seed=st.integers(0, 2**32 - 1), fused=st.booleans())
    @settings(derandomize=True, max_examples=60)
    def test_every_initializer_is_read(self, seed, fused):
        doc = json.loads(refeval.random_interchange_doc(np.random.default_rng(seed)))
        doc["initializers"].append(init_entry("orphan", np.ones(2)))
        g = parse_interchange(json.dumps(doc))
        model, _ = convert_model(g, ConvertOptions(c2=8, fuse_bn_sign=fused))
        read = {w for n in model.graph.nodes for w in n.weights}
        assert set(model.graph.initializers) == read

    def test_repeated_initializer_in_one_node(self, rng):
        doc = json.loads(bn_sign_doc([1.0, -2.0], [0.5, 0.25], [0.0, 1.0], [1.0, 4.0]))
        doc["nodes"][0]["inputs"][2] = "g"  # beta reads gamma's initializer
        g = parse_interchange(json.dumps(doc))
        x = refeval.random_input_for(g, rng)
        for fused in (False, True):
            model, _ = convert_model(g, ConvertOptions(fuse_bn_sign=fused))
            assert execute(model, x) == refeval.reference_eval(g, x)

    def test_weight_as_its_own_bias_rejected(self, rng):
        doc = json.loads(conv_doc(rng.standard_normal((2, 2, 1, 1)), bias=[0.0, 0.0]))
        doc["nodes"][-1]["inputs"][2] = "w"
        with pytest.raises(ConversionError, match="bias length"):
            convert_model(parse_interchange(json.dumps(doc)))

    @pytest.mark.parametrize(
        "op,inputs",
        [
            ("Conv", ["input", "input"]),
            ("Gemm", ["input", "w", "input"]),
            ("BatchNormalization", ["input", "w", "w", "input", "w"]),
        ],
    )
    def test_parameter_must_be_initializer(self, op, inputs):
        doc = make_doc(
            inputs=[{"name": "input", "dims": [1, 1, 1, 1]}],
            initializers=[init_entry("w", np.ones(1, np.float32))],
            nodes=[{"op": op, "name": "n", "inputs": inputs, "outputs": ["y"]}],
            output="y",
        )
        index = inputs.index("input", 1)
        message = rf"inputs\[{index}\]: 'input' of node 'n' must be an initializer"
        with pytest.raises(ConversionError, match=message):
            parse_interchange(doc)


def two_bn_sign_doc(second_name: str, second_gamma: str = "g2") -> str:
    """x -> BN 'bn' -> Sign -> BN ``second_name`` -> Sign, one channel."""

    def bn(name, src, out, tag, gamma):
        return {
            "op": "BatchNormalization",
            "name": name,
            "inputs": [src, gamma, f"b{tag}", f"m{tag}", f"v{tag}"],
            "outputs": [out],
        }

    inits = [
        init_entry(name, [value])
        for name, value in (
            ("g1", 1.0), ("b1", 0.0), ("m1", -1.0), ("v1", 1.0),
            ("g2", 1.0), ("b2", 0.0), ("m2", 0.0), ("v2", 1.0),
        )
    ]
    if second_gamma != "g2":
        inits.append(init_entry(second_gamma, [1.0]))
    return make_doc(
        inputs=[{"name": "x", "dims": [1, 1, 1, 2]}],
        initializers=inits,
        nodes=[
            bn("bn", "x", "y1", "1", "g1"),
            {"op": "Sign", "name": "s1", "inputs": ["y1"], "outputs": ["z1"]},
            bn(second_name, "z1", "y2", "2", second_gamma),
            {"op": "Sign", "name": "s2", "inputs": ["y2"], "outputs": ["z2"]},
        ],
        output="z2",
    )


class TestFusionNames:
    X = FloatTensor.from_array(np.array([-0.2, 3.0], np.float32).reshape(1, 1, 2, 1))

    def test_duplicate_bn_names_rejected(self):
        # fusing both under one table name would run the first pair with the
        # second pair's thresholds
        with pytest.raises(ConversionError, match=r"nodes\[2\]: duplicate node name 'bn'"):
            parse_interchange(two_bn_sign_doc("bn"))

    def test_duplicate_default_name_rejected(self):
        doc = make_doc(
            inputs=[{"name": "x", "dims": [1, 1, 1, 1]}],
            nodes=[
                {"op": "Relu", "name": "Relu_1", "inputs": ["x"], "outputs": ["a"]},
                {"op": "Relu", "inputs": ["a"], "outputs": ["b"]},
            ],
            output="b",
        )
        with pytest.raises(ConversionError, match="duplicate node name 'Relu_1'"):
            parse_interchange(doc)

    def test_table_name_taken_by_initializer(self):
        g = parse_interchange(two_bn_sign_doc("bn2", second_gamma="bn.thresh_key"))
        fused, report = convert_model(g, ConvertOptions(fuse_bn_sign=True))
        plain, _ = convert_model(g)
        assert execute(fused, self.X) == execute(plain, self.X)
        assert execute(plain, self.X).data.tolist() == [1.0, 1.0]
        assert [n.kind for n in fused.graph.nodes] == [
            OpKind.BATCH_NORM,
            OpKind.SIGN,
            OpKind.THRESHOLD_SIGN,
        ]
        assert report.warnings == [
            "bn 'bn': initializer 'bn.thresh_key' already exists, fusion with 's1' skipped"
        ]

    def test_distinct_names_fuse_exactly(self):
        g = parse_interchange(two_bn_sign_doc("bn2"))
        fused, _ = convert_model(g, ConvertOptions(fuse_bn_sign=True))
        plain, _ = convert_model(g)
        assert [n.kind for n in fused.graph.nodes] == [OpKind.THRESHOLD_SIGN] * 2
        assert execute(fused, self.X) == execute(plain, self.X)


def hostile(path, value):
    """The every-op document with the field at ``path`` set to ``value``."""
    doc = json.loads(every_op_doc())
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p]
    target[key] = value
    return json.dumps(doc)


NAME = "expected a non-empty string"
DIMS = "dims must be non-negative integers"

# (path to the field, hostile value, message)
HOSTILE = {
    "int_node_name": (("nodes", 0, "name"), 5, NAME),
    "list_node_name": (("nodes", 0, "name"), [1], NAME),
    "bool_node_name": (("nodes", 0, "name"), False, NAME),
    "surrogate_node_name": (("nodes", 1, "name"), "\ud800", "not valid UTF-8"),
    "surrogate_output": (("output",), "\udfff", "not valid UTF-8"),
    "input_dim_2_32": (("inputs", 0, "dims", 2), 2**32, DIMS),
    "initializer_dim_2_32": (("initializers", 0, "dims"), [2**32, 0], DIMS),
    "bool_dim": (("inputs", 0, "dims", 1), True, DIMS),
    "bool_stride": (("nodes", 2, "attributes", "strides"), [True, 1], "bad 'strides'"),
    "stride_2_31": (("nodes", 13, "attributes", "strides"), [2**31, 1], "bad 'strides'"),
    "bool_kernel": (("nodes", 12, "attributes", "kernel_shape"), [2, True], "bad 'kernel_shape'"),
    "pads_2_31": (("nodes", 13, "attributes", "pads"), [2**31] * 4, "bad 'pads'"),
    "string_epsilon": (("nodes", 0, "attributes", "epsilon"), "1e-5", "bad 'epsilon'"),
    "bool_epsilon": (("nodes", 0, "attributes", "epsilon"), True, "bad 'epsilon'"),
    "huge_int_epsilon": (("nodes", 0, "attributes", "epsilon"), 10**400, "bad 'epsilon'"),
    "null_value": (("initializers", 0, "values", 0), None, "null is not a number"),
    "huge_int_value": (("initializers", 0, "values", 0), 10**400, "too large"),
    "bool_group": (("nodes", 2, "attributes", "group"), True, "unsupported 'group'"),
    "bool_dilations": (("nodes", 2, "attributes", "dilations"), [True, 1], "'dilations'"),
    "bool_count_include_pad": (
        ("nodes", 13, "attributes", "count_include_pad"),
        False,
        "unsupported 'count_include_pad'",
    ),
    "bool_trans_b": (("nodes", 16, "attributes", "transB"), True, "unsupported 'transB'"),
    "bool_axis": (("nodes", 15, "attributes", "axis"), True, "unsupported 'axis'"),
}


class TestHostileFields:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    @pytest.mark.parametrize("fused", [False, True])
    def test_conversion_error(self, case, fused):
        path, value, message = HOSTILE[case]
        with pytest.raises(ConversionError, match=message):
            model, _ = convert_model(
                parse_interchange(hostile(path, value)), ConvertOptions(fuse_bn_sign=fused)
            )
            serialize_model(model)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_cli_exits_1(self, case, tmp_path, capsys):
        path, value, _ = HOSTILE[case]
        doc = tmp_path / "g.json"
        doc.write_text(hostile(path, value))
        assert main(["convert", str(doc), str(tmp_path / "m.dabn"), "--fuse-bn-sign"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "m.dabn").exists()

    @pytest.mark.parametrize("name", [None, ""])
    def test_missing_name_gets_default(self, name):
        g = parse_interchange(hostile(("nodes", 6, "name"), name))
        assert g.nodes[6].name == "Relu_6"
