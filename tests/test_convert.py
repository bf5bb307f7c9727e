import json

import numpy as np
import pytest

import refeval
from bnnkit.convert import (
    ConversionError,
    ConvertOptions,
    convert_model,
    detect_binary_convs,
    pack_conv_weight,
    parse_interchange,
    unpack_conv_weight,
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
