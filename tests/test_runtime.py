import pickle
import tracemalloc

import time

import numpy as np
import pytest

import refeval
from bnnkit import floatops, runtime
from bnnkit.cli import main
from bnnkit.convert import pack_conv_weight
from bnnkit.kernels import ConvParams
from bnnkit.layout import FloatTensor, Layout
from bnnkit.modelfile import ModelFormatError, deserialize_model, serialize_model
from bnnkit.nets import build_birealnet18
from bnnkit.runtime import (
    _OPS,
    Graph,
    GraphError,
    GraphInput,
    Node,
    NodeAttrs,
    OpKind,
    PackedModel,
    PackedWeight,
    execute,
    float_order_key,
)
from bnnkit.tensorio import write_tensor


def input_tensor(values):
    return FloatTensor.from_array(np.asarray(values, np.float32), Layout.NHWC)


def sign_conv_model(weight_values, c, hw, attrs=NodeAttrs()):
    packed = pack_conv_weight(weight_values, 8)
    graph = Graph(
        nodes=(
            Node(OpKind.SIGN, "sign", ("input",), "sign.out"),
            Node(OpKind.BINARY_CONV, "conv", ("sign.out",), "out", attrs, ("w",)),
        ),
        inputs=(GraphInput("input", (1, c, hw, hw)),),
        initializers={"w": packed},
        output="out",
    )
    return PackedModel(graph)


class TestExecute:
    def test_sign_then_binary_conv(self, rng):
        w = np.ones((1, 8, 1, 1), np.float32)
        model = sign_conv_model(w, 8, 2)
        x = input_tensor(rng.uniform(0.5, 2.0, (1, 2, 2, 8)))
        out = execute(model, x)
        assert set(out.data.tolist()) == {8.0}

    def test_input_dims_checked(self, rng):
        model = sign_conv_model(np.ones((1, 8, 1, 1), np.float32), 8, 2)
        x = input_tensor(rng.standard_normal((1, 3, 3, 8)).astype(np.float32))
        with pytest.raises(GraphError, match="input dims"):
            execute(model, x)

    def test_node_errors_name_the_node(self):
        with pytest.raises(GraphError, match="node 'badpool'.*kernel"):
            Graph(
                nodes=(Node(OpKind.MAX_POOL, "badpool", ("input",), "out"),),
                inputs=(GraphInput("input", (1, 1, 2, 2)),),
                initializers={},
                output="out",
            )

    def test_mixed_graph_matches_float_composition(self, rng):
        wv = rng.choice(np.array([-1.0, 1.0], np.float32), size=(12, 10, 3, 3))
        bn = {
            "gamma": rng.uniform(0.5, 1.5, 12).astype(np.float32),
            "beta": rng.standard_normal(12).astype(np.float32),
            "mean": rng.standard_normal(12).astype(np.float32),
            "var": rng.uniform(0.5, 1.5, 12).astype(np.float32),
        }
        fcw = rng.standard_normal((5, 12)).astype(np.float32)
        fcb = rng.standard_normal(5).astype(np.float32)
        inits = {
            "w": pack_conv_weight(wv, 16),
            "fc.w": fcw,
            "fc.b": fcb,
            **{f"bn.{k}": v for k, v in bn.items()},
        }
        conv_attrs = NodeAttrs(kernel=(3, 3), stride=(1, 1), padding=(1, 1))
        graph = Graph(
            nodes=(
                Node(OpKind.SIGN, "sign", ("input",), "sign.out"),
                Node(OpKind.BINARY_CONV, "conv", ("sign.out",), "conv.out", conv_attrs, ("w",)),
                Node(
                    OpKind.BATCH_NORM,
                    "bn",
                    ("conv.out",),
                    "bn.out",
                    NodeAttrs(epsilon=1e-4),
                    ("bn.gamma", "bn.beta", "bn.mean", "bn.var"),
                ),
                Node(
                    OpKind.MAX_POOL,
                    "pool",
                    ("bn.out",),
                    "pool.out",
                    NodeAttrs(kernel=(2, 2), stride=(2, 2)),
                ),
                Node(OpKind.RELU, "relu", ("pool.out",), "relu.out"),
                Node(OpKind.ADD, "add", ("relu.out", "relu.out"), "add.out"),
                Node(OpKind.GLOBAL_AVG_POOL, "gap", ("add.out",), "gap.out"),
                Node(OpKind.FLATTEN, "flat", ("gap.out",), "flat.out"),
                Node(OpKind.FULLY_CONNECTED, "fc", ("flat.out",), "out", weights=("fc.w", "fc.b")),
            ),
            inputs=(GraphInput("input", (1, 10, 6, 6)),),
            initializers=inits,
            output="out",
        )
        x = input_tensor(rng.standard_normal((1, 6, 6, 10)).astype(np.float32))

        params = ConvParams(kernel=(3, 3), channels=10, padding=(1, 1))
        want = floatops.sign_op(x)
        want = floatops.oracle_binary_conv(
            want, FloatTensor.from_array(wv, Layout.NCHW), params
        )
        want = floatops.batchnorm(
            want, bn["gamma"], bn["beta"], bn["mean"], bn["var"], 1e-4
        )
        want = floatops.maxpool(want, (2, 2), (2, 2))
        want = floatops.relu(want)
        want = floatops.add(want, want)
        want = floatops.global_avgpool(want)
        want = floatops.flatten(want)
        want = floatops.fully_connected(want, fcw, fcb)

        got = execute(PackedModel(graph), x)
        assert got == want

    def test_float_conv_with_bias(self, rng):
        w = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        graph = Graph(
            nodes=(Node(OpKind.FLOAT_CONV, "conv", ("input",), "out", weights=("w", "b")),),
            inputs=(GraphInput("input", (1, 3, 2, 2)),),
            initializers={"w": w, "b": b},
            output="out",
        )
        x = input_tensor(rng.standard_normal((1, 2, 2, 3)).astype(np.float32))
        got = execute(PackedModel(graph), x)
        want = floatops.conv2d_f32(x, FloatTensor.from_array(w, Layout.NCHW), b)
        assert got == want

    def test_deterministic_bytes(self, rng):
        model = sign_conv_model(
            rng.choice(np.array([-1.0, 1.0], np.float32), size=(4, 8, 1, 1)), 8, 3
        )
        x = input_tensor(rng.standard_normal((1, 3, 3, 8)).astype(np.float32))
        assert execute(model, x).data.tobytes() == execute(model, x).data.tobytes()


class TestThresholdSign:
    def test_boundary_at_zero_behaves_like_sign(self):
        zero_key = float_order_key(np.float32(0.0)).reshape(1)
        graph = Graph(
            nodes=(Node(OpKind.THRESHOLD_SIGN, "ts", ("input",), "out", weights=("k", "i")),),
            inputs=(GraphInput("input", (1, 1, 1, 4)),),
            initializers={"k": zero_key.view(np.float32), "i": np.zeros(1, np.float32)},
            output="out",
        )
        x = input_tensor(np.array([[[[-1.0], [-0.0], [0.0], [2.0]]]], np.float32))
        out = execute(PackedModel(graph), x)
        assert out.data.tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_invert_flag_flips(self):
        zero_key = float_order_key(np.float32(0.0)).reshape(1)
        graph = Graph(
            nodes=(Node(OpKind.THRESHOLD_SIGN, "ts", ("input",), "out", weights=("k", "i")),),
            inputs=(GraphInput("input", (1, 1, 1, 2)),),
            initializers={"k": zero_key.view(np.float32), "i": np.ones(1, np.float32)},
            output="out",
        )
        x = input_tensor(np.array([[[[-3.0], [3.0]]]], np.float32))
        assert execute(PackedModel(graph), x).data.tolist() == [1.0, -1.0]

    def test_bytes_on_special_values(self, rng):
        """Every value against every boundary, both flags, equals the select form."""
        nans = np.array(
            [0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0x7FC0BEEF, 0xFFC00001, 0xFF800001,
             0xFFFFFFFF, 0xFFC0BEEF],
            dtype=np.uint32,
        ).view(np.float32)
        values = np.concatenate(
            [refeval.SPECIAL_F32, nans, rng.standard_normal(8).astype(np.float32)]
        )
        bounds = np.concatenate(
            [float_order_key(values), np.array([0, 1, 0x7FFFFFFF, 0xFFFFFFFF], np.uint32)]
        )
        keys = np.tile(bounds, 2).view(np.float32)
        invert = np.repeat(np.float32([0, 1]), bounds.size)
        c = keys.size
        graph = Graph(
            nodes=(Node(OpKind.THRESHOLD_SIGN, "ts", ("input",), "out", weights=("k", "i")),),
            inputs=(GraphInput("input", (1, c, 1, values.size)),),
            initializers={"k": keys, "i": invert},
            output="out",
        )
        x = np.broadcast_to(values[None, None, :, None], (1, 1, values.size, c))
        got = execute(PackedModel(graph), input_tensor(x)).nhwc_array()
        want = refeval.threshold_sign(x, keys, invert)
        assert got.tobytes() == want.tobytes()


class TestValidation:
    def test_unresolved_input(self):
        with pytest.raises(GraphError, match="node 'n'.*unresolved input 'ghost'"):
            Graph(
                nodes=(Node(OpKind.RELU, "n", ("ghost",), "out"),),
                inputs=(GraphInput("input", (1, 1, 1, 1)),),
                initializers={},
                output="out",
            )

    def test_missing_initializer(self):
        with pytest.raises(GraphError, match="node 'n'.*missing initializer 'w'"):
            Graph(
                nodes=(Node(OpKind.FULLY_CONNECTED, "n", ("input",), "out", weights=("w",)),),
                inputs=(GraphInput("input", (1, 1, 1, 1)),),
                initializers={},
                output="out",
            )

    def test_duplicate_output(self):
        with pytest.raises(GraphError, match="already defined"):
            Graph(
                nodes=(
                    Node(OpKind.RELU, "a", ("input",), "t"),
                    Node(OpKind.RELU, "b", ("input",), "t"),
                ),
                inputs=(GraphInput("input", (1, 1, 1, 1)),),
                initializers={},
                output="t",
            )

    def test_binary_conv_requires_packed_weight(self):
        with pytest.raises(GraphError, match="must be packed"):
            Graph(
                nodes=(Node(OpKind.BINARY_CONV, "c", ("input",), "out", weights=("w",)),),
                inputs=(GraphInput("input", (1, 8, 2, 2)),),
                initializers={"w": np.ones((1, 8, 1, 1), np.float32)},
                output="out",
            )

    def test_output_must_be_produced(self):
        with pytest.raises(GraphError, match="not produced"):
            Graph(
                nodes=(),
                inputs=(GraphInput("input", (1, 1, 1, 1)),),
                initializers={},
                output="nothing",
            )

    def test_single_graph_input_required(self):
        with pytest.raises(GraphError, match="exactly one input"):
            Graph(
                nodes=(Node(OpKind.RELU, "r", ("a",), "out"),),
                inputs=(GraphInput("a", (1, 1, 1, 1)), GraphInput("b", (1, 1, 1, 1))),
                initializers={},
                output="out",
            )

    def test_long_chain_builds_and_loads_quickly(self):
        """Liveness planning is linear: a 40,000-node chain builds and loads in seconds."""
        n = 40_000
        start = time.perf_counter()
        nodes = [Node(OpKind.RELU, f"r{i}", (f"t{i}",), f"t{i + 1}") for i in range(n)]
        graph = Graph(nodes, (GraphInput("t0", (1, 1, 1, 1)),), {}, f"t{n}")
        loaded = deserialize_model(serialize_model(PackedModel(graph)))
        assert time.perf_counter() - start < 5.0
        assert [len(dead) for _, _, dead in loaded.graph._plan] == [1] * n

    def test_packed_weight_extent_check(self):
        matrix = pack_conv_weight(np.ones((2, 8, 1, 1), np.float32), 8).matrix
        with pytest.raises(ValueError, match="extents"):
            PackedWeight((2, 8, 3, 3), 8, matrix)


class TestBiRealNet:
    def test_topology(self):
        model = build_birealnet18(np.random.default_rng(7), input_hw=32)
        graph = model.graph
        assert len(graph.nodes) == 76
        assert graph.inputs[0].dims == (1, 3, 32, 32)
        assert graph.output == "output"
        kinds = [n.kind for n in graph.nodes]
        assert kinds.count(OpKind.BINARY_CONV) == 16
        assert kinds.count(OpKind.SIGN) == 16
        assert kinds.count(OpKind.ADD) == 16

    def test_runs_and_is_deterministic(self, rng):
        model = build_birealnet18(np.random.default_rng(7), input_hw=32)
        x = input_tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
        first = execute(model, x)
        assert first.dims == (1, 1000, 1, 1)
        assert execute(model, x).data.tobytes() == first.data.tobytes()


def ones(*shape):
    return np.ones(shape, np.float32)


def packed(m, c, k=1):
    return pack_conv_weight(ones(m, c, k, k), 8)


def bad(kind, *inputs, attrs=NodeAttrs(), weights=()):
    return Node(kind, "bad", inputs or ("input",), "out", attrs, weights)


BN_WEIGHTS = ("g", "b", "mu", "var")
POOL_2X2 = NodeAttrs(kernel=(2, 2), stride=(2, 2))

# Graphs that must fail to load: (nodes, input dims, initializers, message).
# The failing node is always 'bad'.
REJECTED = {
    "pool_stride_zero": (
        (bad(OpKind.MAX_POOL, attrs=NodeAttrs(kernel=(2, 2), stride=(0, 0))),),
        (1, 1, 4, 4),
        {},
        "stride must be >= 1",
    ),
    "negative_padding": (
        (bad(OpKind.FLOAT_CONV, attrs=NodeAttrs(padding=(-1, -1)), weights=("w",)),),
        (1, 1, 4, 4),
        {"w": ones(1, 1, 1, 1)},
        "padding must be >= 0",
    ),
    "kernel_larger_than_padded_input": (
        (bad(OpKind.BINARY_CONV, attrs=NodeAttrs(padding=(1, 0)), weights=("w",)),),
        (1, 8, 3, 3),
        {"w": packed(2, 8, k=5)},
        "kernel larger than padded input",
    ),
    "kernel_attribute_differs_from_weights": (
        (bad(OpKind.BINARY_CONV, attrs=NodeAttrs(kernel=(3, 3)), weights=("w",)),),
        (1, 8, 4, 4),
        {"w": packed(2, 8)},
        "kernel attribute does not match weight extents",
    ),
    "max_pool_padding_not_below_kernel": (
        (bad(OpKind.MAX_POOL, attrs=NodeAttrs(kernel=(1, 1), padding=(2**30, 2**30))),),
        (1, 1, 2, 2),
        {},
        "must be smaller than kernel",
    ),
    "avg_pool_padding_equal_to_kernel": (
        (bad(OpKind.AVG_POOL, attrs=NodeAttrs(kernel=(1, 1), padding=(1, 1))),),
        (1, 1, 2, 2),
        {},
        "must be smaller than kernel",
    ),
    "max_pool_padding_beyond_input": (
        (
            bad(
                OpKind.MAX_POOL,
                attrs=NodeAttrs(kernel=(2**30, 2**30), padding=(2**30 - 1, 2**30 - 1)),
            ),
        ),
        (1, 1, 2, 2),
        {},
        "exceeds input extents",
    ),
    "float_conv_padding_beyond_input": (
        (bad(OpKind.FLOAT_CONV, attrs=NodeAttrs(padding=(3, 3)), weights=("w",)),),
        (1, 1, 4, 2),
        {"w": ones(1, 1, 5, 5)},
        r"padding \(3, 3\) exceeds input extents \(4, 2\)",
    ),
    "binary_conv_beyond_accumulator_capacity": (
        (bad(OpKind.BINARY_CONV, weights=("w",)),),
        (1, 65536, 1, 1),
        {"w": packed(1, 65536)},
        "65536 bits exceeds the 65528-bit accumulator capacity",
    ),
    "pool_without_kernel": (
        (bad(OpKind.AVG_POOL),),
        (1, 1, 4, 4),
        {},
        "missing kernel attribute",
    ),
    "binary_conv_channel_mismatch": (
        (bad(OpKind.BINARY_CONV, weights=("w",)),),
        (1, 16, 2, 2),
        {"w": packed(2, 8)},
        "weight expects 8 input channels, input has 16",
    ),
    "binary_conv_float_weight": (
        (bad(OpKind.BINARY_CONV, weights=("w",)),),
        (1, 8, 2, 2),
        {"w": ones(2, 8, 1, 1)},
        "must be packed",
    ),
    "float_conv_channel_mismatch": (
        (bad(OpKind.FLOAT_CONV, weights=("w",)),),
        (1, 4, 2, 2),
        {"w": ones(2, 3, 1, 1)},
        "do not fit 4 input channels",
    ),
    "float_conv_bias_length": (
        (bad(OpKind.FLOAT_CONV, weights=("w", "b")),),
        (1, 3, 2, 2),
        {"w": ones(2, 3, 1, 1), "b": ones(3)},
        "bias length does not match 2 channels",
    ),
    "batch_norm_table_length": (
        (bad(OpKind.BATCH_NORM, weights=BN_WEIGHTS),),
        (1, 4, 2, 2),
        {"g": ones(4), "b": ones(4), "mu": ones(3), "var": ones(4)},
        "mean length does not match 4 channels",
    ),
    "batch_norm_negative_variance": (
        (bad(OpKind.BATCH_NORM, weights=BN_WEIGHTS),),
        (1, 2, 2, 2),
        {"g": ones(2), "b": ones(2), "mu": ones(2), "var": np.array([1, -1], np.float32)},
        "negative variance",
    ),
    "batch_norm_weight_count": (
        (bad(OpKind.BATCH_NORM, weights=BN_WEIGHTS[:3]),),
        (1, 4, 2, 2),
        {"g": ones(4), "b": ones(4), "mu": ones(4)},
        "expects 4 weights, got 3",
    ),
    "threshold_table_length": (
        (bad(OpKind.THRESHOLD_SIGN, weights=("k", "i")),),
        (1, 4, 2, 2),
        {"k": ones(4), "i": ones(5)},
        "invert length does not match 4 channels",
    ),
    "fully_connected_features": (
        (bad(OpKind.FULLY_CONNECTED, weights=("w",)),),
        (1, 2, 2, 1),
        {"w": ones(3, 5)},
        r"weight shape \(3, 5\) does not match 4 features",
    ),
    "fully_connected_no_outputs": (
        (bad(OpKind.FULLY_CONNECTED, weights=("w",)),),
        (1, 4, 1, 1),
        {"w": ones(0, 4)},
        "not all positive",
    ),
    "add_shape_mismatch": (
        (
            Node(OpKind.MAX_POOL, "pool", ("input",), "pool.out", POOL_2X2),
            bad(OpKind.ADD, "input", "pool.out"),
        ),
        (1, 2, 4, 4),
        {},
        "shape mismatch",
    ),
    "packed_weight_on_float_conv": (
        (bad(OpKind.FLOAT_CONV, weights=("w",)),),
        (1, 8, 2, 2),
        {"w": packed(2, 8)},
        "initializer 'w' must be full precision",
    ),
    "packed_weight_on_batch_norm": (
        (bad(OpKind.BATCH_NORM, weights=("g", "b", "w", "var")),),
        (1, 8, 2, 2),
        {"g": ones(8), "b": ones(8), "w": packed(8, 1), "var": ones(8)},
        "initializer 'w' must be full precision",
    ),
    "add_with_one_input": (
        (bad(OpKind.ADD),),
        (1, 1, 2, 2),
        {},
        "expects 2 inputs, got 1",
    ),
    "relu_with_two_inputs": (
        (bad(OpKind.RELU, "input", "input"),),
        (1, 1, 2, 2),
        {},
        "expects 1 inputs, got 2",
    ),
    "sign_without_input": (
        (Node(OpKind.SIGN, "bad", (), "out"),),
        (1, 1, 2, 2),
        {},
        "expects 1 inputs, got 0",
    ),
}


def unchecked_model(nodes, dims, inits) -> PackedModel:
    """A model whose graph skips construction checks, as a hostile file writer's would."""
    graph = object.__new__(Graph)
    fields = {
        "nodes": nodes,
        "inputs": (GraphInput("input", dims),),
        "initializers": inits,
        "output": nodes[-1].output,
    }
    for name, value in fields.items():
        object.__setattr__(graph, name, value)
    return PackedModel(graph)


@pytest.mark.parametrize("case", list(REJECTED))
class TestRejectedAtLoad:
    def test_graph_error_names_the_node(self, case):
        nodes, dims, inits, message = REJECTED[case]
        with pytest.raises(GraphError, match=f"node 'bad': .*{message}"):
            Graph(nodes, (GraphInput("input", dims),), inits, nodes[-1].output)

    def test_model_file_is_rejected(self, case):
        nodes, dims, inits, message = REJECTED[case]
        raw = serialize_model(unchecked_model(nodes, dims, inits))
        with pytest.raises(ModelFormatError, match=f"node 'bad': .*{message}"):
            deserialize_model(raw)

    def test_cli_run_exits_1(self, case, tmp_path, capsys):
        nodes, dims, inits, _ = REJECTED[case]
        model = tmp_path / "m.dabn"
        model.write_bytes(serialize_model(unchecked_model(nodes, dims, inits)))
        x = tmp_path / "x.bin"
        n, c, h, w = dims
        write_tensor(x, input_tensor(np.zeros((n, h, w, c))))
        assert main(["run", str(model), str(x)]) == 1
        captured = capsys.readouterr()
        assert "bad model file" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestPlan:
    def test_one_table_row_per_op_kind(self):
        assert set(_OPS) == set(OpKind)

    def test_pickled_model_runs(self, rng):
        model = sign_conv_model(np.ones((2, 8, 1, 1), np.float32), 8, 2)
        x = input_tensor(rng.standard_normal((1, 2, 2, 8)).astype(np.float32))
        assert execute(pickle.loads(pickle.dumps(model)), x) == execute(model, x)

    def test_execute_frees_dead_activations(self, rng, monkeypatch):
        # at 224 the activations dwarf the 2 MB scratch of the 1000-class
        # dense layer, which at 32 alone outweighs them all
        model = build_birealnet18(np.random.default_rng(7))
        x = input_tensor(rng.standard_normal((1, 224, 224, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            execute(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        produced = []

        def recording(fn):
            def wrapper(*args):
                out = fn(*args)
                produced.append(out.data.nbytes)
                return out

            return wrapper

        node_ops = (
            "conv2d_f32",
            "batchnorm",
            "maxpool",
            "avgpool",
            "sign_op",
            "add",
            "global_avgpool",
            "flatten",
            "fully_connected",
        )
        for name in node_ops:
            monkeypatch.setattr(floatops, name, recording(getattr(floatops, name)))
        monkeypatch.setattr(
            runtime, "binary_direct_conv", recording(runtime.binary_direct_conv)
        )
        execute(model, x)
        assert len(produced) == len(model.graph.nodes)
        assert peak < sum(produced)
