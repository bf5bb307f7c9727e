import hashlib
import os
import pickle
import threading
import tracemalloc

import time

import numpy as np
import pytest

import refeval
from bnnkit import floatops, runtime
from bnnkit.cli import main
from bnnkit.convert import (
    ConvertOptions,
    InterchangeGraph,
    InterchangeNode,
    convert_model,
    detect_binary_convs,
    pack_conv_weight,
)
from bnnkit.kernels import ConvParams
from bnnkit.layout import FloatTensor, Layout
from bnnkit.modelfile import ModelFormatError, deserialize_model, serialize_model
from bnnkit.nets import birealnet18_graph, build_birealnet18
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

    def test_failing_node_is_wrapped(self):
        bn = {"g": 1.0, "b": 0.0, "mean": -3e38, "var": 1.0}
        graph = Graph(
            nodes=(Node(OpKind.BATCH_NORM, "bn", ("input",), "out", NodeAttrs(), tuple(bn)),),
            inputs=(GraphInput("input", (1, 1, 1, 1)),),
            initializers={k: np.full(1, v, np.float32) for k, v in bn.items()},
            output="out",
        )
        with np.errstate(over="raise"), pytest.raises(GraphError, match="^node 'bn': ") as err:
            execute(PackedModel(graph), input_tensor(np.full((1, 1, 1, 1), 3e38)))
        assert isinstance(err.value.__cause__, FloatingPointError)

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


class TestUfuncState:
    """The conv loops size numpy's ufunc buffer in an errstate scope of their own."""

    def test_caller_state_survives_execute_and_a_raising_conv(self):
        model = build_birealnet18(np.random.default_rng(3), input_hw=32)
        x = input_tensor(np.random.default_rng(4).standard_normal((1, 32, 32, 3)))
        huge = input_tensor(np.full((1, 3, 3, 2), 3e38))
        tens = FloatTensor.from_array(np.full((4, 2, 3, 3), 10.0, np.float32), Layout.NCHW)
        with np.errstate(divide="ignore"):
            np.setbufsize(4096)  # a caller's own, non-default state
            state = (np.getbufsize(), np.geterr())
            execute(model, x)
            assert (np.getbufsize(), np.geterr()) == state
            with np.errstate(over="raise"):
                raising = (np.getbufsize(), np.geterr())
                with pytest.raises(FloatingPointError):
                    floatops.conv2d_f32(huge, tens)
                assert (np.getbufsize(), np.geterr()) == raising
            assert (np.getbufsize(), np.geterr()) == state

    # in a tile of the calling thread, of the helper, of both
    @pytest.mark.parametrize("row", [0, 1, pytest.param([0, 1], id="both")])
    def test_helper_thread_state_and_errors_reach_the_caller(self, row, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(floatops, "_TILE_BYTES", 8 * 4 * 3)  # four tiles of one row
        x = np.ones((1, 4, 3, 2), np.float32)
        huge = x.copy()
        huge[0, row] = 3e38
        tens = FloatTensor.from_array(np.full((4, 2, 1, 1), 10.0, np.float32), Layout.NCHW)
        threads = threading.active_count()
        with np.errstate(divide="ignore"):
            np.setbufsize(4096)
            state = (np.getbufsize(), np.geterr())
            with np.errstate(over="raise"):
                raising = (np.getbufsize(), np.geterr())
                floatops.conv2d_f32(input_tensor(x), tens)
                assert threading.active_count() == threads
                with pytest.raises(FloatingPointError):
                    floatops.conv2d_f32(input_tensor(huge), tens)
                assert threading.active_count() == threads
                assert (np.getbufsize(), np.geterr()) == raising
            assert (np.getbufsize(), np.geterr()) == state


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
        assert [len(dead) for _, _, dead, _ in loaded.graph._plan] == [1] * n

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

    # (seed, input_hw) -> sha256 of serialize_model bytes, of the output on
    # default_rng(7).standard_normal((1, hw, hw, 3)) as an NHWC input
    DIGESTS = {
        (42, 224): (
            "a03533fc27ccf86f0582c66e3822b50a156056224184f24fcab6613b37ef369a",
            "2ee4dd540877a2fd2bc7d50ebcfb91ddc147ad1d2a7f55ebb79599277bea728b",
        ),
        (1, 32): (
            "f572ebc56f14db693c53b9f5cd6b5df56ab2d31dc542ba6d7c0d85e48e5dd7e1",
            "4f82900e49c8c35360d1552c990f53d523714be26bcefd6f5bed6595f6994712",
        ),
    }

    @pytest.mark.parametrize("seed,hw", sorted(DIGESTS))
    def test_pinned_bytes(self, seed, hw):
        model = build_birealnet18(np.random.default_rng(seed), input_hw=hw)
        x = np.random.default_rng(7).standard_normal((1, hw, hw, 3)).astype(np.float32)
        out = execute(model, input_tensor(x))
        digests = (
            hashlib.sha256(serialize_model(model)).hexdigest(),
            hashlib.sha256(out.data.tobytes()).hexdigest(),
        )
        assert digests == self.DIGESTS[seed, hw]

    def test_models_and_graphs_compare_by_identity(self):
        # value equality would compare dicts of numpy arrays, which raises
        model = build_birealnet18(np.random.default_rng(1), input_hw=32)
        again = build_birealnet18(np.random.default_rng(1), input_hw=32)
        graph = birealnet18_graph(np.random.default_rng(1), 32)
        pairs = [
            (model, again),
            (model.graph, again.graph),
            (graph, birealnet18_graph(np.random.default_rng(1), 32)),
        ]
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b}) == 2

    @pytest.mark.parametrize("seed", [1, 7])
    def test_matches_reference_eval(self, seed):
        graph = birealnet18_graph(np.random.default_rng(seed), 32)
        binary = {f"s{s}.b{b}.u{u}.conv" for s in range(4) for b in range(2) for u in range(2)}
        assert detect_binary_convs(graph) == binary
        _, report = convert_model(graph, ConvertOptions(c2=128))
        assert sorted(w.split(":")[0] for w in report.warnings) == sorted(
            f"conv '{name}'" for name in binary
        )
        assert all("+1 padding" in w for w in report.warnings)
        model = build_birealnet18(np.random.default_rng(seed), input_hw=32)
        x = refeval.random_input_for(graph, np.random.default_rng(seed))
        assert execute(model, x) == refeval.reference_eval(graph, x)


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
        # at 224 the activations dwarf the dense layer's scratch, blocks of
        # at most 0.5 MB that stay below all activations even at 32
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
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
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

    def test_inference_peak_without_input_sized_temporaries(self, rng):
        # bn1 writes into the stem's output, so no step holds two stem-sized
        # activations: bn1 held both, 6.46 MB, before elementwise steps wrote
        # into their dying input; a temporary per BatchNorm pass and a padded
        # copy of pool1's input made 9.67 MB before that
        model = build_birealnet18(np.random.default_rng(7))
        x = input_tensor(rng.standard_normal((1, 224, 224, 3)).astype(np.float32))
        stem_bytes = 64 * 112 * 112 * 4
        assert refeval.traced_peak(execute, model, x) < 2 * stem_bytes  # 6,422,528 B

    def test_dense_scratch_below_activations(self, rng):
        # at 32 px the 512 -> 1000 classifier's products, 2.05 MB in one
        # block, outweighed all 0.68 MB of activations the net produces
        model = build_birealnet18(np.random.default_rng(7), input_hw=32)
        x = input_tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
        peak = refeval.traced_peak(execute, model, x)
        env, produced = {model.graph.inputs[0].name: x}, 0
        for node, run, _, _ in model.graph._plan:
            env[node.output] = run(*[env[src] for src in node.inputs])
            produced += env[node.output].data.nbytes
        assert peak < produced


def elementwise_graph(dims, *nodes) -> InterchangeGraph:
    """A graph over input ``x`` of (n, c, h, w) ``dims`` from (op, output,
    inputs) triples, the last one its output; a BatchNormalization reads the
    tables ``g``, ``b``, ``m`` and ``v`` after its one input."""
    rng = np.random.default_rng(3)
    c = dims[1]
    tables = dict(zip("gbm", rng.standard_normal((3, c)).astype(np.float32)))
    tables["v"] = rng.uniform(0.5, 2.0, c).astype(np.float32)
    body = tuple(
        InterchangeNode(op, out, ins + ("g", "b", "m", "v") * (op == "BatchNormalization"), out, {})
        for op, out, ins in nodes
    )
    return InterchangeGraph((("x", dims),), tables, body, nodes[-1][1])


class TestBufferReuse:
    """An elementwise step writes into the buffer of an input that dies there,
    but never into the caller's input or a buffer a live activation shares."""

    @staticmethod
    def run_checked(graph, rng):
        """Execute ``graph`` converted on an input holding NaNs of several
        payloads; return the plan's reused input per node."""
        model, _ = convert_model(graph, ConvertOptions())
        values = refeval.special_mix(rng, graph.inputs[0][1], 0.3, refeval.NAN_F32)
        x = FloatTensor.from_array(values, Layout.NCHW)
        array = x.nhwc_array().base  # writable: a buffer the runtime could write
        before = array.tobytes()
        with np.errstate(all="ignore"):
            got = execute(model, x)
            want = refeval.reference_eval(graph, x)
        assert got.data.tobytes() == want.data.tobytes()
        assert array.tobytes() == before
        return {node.name: into for node, _, _, into in model.graph._plan}

    def test_graph_input_is_never_written(self, rng):
        graph = elementwise_graph(
            (1, 3, 4, 5),
            ("BatchNormalization", "bn", ("x",)),
            ("Relu", "r", ("bn",)),
            ("Add", "add", ("r", "x")),
            ("Sign", "s", ("add",)),
        )
        assert self.run_checked(graph, rng) == {"bn": None, "r": "bn", "add": None, "s": "add"}

    def test_input_read_again_later_is_kept(self, rng):
        graph = elementwise_graph(
            (2, 4, 3, 3),
            ("Relu", "a", ("x",)),
            ("BatchNormalization", "bn", ("a",)),  # the shortcut reads a below
            ("Sign", "s", ("bn",)),
            ("Add", "add", ("s", "a")),
        )
        assert self.run_checked(graph, rng) == {"a": None, "bn": None, "s": "bn", "add": "a"}

    def test_flatten_view_of_a_live_activation_is_kept(self, rng):
        x = FloatTensor.from_array(np.ones((1, 1, 1, 6), np.float32))
        assert np.shares_memory(floatops.flatten(x).data, x.data)  # a view when h = w = 1
        graph = elementwise_graph(
            (1, 6, 1, 1),
            ("Relu", "a", ("x",)),
            ("Flatten", "f", ("a",)),
            ("Sign", "s", ("f",)),  # f dies here, but its buffer is a's
            ("Add", "add", ("s", "a")),
        )
        assert self.run_checked(graph, rng) == {"a": None, "f": None, "s": None, "add": "a"}

    def test_batchnorm_then_add_reuse_one_buffer(self, rng, monkeypatch):
        graph = elementwise_graph(
            (1, 5, 6, 7),
            ("Relu", "a", ("x",)),
            ("BatchNormalization", "bn", ("a",)),
            ("Relu", "r", ("x",)),
            ("Add", "add", ("r", "bn")),
        )
        assert self.run_checked(graph, rng) == {"a": None, "bn": "a", "r": None, "add": "bn"}
        relus, real = [], floatops.relu

        def recording(t, **out):
            relus.append(real(t, **out))
            return relus[-1]

        monkeypatch.setattr(floatops, "relu", recording)
        model, _ = convert_model(graph, ConvertOptions())
        out = execute(model, input_tensor(rng.standard_normal((1, 6, 7, 5))))
        assert np.shares_memory(out.data, relus[0].data)
        assert not np.shares_memory(out.data, relus[1].data)
