"""Acceptance gate: one test per release criterion, one printed verdict each.

Each test wraps its body in the ``criterion`` context manager, which prints
``[PASS] name`` or ``[FAIL] name`` and mirrors the line into the terminal
summary.  The checks here intentionally re-derive expectations through the
independent helpers in ``refeval`` rather than the package's own kernels.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import conftest
import refeval
from refeval import index_nc1hwc2, unpack_from_nc1hwc2
from bnnkit.bitpack import pack_naive
from bnnkit.cli import main as cli_main
from bnnkit.convert import (
    ConvertOptions,
    convert_model,
    detect_binary_convs,
    pack_conv_weight,
    parse_interchange,
)
from bnnkit.floatops import oracle_binary_conv
from bnnkit.kernels import (
    BinMatrix,
    ConvParams,
    bgemm,
    binary_direct_conv,
    binary_direct_conv_counts,
    im2col_packed,
    match_to_dot,
)
from bnnkit.layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    group_count,
    pack_to_nc1hwc2,
)
from bnnkit.modelfile import (
    ModelFormatError,
    deserialize_model,
    save_model,
    serialize_model,
)
from bnnkit.nets import build_birealnet18
from bnnkit.runtime import Graph, GraphInput, Node, OpKind, PackedModel, execute
from bnnkit.tensorio import write_tensor


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        line = f"[FAIL] {name}"
        print(line)
        conftest.acceptance_lines.append(line)
        raise
    else:
        line = f"[PASS] {name}"
        print(line)
        conftest.acceptance_lines.append(line)


def make_doc(*, inputs, initializers=(), nodes, output):
    return json.dumps(
        {
            "inputs": list(inputs),
            "initializers": list(initializers),
            "nodes": list(nodes),
            "output": output,
        }
    )


def sign_conv_doc(weights, in_hw=6, with_sign=True):
    m, c, k, _ = weights.shape
    nodes = []
    data = "input"
    if with_sign:
        nodes.append({"op": "Sign", "name": "sg", "inputs": ["input"], "outputs": ["s"]})
        data = "s"
    nodes.append(
        {
            "op": "Conv",
            "name": "cv",
            "inputs": [data, "w"],
            "outputs": ["y"],
            "attributes": {"kernel_shape": [k, k], "strides": [1, 1], "pads": [0] * 4},
        }
    )
    return make_doc(
        inputs=[{"name": "input", "dims": [1, c, in_hw, in_hw]}],
        initializers=[
            {
                "name": "w",
                "dims": list(weights.shape),
                "values": [float(v) for v in weights.reshape(-1)],
            }
        ],
        nodes=nodes,
        output="y",
    )


def tiny_model(dims=(1, 2, 2, 2)):
    node = Node(OpKind.SIGN, "only", ("input",), "output")
    return PackedModel(Graph((node,), (GraphInput("input", dims),), {}, "output"))


def module_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_direct_conv_matches_float_oracle():
    with criterion("direct binary conv equals float reference on 200 random configs"):
        start = time.perf_counter()
        gen = np.random.default_rng(1001)
        count = 0
        for x, w, params, c2 in refeval.conv_cases(gen, 200):
            packed = pack_to_nc1hwc2(x, c2)
            weight = pack_conv_weight(w, c2)
            got = binary_direct_conv(packed, weight.matrix, params)
            want = oracle_binary_conv(x, FloatTensor.from_array(w, Layout.NCHW), params)
            assert got == want, f"config {count} diverged"
            count += 1
        assert count >= 200
        assert time.perf_counter() - start < 60.0


def test_gemm_path_equals_direct_conv():
    with criterion("im2col+bgemm pipeline equals direct conv on the same configs"):
        gen = np.random.default_rng(1001)
        count = 0
        for x, w, params, c2 in refeval.conv_cases(gen, 200):
            packed = pack_to_nc1hwc2(x, c2)
            weight = pack_conv_weight(w, c2)
            direct = binary_direct_conv(packed, weight.matrix, params)
            dots = match_to_dot(
                bgemm(weight.matrix, im2col_packed(packed, params)), params, c2
            )
            flat = np.ascontiguousarray(direct.nhwc_array())
            flat = flat.reshape(-1, weight.matrix.rows).T
            assert np.array_equal(
                dots.astype(np.int64), flat.astype(np.int64)
            ), f"config {count} diverged"
            count += 1
        assert count >= 200


def test_packing_agreement_and_popcount():
    with criterion(
        "naive and runtime packers agree on 10000 slices; deferred reduction = popcount"
    ):
        gen = np.random.default_rng(3003)
        pool = np.array(
            [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45], dtype=np.float32
        )
        pool = np.concatenate(
            [pool, np.array([0x7FC00000, 0xFFC00000], np.uint32).view(np.float32)]
        )
        for length in gen.integers(0, 1001, size=10_000):
            values = gen.standard_normal(int(length)).astype(np.float32)
            if length:
                spots = gen.integers(0, length, size=max(1, int(length) // 16))
                values[spots] = gen.choice(pool, size=len(spots))
            # the slice is the channel axis of one position, in a single group
            t = FloatTensor((1, int(length), 1, 1), Layout.NCHW, values)
            c2 = max(8, -(-int(length) // 8) * 8)
            assert pack_naive(values).tobytes() == pack_to_nc1hwc2(t, c2).data.tobytes()
        for _ in range(1000):
            nbytes = int(gen.integers(1, 65))
            raw = gen.integers(0, 256, size=nbytes, dtype=np.uint8)
            filt = gen.integers(0, 256, size=nbytes, dtype=np.uint8)
            c = nbytes * 8
            x = PackedTensor((1, c, 1, 1), c, raw.reshape(1, 1, 1, 1, nbytes))
            w = BinMatrix(1, 1, c, filt.reshape(1, 1, nbytes))
            counts = binary_direct_conv_counts(x, w, ConvParams(kernel=(1, 1), channels=c))
            a = int.from_bytes(raw.tobytes(), "little")
            b = int.from_bytes(filt.tobytes(), "little")
            assert int(counts[0, 0, 0]) == refeval.popcount(~(a ^ b) & ((1 << c) - 1))


def test_layout_round_trip_and_indexing():
    with criterion("channel-grouped layout: bijective packing, index math, halo reuse"):
        gen = np.random.default_rng(4004)
        for c2 in (8, 16, 32, 64, 128):
            for c in (1, 3, c2, c2 + 5, 2 * c2 + 2):
                values = gen.choice(np.array([-1.0, 1.0], np.float32), size=(2, 4, 3, c))
                t = FloatTensor.from_array(values, Layout.NHWC)
                assert unpack_from_nc1hwc2(pack_to_nc1hwc2(t, c2)) == t
        dims, c2 = (2, 37, 3, 2), 16
        c1 = group_count(37, c2)
        counter = 0
        for n in range(2):
            for g in range(c1):
                for y in range(3):
                    for x in range(2):
                        for b in range(c2):
                            ch = g * c2 + b
                            if ch < 37:
                                assert index_nc1hwc2(dims, c2, n, ch, y, x) == (counter, b)
                        counter += 1
        dims = (1, 8, 8, 8)

        def window_groups(oy, ox):
            return {
                index_nc1hwc2(dims, 8, 0, 0, oy + ky, ox + kx)[0]
                for ky in range(3)
                for kx in range(3)
            }

        assert len(window_groups(2, 2) & window_groups(2, 3)) == 6
        assert len(window_groups(2, 2) & window_groups(3, 2)) == 6


def test_compression_ratios():
    with criterion("packing shrinks 3x3x128x128 weights 32.0x and c=130 weights 16.25x"):
        gen = np.random.default_rng(5005)
        w = gen.choice(np.array([-1.0, 1.0], np.float32), size=(128, 128, 3, 3))
        g = parse_interchange(sign_conv_doc(w))
        _, report = convert_model(g, ConvertOptions(c2=128))
        (row,) = [r for r in report.initializers if r["name"] == "w"]
        assert row["bytes_before"] == 589_824
        assert row["bytes_after"] == 18_432
        assert report.ratio == 32.0
        w = gen.choice(np.array([-1.0, 1.0], np.float32), size=(4, 130, 3, 3))
        _, report = convert_model(parse_interchange(sign_conv_doc(w)), ConvertOptions(c2=128))
        assert report.ratio == 16.25


def test_converter_preserves_semantics():
    with criterion("20 converted graphs match float reference; detection goldens hold"):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            g = parse_interchange(refeval.random_interchange_doc(gen))
            x = refeval.random_input_for(g, gen)
            c2 = int(gen.choice([8, 16, 32, 64, 128]))
            model, _ = convert_model(g, ConvertOptions(c2=c2))
            assert execute(model, x) == refeval.reference_eval(g, x), f"seed {seed}"
        gen = np.random.default_rng(606)
        w = gen.choice(np.array([-1.0, 1.0], np.float32), size=(2, 4, 3, 3))
        assert detect_binary_convs(parse_interchange(sign_conv_doc(w))) == {"cv"}
        soft = w.copy()
        soft[0, 0, 0, 0] = 0.5
        assert detect_binary_convs(parse_interchange(sign_conv_doc(soft))) == set()
        no_sign = parse_interchange(sign_conv_doc(w, with_sign=False))
        assert detect_binary_convs(no_sign) == set()


def test_model_format_round_trip():
    with criterion("10 models survive save/load byte-identically; corruptions differ"):
        models = [
            tiny_model(),
            build_birealnet18(np.random.default_rng(42)),
            build_birealnet18(np.random.default_rng(1), input_hw=32),
        ]
        for seed in range(100, 107):
            gen = np.random.default_rng(seed)
            fuse = seed % 2 == 1
            g = parse_interchange(
                refeval.random_interchange_doc(gen, force_fusable=fuse)
            )
            options = ConvertOptions(c2=16, fuse_bn_sign=fuse)
            models.append(convert_model(g, options)[0])
        assert len(models) == 10
        for model in models:
            raw = serialize_model(model)
            again = serialize_model(deserialize_model(raw))
            assert again == raw
        raw = bytearray(serialize_model(tiny_model()))
        errors = []
        for corrupt in (
            lambda b: b"NOPE" + bytes(b[4:]),
            lambda b: bytes(b[:4]) + (2).to_bytes(4, "little") + bytes(b[8:]),
            lambda b: bytes(b[:-1]) + bytes([b[-1] ^ 0xFF]),
        ):
            try:
                deserialize_model(corrupt(raw))
            except ModelFormatError as exc:
                errors.append(str(exc))
            else:
                raise AssertionError("corruption went unnoticed")
        assert len(set(errors)) == 3
        assert "magic" in errors[0]
        assert "version" in errors[1]
        assert "checksum" in errors[2]


def test_end_to_end_determinism(tmp_path):
    with criterion("two fresh processes produce bit-identical network output in <30s"):
        model = build_birealnet18(np.random.default_rng(42), input_hw=224)
        model_path = tmp_path / "bireal18.dabn"
        save_model(model, str(model_path))
        gen = np.random.default_rng(7)
        x = FloatTensor.from_array(
            gen.standard_normal((1, 224, 224, 3)).astype(np.float32), Layout.NHWC
        )
        input_path = tmp_path / "input.bin"
        write_tensor(input_path, x)
        outputs = []
        for attempt in (1, 2):
            out_path = tmp_path / f"out{attempt}.bin"
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "bnnkit",
                    "run",
                    str(model_path),
                    str(input_path),
                    "-o",
                    str(out_path),
                ],
                capture_output=True,
                text=True,
                env=module_env(),
                cwd=tmp_path,
            )
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 30.0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 16 + 1000 * 4


def test_bench_csv_schema_and_cross_check(capsys, monkeypatch):
    with criterion("bench emits schema-valid CSV and catches a broken variant"):
        for suite in ("packing", "conv"):
            code = cli_main(["bench", "--suite", suite, "--sizes", "small", "--repeat", "1"])
            assert code == 0
            out = capsys.readouterr().out
            lines = out.strip().splitlines()
            assert lines[0] == "suite,case,variant,median_ns,ratio"
            assert len(lines) > 1
            for line in lines[1:]:
                fields = line.split(",")
                assert len(fields) == 5
                assert fields[0] == suite
                assert int(fields[3]) >= 0
                float(fields[4])
        monkeypatch.setattr(
            "bnnkit.cli.pack_to_nc1hwc2",
            lambda t, c2: pack_to_nc1hwc2(FloatTensor(t.dims, t.layout, -t.data), c2),
        )
        code = cli_main(["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"])
        assert code == 1
        assert "cross-check" in capsys.readouterr().err
