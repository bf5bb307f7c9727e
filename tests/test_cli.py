import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import bnnkit.cli
import bnnkit.runtime
from bnnkit.cli import main
from bnnkit.layout import FloatTensor, Layout, PackedTensor
from bnnkit.modelfile import load_model
from bnnkit.runtime import Graph, GraphInput, Node, OpKind, PackedModel
from bnnkit.tensorio import TensorFileError, read_tensor, write_tensor

HEADER = "suite,case,variant,median_ns,ratio"


def tiny_doc(pads=0):
    w = np.ones((2, 3, 3, 3), np.float32)
    return json.dumps(
        {
            "inputs": [{"name": "input", "dims": [1, 3, 4, 4]}],
            "initializers": [
                {"name": "w", "dims": [2, 3, 3, 3], "values": [1.0] * w.size}
            ],
            "nodes": [
                {"op": "Sign", "name": "sg", "inputs": ["input"], "outputs": ["s"]},
                {
                    "op": "Conv",
                    "name": "cv",
                    "inputs": ["s", "w"],
                    "outputs": ["y"],
                    "attributes": {
                        "kernel_shape": [3, 3],
                        "strides": [1, 1],
                        "pads": [pads] * 4,
                    },
                },
            ],
            "output": "y",
        }
    )


def input_tensor(dims=(1, 3, 4, 4), seed=7):
    rng = np.random.default_rng(seed)
    n, c, h, w = dims
    data = rng.standard_normal((n, h, w, c)).astype(np.float32)
    return FloatTensor.from_array(data, Layout.NHWC)


def parse_csv(out: str):
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    rows = []
    for line in lines[1:]:
        suite, case, variant, median, ratio = line.split(",")
        rows.append((suite, case, variant, int(median), float(ratio)))
    return rows


class TestTensorIo:
    def test_round_trip(self, tmp_path):
        t = input_tensor((2, 5, 3, 4))
        path = tmp_path / "t.bin"
        write_tensor(path, t)
        assert read_tensor(path) == t

    def test_header_layout(self, tmp_path):
        t = input_tensor((1, 2, 3, 4))
        path = tmp_path / "t.bin"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert struct.unpack_from("<4I", raw) == (1, 2, 3, 4)
        assert len(raw) == 16 + 24 * 4

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(path, input_tensor())
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(TensorFileError, match="truncated tensor file"):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(path, input_tensor())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TensorFileError, match="trailing bytes in tensor file"):
            read_tensor(path)


class TestConvertCommand:
    def test_writes_model_and_report(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc())
        model = tmp_path / "m.dabn"
        assert main(["convert", str(doc), str(model)]) == 0
        assert model.exists()
        report = json.loads((tmp_path / "m.dabn.report.json").read_text())
        assert set(report) == {"initializers", "ratio", "warnings"}
        assert str(model) in capsys.readouterr().out

    def test_report_path_override(self, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc())
        report = tmp_path / "custom.json"
        code = main(
            ["convert", str(doc), str(tmp_path / "m.dabn"), "--report", str(report)]
        )
        assert code == 0
        assert report.exists()

    def test_warnings_on_stderr(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc(pads=1))
        assert main(["convert", str(doc), str(tmp_path / "m.dabn")]) == 0
        assert "warning: conv 'cv'" in capsys.readouterr().err

    def test_bad_document_exit_1(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc().replace("Sign", "Foo"))
        assert main(["convert", str(doc), str(tmp_path / "m.dabn")]) == 1
        assert "unknown op 'Foo'" in capsys.readouterr().err

    def test_two_input_document_exit_1(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        text = json.loads(tiny_doc())
        text["inputs"].append({"name": "extra", "dims": [1, 3, 4, 4]})
        doc.write_text(json.dumps(text))
        model = tmp_path / "m.dabn"
        assert main(["convert", str(doc), str(model)]) == 1
        assert "exactly one input" in capsys.readouterr().err
        assert not model.exists()

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["convert", str(tmp_path / "no.json"), str(tmp_path / "m")]) == 2

    def test_non_utf8_document_exit_1(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_bytes(b"\xff\xfe{")
        assert main(["convert", str(doc), str(tmp_path / "m.dabn")]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_unwritable_output_exit_2(self, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc())
        out = tmp_path / "missing_dir" / "m.dabn"
        assert main(["convert", str(doc), str(out)]) == 2

    def test_unwritable_report_exit_2_without_model(self, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text(tiny_doc())
        model = tmp_path / "m.dabn"
        report = tmp_path / "missing_dir" / "r.json"
        assert main(["convert", str(doc), str(model), "--report", str(report)]) == 2
        assert not model.exists()


@pytest.fixture
def converted(tmp_path):
    doc = tmp_path / "g.json"
    doc.write_text(tiny_doc())
    model = tmp_path / "m.dabn"
    assert main(["convert", str(doc), str(model)]) == 0
    return model


class TestRunCommand:
    def test_run_and_determinism(self, tmp_path, converted, capsys):
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor())
        out1 = tmp_path / "a.bin"
        out2 = tmp_path / "b.bin"
        assert main(["run", str(converted), str(xpath), "-o", str(out1)]) == 0
        assert main(["run", str(converted), str(xpath), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        got = read_tensor(out1)
        assert got.dims == (1, 2, 2, 2)
        capsys.readouterr()

    def test_default_output_path(self, tmp_path, converted):
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor())
        assert main(["run", str(converted), str(xpath)]) == 0
        assert (tmp_path / "x.bin.out").exists()

    def test_wrong_dims_exit_1(self, tmp_path, converted, capsys):
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor((1, 4, 4, 4)))
        assert main(["run", str(converted), str(xpath)]) == 1
        assert "dims" in capsys.readouterr().err

    def test_truncated_input_exit_2(self, tmp_path, converted):
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor())
        xpath.write_bytes(xpath.read_bytes()[:-1])
        assert main(["run", str(converted), str(xpath)]) == 2

    def test_corrupt_model_exit_1(self, tmp_path, converted, capsys):
        raw = bytearray(converted.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        converted.write_bytes(bytes(raw))
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor())
        assert main(["run", str(converted), str(xpath)]) == 1
        assert "bad model file" in capsys.readouterr().err

    def test_undecodable_name_exit_1(self, tmp_path, converted, capsys):
        name = load_model(converted).graph.nodes[0].name.encode()
        raw = bytearray(converted.read_bytes())
        raw[raw.index(struct.pack("<I", len(name)) + name) + 4] = 0xFF
        body = bytes(raw[:-4])
        converted.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        xpath = tmp_path / "x.bin"
        write_tensor(xpath, input_tensor())
        assert main(["run", str(converted), str(xpath)]) == 1
        assert "bad model file" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "no.dabn"), str(tmp_path / "no.bin")]) == 2


class TestBenchCommand:
    def test_packing_suite_csv(self, capsys):
        assert main(["bench", "--suite", "packing", "--sizes", "small", "--repeat", "2"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 6  # 3 cases x 2 variants
        cases = {case for _, case, _, _, _ in rows}
        assert cases == {"8x8x16", "8x8x64", "16x16x32"}
        for suite, case, variant, median, ratio in rows:
            assert suite == "packing"
            assert variant in {"naive", "nc1hwc2"}
            assert median > 0
            if variant == "naive":
                assert ratio == 1.0  # baseline compares to itself

    def test_packing_times_the_runtime_packer(self):
        assert bnnkit.cli.pack_to_nc1hwc2 is bnnkit.runtime.pack_to_nc1hwc2

    def test_conv_suite_csv(self, capsys):
        assert main(["bench", "--suite", "conv", "--sizes", "small", "--repeat", "1"]) == 0
        captured = capsys.readouterr()
        rows = parse_csv(captured.out)
        assert len(rows) == 6  # 2 cases x 3 variants
        variants = {v for _, _, v, _, _ in rows}
        assert variants == {"bgemm", "direct", "bgemm_no_addv"}
        assert "not valid for inference" in captured.err

    def test_net_suite_with_stub_network(self, capsys, monkeypatch):
        def stub(rng, input_hw=224, **_):
            node = Node(OpKind.SIGN, "only", ("input",), "output")
            graph = Graph(
                (node,), (GraphInput("input", (1, 3, input_hw, input_hw)),), {}, "output"
            )
            return PackedModel(graph)

        monkeypatch.setattr("bnnkit.cli.build_birealnet18", stub)
        assert main(["bench", "--suite", "net", "--sizes", "small", "--repeat", "1"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0][:3] == ("net", "birealnet18_32", "engine")

    def test_unknown_suite_exit_1(self, capsys):
        assert main(["bench", "--suite", "mystery"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_repeat_exit_1(self, capsys):
        assert main(["bench", "--suite", "packing", "--repeat", "0"]) == 1
        capsys.readouterr()

    def test_bad_seed_env_exit_1(self, capsys, monkeypatch):
        for seed in ("not-a-number", "-1"):
            monkeypatch.setenv("BNN_SEED", seed)
            assert main(["bench", "--suite", "packing", "--sizes", "small"]) == 1
            assert "BNN_SEED" in capsys.readouterr().err

    def test_seed_env_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("BNN_SEED", "123")
        assert main(["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]) == 0
        parse_csv(capsys.readouterr().out)

    def test_cross_check_failure_exit_1(self, capsys, monkeypatch):
        def broken(t, c2):
            return PackedTensor(t.dims, c2, np.zeros((1, 1, *t.dims[2:], c2 // 8), np.uint8))

        monkeypatch.setattr("bnnkit.cli.pack_to_nc1hwc2", broken)
        assert main(["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]) == 1
        assert "cross-check failed" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "bnnkit",
                "bench",
                "--suite",
                "packing",
                "--sizes",
                "small",
                "--repeat",
                "1",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == HEADER

    def test_negative_seed_exit_1_without_traceback(self, tmp_path):
        env = dict(os.environ, BNN_SEED="-1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "bnnkit", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: BNN_SEED must be a non-negative integer"]
