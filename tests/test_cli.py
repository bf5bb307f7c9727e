import io
import json
import os
import struct
import subprocess
import sys
import zlib
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnnkit.cli
import bnnkit.convert
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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tensor_fuzz")
    (root / "g.json").write_text(tiny_doc())
    assert main(["convert", str(root / "g.json"), str(root / "m.dabn")]) == 0
    write_tensor(root / "x0.bin", input_tensor())
    return root


class TestTensorFileFuzz:
    """Byte edits, mostly of the 16-byte header, and truncations of an input
    tensor file.  ``bnnkit run`` returns 0, 1 or 2, lets no exception out,
    and a nonzero code comes with exactly one ``error:`` line."""

    @settings(max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_run_exits_cleanly(self, fuzz_dir, data):
        raw = bytearray((fuzz_dir / "x0.bin").read_bytes())
        if data.draw(st.booleans()):
            # well-formed extents; those of 48 elements read and reach execute
            product_48 = st.sampled_from([[1, 3, 4, 4], [1, 1, 6, 8], [2, 3, 2, 4]])
            small = st.lists(st.integers(0, 5), min_size=4, max_size=4)
            raw[:16] = struct.pack("<4I", *data.draw(product_48.flatmap(st.permutations) | small))
        edit = st.tuples(st.integers(0, 15) | st.integers(0, len(raw) - 1), st.integers(0, 255))
        for pos, value in data.draw(st.lists(edit, max_size=4)):
            raw[pos] = value
        raw = raw[: data.draw(st.none() | st.integers(0, len(raw) - 1))]
        (fuzz_dir / "x.bin").write_bytes(raw)
        model, x, y = (str(fuzz_dir / name) for name in ("m.dabn", "x.bin", "y.bin"))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["run", model, x, "-o", y])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")


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

    def test_parse_suite_csv(self, capsys):
        assert main(["bench", "--suite", "parse", "--sizes", "small", "--repeat", "1"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [(s, c, v) for s, c, v, _, _ in rows] == [
            ("parse", f"{kind}_2x4096", variant)
            for kind in ("pm1", "short", "long")
            for variant in ("json", "parse_interchange")
        ]
        assert all(median > 0 for *_, median, _ in rows)
        assert all(ratio == 1.0 for _, _, v, _, ratio in rows if v == "json")

    def test_parse_suite_broken_reader_exit_1(self, capsys, monkeypatch):
        real = bnnkit.convert._read_values

        def broken(text, lo, close):
            values = real(text, lo, close)
            return None if values is None else np.negative(values)

        monkeypatch.setattr(bnnkit.convert, "_read_values", broken)
        assert main(["bench", "--suite", "parse", "--sizes", "small", "--repeat", "1"]) == 1
        assert "parse cross-check failed for pm1_2x4096" in capsys.readouterr().err

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


class TestBenchJson:
    ENVIRONMENT = {"numpy", "python", "nproc", "openblas_num_threads", "bnn_seed", "commit"}

    def test_schema(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BNN_SEED", "5")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        path = tmp_path / "BENCH_packing.json"
        argv = ["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]
        assert main([*argv, "--json", str(path)]) == 0
        rows = parse_csv(capsys.readouterr().out)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == {"suite", "sizes", "repeat", "records"} | self.ENVIRONMENT
        assert (doc["suite"], doc["sizes"], doc["repeat"]) == ("packing", "small", 1)
        assert doc["numpy"] == np.__version__
        assert doc["python"] == ".".join(map(str, sys.version_info[:3]))
        assert isinstance(doc["nproc"], int) and doc["nproc"] >= 1
        assert (doc["openblas_num_threads"], doc["bnn_seed"]) == ("1", 5)
        commit = doc["commit"]  # None in a copy of the tree without .git
        assert commit is None or (len(commit) == 40 and not commit.strip("0123456789abcdef"))
        records = doc["records"]
        assert all(set(r) == {"suite", "case", "variant", "median_ns", "ratio"} for r in records)
        assert [(r["suite"], r["case"], r["variant"], r["median_ns"]) for r in records] == [
            row[:4] for row in rows
        ]

    def test_without_blas_setting(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        path = tmp_path / "b.json"
        argv = ["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]
        assert main([*argv, "--json", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text(encoding="utf-8"))["openblas_num_threads"] is None

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "b.json"
        argv = ["bench", "--suite", "packing", "--sizes", "small", "--repeat", "1"]
        assert main([*argv, "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()

    SHA = "0123456789abcdef0123456789abcdef01234567"

    @pytest.mark.parametrize(
        "files,want",
        [
            ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": SHA + "\n"}, SHA),
            ({"HEAD": "ref: refs/heads/main\n", "packed-refs": f"# pack\n{SHA} refs/heads/main\n"}, SHA),
            ({"HEAD": SHA + "\n"}, SHA),
            ({"HEAD": "ref: refs/heads/gone\n"}, None),
            ({"HEAD": "not a commit\n"}, None),
            ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": b"\xff" * 40}, None),
            ({}, None),
        ],
        ids=["loose_ref", "packed_ref", "detached", "missing_ref", "junk", "not_ascii", "no_head"],
    )
    def test_commit_read_from_git_files(self, tmp_path, files, want):
        for name, content in files.items():
            path = tmp_path / ".git" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        (tmp_path / ".git").mkdir(exist_ok=True)
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert bnnkit.cli._git_commit(nested) == want


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
