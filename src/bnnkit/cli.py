"""Command-line front end: model conversion, inference, and benchmarks.

Exit codes: 0 success, 1 validation error (bad documents, bad model bytes,
mismatched shapes, failed cross-checks, bad options), 2 I/O error
(unreadable or truncated files, unwritable outputs).  Subcommands raise;
``main`` is the one place codes 1 and 2 are assigned, printing one
``error:`` line.  Argparse usage errors (``--sizes huge``, ``--c2 abc``)
exit 2 through argparse itself.

``bench --suite NAME`` runs one row of ``_SUITES``: a runner and its cases by
``--sizes``.  The runner draws its inputs from one generator seeded by the
``BNN_SEED`` environment variable (default 0) and yields each case once its
variants' outputs agree; each variant then reports its median over the
repetitions after one untimed warm-up.  CSV schema:
``suite,case,variant,median_ns,ratio``, ratio = baseline (first variant)
median / variant median, higher is faster.  ``--json PATH`` also writes the
records with the numpy and Python versions, usable CPUs, the BLAS thread
setting, the seed and the commit.  Only the ``net`` suite's float
stem at 224 px uses a second thread, for every other tile, on 2+ CPUs.
The baselines the source paper measures against live here and nowhere else:
``pack_naive``, a sequential packer, and BMXNet-style im2col + xnor-GEMM
(``im2col_packed``, ``bgemm``, its timing variant ``bgemm_no_addv``, and
``match_to_dot``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .convert import (
    ConvertOptions,
    _decode_object,
    convert_model,
    pack_conv_weight,
    parse_interchange,
)
from .floatops import _cpus
from .kernels import BinMatrix, ConvParams, _conv_geometry, binary_direct_conv
from .layout import FloatTensor, PackedTensor, group_count, pack_to_nc1hwc2
from .modelfile import ModelFormatError, load_model, save_model
from .nets import build_birealnet18
from .runtime import GraphError, execute
from .tensorio import TensorFileError, read_tensor, write_tensor

EXIT_OK, EXIT_VALIDATION, EXIT_IO = 0, 1, 2
# Prefixes ``main`` prints for error types whose message does not say what failed.
_PREFIXES = {ModelFormatError: "bad model file: ", UnicodeDecodeError: "document is not UTF-8: "}

class CrossCheckError(RuntimeError):
    """A benchmark variant disagreed with its baseline before timing."""


@dataclass
class BenchRecord:
    suite: str
    case: str
    variant: str
    median_ns: int
    ratio: float


def _cmd_convert(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    options = ConvertOptions(c2=args.c2, fuse_bn_sign=args.fuse_bn_sign)
    model, report = convert_model(parse_interchange(text), options)
    report_path = args.report or args.output + ".report.json"
    save_model(model, args.output)
    try:
        Path(report_path).write_text(report.to_json() + "\n", encoding="utf-8")
    except OSError:
        # a model without its report is not a finished conversion
        Path(args.output).unlink(missing_ok=True)
        raise
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {args.output} (report: {report_path})")
    return EXIT_OK


def _cmd_run(args) -> int:
    result = execute(load_model(args.model), read_tensor(args.input))
    out_path = args.output or args.input + ".out"
    write_tensor(out_path, result)
    print(f"wrote {out_path}")
    return EXIT_OK


def _median_ns(fn, repeat: int) -> int:
    fn()  # warm-up, untimed
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def _record_variants(suite, case, variants, repeat) -> list[BenchRecord]:
    """Time (label, fn) variants; the first one is the baseline."""
    records = []
    baseline = None
    for label, fn in variants:
        median = _median_ns(fn, repeat)
        if baseline is None:
            baseline = median
        ratio = baseline / median if median else float("nan")
        records.append(BenchRecord(suite, case, label, median, ratio))
    return records


def pack_naive(values) -> np.ndarray:
    """Pack one element per step; bit i of the result is the sign bit of values[i].

    Returns ceil(n / 8) uint8 bytes with bit i in byte i // 8 at position
    i % 8; unused trailing bits of the last byte are 0.  Deliberately
    sequential: each step takes one float32 bit pattern, extracts its sign
    and inserts it at the target position.
    """
    raw = np.ascontiguousarray(values, dtype=np.float32).reshape(-1).view(np.uint32)
    out = [0] * ((raw.size + 7) // 8)
    for i, pattern in enumerate(raw.tolist()):
        out[i >> 3] |= (pattern >> 31) << (i & 7)
    return np.array(out, dtype=np.uint8)


def _bench_packing(rng, cases):
    """Sequential baseline against the runtime packer with one group of c2 = c bits."""
    for spatial, channels in cases:
        case = f"{spatial}x{spatial}x{channels}"
        values = rng.standard_normal((1, spatial, spatial, channels)).astype(np.float32)
        tensor = FloatTensor.from_array(values)
        if pack_naive(values).tobytes() != pack_to_nc1hwc2(tensor, channels).data.tobytes():
            raise CrossCheckError(f"packing cross-check failed for {case}")
        yield case, [
            ("naive", lambda v=values: pack_naive(v)),
            ("nc1hwc2", lambda t=tensor, c=channels: pack_to_nc1hwc2(t, c)),
        ]


def _check_pair(a: BinMatrix, b: BinMatrix) -> None:
    if a.cols != b.rows or a.vec_bits != b.vec_bits:
        raise ValueError("dimension mismatch")


def bgemm(a: BinMatrix, b: BinMatrix) -> np.ndarray:
    """Binary matrix multiply over packed vectors.

    Entry (i, j) counts the bit positions where row i of ``a`` agrees with
    column j of ``b``.  The k loop is outermost: each step is a rank-1
    update from column k of ``a`` and row k of ``b``, and every update
    reduces its xnor/cnt bytes to a scalar immediately, because the
    accumulator holds plain 32-bit integers.  Returns (M, N) int32.
    """
    _check_pair(a, b)
    out = np.zeros((a.rows, b.cols), dtype=np.int32)
    for k in range(a.cols):
        agree = np.bitwise_not(np.bitwise_xor(a.data[:, k, None, :], b.data[None, k, :, :]))
        out += np.bitwise_count(agree).sum(axis=2, dtype=np.int32)
    return out


def bgemm_no_addv(a: BinMatrix, b: BinMatrix) -> np.ndarray:
    """Timing-only variant of ``bgemm`` with the byte-sum reduction removed.

    Keeps the xnor, the per-byte counting and the 32-bit accumulation, but
    folds in only the first count byte of each update instead of reducing
    the whole vector.  The numbers are meaningless for inference; this
    exists solely to expose the reduction's share of the multiply cost.
    """
    _check_pair(a, b)
    out = np.zeros((a.rows, b.cols), dtype=np.int32)
    for k in range(a.cols):
        agree = np.bitwise_not(np.bitwise_xor(a.data[:, k, None, :], b.data[None, k, :, :]))
        out += np.bitwise_count(agree)[:, :, 0]
    return out


def im2col_packed(input: PackedTensor, p: ConvParams) -> BinMatrix:
    """Unfold a single-image packed tensor into convolution columns.

    Row order is kernel-row major, then kernel column, then channel group;
    column j is output position j in row-major (out_h, out_w) order.  Taps
    that fall outside the image contribute all-zero vectors (logical +1
    padding).
    """
    if input.dims[0] != 1:
        raise ValueError("im2col expects a single-image tensor")
    outh, outw = _conv_geometry(input, p)
    (kh, kw), (sh, sw), (ph, pw) = p.kernel, p.stride, p.padding
    c1, nbytes = input.c1, input.c2 // 8
    padded = np.pad(input.data[0], ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = np.empty((kh * kw, c1, outh, outw, nbytes), dtype=np.uint8)
    for ky in range(kh):
        for kx in range(kw):
            cols[ky * kw + kx] = padded[:, ky : ky + sh * outh : sh, kx : kx + sw * outw : sw]
    cols = cols.reshape(kh * kw * c1, outh * outw, nbytes)
    return BinMatrix(kh * kw * c1, outh * outw, input.c2, cols)


def match_to_dot(match, p: ConvParams, c2: int):
    """Convert ``bgemm`` match counts into signed ±1 dot products.

    Each dot product spans kh*kw vectors of c1*c2 bits, of which only c per
    vector are real channels.  Pad bits are 0 in both operands, so each of
    the kh*kw*(c1*c2 - c) pad positions inflates the raw count by exactly
    one match; after subtracting them, dot = matches - mismatches over the
    kh*kw*c valid positions.  Works on scalars and arrays alike.
    """
    kh, kw = p.kernel
    c1 = group_count(p.channels, c2)
    pad_positions = kh * kw * (c1 * c2 - p.channels)
    valid = kh * kw * p.channels
    return 2 * (match - pad_positions) - valid


def _bench_conv(rng, cases):
    """BMXNet-style im2col + xnor-GEMM against the direct kernel, 3x3 convs of
    (input channels, filters, spatial extent, stride)."""
    c2 = 128
    for channels, filters, spatial, stride in cases:
        case = f"c{channels}_hw{spatial}"
        if (filters, stride) != (channels, 1):
            case += f"_m{filters}_s{stride}"
        params = ConvParams((3, 3), channels, (stride, stride), (1, 1))
        wvals = rng.choice(np.array([-1.0, 1.0], np.float32), size=(filters, channels, 3, 3))
        weight = pack_conv_weight(wvals, c2).matrix
        x = rng.standard_normal((1, spatial, spatial, channels)).astype(np.float32)
        packed = pack_to_nc1hwc2(FloatTensor.from_array(x), c2)

        def via_gemm(p=packed, w=weight, pr=params):
            return match_to_dot(bgemm(w, im2col_packed(p, pr)), pr, c2)

        def direct(p=packed, w=weight, pr=params):
            return binary_direct_conv(p, w, pr)

        def no_addv(p=packed, w=weight, pr=params):
            return bgemm_no_addv(w, im2col_packed(p, pr))

        gemm_out = via_gemm()
        direct_out = direct()
        flat = direct_out.data.reshape(-1, weight.rows).T
        if not np.array_equal(gemm_out.astype(np.int64), flat.astype(np.int64)):
            raise CrossCheckError(f"conv cross-check failed for {case}")
        yield case, [("bgemm", via_gemm), ("direct", direct), ("bgemm_no_addv", no_addv)]
    note = "note: bgemm_no_addv skips the final reduction; timing only, not valid for inference"
    print(note, file=sys.stderr)


def _bench_net(rng, cases):
    """Bi-Real-Net-18 end to end at each input extent, after a determinism check."""
    for hw in cases:
        model = build_birealnet18(rng, input_hw=hw)
        x = FloatTensor.from_array(rng.standard_normal((1, hw, hw, 3)).astype(np.float32))
        if execute(model, x).data.tobytes() != execute(model, x).data.tobytes():
            raise CrossCheckError("whole-network runs are not deterministic")
        yield f"birealnet18_{hw}", [("engine", lambda m=model, t=x: execute(m, t))]


def _parse_documents(rng, lists: int, count: int):
    """Yield (case, text) interchange documents whose number lists take each
    side of the raw-text reader: ±1 tokens, short tokens with 400 distinct
    values per list, and long float tokens that leave every list to json."""
    draws = {
        "pm1": lambda: rng.choice([-1.0, 1.0], count),
        "short": lambda: rng.integers(-200, 200, count) / 100,
        "long": lambda: rng.standard_normal(count).astype(np.float32),
    }
    for kind, draw in draws.items():
        inits = [
            {"name": f"w{i}", "dims": [count], "values": draw().tolist()} for i in range(lists)
        ]
        doc = {"inputs": [{"name": "x", "dims": [1]}], "initializers": inits, "nodes": [], "output": "x"}
        yield f"{kind}_{lists}x{count}", json.dumps(doc)


def _bench_parse(rng, cases):
    """json's decoder with the float32 object hook, the path every list
    takes when the raw reader declines, against ``parse_interchange``, on
    documents of (lists, tokens per list)."""
    docs = (doc for lists, count in cases for doc in _parse_documents(rng, lists, count))
    for case, text in docs:

        def plain(t=text):
            return json.loads(t, object_pairs_hook=_decode_object)

        def parse(t=text):
            return parse_interchange(t)

        expected = {item["name"]: item["values"] for item in plain()["initializers"]}
        got = parse().initializers
        if got.keys() != expected.keys() or any(
            got[k].dtype != v.dtype or got[k].tobytes() != v.tobytes() for k, v in expected.items()
        ):
            raise CrossCheckError(f"parse cross-check failed for {case}")
        yield case, [("json", plain), ("parse_interchange", parse)]


# suite -> (runner, cases by --sizes); a runner takes (rng, cases) and yields
# (case, [(label, fn), ...]), baseline first, once the case's cross-check passes.
_SUITES = {
    "packing": (
        _bench_packing,
        {
            "full": [(s, c) for s in (32, 64, 128) for c in (64, 128, 256)],
            "small": [(8, 16), (8, 64), (16, 32)],
        },
    ),
    "conv": (
        _bench_conv,
        {
            "full": [
                (64, 64, 56, 1),
                (128, 128, 28, 1),
                (256, 256, 14, 1),
                (512, 512, 7, 1),
                (64, 128, 56, 2),
            ],
            "small": [(16, 16, 8, 1), (32, 32, 6, 1)],
        },
    ),
    "net": (_bench_net, {"full": [224], "small": [32]}),
    "parse": (_bench_parse, {"full": [(4, 1 << 18)], "small": [(2, 1 << 12)]}),
}


def _cmd_bench(args) -> int:
    if args.suite not in _SUITES:
        raise ValueError(f"unknown suite '{args.suite}' (choose from {', '.join(_SUITES)})")
    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")
    seed_text = os.environ.get("BNN_SEED", "0").strip()
    if not seed_text.isdecimal():
        raise ValueError("BNN_SEED must be a non-negative integer")
    runner, cases = _SUITES[args.suite]
    rng = np.random.default_rng(int(seed_text))
    records = [
        record
        for case, variants in runner(rng, cases[args.sizes])
        for record in _record_variants(args.suite, case, variants, args.repeat)
    ]
    if args.json:
        environment = {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "nproc": _cpus(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "bnn_seed": int(seed_text),
            "commit": _git_commit(Path(__file__).resolve().parent),
        }
        doc = {
            "suite": args.suite,
            "sizes": args.sizes,
            "repeat": args.repeat,
            **environment,
            "records": [asdict(r) for r in records],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print("suite,case,variant,median_ns,ratio")
    for r in records:
        print(f"{r.suite},{r.case},{r.variant},{r.median_ns},{r.ratio:.6f}")
    return EXIT_OK


def _git_commit(start: Path) -> str | None:
    """The commit checked out in the nearest ``.git`` directory at or above
    ``start``, read from its files without running git; None where there is
    no such directory or it names no commit."""
    git = next((d / ".git" for d in (start, *start.parents) if (d / ".git").is_dir()), None)
    if git is None:
        return None
    try:
        sha = (git / "HEAD").read_text(encoding="ascii").strip()
        if sha.startswith("ref: "):
            ref = sha[5:]
            if (git / ref).is_file():
                sha = (git / ref).read_text(encoding="ascii").strip()
            else:
                lines = (git / "packed-refs").read_text(encoding="ascii").splitlines()
                sha = next((line.split()[0] for line in lines if line.endswith(" " + ref)), "")
    except (OSError, UnicodeDecodeError):
        return None
    return sha if len(sha) in (40, 64) and not sha.strip("0123456789abcdef") else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnnkit", description="Binary neural network inference toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert an interchange JSON graph to a packed model")
    p.add_argument("input", help="interchange JSON file")
    p.add_argument("output", help="packed model output path")
    p.add_argument("--c2", type=int, default=128, help="channel group width in bits")
    p.add_argument(
        "--fuse-bn-sign",
        action="store_true",
        help="fuse BatchNorm followed by Sign into a threshold comparison",
    )
    p.add_argument("--report", help="report path (default: OUTPUT.report.json)")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("run", help="run a packed model on a raw tensor file")
    p.add_argument("model", help="packed model file")
    p.add_argument("input", help="raw input tensor file")
    p.add_argument("--output", "-o", help="raw output tensor path (default: INPUT.out)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="run micro/macro benchmarks, CSV on stdout")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(_SUITES)}")
    p.add_argument("--repeat", type=int, default=50, help="timed repetitions per variant")
    p.add_argument(
        "--sizes",
        choices=("full", "small"),
        default="full",
        help="full-size cases or quick small ones",
    )
    p.add_argument(
        "--json", metavar="PATH", help="also write the records and their environment as JSON"
    )
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, GraphError, CrossCheckError) as exc:
        # TensorFileError is a ValueError but names an unreadable input.
        code = EXIT_IO if isinstance(exc, (OSError, TensorFileError)) else EXIT_VALIDATION
        print(f"error: {_PREFIXES.get(type(exc), '')}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
