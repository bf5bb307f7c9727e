"""Command-line front end: model conversion, inference, and benchmarks.

Exit codes: 0 success, 1 validation error (bad documents, bad model bytes,
mismatched shapes, failed cross-checks, bad options), 2 I/O error
(unreadable or truncated files, unwritable outputs).  Subcommands raise;
``main`` is the one place codes 1 and 2 are assigned, printing one
``error:`` line.  Argparse usage errors (``--sizes huge``, ``--c2 abc``)
exit 2 through argparse itself.

Benchmarks are single-threaded, report the median over the requested
repetitions after one untimed warm-up, and cross-check variant outputs for
equality before any timing.  Inputs derive from the ``BNN_SEED``
environment variable (default 0), so runs are reproducible.  CSV schema:
``suite,case,variant,median_ns,ratio`` where ratio is the baseline median
divided by the variant median (higher means faster than baseline).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitpack import pack_naive
from .convert import ConvertOptions, convert_model, pack_conv_weight, parse_interchange
from .kernels import (
    ConvParams,
    bgemm,
    bgemm_no_addv,
    binary_direct_conv,
    im2col_packed,
    match_to_dot,
)
from .layout import FloatTensor, Layout, pack_to_nc1hwc2
from .modelfile import ModelFormatError, load_model, save_model
from .nets import build_birealnet18
from .runtime import GraphError, execute
from .tensorio import TensorFileError, read_tensor, write_tensor

EXIT_OK, EXIT_VALIDATION, EXIT_IO = 0, 1, 2
# Prefixes ``main`` prints for error types whose message does not say what failed.
_PREFIXES = {ModelFormatError: "bad model file: ", UnicodeDecodeError: "document is not UTF-8: "}

_PACKING_CASES = {
    "full": [(s, c) for s in (32, 64, 128) for c in (64, 128, 256)],
    "small": [(8, 16), (8, 64), (16, 32)],
}
# (input channels, filters, spatial extent, stride) of a 3x3 binary conv
_CONV_CASES = {
    "full": [
        (64, 64, 56, 1),
        (128, 128, 28, 1),
        (256, 256, 14, 1),
        (512, 512, 7, 1),
        (64, 128, 56, 2),
    ],
    "small": [(16, 16, 8, 1), (32, 32, 6, 1)],
}
_NET_HW = {"full": 224, "small": 32}
_SUITES = ("packing", "conv", "net")


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


def _bench_packing(rng, sizes, repeat) -> list[BenchRecord]:
    """Sequential baseline against the runtime packer with one group of c2 = c bits."""
    records = []
    for spatial, channels in sizes:
        case = f"{spatial}x{spatial}x{channels}"
        values = rng.standard_normal((1, spatial, spatial, channels)).astype(np.float32)
        tensor = FloatTensor.from_array(values, Layout.NHWC)
        if pack_naive(values).tobytes() != pack_to_nc1hwc2(tensor, channels).data.tobytes():
            raise CrossCheckError(f"packing cross-check failed for {case}")
        variants = [
            ("naive", lambda v=values: pack_naive(v)),
            ("nc1hwc2", lambda t=tensor, c=channels: pack_to_nc1hwc2(t, c)),
        ]
        records.extend(_record_variants("packing", case, variants, repeat))
    return records


def _bench_conv(rng, cases, repeat) -> list[BenchRecord]:
    c2 = 128
    records = []
    for channels, filters, spatial, stride in cases:
        case = f"c{channels}_hw{spatial}"
        if (filters, stride) != (channels, 1):
            case += f"_m{filters}_s{stride}"
        params = ConvParams((3, 3), channels, (stride, stride), (1, 1))
        wvals = rng.choice(np.array([-1.0, 1.0], np.float32), size=(filters, channels, 3, 3))
        weight = pack_conv_weight(wvals, c2).matrix
        x = rng.standard_normal((1, spatial, spatial, channels)).astype(np.float32)
        packed = pack_to_nc1hwc2(FloatTensor.from_array(x, Layout.NHWC), c2)

        def via_gemm(p=packed, w=weight, pr=params):
            return match_to_dot(bgemm(w, im2col_packed(p, pr)), pr, c2)

        def direct(p=packed, w=weight, pr=params):
            return binary_direct_conv(p, w, pr)

        def no_addv(p=packed, w=weight, pr=params):
            return bgemm_no_addv(w, im2col_packed(p, pr))

        gemm_out = via_gemm()
        direct_out = direct()
        flat = np.ascontiguousarray(direct_out.nhwc_array()).reshape(-1, weight.rows).T
        if not np.array_equal(gemm_out.astype(np.int64), flat.astype(np.int64)):
            raise CrossCheckError(f"conv cross-check failed for {case}")
        variants = [
            ("bgemm", via_gemm),
            ("direct", direct),
            ("bgemm_no_addv", no_addv),
        ]
        records.extend(_record_variants("conv", case, variants, repeat))
    return records


def _bench_net(seed, hw, repeat) -> list[BenchRecord]:
    model = build_birealnet18(np.random.default_rng(seed), input_hw=hw)
    rng = np.random.default_rng(seed + 1)
    x = FloatTensor.from_array(
        rng.standard_normal((1, hw, hw, 3)).astype(np.float32), Layout.NHWC
    )
    first = execute(model, x)
    second = execute(model, x)
    if first.data.tobytes() != second.data.tobytes():
        raise CrossCheckError("whole-network runs are not deterministic")
    variants = [("engine", lambda: execute(model, x))]
    return _record_variants("net", f"birealnet18_{hw}", variants, repeat)


def _cmd_bench(args) -> int:
    if args.suite not in _SUITES:
        raise ValueError(f"unknown suite '{args.suite}' (choose from {', '.join(_SUITES)})")
    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")
    seed_text = os.environ.get("BNN_SEED", "0").strip()
    if not seed_text.isdecimal():
        raise ValueError("BNN_SEED must be a non-negative integer")
    seed = int(seed_text)
    rng = np.random.default_rng(seed)
    note = None
    if args.suite == "packing":
        records = _bench_packing(rng, _PACKING_CASES[args.sizes], args.repeat)
    elif args.suite == "conv":
        records = _bench_conv(rng, _CONV_CASES[args.sizes], args.repeat)
        note = "note: bgemm_no_addv skips the final reduction; timing only, not valid for inference"
    else:
        records = _bench_net(seed, _NET_HW[args.sizes], args.repeat)
    print("suite,case,variant,median_ns,ratio")
    for r in records:
        print(f"{r.suite},{r.case},{r.variant},{r.median_ns},{r.ratio:.6f}")
    if note:
        print(note, file=sys.stderr)
    return EXIT_OK


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
    p.add_argument("--suite", required=True, help="packing, conv, or net")
    p.add_argument("--repeat", type=int, default=50, help="timed repetitions per variant")
    p.add_argument(
        "--sizes",
        choices=("full", "small"),
        default="full",
        help="full-size cases or quick small ones",
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
