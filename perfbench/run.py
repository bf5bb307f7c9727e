"""bnnkit benchmark: closed-loop inference latency, set-up time, memory and
output correctness, plus per-layer self times from a traced run.

    python3 perfbench/run.py --workload bireal18_32 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the same figures for people, and the environment.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run ends within RUN_LIMIT_S.  The measured process's timed loops stop when
# what is left of it, less WORKER_GRACE_S, has passed; the grace covers the
# set-ups after the last loop and the exit.  Past the grace it is killed.
RUN_LIMIT_S = 170.0
WORKER_GRACE_S = 20.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD_NAMES = ("bireal18_224", "bireal18_32", "vggsmall_fused_32")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bnnkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for this mode, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with ten samples beyond it,
    or the largest when a run too slow for its budget has fewer than eleven."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_worker(spec: dict, workdir: Path) -> dict:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env,
        stdout=sys.stderr,
        timeout=spec["budget_s"] + WORKER_GRACE_S,
        check=True,
    )
    return json.loads(result_path.read_text())


def report_failure(reason: str) -> int:
    """The result of a run whose measured process failed or was killed: one
    failed attempt, no metrics."""
    print(f"FAILED {reason}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


def end_to_end(result: dict, env: dict, lines: list[str]) -> dict:
    loop = result["loop"]
    lat = [ns / 1e6 for ns in loop["latencies_ns"]]
    tail_ms, pct = tail(lat)
    env.update(tail_percentile=round(pct, 2), timed_inferences=len(lat))
    error_rate = result["failed"] / result["attempted"]
    beyond = "10 beyond it" if pct < 100 else "the largest: too few samples for the budget"
    lines.append(f"latency_tail_ms is p{pct:.2f} of {len(lat)} timed inferences ({beyond})")
    failed, attempted = result["failed"], result["attempted"]
    lines.append(f"error_rate {error_rate:.6g} ({failed} of {attempted} inferences)")
    return {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_ips": (loop["ok"] / (loop["wall_ns"] / 1e9), "1/s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_bytes"] / 1e6, "MB"),
        "match_rate": (1.0 - error_rate, "ratio"),
    }


def per_layer(trace: dict, lines: list[str]) -> dict:
    rows = trace["per_inference"]

    def ms(bucket: str) -> float:
        return statistics.median(r.get(bucket, 0) for r in rows) / 1e6

    def setup_ms(bucket: str) -> float:
        return statistics.median(s.get(bucket, 0) for s in trace["setups"]) / 1e6

    bit_ops = statistics.median_low(r["bit_ops"] for r in rows)
    useful = statistics.median_low(r["useful_bits"] for r in rows)
    bconv_ms = ms("kernels.bconv")
    pairs = trace["pairs_ns"]
    ratio = statistics.median(traced / plain for plain, traced in pairs)
    lines.append(
        f"trace overhead: median traced/untraced ratio {ratio:.4f} over {len(pairs)} "
        f"back-to-back pairs; latency_p50_ms {statistics.median(t for _, t in pairs) / 1e6:.4f} "
        f"traced, {statistics.median(u for u, _ in pairs) / 1e6:.4f} untraced"
    )
    return {
        "kernels.bconv_ms": (bconv_ms, "ms"),
        "kernels.bit_ops": (bit_ops, "count"),
        "kernels.useful_bit_share": (useful / bit_ops if bit_ops else 0.0, "ratio"),
        "kernels.bconv_gbitops": (bit_ops / (bconv_ms * 1e6) if bconv_ms else 0.0, "Gbit/s"),
        "layout.pack_ms": (ms("layout.pack"), "ms"),
        "layout.packed_mb": (statistics.median_low(r["packed_bytes"] for r in rows) / 1e6, "MB"),
        "floatops.conv_ms": (ms("floatops.conv"), "ms"),
        "floatops.fc_ms": (ms("floatops.fc"), "ms"),
        "floatops.other_ms": (ms("floatops.other"), "ms"),
        "runtime.self_ms": (ms("runtime"), "ms"),
        "runtime.peak_alloc_mb": (trace["peak_alloc_bytes"] / 1e6, "MB"),
        "modelfile.load_ms": (setup_ms("modelfile.load"), "ms"),
        "modelfile.save_ms": (setup_ms("modelfile.save"), "ms"),
        "modelfile.mb": (trace["model_bytes"] / 1e6, "MB"),
        "convert.parse_ms": (setup_ms("convert.parse"), "ms"),
        "convert.convert_ms": (setup_ms("convert.convert"), "ms"),
        "convert.fused_pairs": (trace["fused_pairs"], "count"),
        "trace.overhead_pct": (100.0 * (ratio - 1.0), "%"),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bnnkit" / "__init__.py").is_file():
        return _fail(f"no bnnkit sources under {SRC}")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = workloads.generate(args.workload, args.seed, workdir)
        generated = time.perf_counter()
        budget = RUN_LIMIT_S - (generated - started) - WORKER_GRACE_S
        spec.update(seconds=args.seconds, trace=args.trace, budget_s=budget)
        try:
            result = run_worker(spec, workdir)
        except subprocess.TimeoutExpired:
            return report_failure(f"the measured process ran past {budget + WORKER_GRACE_S:.0f} s")
        except subprocess.CalledProcessError as exc:
            return report_failure(f"the measured process exited with code {exc.returncode}")
        print(
            f"perfbench: inputs and references {generated - started:.1f} s, "
            f"measured process {time.perf_counter() - generated:.1f} s",
            file=sys.stderr,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
    ]
    env = environment(args.seed)
    samples = result["trace"]["pairs_ns"] if args.trace else result["loop"]["latencies_ns"]
    if not samples:
        return report_failure("no inference completed: " + "; ".join(result["problems"]))
    if args.trace:
        metrics = per_layer(result["trace"], lines)
    else:
        metrics = end_to_end(result, env, lines)
    lines.append("environment " + json.dumps(env))
    for problem in result["problems"]:
        lines.append(f"FAILED {problem}")
    declared = declared_metrics(args.trace)
    for name, (value, unit) in metrics.items():
        note = "" if name in declared else "  (printed only, not in BENCHMARK.json)"
        lines.append(f"  {name:<26} {value:.6g} {unit}{note}")
    print("\n".join(lines))
    reported = {name: metrics[name] for name in declared}
    correct = result["failed"] == 0 and not result["problems"] and all(
        math.isfinite(v) for v, _ in reported.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
