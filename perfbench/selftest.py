"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

On the bireal18_32 workload it checks that
  1. the intact model gives no failures;
  2. a copy of the model with one packed weight bit flipped (a valid file,
     its checksum resealed by ``save_model``) makes every inference count as
     failed, so ``error_rate`` is nonzero and ``correct`` is false;
  3. the traced run's span-count check fails when one function the runtime
     calls goes unwrapped, as it would after a rename.
Exits 0 when all three hold.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bnnkit import modelfile, tensorio  # noqa: E402
from bnnkit.kernels import BinMatrix  # noqa: E402
from bnnkit.runtime import Graph, OpKind, PackedModel, PackedWeight  # noqa: E402


def flip_one_weight_bit(src: str, dst: str) -> str:
    """Save a copy of the model with bit 0 of the first binary conv flipped."""
    graph = modelfile.load_model(src).graph
    node = next(n for n in graph.nodes if n.kind is OpKind.BINARY_CONV)
    w = graph.initializers[node.weights[0]]
    data = w.matrix.data.copy()
    data[0, 0, 0] ^= 1  # channel 0 of filter 0: a real channel, not a pad bit
    inits = dict(graph.initializers)
    inits[node.weights[0]] = PackedWeight(
        w.dims, w.c2, BinMatrix(w.matrix.rows, w.matrix.cols, w.c2, data)
    )
    modelfile.save_model(PackedModel(Graph(graph.nodes, graph.inputs, inits, graph.output)), dst)
    return node.name


def traced_with_one_wrapper_missing(spec: dict, missing: str) -> int:
    """Span-check failures of an in-process traced run that leaves ``missing`` unwrapped."""
    full = spans.traced_functions
    spans.traced_functions = lambda: [
        t for t in full() if f"{t[0].__name__.rsplit('.', 1)[-1]}.{t[1]}" != missing
    ]
    try:
        inputs = [tensorio.read_tensor(p) for p in spec["inputs"]]
        refs = [worker.output_bytes(tensorio.read_tensor(p)) for p in spec["references"]]
        stop_ns = time.perf_counter_ns() + int(spec["budget_s"] * 1e9)
        trace = worker.traced_run(spec, inputs, worker.Tally(refs), stop_ns)
    finally:
        spans.traced_functions = full
    return trace["span_check_failures"]


def main() -> int:
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks = []
    try:
        spec = workloads.generate("bireal18_32", 7, workdir)
        spec.update(seconds=1.0, trace=0, budget_s=60.0)
        intact = run.run_worker(spec, workdir)
        checks.append(("intact model: no failed inference", intact["failed"] == 0))

        flipped = dict(spec, model=str(workdir / "flipped.dabn"))
        name = flip_one_weight_bit(spec["model"], flipped["model"])
        result = run.run_worker(flipped, workdir)
        error_rate = result["failed"] / result["attempted"]
        checks.append((
            f"one weight bit flipped in '{name}': error_rate {error_rate:g} "
            f"({result['failed']} of {result['attempted']})",
            result["failed"] == result["attempted"] > 0,
        ))

        spec.update(seconds=0.5, trace=1, setup_reps=1)
        whole = traced_with_one_wrapper_missing(spec, "")
        checks.append((f"traced run, all functions wrapped: {whole} span-check failures", whole == 0))
        broken = traced_with_one_wrapper_missing(spec, "runtime.binary_direct_conv")
        checks.append((
            f"traced run, runtime.binary_direct_conv unwrapped: {broken} span-check failures",
            broken > 0,
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    for text, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
