"""The measured process: set-up, a closed timed loop, and the traced run.

Started by ``run.py`` as ``python3 worker.py SPEC RESULT``.  It sees only
files (the model or interchange document, input tensors and reference
outputs), drives bnnkit's public API from this one thread, and writes its
raw measurements to RESULT as JSON.  Its timed loops stop when the spec's
``budget_s`` has passed since it started, however few samples they have.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from bnnkit import convert, modelfile, runtime, tensorio
from bnnkit.runtime import OpKind

from spans import Span, Tracer

# Samples the untraced loop collects even past its deadline, so the tail
# percentile has ten samples beyond it, and pairs the traced loop collects;
# both give way to the run's budget.
MIN_SAMPLES = 21
MIN_PAIRS = 5

# The function the runtime calls for each node kind, once per node.  A node
# kind missing here runs inside ``execute`` (ThresholdSign does), so its time
# is runtime self time.
CALLS_PER_KIND = {
    "runtime.binary_direct_conv": OpKind.BINARY_CONV,
    "runtime.pack_to_nc1hwc2": OpKind.BINARY_CONV,
    "floatops.conv2d_f32": OpKind.FLOAT_CONV,
    "floatops.sign_op": OpKind.SIGN,
    "floatops.batchnorm": OpKind.BATCH_NORM,
    "floatops.relu": OpKind.RELU,
    "floatops.maxpool": OpKind.MAX_POOL,
    "floatops.avgpool": OpKind.AVG_POOL,
    "floatops.global_avgpool": OpKind.GLOBAL_AVG_POOL,
    "floatops.add": OpKind.ADD,
    "floatops.fully_connected": OpKind.FULLY_CONNECTED,
    "floatops.flatten": OpKind.FLATTEN,
}
RUNTIME_OWN_KINDS = {OpKind.THRESHOLD_SIGN}


class Tally:
    """Inferences attempted and failed, with the first few failure reasons."""

    def __init__(self, references: list[bytes]) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def infer(self, model, x, k: int):
        """One checked ``execute``; returns (output bytes or None, wall ns)."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = runtime.execute(model, x)
        except Exception as exc:  # counted in error_rate, reported below
            self.failed += 1
            self.problem(f"input {k}: execute raised {exc!r}")
            return None, 0
        elapsed = time.perf_counter_ns() - start
        got = output_bytes(out)
        if got != self.references[k]:
            self.failed += 1
            self.problem(f"input {k}: output bytes differ from the reference")
        return got, elapsed


def peak_rss_bytes() -> int:
    """High-water resident set of this process since its exec (VmHWM).

    ``getrusage(RUSAGE_SELF).ru_maxrss`` would not do: the kernel carries the
    old address space's peak across exec, and a child spawned with vfork
    inherits the parent's, which has just generated the inputs and walked the
    reference.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def output_bytes(t) -> bytes:
    dims = np.asarray(t.dims, "<u4").tobytes()
    return dims + np.ascontiguousarray(t.nhwc_array(), "<f4").tobytes()


def set_up(spec: dict, x, tally: Tally):
    """Model on disk to first output; returns (model, seconds)."""
    start = time.perf_counter()
    if "document" in spec:
        graph = convert.parse_interchange(Path(spec["document"]).read_text())
        options = convert.ConvertOptions(fuse_bn_sign=True)
        converted, _report = convert.convert_model(graph, options)
        modelfile.save_model(converted, spec["model"])
    model = modelfile.load_model(spec["model"])
    out, _ = tally.infer(model, x, 0)
    if out is None:
        raise RuntimeError("the first inference after set-up failed")
    return model, time.perf_counter() - start


def closed_loop(model, inputs, tally: Tally, seconds: float, min_samples: int, stop_ns: int):
    """One client: each execute starts when the previous one returned."""
    latencies, ok = [], 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        now = time.perf_counter_ns()
        if now >= stop_ns or (now >= deadline and len(latencies) >= min_samples):
            break
        k = i % len(inputs)
        i += 1
        failed_before = tally.failed
        out, elapsed = tally.infer(model, inputs[k], k)
        if out is None:
            continue
        latencies.append(elapsed)
        ok += tally.failed == failed_before
    wall = time.perf_counter_ns() - start
    return {"latencies_ns": latencies, "wall_ns": wall, "ok": ok}


def untraced_run(spec: dict, inputs, tally: Tally, stop_ns: int) -> dict:
    """Set-up, then the timed closed loop cut into equal segments with one
    more set-up after each.  Spreading the set-ups over the run keeps their
    median from resting on one moment of machine load."""
    model, first = set_up(spec, inputs[0], tally)
    setup_s = [first]
    segments = spec["setup_reps"] - 1
    loop = {"latencies_ns": [], "wall_ns": 0, "ok": 0}
    for i in range(segments):
        need = MIN_SAMPLES - len(loop["latencies_ns"]) if i == segments - 1 else 0
        part = closed_loop(model, inputs, tally, spec["seconds"] / segments, need, stop_ns)
        for key in loop:
            loop[key] += part[key]
        setup_s.append(set_up(spec, inputs[0], tally)[1])
    return {"setup_s": setup_s, "loop": loop, "peak_rss_bytes": peak_rss_bytes()}


def check_span_counts(children: list[Span], expected: dict) -> list[str]:
    counts = Counter(s.name for s in children)
    return [
        f"{name} called {counts[name]} times, graph has {want} nodes"
        for name, want in expected.items()
        if counts[name] != want
    ]


def layer_times(execute_span: Span, children: list[Span]) -> dict:
    """Self time per layer bucket and work counts for one inference."""
    out = {"runtime": execute_span.self_ns, "bit_ops": 0, "useful_bits": 0, "packed_bytes": 0}
    for s in children:
        out[s.bucket] = out.get(s.bucket, 0) + s.self_ns
        for key, value in s.work.items():
            out[key] += value
    return out


def paired_loop(model, inputs, tally: Tally, tracer: Tracer, seconds: float, stop_ns: int):
    """Untraced and traced inferences of the same input, back to back.

    Which of the two goes first switches from pair to pair.  Both halves of a
    pair therefore see the same machine load, and their ratio is what the
    wrappers cost.
    """
    pairs, traced_calls, problems = [], 0, []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    j = 0
    while True:
        now = time.perf_counter_ns()
        if now >= stop_ns or (now >= deadline and len(pairs) >= MIN_PAIRS):
            break
        k = j // 2 % len(inputs)
        got = {}
        for traced in (False, True) if j % 2 == 0 else (True, False):
            with tracer if traced else contextlib.nullcontext():
                got[traced] = tally.infer(model, inputs[k], k)
        traced_calls += 1
        j += 1
        (plain, plain_ns), (spanned, spanned_ns) = got[False], got[True]
        if plain is None or spanned is None:
            continue
        if plain != spanned:
            problems.append(f"input {k}: traced and untraced outputs differ")
        pairs.append((plain_ns, spanned_ns))
    return {"pairs": pairs, "traced_calls": traced_calls, "problems": problems}


def traced_run(spec: dict, inputs, tally: Tally, stop_ns: int) -> dict:
    tracer = Tracer()
    setups = []
    for _ in range(spec["setup_reps"]):
        with tracer:
            model, _ = set_up(spec, inputs[0], tally)
        by_bucket: dict[str, int] = {}
        for s in tracer.take():
            if s.root is s and s.bucket != "runtime":
                by_bucket[s.bucket] = by_bucket.get(s.bucket, 0) + s.duration_ns
        setups.append(by_bucket)
    loop = paired_loop(model, inputs, tally, tracer, spec["seconds"], stop_ns)
    spans = tracer.take()

    kinds = [node.kind for node in model.graph.nodes]
    problems = [
        f"op {kind.value} has no traced function; its time would be runtime self time"
        for kind in sorted(set(kinds) - set(CALLS_PER_KIND.values()) - RUNTIME_OWN_KINDS, key=str)
    ]
    expected = {name: kinds.count(kind) for name, kind in CALLS_PER_KIND.items()}
    roots = [s for s in spans if s.parent is None]
    if len(roots) != loop["traced_calls"] or any(s.name != "runtime.execute" for s in roots):
        problems.append(f"{len(roots)} top-level spans for {loop['traced_calls']} inferences")
    children: dict[Span, list[Span]] = {root: [] for root in roots}
    for s in spans:
        if s.parent is not None:
            children[s.root].append(s)
    per_inference = []
    for root in roots:
        problems += check_span_counts(children[root], expected)
        per_inference.append(layer_times(root, children[root]))
    problems += loop["problems"]

    tracemalloc.start()
    runtime.execute(model, inputs[0])
    peak_alloc = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    for p in problems[:10]:
        tally.problem(f"span check: {p}")
    return {
        "span_check_failures": len(problems),
        "setups": setups,
        "per_inference": per_inference,
        "pairs_ns": loop["pairs"],
        "peak_alloc_bytes": peak_alloc,
        "model_bytes": Path(spec["model"]).stat().st_size,
        "fused_pairs": kinds.count(OpKind.THRESHOLD_SIGN),
    }


def main(spec_path: str, result_path: str) -> None:
    stop_ns = time.perf_counter_ns()
    spec = json.loads(Path(spec_path).read_text())
    stop_ns += int(spec["budget_s"] * 1e9)
    inputs = [tensorio.read_tensor(p) for p in spec["inputs"]]
    references = [output_bytes(tensorio.read_tensor(p)) for p in spec["references"]]
    tally = Tally(references)
    if spec["trace"]:
        result = {"trace": traced_run(spec, inputs, tally, stop_ns)}
    else:
        result = untraced_run(spec, inputs, tally, stop_ns)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
