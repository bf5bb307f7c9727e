"""Workload inputs made from a seed, and the reference outputs they must give.

Every workload is described twice: as files the program reads (a ``.dabn``
model or an interchange JSON document, and raw input tensors), and as a
list of plain ``Step`` records that ``reference_output`` walks with float
operators.  The walk uses ``floatops.oracle_binary_conv`` on unpacked ±1
weights where the runtime uses packed kernels, and BatchNorm followed by
Sign where the converter fuses them, so it shares no packing, kernel or
fusion code with the path under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bnnkit import floatops, modelfile, nets, tensorio
from bnnkit.kernels import ConvParams
from bnnkit.layout import FloatTensor, Layout
from bnnkit.runtime import Graph, OpKind, PackedWeight


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bireal" (a .dabn file) or "vggsmall" (an interchange document)
    hw: int
    pool: int  # distinct inputs, cycled through by the closed loop
    setup_reps: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bireal18_224", "bireal", 224, pool=2, setup_reps=4),
        Workload("bireal18_32", "bireal", 32, pool=4, setup_reps=15),
        Workload("vggsmall_fused_32", "vggsmall", 32, pool=2, setup_reps=4),
    )
}


@dataclass
class Step:
    """One operator of the reference walk, in interchange terms."""

    op: str
    inputs: tuple[str, ...]
    output: str
    params: dict = field(default_factory=dict)


def _rngs(seed: int, name: str) -> tuple[np.random.Generator, np.random.Generator]:
    tag = sorted(WORKLOADS).index(name)
    weights, inputs = np.random.SeedSequence([seed, tag]).spawn(2)
    return np.random.default_rng(weights), np.random.default_rng(inputs)


def _unpack_weight(w: PackedWeight) -> np.ndarray:
    """±1 (out, in, kh, kw) filters from packed rows; bit 1 reads as -1."""
    m, c, kh, kw = w.dims
    bits = np.unpackbits(w.matrix.data, axis=-1, bitorder="little")
    bits = bits.reshape(m, kh, kw, -1)[..., :c]
    return np.where(bits, np.float32(-1.0), np.float32(1.0)).transpose(0, 3, 1, 2)


def steps_from_graph(graph: Graph) -> list[Step]:
    """The reference walk of a runtime graph (no ThresholdSign nodes)."""
    inits = graph.initializers
    steps = []
    for node in graph.nodes:
        a = node.attrs
        spatial = {"stride": a.stride or (1, 1), "padding": a.padding or (0, 0)}
        ws = [inits[n] for n in node.weights]
        kind = node.kind
        if kind is OpKind.BINARY_CONV:
            params = {"w": _unpack_weight(ws[0]), **spatial}
            step = Step("BinaryConv", node.inputs, node.output, params)
        elif kind is OpKind.FLOAT_CONV:
            params = {"w": ws[0], "b": ws[1] if len(ws) > 1 else None, **spatial}
            step = Step("Conv", node.inputs, node.output, params)
        elif kind is OpKind.BATCH_NORM:
            params = {"bn": ws, "eps": 1e-5 if a.epsilon is None else a.epsilon}
            step = Step("BatchNormalization", node.inputs, node.output, params)
        elif kind in (OpKind.MAX_POOL, OpKind.AVG_POOL):
            op = "MaxPool" if kind is OpKind.MAX_POOL else "AveragePool"
            step = Step(op, node.inputs, node.output, {"kernel": a.kernel, **spatial})
        elif kind is OpKind.FULLY_CONNECTED:
            params = {"w": ws[0], "b": ws[1] if len(ws) > 1 else None}
            step = Step("Gemm", node.inputs, node.output, params)
        elif kind in (OpKind.SIGN, OpKind.ADD, OpKind.GLOBAL_AVG_POOL, OpKind.FLATTEN, OpKind.RELU):
            step = Step(kind.value, node.inputs, node.output)
        else:
            raise ValueError(f"no reference for op {kind.value}")
        steps.append(step)
    return steps


def reference_output(steps: list[Step], x: FloatTensor) -> FloatTensor:
    """Walk the steps with float operators; dead activations are dropped."""
    last_use = {}
    for i, s in enumerate(steps):
        for src in s.inputs:
            last_use[src] = i
    env = {steps[0].inputs[0]: x}
    for i, s in enumerate(steps):
        args = [env[src] for src in s.inputs]
        p = s.params
        if s.op in ("Conv", "BinaryConv"):
            w = p["w"]
            cp = ConvParams(w.shape[2:], w.shape[1], p["stride"], p["padding"])
            wt = FloatTensor.from_array(w, Layout.NCHW)
            if s.op == "Conv":
                out = floatops.conv2d_f32(args[0], wt, p["b"], cp)
            else:
                out = floatops.oracle_binary_conv(args[0], wt, cp)
        elif s.op == "BatchNormalization":
            out = floatops.batchnorm(args[0], *p["bn"], p["eps"])
        elif s.op == "Sign":
            out = floatops.sign_op(args[0])
        elif s.op == "MaxPool":
            out = floatops.maxpool(args[0], p["kernel"], p["stride"], p["padding"])
        elif s.op == "AveragePool":
            out = floatops.avgpool(args[0], p["kernel"], p["stride"], p["padding"])
        elif s.op == "GlobalAvgPool":
            out = floatops.global_avgpool(args[0])
        elif s.op == "Add":
            out = floatops.add(*args)
        elif s.op == "Flatten":
            out = floatops.flatten(args[0])
        elif s.op == "Gemm":
            out = floatops.fully_connected(args[0], p["w"], p["b"])
        elif s.op == "Relu":
            out = floatops.relu(args[0])
        else:
            raise ValueError(f"no reference for op {s.op}")
        for src in s.inputs:
            if last_use[src] == i:
                del env[src]
        env[s.output] = out
    return env[steps[-1].output]


def vggsmall_steps(rng: np.random.Generator, hw: int) -> list[Step]:
    """CIFAR-style VGG-small: a float stem, five Sign -> binary 3x3 convs,
    max-pools after the 1st, 3rd and 5th, then Flatten and a 10-way Gemm.
    Every BatchNorm but the last feeds only a Sign, so all five pairs fuse."""
    steps: list[Step] = []
    same = {"stride": (1, 1), "padding": (1, 1)}

    def bn(x: str, c: int, out: str) -> str:
        params = [
            rng.uniform(0.5, 1.5, c),
            rng.standard_normal(c) * 0.1,
            rng.standard_normal(c) * 0.1,
            rng.uniform(0.5, 1.5, c),
        ]
        params = [v.astype(np.float32) for v in params]
        steps.append(Step("BatchNormalization", (x,), out, {"bn": params, "eps": 1e-5}))
        return out

    w0 = (rng.standard_normal((128, 3, 3, 3)) / np.sqrt(27)).astype(np.float32)
    steps.append(Step("Conv", ("input",), "conv0", {"w": w0, "b": None, **same}))
    x = bn("conv0", 128, "bn0")
    cin = 128
    for i, (cout, pool) in enumerate(
        ((128, True), (256, False), (256, True), (512, False), (512, True)), start=1
    ):
        steps.append(Step("Sign", (x,), f"sign{i}"))
        w = rng.choice(np.array([-1.0, 1.0], np.float32), size=(cout, cin, 3, 3))
        steps.append(Step("BinaryConv", (f"sign{i}",), f"conv{i}", {"w": w, **same}))
        x = f"conv{i}"
        if pool:
            pooled = {"kernel": (2, 2), "stride": (2, 2), "padding": (0, 0)}
            steps.append(Step("MaxPool", (x,), f"pool{i}", pooled))
            x = f"pool{i}"
        x = bn(x, cout, f"bn{i}")
        cin = cout
    steps.append(Step("Flatten", (x,), "flat"))
    feats = cin * (hw // 8) ** 2
    fc_w = (rng.standard_normal((10, feats)) / np.sqrt(feats)).astype(np.float32)
    fc_b = (rng.standard_normal(10) * 0.1).astype(np.float32)
    steps.append(Step("Gemm", ("flat",), "output", {"w": fc_w, "b": fc_b}))
    return steps


def interchange_document(steps: list[Step], hw: int) -> str:
    """Serialize the steps as an interchange JSON document."""
    inits, nodes = [], []

    def init(name: str, arr: np.ndarray) -> str:
        inits.append({"name": name, "dims": list(arr.shape), "values": arr.ravel().tolist()})
        return name

    for s in steps:
        p = s.params
        inputs, attrs = list(s.inputs), {}
        if s.op in ("Conv", "BinaryConv"):
            inputs.append(init(f"{s.output}.w", p["w"]))
            (ph, pw), k = p["padding"], list(p["w"].shape[2:])
            attrs = {"kernel_shape": k, "strides": list(p["stride"]), "pads": [ph, pw, ph, pw]}
        elif s.op == "BatchNormalization":
            for part, v in zip(("gamma", "beta", "mean", "var"), p["bn"]):
                inputs.append(init(f"{s.output}.{part}", v))
            attrs = {"epsilon": p["eps"]}
        elif s.op == "MaxPool":
            (ph, pw), k = p["padding"], list(p["kernel"])
            attrs = {"kernel_shape": k, "strides": list(p["stride"]), "pads": [ph, pw, ph, pw]}
        elif s.op == "Gemm":
            inputs += [init(f"{s.output}.w", p["w"]), init(f"{s.output}.b", p["b"])]
            attrs = {"transB": 1}
        elif s.op == "Flatten":
            attrs = {"axis": 1}
        op = "Conv" if s.op == "BinaryConv" else s.op
        nodes.append(
            {"op": op, "name": s.output, "inputs": inputs, "outputs": [s.output], "attributes": attrs}
        )
    doc = {
        "inputs": [{"name": "input", "dims": [1, 3, hw, hw]}],
        "initializers": inits,
        "nodes": nodes,
        "output": steps[-1].output,
    }
    return json.dumps(doc)


def generate(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's files and reference outputs; return the worker spec.

    The spec names only files: the model or document, the inputs, and the
    reference output for each input.
    """
    wl = WORKLOADS[name]
    weight_rng, input_rng = _rngs(seed, name)
    spec = {"workload": name, "setup_reps": wl.setup_reps}
    if wl.kind == "bireal":
        model = nets.build_birealnet18(weight_rng, input_hw=wl.hw)
        spec["model"] = str(workdir / "model.dabn")
        modelfile.save_model(model, spec["model"])
        steps = steps_from_graph(model.graph)
    else:
        steps = vggsmall_steps(weight_rng, wl.hw)
        spec["document"] = str(workdir / "model.json")
        spec["model"] = str(workdir / "converted.dabn")
        Path(spec["document"]).write_text(interchange_document(steps, wl.hw))
    spec["inputs"], spec["references"] = [], []
    for i in range(wl.pool):
        x = input_rng.standard_normal((1, wl.hw, wl.hw, 3)).astype(np.float32)
        x = FloatTensor.from_array(x, Layout.NHWC)
        for key, tensor in (("inputs", x), ("references", reference_output(steps, x))):
            path = workdir / f"{key}{i}.bin"
            tensorio.write_tensor(path, tensor)
            spec[key].append(str(path))
    return spec
