"""Independent reference computations shared by the test modules.

The helpers here recompute expected values through plain Python loops, bit
arithmetic on ints, or float-level graph walks.  None of them touch the
packed bit kernels, so agreement between a kernel and its helper is a real
cross-check rather than the same code run twice.  The graph walker leans on
the float operators, whose own correctness is pinned separately against the
scalar loops in this file.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from bnnkit import floatops
from bnnkit.convert import InterchangeGraph
from bnnkit.kernels import BinMatrix, ConvParams
from bnnkit.layout import FloatTensor, Layout, PackedTensor


def signbit32(x) -> int:
    """Raw sign bit of a float32 value, via its bit pattern."""
    return int(np.float32(x).view(np.uint32)) >> 31


def popcount(value: int) -> int:
    return int(value).bit_count()


def packed_bit(p: PackedTensor, group: int, bit: int) -> int:
    """Bit (group, bit) of a packed tensor, read byte by byte."""
    flat = p.data.reshape(-1, p.c2 // 8)
    return (int(flat[group, bit // 8]) >> (bit % 8)) & 1


def bin_matrix(grid, vec_bits: int) -> BinMatrix:
    """BinMatrix from a nested list of ints, one little-endian vector each."""
    nbytes = vec_bits // 8
    raw = [[int(v).to_bytes(nbytes, "little") for v in row] for row in grid]
    data = np.frombuffer(b"".join(b"".join(row) for row in raw), dtype=np.uint8)
    return BinMatrix(len(raw), len(raw[0]), vec_bits, data.reshape(len(raw), -1, nbytes))


def bgemm_oracle(a: BinMatrix, b: BinMatrix) -> np.ndarray:
    """Triple-loop match-count matrix product over Python ints."""
    mask = (1 << a.vec_bits) - 1
    out = np.zeros((a.rows, b.cols), dtype=np.int64)
    for i in range(a.rows):
        for j in range(b.cols):
            total = 0
            for k in range(a.cols):
                av = int.from_bytes(a.data[i, k].tobytes(), "little")
                bv = int.from_bytes(b.data[k, j].tobytes(), "little")
                total += popcount(~(av ^ bv) & mask)
            out[i, j] = total
    return out


def naive_conv(
    x: np.ndarray,
    w: np.ndarray,
    bias,
    stride: tuple[int, int],
    padding: tuple[int, int],
    pad_value: float,
) -> np.ndarray:
    """Scalar cross-correlation, one float32 multiply and add per tap.

    ``x`` is (n, h, w, c), ``w`` is (m, c, kh, kw).  The accumulation order
    is input channel, then kernel column, then kernel row fastest, starting
    from the bias, matching the vectorized float convolution exactly.
    """
    n, h, wd, c = x.shape
    m, wc, kh, kw = w.shape
    assert wc == c
    sh, sw = stride
    ph, pw = padding
    outh = (h + 2 * ph - kh) // sh + 1
    outw = (wd + 2 * pw - kw) // sw + 1
    padded = np.full((n, h + 2 * ph, wd + 2 * pw, c), pad_value, dtype=np.float32)
    padded[:, ph : ph + h, pw : pw + wd, :] = x
    out = np.empty((n, outh, outw, m), dtype=np.float32)
    for img in range(n):
        for oy in range(outh):
            for ox in range(outw):
                for f in range(m):
                    acc = np.float32(0.0 + bias[f]) if bias is not None else np.float32(0.0)
                    for ci in range(c):
                        for kx in range(kw):
                            for ky in range(kh):
                                tap = padded[img, oy * sh + ky, ox * sw + kx, ci]
                                acc = np.float32(acc + np.float32(tap * w[f, ci, ky, kx]))
                    out[img, oy, ox, f] = acc
    return out


def naive_pool(
    x: np.ndarray,
    window: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    kind: str,
) -> np.ndarray:
    """Scalar max/average pooling; padded positions are ignored entirely."""
    n, h, w, c = x.shape
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    outh = (h + 2 * ph - wh) // sh + 1
    outw = (w + 2 * pw - ww) // sw + 1
    out = np.empty((n, outh, outw, c), dtype=np.float32)
    for img in range(n):
        for oy in range(outh):
            for ox in range(outw):
                for ci in range(c):
                    values = []
                    for wy in range(wh):
                        for wx in range(ww):
                            iy = oy * sh + wy - ph
                            ix = ox * sw + wx - pw
                            if 0 <= iy < h and 0 <= ix < w:
                                values.append(x[img, iy, ix, ci])
                    if kind == "max":
                        out[img, oy, ox, ci] = max(values)
                    else:
                        total = np.float32(0.0)
                        for v in values:
                            total = np.float32(total + v)
                        out[img, oy, ox, ci] = np.float32(total / np.float32(len(values)))
    return out


def conv_cases(rng: np.random.Generator, count: int):
    """Randomized direct-convolution configurations.

    Yields (tensor, weight_values, params, c2) covering every group-width
    preset, channel counts that do and do not divide the group width, both
    kernel sizes, strides and paddings.
    """
    presets = (8, 16, 32, 64, 128, 256, 512)
    for i in range(count):
        c2 = int(presets[i % len(presets)])
        c = int(rng.integers(1, 161))
        hw = int(rng.integers(3, 15))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 2)) if k == 3 else 0
        m = int(rng.integers(1, 9))
        x = rng.standard_normal((1, hw, hw, c)).astype(np.float32)
        # sprinkle exact zeros of both signs so the sign-bit rule is exercised
        zeros = rng.random((1, hw, hw, c)) < 0.05
        x[zeros] = np.float32(-0.0)
        x[rng.random((1, hw, hw, c)) < 0.05] = np.float32(0.0)
        w = rng.choice(np.array([-1.0, 1.0], np.float32), size=(m, c, k, k))
        params = ConvParams(
            kernel=(k, k), channels=c, stride=(stride, stride), padding=(pad, pad)
        )
        yield FloatTensor.from_array(x, Layout.NHWC), w, params, c2


def packed_conv_names(g: InterchangeGraph) -> set[str]:
    """Conv nodes the converter turns into packed binary convolutions.

    Mirrors the conversion rule from the graph alone: data input produced by
    a Sign node, weights exactly +-1, no bias input, and a weight initializer
    no other node references.
    """
    refs: dict[str, int] = {}
    for node in g.nodes:
        for src in node.inputs:
            refs[src] = refs.get(src, 0) + 1
    sign_outputs = {n.output for n in g.nodes if n.op == "Sign"}
    names = set()
    for node in g.nodes:
        if node.op != "Conv" or node.inputs[0] not in sign_outputs:
            continue
        if len(node.inputs) > 2:
            continue
        w = g.initializers[node.inputs[1]]
        if w.size and bool(np.all(np.abs(w) == np.float32(1.0))):
            if refs.get(node.inputs[1], 0) == 1:
                names.add(node.name)
    return names


def _pair(node, key, default) -> tuple[int, int]:
    v = node.attributes.get(key, default)
    return (int(v[0]), int(v[1]))


def _pads(node) -> tuple[int, int]:
    v = node.attributes.get("pads", [0, 0, 0, 0])
    return (int(v[0]), int(v[1]))


def reference_eval(g: InterchangeGraph, x: FloatTensor) -> FloatTensor:
    """Float-level evaluation of an interchange graph.

    Walks the source graph directly with the float operators; convolutions
    the converter would pack run through the binarized float oracle (sign
    values, +1 spatial padding), everything else in full precision.
    """
    packed = packed_conv_names(g)
    env = {g.inputs[0][0]: x}
    for node in g.nodes:
        op = node.op
        if op == "Sign":
            out = floatops.sign_op(env[node.inputs[0]])
        elif op == "Conv":
            w = g.initializers[node.inputs[1]]
            params = ConvParams(
                kernel=w.shape[2:],
                channels=w.shape[1],
                stride=_pair(node, "strides", (1, 1)),
                padding=_pads(node),
            )
            wt = FloatTensor.from_array(w, Layout.NCHW)
            if node.name in packed:
                out = floatops.oracle_binary_conv(env[node.inputs[0]], wt, params)
            else:
                bias = g.initializers[node.inputs[2]] if len(node.inputs) > 2 else None
                out = floatops.conv2d_f32(env[node.inputs[0]], wt, bias, params)
        elif op == "BatchNormalization":
            gamma, beta, mean, var = (g.initializers[s] for s in node.inputs[1:5])
            eps = float(node.attributes.get("epsilon", 1e-5))
            out = floatops.batchnorm(env[node.inputs[0]], gamma, beta, mean, var, eps)
        elif op == "Relu":
            out = floatops.relu(env[node.inputs[0]])
        elif op == "MaxPool":
            out = floatops.maxpool(
                env[node.inputs[0]],
                _pair(node, "kernel_shape", None),
                _pair(node, "strides", (1, 1)),
                _pads(node),
            )
        elif op == "AveragePool":
            out = floatops.avgpool(
                env[node.inputs[0]],
                _pair(node, "kernel_shape", None),
                _pair(node, "strides", (1, 1)),
                _pads(node),
            )
        elif op == "GlobalAveragePool":
            out = floatops.global_avgpool(env[node.inputs[0]])
        elif op == "Add":
            out = floatops.add(env[node.inputs[0]], env[node.inputs[1]])
        elif op == "Flatten":
            out = floatops.flatten(env[node.inputs[0]])
        elif op == "Gemm":
            w = g.initializers[node.inputs[1]]
            bias = g.initializers[node.inputs[2]] if len(node.inputs) > 2 else None
            out = floatops.fully_connected(env[node.inputs[0]], w, bias)
        else:
            raise AssertionError(f"reference walker has no rule for {op}")
        env[node.output] = out
    return env[g.output]


def random_interchange_doc(
    rng: np.random.Generator,
    max_steps: int = 8,
    force_fusable: bool = False,
) -> str:
    """A random valid interchange document as JSON text.

    Always contains at least one Sign-fed +-1-weight convolution; shapes are
    tracked so every node is well formed.  With ``force_fusable`` a
    BatchNormalization whose output feeds only a Sign is guaranteed.
    """
    counter = itertools.count()

    def fresh(tag: str) -> str:
        return f"{tag}{next(counter)}"

    c = int(rng.integers(3, 9))
    hw = int(rng.integers(6, 10))
    inputs = [{"name": "input", "dims": [1, c, hw, hw]}]
    inits: list[dict] = []
    nodes: list[dict] = []
    state = {"cur": "input", "shape": (c, hw, hw), "signed": False}
    checkpoints: list[tuple[str, tuple[int, int, int]]] = []

    def add_init(name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr, dtype=np.float32)
        inits.append(
            {
                "name": name,
                "dims": list(arr.shape),
                "values": [float(v) for v in arr.reshape(-1)],
            }
        )

    def emit(op: str, ins: list[str], attrs: dict | None = None) -> None:
        out = fresh("t")
        node = {"op": op, "name": fresh(op.lower()), "inputs": ins, "outputs": [out]}
        if attrs:
            node["attributes"] = attrs
        nodes.append(node)
        state["cur"] = out

    def do_sign() -> None:
        emit("Sign", [state["cur"]])
        state["signed"] = True

    def do_conv(binary: bool) -> None:
        cin, h, w = state["shape"]
        k = int(rng.choice([1, 3])) if h >= 3 else 1
        pad = int(rng.integers(0, 2)) if k == 3 else 0
        stride = int(rng.choice([1, 2]))
        cout = int(rng.integers(2, 13))
        if binary:
            if not state["signed"]:
                do_sign()
            wv = rng.choice(np.array([-1.0, 1.0], np.float32), size=(cout, cin, k, k))
        else:
            wv = (rng.standard_normal((cout, cin, k, k)) * 0.5).astype(np.float32)
        wname = fresh("w")
        add_init(wname, wv)
        ins = [state["cur"], wname]
        if not binary and rng.random() < 0.4:
            bname = fresh("b")
            add_init(bname, (rng.standard_normal(cout) * 0.1).astype(np.float32))
            ins.append(bname)
        attrs = {
            "kernel_shape": [k, k],
            "strides": [stride, stride],
            "pads": [pad, pad, pad, pad],
            "group": 1,
            "dilations": [1, 1],
        }
        emit("Conv", ins, attrs)
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        state["shape"] = (cout, oh, ow)
        state["signed"] = False

    def do_bn(then_sign: bool) -> None:
        cin = state["shape"][0]
        gamma = rng.uniform(0.5, 1.5, cin) * rng.choice([-1.0, 1.0], size=cin)
        names = []
        for tag, vec in (
            ("g", gamma),
            ("bt", rng.standard_normal(cin) * 0.2),
            ("mu", rng.standard_normal(cin) * 0.2),
            ("vr", rng.uniform(0.25, 2.0, cin)),
        ):
            name = fresh(tag)
            add_init(name, vec.astype(np.float32))
            names.append(name)
        emit(
            "BatchNormalization",
            [state["cur"], *names],
            {"epsilon": float(np.float32(rng.uniform(1e-5, 1e-3)))},
        )
        state["signed"] = False
        if then_sign:
            do_sign()

    def do_pool() -> None:
        cin, h, w = state["shape"]
        k = 2 if h < 5 else int(rng.choice([2, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 2)) if k == 3 else 0
        op = "MaxPool" if rng.random() < 0.5 else "AveragePool"
        attrs = {
            "kernel_shape": [k, k],
            "strides": [stride, stride],
            "pads": [pad, pad, pad, pad],
        }
        if op == "AveragePool":
            attrs["count_include_pad"] = 0
        emit(op, [state["cur"]], attrs)
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        state["shape"] = (cin, oh, ow)
        state["signed"] = False

    def do_add() -> bool:
        for name, shape in reversed(checkpoints):
            if shape == state["shape"] and name != state["cur"]:
                emit("Add", [state["cur"], name])
                state["signed"] = False
                return True
        return False

    made_binary = False
    made_fusable = False
    for _ in range(max_steps):
        h = state["shape"][1]
        menu = ["relu", "bn", "conv_float", "conv_binary", "sign"]
        if h >= 3:
            menu.append("pool")
        if h > 2:
            menu.append("conv_binary")
        choice = str(rng.choice(menu))
        if choice == "relu":
            emit("Relu", [state["cur"]])
            state["signed"] = False
        elif choice == "bn":
            fuse_here = force_fusable and not made_fusable
            do_bn(then_sign=fuse_here or rng.random() < 0.3)
            made_fusable = made_fusable or fuse_here
        elif choice == "conv_float":
            do_conv(binary=False)
        elif choice == "conv_binary":
            do_conv(binary=True)
            made_binary = True
        elif choice == "sign":
            do_sign()
        else:
            do_pool()
        if rng.random() < 0.3:
            checkpoints.append((state["cur"], state["shape"]))
        if rng.random() < 0.25:
            do_add()
        if state["shape"][1] < 2:
            break
    if not made_binary:
        do_conv(binary=True)
    if force_fusable and not made_fusable:
        do_bn(then_sign=True)
    if rng.random() < 0.5:
        emit("GlobalAveragePool", [state["cur"]])
        emit("Flatten", [state["cur"]], {"axis": 1})
        nf = int(rng.integers(3, 9))
        wname = fresh("w")
        add_init(wname, (rng.standard_normal((nf, state["shape"][0])) * 0.3).astype(np.float32))
        gemm_inputs = [state["cur"], wname]
        if rng.random() < 0.5:
            bname = fresh("b")
            add_init(bname, (rng.standard_normal(nf) * 0.1).astype(np.float32))
            gemm_inputs.append(bname)
        emit("Gemm", gemm_inputs, {"alpha": 1.0, "beta": 1.0, "transA": 0, "transB": 1})
    doc = {
        "inputs": inputs,
        "initializers": inits,
        "nodes": nodes,
        "output": state["cur"],
    }
    return json.dumps(doc)


def random_input_for(g: InterchangeGraph, rng: np.random.Generator) -> FloatTensor:
    """Random float32 input matching the graph's single declared input."""
    _, dims = g.inputs[0]
    n, c, h, w = dims
    return FloatTensor.from_array(
        rng.standard_normal((n, h, w, c)).astype(np.float32), Layout.NHWC
    )
