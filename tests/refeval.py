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
from bnnkit.layout import FloatTensor, Layout, PackedTensor, check_group_bits, group_count
from bnnkit.runtime import PackedWeight


def signbit32(x) -> int:
    """Raw sign bit of a float32 value, via its bit pattern."""
    return int(np.float32(x).view(np.uint32)) >> 31


def popcount(value: int) -> int:
    return int(value).bit_count()


def packed_bit(p: PackedTensor, group: int, bit: int) -> int:
    """Bit (group, bit) of a packed tensor, read byte by byte."""
    flat = p.data.reshape(-1, p.c2 // 8)
    return (int(flat[group, bit // 8]) >> (bit % 8)) & 1


def index_nc1hwc2(
    dims: tuple[int, int, int, int], c2: int, n: int, c: int, h: int, w: int
) -> tuple[int, int]:
    """(group_offset, bit_offset) of logical element (n, c, h, w).

    Groups are laid out image-major, then channel group, then row, then
    column; the bit offset addresses the channel inside its c2-bit group.
    """
    c2 = check_group_bits(c2)
    dn, dc, dh, dw = dims
    if not (0 <= n < dn and 0 <= c < dc and 0 <= h < dh and 0 <= w < dw):
        raise IndexError("index out of bounds")
    c1 = group_count(dc, c2)
    group = ((n * c1 + c // c2) * dh + h) * dw + w
    return group, c % c2


def convert_layout(t: FloatTensor, target: Layout) -> FloatTensor:
    """Repack to the target storage order; values are unchanged."""
    target = Layout(target)
    if t.layout is target:
        return t
    perm = (0, 2, 3, 1) if target is Layout.NHWC else (0, 3, 1, 2)
    data = np.ascontiguousarray(np.transpose(t.array4d(), perm))
    return FloatTensor(t.dims, target, data.reshape(-1))


def unpack_from_nc1hwc2(p: PackedTensor) -> FloatTensor:
    """Recover a ±1-valued NHWC tensor; channel pad bits are dropped."""
    n, c, h, w = p.dims
    if 0 in (n, c, h, w):
        return FloatTensor(p.dims, Layout.NHWC, np.zeros(0, np.float32))
    bits = np.unpackbits(p.data, axis=-1, count=p.c2, bitorder="little")
    bits = bits.transpose(0, 2, 3, 1, 4).reshape(n, h, w, p.c1 * p.c2)[..., :c]
    values = np.where(bits, np.float32(-1.0), np.float32(1.0))
    return FloatTensor.from_array(values, Layout.NHWC)


def unpack_conv_weight(weight: PackedWeight) -> np.ndarray:
    """Recover the ±1 float32 (out, in, kh, kw) filter bank from packed rows."""
    m, c, kh, kw = weight.dims
    c1 = group_count(c, weight.c2)
    groups = weight.matrix.data.reshape(m, kh, kw, c1, weight.c2 // 8)
    packed = PackedTensor(weight.dims, weight.c2, groups.transpose(0, 3, 1, 2, 4))
    return unpack_from_nc1hwc2(packed).nhwc_array().transpose(0, 3, 1, 2).copy()


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


def naive_fc(feats: np.ndarray, w: np.ndarray, bias) -> np.ndarray:
    """Scalar dense layer: per output, 0 + bias, then one float32 add per feature in order.

    ``feats`` is (n, in_features), ``w`` is (out_features, in_features).
    """
    n, f = feats.shape
    out = np.empty((n, w.shape[0]), dtype=np.float32)
    for img in range(n):
        for o in range(w.shape[0]):
            acc = np.float32(0.0 + bias[o]) if bias is not None else np.float32(0.0)
            for i in range(f):
                acc = np.float32(acc + np.float32(feats[img, i] * w[o, i]))
            out[img, o] = acc
    return out


# float32 values where evaluation order shows: signed zeros, infinities,
# denormals, magnitudes whose sums overflow, and NaN.  NaN comes in one bit
# pattern, the one x86 makes for inf - inf or 0 * inf: where two NaNs of
# different bits meet, numpy's float32 loops keep either one depending on the
# element's place in the SIMD loop, whatever the order of evaluation.
SPECIAL_F32 = np.array(
    [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0xFFC00000, 0x00000001,
     0x80000001, 0x00400000, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000,
     0xBF800000],
    dtype=np.uint32,
).view(np.float32)


# NaNs of several payloads, quiet and signalling, of both signs: the sign-bit
# rule must read bit 31 of each, whatever the rest.
NAN_F32 = np.array(
    [0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0x7FC0BEEF, 0xFFC00001, 0xFF800001,
     0xFFFFFFFF, 0xFFC0BEEF],
    dtype=np.uint32,
).view(np.float32)


def sign_values(x: np.ndarray) -> np.ndarray:
    """±1 by a select on the raw sign bit: -0.0 and NaNs with bit 31 set give -1."""
    bits = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32) >> np.uint32(31)
    return np.where(bits, np.float32(-1.0), np.float32(1.0))


def threshold_sign(x: np.ndarray, keys: np.ndarray, invert: np.ndarray) -> np.ndarray:
    """ThresholdSign by selects: -1 where the order key of x lies below the
    channel's key (last axis), the comparison flipped where invert is set."""
    bits = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)
    neg = bits >> np.uint32(31)
    key = np.where(neg, np.uint32(0xFFFFFFFF) - bits, bits + np.uint32(0x80000000))
    below = (key < np.asarray(keys, np.float32).view(np.uint32)) ^ (np.asarray(invert) != 0)
    return np.where(below, np.float32(-1.0), np.float32(1.0))


def special_mix(rng: np.random.Generator, shape, share: float) -> np.ndarray:
    """Standard normal float32 with about ``share`` of entries from SPECIAL_F32."""
    x = rng.standard_normal(shape).astype(np.float32)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(SPECIAL_F32, size=int(pick.sum()))
    return x


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
