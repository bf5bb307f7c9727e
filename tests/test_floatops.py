import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import refeval
from bnnkit import floatops
from bnnkit.floatops import (
    add,
    avgpool,
    batchnorm,
    bn_scale,
    conv2d_f32,
    flatten,
    fully_connected,
    global_avgpool,
    maxpool,
    oracle_binary_conv,
    relu,
    sign_op,
)
from bnnkit.kernels import BinMatrix, ConvParams, binary_direct_conv
from bnnkit.layout import FloatTensor, Layout, pack_to_nc1hwc2
from refeval import convert_layout


def nhwc(values):
    return FloatTensor.from_array(np.asarray(values, np.float32), Layout.NHWC)


def nchw(values):
    return FloatTensor.from_array(np.asarray(values, np.float32), Layout.NCHW)


def signs(a):
    """±1 by the raw sign bit, as the binary oracle binarizes."""
    return np.where(np.signbit(a), np.float32(-1.0), np.float32(1.0))


def check_conv_bytes(x, w, bias, stride, pad):
    """conv2d_f32 and oracle_binary_conv equal the scalar loop byte for byte."""
    m, c, kh, kw = w.shape
    params = ConvParams(kernel=(kh, kw), channels=c, stride=stride, padding=pad)
    with np.errstate(over="ignore", invalid="ignore"):
        got = conv2d_f32(nhwc(x), nchw(w), bias, params).nhwc_array()
        want = refeval.naive_conv(x, w, bias, stride, pad, 0.0)
    assert got.tobytes() == want.tobytes()
    got = oracle_binary_conv(nhwc(x), nchw(w), params).nhwc_array()
    want = refeval.naive_conv(signs(x), signs(w), None, stride, pad, 1.0)
    assert got.tobytes() == want.tobytes()


def conv_operands(rng, xs, ws):
    """Input, weights and bias with about one special value per operand per sum.

    Denser specials would make almost every sum inf or NaN, whatever its order.
    """
    share = min(0.2, 1 / np.prod(ws[1:]))
    mix = [refeval.special_mix(rng, shape, share) for shape in (xs, ws, ws[:1])]
    mix[2][0] = -0.0
    return mix


# (input NHWC, weights OIHW, stride, padding) of the convs inference runs
CONV_GEOMETRIES = {
    "stem_7x7_s2_p3": ((1, 12, 12, 3), (4, 3, 7, 7), (2, 2), (3, 3)),
    "shortcut_1x1": ((1, 5, 5, 8), (6, 8, 1, 1), (1, 1), (0, 0)),
    "vgg_conv0_3x3_p1": ((1, 6, 6, 3), (5, 3, 3, 3), (1, 1), (1, 1)),
    "asymmetric": ((1, 7, 9, 2), (3, 2, 3, 5), (2, 1), (0, 2)),
    "batch_2": ((2, 5, 6, 3), (4, 3, 3, 3), (1, 1), (1, 1)),
    # 66 x 70 outputs: tiles of 58 rows and a ragged last tile of 8
    "ragged_last_tile": ((1, 131, 70, 1), (2, 1, 3, 1), (2, 1), (1, 0)),
    # one output row holds more positions than a tile
    "row_wider_than_tile": ((1, 2, 4100, 1), (1, 1, 1, 1), (1, 1), (0, 0)),
}


CONV_WORK_BUDGET = 4000


@st.composite
def conv_geometries(draw):
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    ph, pw = draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # ConvParams rejects a padding beyond the input extent
    h = draw(st.integers(max(1, kh - 2 * ph, ph), 12))
    wd = draw(st.integers(max(1, kw - 2 * pw, pw), 12))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    outh, outw = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    # the scalar loop takes a few microseconds per multiply-add
    per_filter = n * outh * outw * c * kh * kw
    assume(per_filter <= CONV_WORK_BUDGET)
    m = draw(st.integers(1, min(9, CONV_WORK_BUDGET // per_filter)))
    return (n, h, wd, c), (m, c, kh, kw), (sh, sw), (ph, pw)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        out = conv2d_f32(nchw(x), nchw(w))
        assert np.array_equal(out.nhwc_array(), np.transpose(x, (0, 2, 3, 1)))

    def test_all_ones_three_by_three(self):
        out = conv2d_f32(nchw(np.ones((1, 1, 3, 3))), nchw(np.ones((1, 1, 3, 3))))
        assert out.dims == (1, 1, 1, 1)
        assert out.data.tolist() == [9.0]

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_against_scalar_loop(self, stride, pad, rng):
        x = rng.standard_normal((2, 4, 4, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(2).astype(np.float32)
        params = ConvParams(
            kernel=(3, 3), channels=3, stride=(stride, stride), padding=(pad, pad)
        )
        out = conv2d_f32(nhwc(x), nchw(w), bias, params)
        want = refeval.naive_conv(x, w, bias, (stride, stride), (pad, pad), 0.0)
        assert np.array_equal(out.nhwc_array(), want)

    @pytest.mark.parametrize("case", list(CONV_GEOMETRIES))
    def test_inference_geometry_against_scalar_loop(self, case, rng):
        xs, ws, stride, pad = CONV_GEOMETRIES[case]
        check_conv_bytes(*conv_operands(rng, xs, ws), stride, pad)

    def test_tiles_cover_the_ragged_and_wide_cases(self):
        tile = floatops._TILE_POSITIONS
        (_, h, wd, _), (_, _, kh, _), (sh, _), (ph, _) = CONV_GEOMETRIES["ragged_last_tile"]
        outh, outw = (h + 2 * ph - kh) // sh + 1, wd
        assert outh % (tile // outw) and outh > tile // outw
        assert CONV_GEOMETRIES["row_wider_than_tile"][0][2] > tile

    def test_starts_from_zero_plus_bias(self, rng):
        # every product is -0.0: from 0 + (-0.0) = +0.0 each sum stays +0.0,
        # where starting from the bias or the first product would give -0.0
        x = np.full((1, 4, 4, 2), -0.0, np.float32)
        w = rng.uniform(0.5, 2.0, (3, 2, 3, 3)).astype(np.float32)
        bias = np.full(3, -0.0, np.float32)
        params = ConvParams(kernel=(3, 3), channels=2)
        out = conv2d_f32(nhwc(x), nchw(w), bias, params).nhwc_array()
        assert not np.signbit(out).any()
        check_conv_bytes(x, w, bias, (1, 1), (0, 0))

    @settings(max_examples=100, derandomize=True)
    @given(geometry=conv_geometries(), seed=st.integers(0, 2**32 - 1))
    def test_random_geometry_against_scalar_loop(self, geometry, seed):
        xs, ws, stride, pad = geometry
        rng = np.random.default_rng(seed)
        x, w, bias = conv_operands(rng, xs, ws)
        check_conv_bytes(x, w, bias if rng.random() < 0.5 else None, stride, pad)

    def test_layout_independent(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        a = conv2d_f32(nchw(x), nchw(w))
        b = conv2d_f32(convert_layout(nchw(x), Layout.NHWC), nchw(w))
        assert a == b

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv2d_f32(nchw(np.zeros((1, 2, 3, 3))), nchw(np.zeros((1, 3, 1, 1))))


class TestOracleBinaryConv:
    def test_all_positive(self):
        x = np.full((1, 8, 2, 2), 0.5, np.float32)
        w = np.full((1, 8, 1, 1), 2.0, np.float32)
        out = oracle_binary_conv(nchw(x), nchw(w))
        assert set(out.data.tolist()) == {8.0}

    def test_spatial_padding_reads_plus_one(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        params = ConvParams(kernel=(3, 3), channels=1, padding=(1, 1))
        out = oracle_binary_conv(nchw(x), nchw(w), params)
        assert set(out.data.tolist()) == {9.0}
        zero_pad = conv2d_f32(nchw(x), nchw(w), None, params)
        assert zero_pad.array4d()[0, 0, 0, 0] == 4.0

    def test_binarizes_by_sign_bit(self):
        x = np.array([[[[-0.0, 3.0]]]], np.float32)  # NHWC, c=2
        w = np.ones((1, 2, 1, 1), np.float32)
        out = oracle_binary_conv(nhwc(x), nchw(w))
        assert out.data.tolist() == [0.0]  # -1 + 1


class TestSign:
    def test_worked_examples(self):
        x = nhwc(np.array([[[[-0.5, 0.0, -0.0, 2.0]]]], np.float32))
        assert sign_op(x).data.tolist() == [-1.0, 1.0, -1.0, 1.0]

    def test_nan_sign(self):
        neg_nan = np.uint32(0xFFC00000).view(np.float32)
        x = nhwc(np.array([[[[neg_nan]]]], np.float32))
        assert sign_op(x).data.tolist() == [-1.0]

    POOL = np.concatenate([refeval.SPECIAL_F32, refeval.NAN_F32])

    def test_bytes_against_select_form(self, rng):
        got = sign_op(nhwc(self.POOL.reshape(1, 1, -1, 1))).data
        assert got.tobytes() == refeval.sign_values(self.POOL).tobytes()
        x = rng.choice(self.POOL, size=(2, 3, 5, 7))  # NCHW storage
        got = sign_op(nchw(x)).nhwc_array()
        assert got.tobytes() == refeval.sign_values(np.transpose(x, (0, 2, 3, 1))).tobytes()

    def test_oracle_operands_against_select_form(self):
        # through a 1x1 conv with one +1 operand, each output is the other's ±1
        one = np.ones((1, 1, 1, 1), np.float32)
        want = refeval.sign_values(self.POOL).tobytes()
        x = self.POOL.reshape(1, 1, -1, 1)
        assert oracle_binary_conv(nhwc(x), nchw(one)).data.tobytes() == want
        w = self.POOL.reshape(-1, 1, 1, 1)
        assert oracle_binary_conv(nhwc(one), nchw(w)).data.tobytes() == want

    def test_oracle_conv_against_select_form(self, rng):
        x = rng.choice(self.POOL, size=(1, 4, 5, 6))
        w = rng.choice(self.POOL, size=(3, 6, 3, 3))
        params = ConvParams((3, 3), 6, padding=(1, 1))
        got = oracle_binary_conv(nhwc(x), nchw(w), params).nhwc_array()
        signs_x, signs_w = refeval.sign_values(x), refeval.sign_values(w)
        want = refeval.naive_conv(signs_x, signs_w, None, (1, 1), (1, 1), 1.0)
        assert got.tobytes() == want.tobytes()


class TestBatchnorm:
    def test_identity(self, rng):
        x = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        out = batchnorm(nhwc(x), [1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1], 0.0)
        assert np.array_equal(out.nhwc_array(), x)

    def test_hand_arithmetic(self):
        out = batchnorm(nhwc(np.full((1, 1, 1, 1), 3.0)), [2.0], [1.0], [1.0], [4.0], 0.0)
        assert out.data.tolist() == [3.0]

    def test_negative_variance(self):
        with pytest.raises(ValueError, match="negative variance"):
            bn_scale([-1.0], 0.0)
        with pytest.raises(ValueError, match="negative variance"):
            batchnorm(nhwc(np.zeros((1, 1, 1, 1))), [1.0], [0.0], [0.0], [-4.0], 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="gamma"):
            batchnorm(nhwc(np.zeros((1, 1, 1, 2))), [1.0], [0, 0], [0, 0], [1, 1])


class TestPools:
    def test_maxpool_window(self):
        x = nhwc(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 2, 2, 1))
        assert maxpool(x, (2, 2)).data.tolist() == [4.0]

    def test_avgpool_window(self):
        x = nhwc(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 2, 2, 1))
        assert avgpool(x, (2, 2)).data.tolist() == [2.5]

    def test_maxpool_padding_never_wins(self):
        x = nhwc(np.full((1, 2, 2, 1), -5.0, np.float32))
        out = maxpool(x, (2, 2), (2, 2), (1, 1))
        assert out.data.tolist() == [-5.0, -5.0, -5.0, -5.0]

    def test_avgpool_divides_by_valid_count(self):
        x = nhwc(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 2, 2, 1))
        out = avgpool(x, (2, 2), (2, 2), (1, 1))
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_against_scalar_loop(self, kind, rng):
        x = rng.standard_normal((2, 5, 5, 3)).astype(np.float32)
        pool = maxpool if kind == "max" else avgpool
        out = pool(nhwc(x), (3, 3), (2, 2), (1, 1))
        want = refeval.naive_pool(x, (3, 3), (2, 2), (1, 1), kind)
        assert np.array_equal(out.nhwc_array(), want)


class TestWindowValidity:
    """A padding as large as the window gives windows over padding only."""

    X = nhwc(np.ones((1, 2, 2, 1), np.float32))
    W = FloatTensor.from_array(np.ones((1, 1, 1, 1), np.float32), Layout.NCHW)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, w: maxpool(x, (1, 1), (1, 1), (1, 1)),
            lambda x, w: avgpool(x, (2, 2), (1, 1), (0, 2)),
            lambda x, w: conv2d_f32(x, w, None, ConvParams((1, 1), 1, padding=(1, 0))),
            lambda x, w: oracle_binary_conv(x, w, ConvParams((1, 1), 1, padding=(0, 1))),
        ],
        ids=["maxpool", "avgpool", "conv2d_f32", "oracle_binary_conv"],
    )
    def test_padding_not_below_window_rejected(self, op):
        with pytest.raises(ValueError, match="must be smaller than kernel"):
            op(self.X, self.W)

    def test_largest_valid_padding_accepted(self):
        assert avgpool(self.X, (2, 2), (1, 1), (1, 1)).dims == (1, 1, 3, 3)

    W5 = FloatTensor.from_array(np.ones((1, 1, 5, 5), np.float32), Layout.NCHW)
    P5 = ConvParams((5, 5), 1, padding=(4, 4))

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, w, p: maxpool(x, (5, 5), (1, 1), (4, 4)),
            lambda x, w, p: avgpool(x, (5, 5), (1, 1), (4, 4)),
            lambda x, w, p: conv2d_f32(x, w, None, p),
            lambda x, w, p: oracle_binary_conv(x, w, p),
            lambda x, w, p: binary_direct_conv(
                pack_to_nc1hwc2(x, 8), BinMatrix(1, 25, 8, np.zeros((1, 25, 1), np.uint8)), p
            ),
        ],
        ids=["maxpool", "avgpool", "conv2d_f32", "oracle_binary_conv", "binary_direct_conv"],
    )
    def test_padding_beyond_input_rejected(self, op):
        # a 5x5 window with padding 4 on a 2x2 input would give a 6x6 output
        with pytest.raises(ValueError, match=r"padding \(4, 4\) exceeds input extents \(2, 2\)"):
            op(self.X, self.W5, self.P5)


class TestElementwise:
    def test_relu(self):
        x = nhwc(np.array([[[[-2.0, 0.0, 3.0, -0.0]]]], np.float32))
        assert relu(x).data.tolist() == [0.0, 0.0, 3.0, 0.0]

    def test_add(self, rng):
        a = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        b = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        assert np.array_equal(add(nhwc(a), nhwc(b)).nhwc_array(), a + b)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            add(nhwc(np.zeros((1, 1, 1, 1))), nhwc(np.zeros((1, 1, 1, 2))))


class TestGlobalAvgPool:
    def test_spatial_mean(self):
        x = nhwc(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 2, 2, 1))
        out = global_avgpool(x)
        assert out.dims == (1, 1, 1, 1)
        assert out.data.tolist() == [2.5]

    def test_per_channel(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = global_avgpool(nhwc(x))
        assert out.dims == (2, 5, 1, 1)


class TestFlattenAndDense:
    def test_flatten_channel_major(self, rng):
        a = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        out = flatten(nhwc(a))
        assert out.dims == (1, 12, 1, 1)
        want = np.transpose(a, (0, 3, 1, 2)).reshape(-1)
        assert np.array_equal(out.data, want)

    def test_flatten_trivial_spatial(self, rng):
        a = rng.standard_normal((2, 1, 1, 7)).astype(np.float32)
        out = flatten(nhwc(a))
        assert out.dims == (2, 7, 1, 1)
        assert np.array_equal(out.data.reshape(2, 7), a.reshape(2, 7))

    def test_fully_connected_exact(self):
        x = nhwc(np.array([1.0, 2.0], np.float32).reshape(1, 1, 1, 2))
        w = np.array([[1.0, 1.0], [1.0, -1.0]], np.float32)
        out = fully_connected(x, w, np.array([0.5, -0.5], np.float32))
        assert out.data.tolist() == [3.5, -1.5]
        assert out.dims == (1, 2, 1, 1)

    def test_fully_connected_against_scalar_loop(self, rng):
        x = rng.standard_normal((2, 1, 1, 6)).astype(np.float32)
        w = rng.standard_normal((3, 6)).astype(np.float32)
        bias = rng.standard_normal(3).astype(np.float32)
        out = fully_connected(nhwc(x), w, bias)
        for img in range(2):
            for f in range(3):
                acc = np.float32(0.0 + bias[f])
                for i in range(6):
                    acc = np.float32(acc + np.float32(x[img, 0, 0, i] * w[f, i]))
                assert out.array4d()[img, 0, 0, f] == acc

    # VGG-small's classifier is 8192 x 10; specials there would make every
    # sum inf or NaN, so that case checks the order on normal values
    @pytest.mark.parametrize(
        "n,features,outputs,share",
        [(2, 7, 3, 0.2), (2, 64, 5, 1 / 64), (1, 8192, 10, 0.0)],
    )
    def test_fully_connected_special_values(self, n, features, outputs, share, rng):
        x = refeval.special_mix(rng, (n, features), share)
        w = refeval.special_mix(rng, (outputs, features), share)
        bias = refeval.special_mix(rng, (outputs,), share)
        bias[0] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            out = fully_connected(nhwc(x.reshape(n, 1, 1, features)), w, bias)
            want = refeval.naive_fc(x, w, bias)
        assert out.array4d().reshape(n, outputs).tobytes() == want.tobytes()

    def test_fully_connected_blocks_of_outputs(self, rng, monkeypatch):
        # 2 images x (1 + 7) terms per output: blocks of 3, 3 and 1 outputs
        monkeypatch.setattr(floatops, "_DENSE_TERMS", 50)
        x = refeval.special_mix(rng, (2, 7), 0.2)
        w = refeval.special_mix(rng, (7, 7), 0.2)
        bias = refeval.special_mix(rng, (7,), 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = fully_connected(nhwc(x.reshape(2, 1, 1, 7)), w, bias)
            want = refeval.naive_fc(x, w, bias)
        assert out.array4d().reshape(2, 7).tobytes() == want.tobytes()

    def test_fully_connected_starts_from_zero_plus_bias(self):
        x = nhwc(np.full((2, 1, 1, 3), -0.0, np.float32))
        w = np.ones((2, 3), np.float32)
        out = fully_connected(x, w, np.full(2, -0.0, np.float32))
        assert not np.signbit(out.data).any()
        assert not np.signbit(fully_connected(x, w).data).any()

    def test_fully_connected_shape_error(self):
        with pytest.raises(ValueError):
            fully_connected(nhwc(np.zeros((1, 1, 1, 3))), np.zeros((2, 4), np.float32))
