import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refeval
from bnnkit.layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    check_group_bits,
    group_count,
    pack_to_nc1hwc2,
)
from refeval import index_nc1hwc2, unpack_from_nc1hwc2


class TestGroupBits:
    def test_presets_accepted(self):
        for c2 in (8, 16, 32, 64, 128):
            assert check_group_bits(c2) == c2

    @pytest.mark.parametrize("bad", [0, 4, 12, -8, 7])
    def test_invalid_width(self, bad):
        with pytest.raises(ValueError, match="invalid group width"):
            check_group_bits(bad)

    def test_group_count(self):
        assert group_count(128, 128) == 1
        assert group_count(130, 128) == 2
        assert group_count(1, 8) == 1
        assert group_count(16, 8) == 2


class TestIndex:
    def test_worked_example(self):
        assert index_nc1hwc2((1, 256, 2, 2), 128, 0, 200, 1, 0) == (6, 72)

    def test_origin(self):
        assert index_nc1hwc2((1, 256, 2, 2), 128, 0, 0, 0, 0) == (0, 0)

    def test_last_partial_group(self):
        assert index_nc1hwc2((1, 130, 1, 1), 128, 0, 129, 0, 0) == (1, 1)

    @pytest.mark.parametrize(
        "n,c,h,w", [(1, 0, 0, 0), (0, 256, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (-1, 0, 0, 0)]
    )
    def test_out_of_bounds(self, n, c, h, w):
        with pytest.raises(IndexError, match="index out of bounds"):
            index_nc1hwc2((1, 256, 2, 2), 128, n, c, h, w)

    @pytest.mark.parametrize("c2", [8, 32, 128])
    @pytest.mark.parametrize(
        "dims", [(1, 10, 3, 2), (2, 130, 2, 3), (1, 8, 1, 5), (2, 1, 3, 4)]
    )
    def test_agrees_with_enumeration(self, dims, c2, rng):
        pool = np.concatenate([refeval.SPECIAL_F32, refeval.NAN_F32, np.float32([-1, 1])])
        values = rng.choice(pool, size=dims)
        t = FloatTensor.from_array(values, Layout.NCHW)
        p = pack_to_nc1hwc2(t, c2)
        n, c, h, w = dims
        for ni in range(n):
            for ci in range(c):
                for hi in range(h):
                    for wi in range(w):
                        group, bit = index_nc1hwc2(dims, c2, ni, ci, hi, wi)
                        want = refeval.signbit32(values[ni, ci, hi, wi])
                        assert refeval.packed_bit(p, group, bit) == want


class TestConvertLayout:
    """An NCHW array is transposed into NHWC storage once, when it is wrapped."""

    def test_nchw_to_nhwc_permutation(self):
        a = np.array([1, 2, 3, 4], np.float32).reshape(1, 2, 1, 2)
        t = FloatTensor.from_array(a, Layout.NCHW)
        assert t.dims == (1, 2, 1, 2)
        assert t.data.tolist() == [1, 3, 2, 4]

    def test_single_element_unchanged(self):
        t = FloatTensor.from_array(np.full((1, 1, 1, 1), 7.0, np.float32), Layout.NCHW)
        assert t.dims == (1, 1, 1, 1)
        assert t.data.tolist() == [7.0]

    def test_values_preserved_per_position(self, rng):
        a = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        out = FloatTensor.from_array(a, Layout.NCHW).nhwc_array()
        for n in range(2):
            for c in range(3):
                for h in range(2):
                    for w in range(2):
                        assert out[n, h, w, c] == a[n, c, h, w]


class TestPack:
    def test_alternating_byte(self):
        t = FloatTensor((1, 8, 1, 1), np.array([-1, 1, -1, 1, -1, 1, -1, 1], np.float32))
        p = pack_to_nc1hwc2(t, 8)
        assert p.data.reshape(-1).tolist() == [0x55]

    def test_all_positive_is_all_zero(self, rng):
        t = FloatTensor.from_array(
            rng.uniform(0.5, 2.0, (1, 5, 3, 3)).astype(np.float32), Layout.NCHW
        )
        assert not pack_to_nc1hwc2(t, 16).data.any()

    def test_channel_pad_bits_are_zero(self, rng):
        t = FloatTensor.from_array(
            np.full((1, 130, 2, 2), -1.0, np.float32), Layout.NCHW
        )
        p = pack_to_nc1hwc2(t, 128)
        assert p.c1 == 2
        for h in range(2):
            for w in range(2):
                group = int.from_bytes(p.data[0, 1, h, w].tobytes(), "little")
                assert group >> 2 == 0  # bits 2..127 are channel padding
                assert group & 0b11 == 0b11

    @pytest.mark.parametrize("dims", [(0, 3, 2, 2), (1, 0, 2, 2), (2, 9, 0, 3), (1, 9, 3, 0)])
    @pytest.mark.parametrize("layout", [Layout.NCHW, Layout.NHWC])
    def test_empty_tensors(self, dims, layout):
        n, c, h, w = dims
        shape = dims if layout is Layout.NCHW else (n, h, w, c)
        t = FloatTensor.from_array(np.zeros(shape, np.float32), layout)
        assert t.dims == dims
        p = pack_to_nc1hwc2(t, 8)
        assert p.data.shape == (n, group_count(c, 8), h, w, 1)

    def test_nhwc_and_nchw_pack_identically(self, rng):
        """An NCHW array is stored as its NHWC transpose: same dims, same
        bytes, same packed bytes, also when an extent is 0."""
        for shape in [(2, 6, 4, 5), (1, 130, 3, 2), (0, 3, 2, 2), (1, 0, 2, 2), (1, 9, 0, 3)]:
            a = rng.standard_normal(shape).astype(np.float32)
            nchw = FloatTensor.from_array(a, Layout.NCHW)
            nhwc = FloatTensor.from_array(a.transpose(0, 2, 3, 1))
            assert nchw.dims == nhwc.dims == shape
            assert nchw.data.tobytes() == nhwc.data.tobytes()
            for c2 in (8, 128):
                assert pack_to_nc1hwc2(nchw, c2) == pack_to_nc1hwc2(nhwc, c2)


class TestUnpack:
    def test_alternating_byte(self):
        p = PackedTensor((1, 8, 1, 1), 8, np.full((1, 1, 1, 1, 1), 0x55, np.uint8))
        t = unpack_from_nc1hwc2(p)
        assert t.nhwc_array().reshape(-1).tolist() == [-1, 1, -1, 1, -1, 1, -1, 1]

    @pytest.mark.parametrize("c2", [8, 16, 32, 64, 128])
    def test_round_trip_identity(self, c2, rng):
        values = rng.choice(np.array([-1.0, 1.0], np.float32), size=(2, 19, 3, 4))
        t = FloatTensor.from_array(values, Layout.NHWC)
        back = unpack_from_nc1hwc2(pack_to_nc1hwc2(t, c2))
        assert back == t

    @settings(max_examples=25)
    @given(
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from([8, 16, 32]),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, n, c, h, w, c2, seed):
        values = np.random.default_rng(seed).choice(
            np.array([-1.0, 1.0], np.float32), size=(n, h, w, c)
        )
        t = FloatTensor.from_array(values, Layout.NHWC)
        assert unpack_from_nc1hwc2(pack_to_nc1hwc2(t, c2)) == t


class TestTensorTypes:
    def test_float_tensor_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            FloatTensor((1, 2, 3), np.zeros(6, np.float32))

    def test_from_array_rejects_3d(self):
        with pytest.raises(ValueError, match="expected a 4-D array"):
            FloatTensor.from_array(np.zeros((2, 3, 4), np.float32))

    def test_float_tensor_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FloatTensor((1, 2, 3, 4), np.zeros(5, np.float32))

    def test_nhwc_array_transposes_nchw(self, rng):
        a = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)
        t = FloatTensor.from_array(a, Layout.NCHW)
        assert np.array_equal(t.nhwc_array(), np.transpose(a, (0, 2, 3, 1)))

    def test_packed_tensor_shape_checked(self):
        with pytest.raises(ValueError):
            PackedTensor((1, 8, 1, 1), 8, np.zeros((1, 2, 1, 1, 1), np.uint8))

    def test_data_is_read_only(self):
        t = FloatTensor((1, 1, 1, 1), np.array([1.0], np.float32))
        with pytest.raises(ValueError):
            t.data[0] = 2.0
