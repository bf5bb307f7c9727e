import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refeval
from bnnkit.floatops import oracle_binary_conv
from bnnkit.kernels import (
    MAX_GROUPS_PER_DOT,
    BinMatrix,
    ConvParams,
    bgemm,
    bgemm_no_addv,
    binary_direct_conv,
    binary_direct_conv_counts,
    im2col_packed,
    match_to_dot,
)
from bnnkit.layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    check_pad_bits,
    pack_to_nc1hwc2,
)
from bnnkit.runtime import PackedWeight


def bytes_matrix(rng, rows, cols, vec_bits):
    data = rng.integers(0, 256, size=(rows, cols, vec_bits // 8), dtype=np.uint8)
    return BinMatrix(rows, cols, vec_bits, data)


def match_count(a, b, c2=None) -> int:
    """Matches between two packed vectors, as the direct conv computes them.

    The vectors are one input position and one 1x1 filter of len(a) * 8
    channels, split into groups of c2 bits (default: a single group).
    """
    a = np.asarray(a, np.uint8)
    c = a.size * 8
    c2 = c2 or c
    x = PackedTensor((1, c, 1, 1), c2, a.reshape(1, c // c2, 1, 1, c2 // 8))
    w = BinMatrix(1, c // c2, c2, np.asarray(b, np.uint8).reshape(1, -1, c2 // 8))
    counts = binary_direct_conv_counts(x, w, ConvParams(kernel=(1, 1), channels=c))
    return int(counts[0, 0, 0])


class TestBitVec:
    """Channel pad bits of packed vectors must stay 0."""

    def test_value_must_fit(self):
        groups = np.array([[0b0111]], np.uint8)  # one 8-bit group, 3 channels
        check_pad_bits(groups, 3)
        with pytest.raises(ValueError, match="pad bits"):
            check_pad_bits(groups | 0b1000, 3)

    def test_pad_bits_must_be_zero(self):
        data = np.zeros((1, 2, 1), np.uint8)  # 1x2 kernel, 3 channels, c2 = 8
        PackedWeight((1, 3, 1, 2), 8, BinMatrix(1, 2, 8, data.copy()))
        data[0, 1, 0] = 0x80
        with pytest.raises(ValueError, match="pad bits"):
            PackedWeight((1, 3, 1, 2), 8, BinMatrix(1, 2, 8, data))


class TestXnor:
    """The kernel's xnor step: a match count agrees bit by bit."""

    def test_worked_example(self):
        assert match_count([0b11001100], [0b10101010]) == 4

    def test_self_is_all_ones(self):
        assert match_count([0b01100110] * 2, [0b01100110] * 2) == 16

    def test_complement_is_all_zeros(self):
        assert match_count([0b01100110], [0b10011001]) == 0

    def test_width_mismatch(self):
        # a 16-bit input group against 8-bit filter vectors
        x = PackedTensor((1, 16, 1, 1), 16, np.zeros((1, 1, 1, 1, 2), np.uint8))
        w = BinMatrix(1, 2, 8, np.zeros((1, 2, 1), np.uint8))
        with pytest.raises(ValueError, match="group width mismatch"):
            binary_direct_conv_counts(x, w, ConvParams(kernel=(1, 1), channels=16))

    @given(st.integers(1, 5), st.integers(0, 2**40 - 1), st.integers(0, 2**40 - 1))
    def test_truth_table(self, nbytes, x, y):
        width = nbytes * 8
        x &= (1 << width) - 1
        y &= (1 << width) - 1
        a = np.frombuffer(x.to_bytes(nbytes, "little"), np.uint8)
        b = np.frombuffer(y.to_bytes(nbytes, "little"), np.uint8)
        expect = sum(((x >> i) & 1) == ((y >> i) & 1) for i in range(width))
        assert match_count(a, b) == expect


class TestCnt:
    """Per-byte counting: against an all-ones filter, matches are set bits."""

    def test_worked_example(self):
        assert match_count([0xFF, 0x00, 0x0F], [0xFF] * 3) == 12

    def test_all_zero(self):
        assert match_count(np.zeros(5, np.uint8), [0xFF] * 5) == 0

    def test_random_against_bit_loop(self, rng):
        raw = rng.integers(0, 256, 16, dtype=np.uint8)
        expect = sum((byte >> j) & 1 for byte in raw.tolist() for j in range(8))
        assert match_count(raw, [0xFF] * 16) == expect


class TestAddv:
    """The deferred reduction sums the byte counts of every group."""

    def test_worked_examples(self):
        assert match_count([0xFF, 0x00, 0x0F, 0x01], [0xFF] * 4, c2=8) == 13
        assert match_count(np.zeros(16, np.uint8), np.zeros(16, np.uint8), c2=8) == 128

    def test_random_against_scalar_loop(self, rng):
        a = rng.integers(0, 256, 33, dtype=np.uint8)
        b = rng.integers(0, 256, 33, dtype=np.uint8)
        expect = sum(refeval.popcount(~(x ^ y) & 0xFF) for x, y in zip(a.tolist(), b.tolist()))
        assert match_count(a, b, c2=8) == expect

    def test_popcount_identity(self, rng):
        for _ in range(50):
            nbytes = int(rng.integers(1, 65))
            a = rng.integers(0, 256, nbytes, dtype=np.uint8)
            b = rng.integers(0, 256, nbytes, dtype=np.uint8)
            x = int.from_bytes(a.tobytes(), "little")
            y = int.from_bytes(b.tobytes(), "little")
            mask = (1 << (nbytes * 8)) - 1
            assert match_count(a, b) == refeval.popcount(~(x ^ y) & mask)


class TestBgemm:
    def test_identical_vectors(self):
        a = refeval.bin_matrix([[0xF0]], 8)
        assert bgemm(a, a).tolist() == [[8]]

    def test_two_term_accumulation(self):
        a = refeval.bin_matrix([[0xF0, 0xAA]], 8)
        b = refeval.bin_matrix([[0xF0], [0x55]], 8)
        assert bgemm(a, b).tolist() == [[8]]

    def test_dimension_mismatch(self):
        a = refeval.bin_matrix([[1, 2]], 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bgemm(a, a)

    def test_vec_bits_mismatch(self):
        a = refeval.bin_matrix([[1]], 8)
        b = refeval.bin_matrix([[1]], 16)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bgemm(a, b)

    @settings(max_examples=30)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from([8, 16]),
        st.integers(0, 2**32 - 1),
    )
    def test_against_brute_force(self, m, k, n, vec_bits, seed):
        rng = np.random.default_rng(seed)
        a = bytes_matrix(rng, m, k, vec_bits)
        b = bytes_matrix(rng, k, n, vec_bits)
        assert np.array_equal(bgemm(a, b).astype(np.int64), refeval.bgemm_oracle(a, b))

    def test_dtype_and_shape(self, rng):
        a = bytes_matrix(rng, 2, 3, 8)
        b = bytes_matrix(rng, 3, 5, 8)
        out = bgemm(a, b)
        assert out.shape == (2, 5)
        assert out.dtype == np.int32


class TestBgemmNoAddv:
    def test_shape_contract(self, rng):
        a = bytes_matrix(rng, 2, 3, 8)
        b = bytes_matrix(rng, 3, 4, 8)
        out = bgemm_no_addv(a, b)
        assert out.shape == (2, 4)
        assert out.dtype == np.int32

    def test_dimension_mismatch(self):
        a = refeval.bin_matrix([[1, 2]], 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bgemm_no_addv(a, a)

    def test_single_byte_vectors_match_bgemm(self, rng):
        # With one byte per vector the dropped reduction is the whole sum.
        a = bytes_matrix(rng, 3, 2, 8)
        b = bytes_matrix(rng, 2, 3, 8)
        assert np.array_equal(bgemm_no_addv(a, b), bgemm(a, b))


def packed_from_values(values, c2):
    return pack_to_nc1hwc2(FloatTensor.from_array(values, Layout.NHWC), c2)


class TestIm2col:
    def test_one_by_one_is_identity(self, rng):
        values = rng.choice(np.array([-1.0, 1.0], np.float32), size=(1, 4, 5, 16))
        p = packed_from_values(values, 8)
        mat = im2col_packed(p, ConvParams(kernel=(1, 1), channels=16))
        assert mat.rows == p.c1
        assert mat.cols == 20
        assert mat.data.tobytes() == p.data[0].reshape(p.c1, 20, 1).tobytes()

    def test_three_by_three_single_column(self, rng):
        values = rng.choice(np.array([-1.0, 1.0], np.float32), size=(1, 3, 3, 8))
        p = packed_from_values(values, 8)
        mat = im2col_packed(p, ConvParams(kernel=(3, 3), channels=8))
        assert (mat.rows, mat.cols) == (9, 1)
        for ky in range(3):
            for kx in range(3):
                t = ky * 3 + kx
                assert mat.data[t, 0].tobytes() == p.data[0, 0, ky, kx].tobytes()

    def test_padded_corner_has_five_pad_vectors(self):
        values = np.full((1, 4, 4, 8), -1.0, np.float32)
        p = packed_from_values(values, 8)
        mat = im2col_packed(p, ConvParams(kernel=(3, 3), channels=8, padding=(1, 1)))
        column = [int(mat.data[t, 0, 0]) for t in range(9)]
        assert column.count(0x00) == 5
        assert column.count(0xFF) == 4

    def test_kernel_larger_than_padded_input(self, rng):
        values = rng.standard_normal((1, 2, 2, 8)).astype(np.float32)
        p = packed_from_values(values, 8)
        with pytest.raises(ValueError, match="kernel larger than padded input"):
            im2col_packed(p, ConvParams(kernel=(3, 3), channels=8))

    def test_single_image_only(self, rng):
        values = rng.standard_normal((2, 3, 3, 8)).astype(np.float32)
        p = packed_from_values(values, 8)
        with pytest.raises(ValueError, match="single-image"):
            im2col_packed(p, ConvParams(kernel=(1, 1), channels=8))


class TestMatchToDot:
    def test_no_padding_formula(self):
        p = ConvParams(kernel=(1, 1), channels=8)
        assert match_to_dot(5, p, 8) == 2

    def test_channel_pad_correction(self):
        p = ConvParams(kernel=(1, 1), channels=6)
        assert match_to_dot(8, p, 8) == 6

    def test_maximum_is_valid_bit_count(self):
        p = ConvParams(kernel=(3, 3), channels=20)
        k_valid = 9 * 20
        pad_positions = 9 * (32 - 20)
        assert match_to_dot(k_valid + pad_positions, p, 32) == k_valid

    def test_vectorized(self):
        p = ConvParams(kernel=(1, 1), channels=8)
        got = match_to_dot(np.array([[5, 8]], np.int32), p, 8)
        assert got.tolist() == [[2, 8]]


class TestDirectConv:
    def test_all_plus_one(self):
        x = np.full((1, 1, 1, 8), 1.0, np.float32)
        p = packed_from_values(x, 8)
        w = refeval.bin_matrix([[0x00]], 8)
        out = binary_direct_conv(p, w, ConvParams(kernel=(1, 1), channels=8))
        assert out.nhwc_array().reshape(-1).tolist() == [8.0]

    def test_opposite_signs(self):
        x = np.full((1, 1, 1, 8), 1.0, np.float32)
        p = packed_from_values(x, 8)
        w = refeval.bin_matrix([[0xFF]], 8)
        out = binary_direct_conv(p, w, ConvParams(kernel=(1, 1), channels=8))
        assert out.nhwc_array().reshape(-1).tolist() == [-8.0]

    def test_partial_group_all_positive(self):
        x = np.full((1, 1, 1, 6), 1.0, np.float32)
        p = packed_from_values(x, 8)
        counts = binary_direct_conv_counts(
            p, refeval.bin_matrix([[0x00]], 8), ConvParams(kernel=(1, 1), channels=6)
        )
        assert counts.reshape(-1).tolist() == [8]  # two pad bits count as matches
        out = binary_direct_conv(
            p, refeval.bin_matrix([[0x00]], 8), ConvParams(kernel=(1, 1), channels=6)
        )
        assert out.nhwc_array().reshape(-1).tolist() == [6.0]

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("c,c2", [(8, 8), (16, 16), (130, 128)])
    def test_matches_float_oracle(self, c, c2, pad, rng):
        x = rng.standard_normal((1, 5, 5, c)).astype(np.float32)
        wv = rng.choice(np.array([-1.0, 1.0], np.float32), size=(3, c, 3, 3))
        params = ConvParams(kernel=(3, 3), channels=c, padding=(pad, pad))
        got = binary_direct_conv(packed_from_values(x, c2), _weight_matrix(wv, c2), params)
        want = oracle_binary_conv(
            FloatTensor.from_array(x, Layout.NHWC),
            FloatTensor.from_array(wv, Layout.NCHW),
            params,
        )
        assert got == want

    @pytest.mark.parametrize("c,c2", [(8, 8), (64, 128)])
    def test_batched_input(self, c, c2, rng):
        x = rng.standard_normal((3, 4, 4, c)).astype(np.float32)
        wv = rng.choice(np.array([-1.0, 1.0], np.float32), size=(2, c, 3, 3))
        params = ConvParams(kernel=(3, 3), channels=c, padding=(1, 1))
        got = binary_direct_conv(packed_from_values(x, c2), _weight_matrix(wv, c2), params)
        want = oracle_binary_conv(
            FloatTensor.from_array(x, Layout.NHWC),
            FloatTensor.from_array(wv, Layout.NCHW),
            params,
        )
        assert got == want

    def test_zero_dot_is_positive_zero(self):
        x = np.full((1, 1, 1, 2), 1.0, np.float32)
        w = refeval.bin_matrix([[0b01]], 8)  # channel 0 is -1: dot = -1 + 1
        out = binary_direct_conv(packed_from_values(x, 8), w, ConvParams((1, 1), 2))
        assert out.data.tobytes() == np.float32(0.0).tobytes()

    def test_equals_bgemm_baseline_bytes(self):
        """The direct conv's float32 NHWC output equals the im2col + bgemm
        baseline's dots, pad correction included, byte for byte."""
        gen = np.random.default_rng(2024)
        zero_dots = 0
        for x, wv, params, c2 in refeval.conv_cases(gen, 28):  # every preset 4 times
            packed = pack_to_nc1hwc2(x, c2)
            w = _weight_matrix(wv, c2)
            got = binary_direct_conv(packed, w, params).nhwc_array()
            dots = match_to_dot(bgemm(w, im2col_packed(packed, params)), params, c2)
            want = dots.T.astype(np.float32).reshape(got.shape)
            assert got.tobytes() == want.tobytes()
            zero_dots += int(np.count_nonzero(dots == 0))
        assert zero_dots > 0  # so a -0.0 for a zero dot would have shown

    @pytest.mark.parametrize("n", [0, 2])
    def test_counts_shape_and_dtype(self, n, rng):
        x = rng.standard_normal((n, 5, 4, 20)).astype(np.float32)
        w = _weight_matrix(rng.choice(np.float32([-1, 1]), size=(3, 20, 3, 3)), 16)
        params = ConvParams((3, 3), 20, stride=(2, 1), padding=(1, 0))  # 3x2 outputs
        counts = binary_direct_conv_counts(packed_from_values(x, 16), w, params)
        assert counts.shape == (n, 3, 6)
        assert counts.dtype == np.int32
        for img in range(n):
            one = packed_from_values(x[img : img + 1], 16)
            assert np.array_equal(counts[img], bgemm(w, im2col_packed(one, params)))

    def test_group_width_mismatch(self, rng):
        x = rng.standard_normal((1, 2, 2, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="group width mismatch"):
            binary_direct_conv(
                packed_from_values(x, 8),
                refeval.bin_matrix([[0]], 16),
                ConvParams(kernel=(1, 1), channels=8),
            )

    def test_reduction_capacity_boundary(self):
        c = MAX_GROUPS_PER_DOT * 8  # exactly fills the 16-bit lanes
        x = np.full((1, 1, 1, c), 1.0, np.float32)
        p = packed_from_values(x, 8)
        w = BinMatrix(1, MAX_GROUPS_PER_DOT, 8, np.zeros((1, MAX_GROUPS_PER_DOT, 1), np.uint8))
        out = binary_direct_conv(p, w, ConvParams(kernel=(1, 1), channels=c))
        assert out.nhwc_array().reshape(-1).tolist() == [float(c)]

    def test_reduction_overflow(self):
        c = (MAX_GROUPS_PER_DOT + 1) * 8
        x = np.full((1, 1, 1, c), 1.0, np.float32)
        p = packed_from_values(x, 8)
        groups = MAX_GROUPS_PER_DOT + 1
        w = BinMatrix(1, groups, 8, np.zeros((1, groups, 1), np.uint8))
        with pytest.raises(OverflowError, match="reduction overflow"):
            binary_direct_conv(p, w, ConvParams(kernel=(1, 1), channels=c))

    def test_channel_mismatch(self, rng):
        x = rng.standard_normal((1, 2, 2, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            binary_direct_conv(
                packed_from_values(x, 8),
                refeval.bin_matrix([[0]], 8),
                ConvParams(kernel=(1, 1), channels=16),
            )


def _weight_matrix(wv, c2):
    from bnnkit.convert import pack_conv_weight

    return pack_conv_weight(wv, c2).matrix


class TestConvParams:
    def test_out_extent(self):
        p = ConvParams(kernel=(3, 3), channels=8, stride=(2, 2), padding=(1, 1))
        assert p.out_extent(7, 7) == (4, 4)
        assert p.out_extent(224, 224) == (112, 112)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel": (0, 1), "channels": 8},
            {"kernel": (1, 1), "channels": 0},
            {"kernel": (1, 1), "channels": 8, "stride": (0, 1)},
            {"kernel": (1, 1), "channels": 8, "padding": (-1, 0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConvParams(**kwargs)


class TestBinMatrix:
    def test_from_ints_little_endian(self):
        m = refeval.bin_matrix([[0x0102]], 16)
        assert m.data.reshape(-1).tolist() == [0x02, 0x01]

    @pytest.mark.parametrize("vec_bits", [0, 4, 12])
    def test_vec_bits_validation(self, vec_bits):
        with pytest.raises(ValueError):
            BinMatrix(1, 1, vec_bits, np.zeros((1, 1, max(vec_bits // 8, 1)), np.uint8))
