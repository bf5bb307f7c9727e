"""Sign-bit packing: the sequential baseline ``pack_naive`` and the runtime
packer ``pack_to_nc1hwc2``, which agree byte for byte when one channel group
holds the whole slice."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnnkit.bitpack import pack_naive
from bnnkit.layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    pack_to_nc1hwc2,
    unpack_from_nc1hwc2,
)

NEG_NAN = np.uint32(0xFFC00000).view(np.float32)
POS_NAN = np.uint32(0x7FC00000).view(np.float32)

bit_patterns = st.lists(st.integers(0, 2**32 - 1), max_size=300)


def as_floats(patterns) -> np.ndarray:
    return np.asarray(patterns, dtype=np.uint32).view(np.float32)


def expected_bytes(values) -> bytes:
    """Sign-bit packing recomputed through an unrelated byte-level path."""
    arr = np.ascontiguousarray(values, dtype=np.float32).reshape(-1)
    bits = (arr.view(np.uint32) >> np.uint32(31)).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def runtime_pack(values, c2=None) -> PackedTensor:
    """A slice packed as the channels of one position, one group by default."""
    values = np.asarray(values, dtype=np.float32).reshape(-1)
    c = values.size
    t = FloatTensor((1, c, 1, 1), Layout.NCHW, values)
    return pack_to_nc1hwc2(t, c2 or max(8, -(-c // 8) * 8))


def sign_bit(x) -> int:
    return int(runtime_pack([x]).data.reshape(-1)[0]) & 1


class TestBinarizeBit:
    def test_negative(self):
        assert sign_bit(-1.5) == 1

    def test_signed_zeros(self):
        assert sign_bit(0.0) == 0
        assert sign_bit(-0.0) == 1

    def test_positive(self):
        assert sign_bit(3.0) == 0

    def test_nan_follows_sign_bit(self):
        assert sign_bit(NEG_NAN) == 1
        assert sign_bit(POS_NAN) == 0


class TestPackNaive:
    def test_low_byte_pattern(self):
        p = pack_naive([-1.5, 0.25, -0.0, 3.0, -2.0, 0.0, -7.0, 1.0])
        assert p.tolist() == [0x55]

    def test_empty(self):
        p = pack_naive([])
        assert p.shape == (0,)
        assert p.dtype == np.uint8

    def test_all_negative_word(self):
        p = pack_naive([-1.0] * 64)
        assert p.tolist() == [0xFF] * 8

    def test_signed_nan_sets_bit(self):
        p = pack_naive([NEG_NAN, POS_NAN])
        assert p.tolist() == [0b01]

    def test_matches_byte_oracle(self, rng):
        for n in (0, 1, 7, 8, 63, 64, 65, 200):
            values = rng.standard_normal(n).astype(np.float32)
            assert pack_naive(values).tobytes() == expected_bytes(values)


class TestPackSignbits:
    """Sign bits packed by the runtime packer."""

    def test_matches_naive_on_128_random(self, rng):
        values = rng.standard_normal(128).astype(np.float32)
        assert runtime_pack(values).data.tobytes() == pack_naive(values).tobytes()

    def test_special_values(self):
        values = np.array(
            [
                -0.0, 0.0, np.inf, -np.inf, POS_NAN, NEG_NAN,
                np.float32(1e-45), np.float32(-1e-45),
                np.finfo(np.float32).max, np.finfo(np.float32).min,
            ],
            dtype=np.float32,
        )
        got = runtime_pack(values).data.tobytes()
        assert got == pack_naive(values).tobytes()
        assert got == expected_bytes(values)
        assert got == bytes([0b10101001, 0b10])

    @given(bit_patterns)
    def test_matches_naive_everywhere(self, patterns):
        values = as_floats(patterns)
        got = runtime_pack(values).data.tobytes()
        assert got == pack_naive(values).tobytes()
        assert got == expected_bytes(values)

    @given(st.integers(0, 200))
    def test_trailing_word_bits_are_zero(self, n):
        p = runtime_pack(np.full(n, -1.0, np.float32), c2=64)
        bits = np.unpackbits(p.data.reshape(-1), bitorder="little")
        assert bits.size == -(-n // 64) * 64
        assert bits[:n].all()
        assert not bits[n:].any()


class TestUnpack:
    def test_two_bits(self):
        p = PackedTensor((1, 2, 1, 1), 8, np.array([0x01], np.uint8).reshape(1, 1, 1, 1, 1))
        assert unpack_from_nc1hwc2(p).data.tolist() == [-1.0, 1.0]

    def test_empty(self):
        p = PackedTensor((1, 0, 1, 1), 8, np.zeros((1, 0, 1, 1, 1), np.uint8))
        assert unpack_from_nc1hwc2(p).data.tolist() == []

    @given(bit_patterns)
    def test_round_trip(self, patterns):
        values = as_floats(patterns)
        signs = (values.view(np.uint32) >> np.uint32(31)).astype(np.float32)
        expected = (1 - 2 * signs).tolist()
        assert unpack_from_nc1hwc2(runtime_pack(values)).data.tolist() == expected


class TestPackedBits:
    """The packed container: byte count, extents, equality and bit order."""

    def test_word_count_must_match(self):
        with pytest.raises(ValueError):
            PackedTensor((1, 64, 1, 1), 8, np.zeros((1, 9, 1, 1, 1), np.uint8))
        with pytest.raises(ValueError):
            PackedTensor((1, 1, 1, 1), 8, np.zeros((1, 0, 1, 1, 1), np.uint8))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PackedTensor((1, -1, 1, 1), 8, np.zeros((1, 0, 1, 1, 1), np.uint8))

    def test_equality_includes_length(self):
        data = np.zeros((1, 1, 1, 1, 1), np.uint8)
        a = PackedTensor((1, 3, 1, 1), 8, data)
        b = PackedTensor((1, 4, 1, 1), 8, data)
        assert a != b
        assert a == PackedTensor((1, 3, 1, 1), 8, data)

    def test_to_bytes_little_endian(self):
        word = 0x0102030405060708
        values = [-1.0 if (word >> i) & 1 else 1.0 for i in range(64)]
        assert runtime_pack(values).data.tobytes() == bytes([8, 7, 6, 5, 4, 3, 2, 1])
