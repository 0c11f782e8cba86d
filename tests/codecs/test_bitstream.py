"""Unit tests for the vectorised bitstream layer."""

import numpy as np
import pytest

from repro.codecs.bitstream import BitReader, BitWriter, bit_windows, pack_bits, unpack_bits


class TestPackBits:
    def test_empty(self):
        assert pack_bits(np.zeros(0, np.uint64), np.zeros(0, np.int64)) == b""

    def test_single_byte_msb_first(self):
        # code 0b101 of length 3 -> bits 101 then padding -> 0xA0.
        out = pack_bits(np.array([0b101], np.uint64), np.array([3]))
        assert out == bytes([0b10100000])

    def test_two_codes_concatenate(self):
        out = pack_bits(np.array([0b1, 0b01], np.uint64), np.array([1, 2]))
        assert out == bytes([0b10100000])

    def test_zero_length_codes_skipped(self):
        out = pack_bits(np.array([99, 0b11], np.uint64), np.array([0, 2]))
        assert out == bytes([0b11000000])

    def test_total_length_rounds_up_to_bytes(self):
        out = pack_bits(np.array([0b111111111], np.uint64), np.array([9]))
        assert len(out) == 2

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(3, np.uint64), np.zeros(2, np.int64))

    def test_rejects_over_wide_codes(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1], np.uint64), np.array([60]))

    def test_masks_high_bits(self):
        # Only the low `length` bits of the code are emitted.
        out = pack_bits(np.array([0b1111], np.uint64), np.array([2]))
        assert out == bytes([0b11000000])

    def test_roundtrip_random(self):
        r = np.random.default_rng(0)
        lengths = r.integers(1, 57, 500)
        codes = np.array(
            [int(r.integers(0, 1 << int(l))) for l in lengths], dtype=np.uint64
        )
        packed = pack_bits(codes, lengths)
        bits = unpack_bits(packed, int(lengths.sum()))
        # Re-read each code with a cursor.
        reader = BitReader(packed)
        for code, length in zip(codes, lengths):
            assert reader.read(int(length)) == int(code)
        assert bits.size == int(lengths.sum())


class TestUnpackBits:
    def test_roundtrip_bytes(self):
        data = bytes(range(16))
        bits = unpack_bits(data)
        assert bits.size == 128
        assert np.packbits(bits).tobytes() == data

    def test_truncation(self):
        bits = unpack_bits(b"\xff", nbits=3)
        assert bits.tolist() == [1, 1, 1]

    def test_over_request_raises(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\xff", nbits=9)


class TestBitWindows:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 25])
    def test_equals_a_cursor_read_at_every_offset(self, width):
        data = np.random.default_rng(width).integers(0, 256, 11, dtype=np.uint8).tobytes()
        reader = BitReader(data + bytes(4))  # reads past the end see zero bits
        windows = bit_windows(data, width)
        assert windows.shape == (88,)
        for offset, window in enumerate(windows.tolist()):
            reader.seek(offset)
            assert window == reader.read(width)

    def test_empty(self):
        assert bit_windows(b"", 16).size == 0

    @pytest.mark.parametrize("width", [0, 26])
    def test_rejects_width_outside_limits(self, width):
        with pytest.raises(ValueError):
            bit_windows(b"\x00", width)


class TestBitWriter:
    def test_len_tracks_bits(self):
        w = BitWriter()
        w.write(3, 2)
        w.write(1, 5)
        assert len(w) == 7

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert len(w) == 0
        assert w.getvalue() == b""

    def test_rejects_negative(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 4)

    def test_write_array(self):
        w = BitWriter()
        w.write_array(np.arange(10), 8)
        r = BitReader(w.getvalue())
        assert r.read_array(10, 8).tolist() == list(range(10))

    def test_write_codes_matches_pack_bits(self):
        codes = np.array([5, 2, 7], np.uint64)
        lengths = np.array([4, 2, 3], np.int64)
        w = BitWriter()
        w.write_codes(codes, lengths)
        assert w.getvalue() == pack_bits(codes, lengths)


class TestBitReader:
    def test_sequential_reads(self):
        w = BitWriter()
        w.write(0b1011, 4)
        w.write(0b01, 2)
        r = BitReader(w.getvalue())
        assert r.read(4) == 0b1011
        assert r.read(2) == 0b01

    def test_read_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(EOFError):
            r.read(9)

    def test_read_array_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(EOFError):
            r.read_array(3, 4)

    def test_seek(self):
        r = BitReader(b"\xf0")
        r.seek(4)
        assert r.read(4) == 0
        with pytest.raises(ValueError):
            r.seek(99)

    def test_remaining(self):
        r = BitReader(b"\xff\xff")
        r.read(5)
        assert r.remaining == 11

    def test_read_zero_bits(self):
        r = BitReader(b"\xff")
        assert r.read(0) == 0
        assert (r.read_array(4, 0) == 0).all()

    def test_nbits_limit(self):
        r = BitReader(b"\xff", nbits=3)
        assert r.remaining == 3
