"""Unit tests for LZ77, zlib backend, RLE and the payload container."""

import numpy as np
import pytest

from repro.codecs.container import Container
from repro.codecs.interface import get_byte_codec, list_byte_codecs
from repro.codecs.lz77 import LZ77Codec, lz77_compress, lz77_decompress
from repro.codecs.rle import rle_decode, rle_encode
from repro.codecs.zlib_codec import ZlibCodec
from repro.errors import CorruptPayloadError


class TestLZ77:
    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"a",
            b"abcabcabcabc" * 10,
            b"\x00" * 1000,
            bytes(range(256)),
            b"the quick brown fox " * 50,
        ],
        ids=["empty", "single", "periodic", "zeros", "alphabet", "text"],
    )
    def test_roundtrip(self, payload):
        codec = LZ77Codec()
        assert codec.decompress(codec.compress(payload)) == payload

    def test_roundtrip_random_bytes(self):
        r = np.random.default_rng(0)
        payload = bytes(r.integers(0, 256, 5000, dtype=np.uint8))
        codec = LZ77Codec()
        assert codec.decompress(codec.compress(payload)) == payload

    def test_compresses_repetitive_data(self):
        payload = b"scientific floating point data " * 100
        assert len(lz77_compress(payload)) < len(payload) / 3

    def test_overlapping_match(self):
        # Distance < length forces the RLE-style overlapping copy path.
        payload = b"ab" + b"ab" * 200
        assert lz77_decompress(lz77_compress(payload)) == payload

    def test_corrupt_flag_raises(self):
        blob = bytearray(lz77_compress(b"hello world, hello world, hello"))
        # First byte(s) are the varint length; find a token flag and break it.
        blob[1] = 99
        with pytest.raises(ValueError):
            lz77_decompress(bytes(blob))


class TestZlibCodec:
    def test_roundtrip(self):
        payload = b"some scientific bytes" * 40
        codec = ZlibCodec()
        assert codec.decompress(codec.compress(payload)) == payload

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=10)

    def test_registry_contains_both(self):
        names = list_byte_codecs()
        assert "zlib" in names and "lz77" in names

    def test_get_byte_codec_unknown(self):
        with pytest.raises(KeyError):
            get_byte_codec("nope")


class TestRLE:
    def test_empty(self):
        assert rle_decode(rle_encode(np.zeros(0, np.uint8))).size == 0

    def test_constant(self):
        arr = np.full(1000, 7, np.uint8)
        assert (rle_decode(rle_encode(arr)) == arr).all()

    def test_alternating(self):
        arr = np.tile(np.array([0, 1], np.uint8), 500)
        assert (rle_decode(rle_encode(arr)) == arr).all()

    def test_random_runs(self):
        r = np.random.default_rng(1)
        arr = np.repeat(
            r.integers(0, 4, 200).astype(np.uint8), r.integers(1, 100, 200)
        )
        assert (rle_decode(rle_encode(arr)) == arr).all()

    def test_long_runs_compress(self):
        arr = np.zeros(100_000, np.uint8)
        assert len(rle_encode(arr)) < 32


class TestContainer:
    def test_roundtrip(self):
        c = Container()
        c.add("alpha", b"123")
        c.add("beta", b"")
        c.add("gamma", bytes(range(200)))
        parsed = Container.frombytes(c.tobytes())
        assert parsed.names() == ["alpha", "beta", "gamma"]
        assert parsed.get("gamma") == bytes(range(200))

    def test_duplicate_rejected(self):
        c = Container()
        c.add("x", b"1")
        with pytest.raises(KeyError):
            c.add("x", b"2")

    def test_contains(self):
        c = Container()
        c.add("x", b"1")
        assert "x" in c and "y" not in c

    @pytest.mark.parametrize("blob", [
        b"XXXX\x01\x00",                   # bad magic
        b"FRZC",                            # no version byte
        b"FRZC\x02\x00",                   # the streamed layout's version
        b"FRZC\x01",                        # no section count
        b"FRZC\x01\x7f",                   # 127 sections declared, none present
        b"FRZC\x01\x01\x05ab",             # name longer than the bytes left
        b"FRZC\x01\x01\x02\xff\xfe\x00",   # name is not UTF-8
        b"FRZC\x01\x01\x01x\x09abc",       # payload longer than the bytes left
        b"FRZC\x01\x02\x01x\x01\x01x\x01ab",  # the same name twice
        b"FRZC\x01\x01\x01x\x01ajunk",     # trailing bytes
        b"FRZC\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",  # 2**70-ish count
    ])
    def test_hostile_bytes_raise_typed(self, blob):
        with pytest.raises(CorruptPayloadError):
            Container.frombytes(blob)

    def test_nbytes_matches_serialisation(self):
        c = Container()
        c.add("x", b"abc")
        assert c.nbytes() == len(c.tobytes())
