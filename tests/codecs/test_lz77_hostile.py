"""Hostile bytes into the LZ77 decoder.

A match token declares its own length; the decoder must check it against
the output length the stream declared before copying a byte.  CI runs this
file again under ``ulimit -v``, like the Huffman decoder's.
"""

import pytest
from hostile_bounds import bounded

from repro.codecs.lz77 import MIN_MATCH, lz77_decompress
from repro.codecs.varint import encode_uvarint
from repro.errors import CorruptPayloadError


def _stream(declared: int, match_length: int) -> bytes:
    """One literal byte, then one overlapping match (distance 1)."""
    return (encode_uvarint(declared) + b"\x00" + encode_uvarint(1) + b"a"
            + b"\x01" + encode_uvarint(match_length - MIN_MATCH) + encode_uvarint(1))


def test_match_overrunning_the_declared_length_is_rejected_before_copying():
    blob = _stream(5, 20_000_000)
    assert len(blob) == 10
    with bounded():
        with pytest.raises(CorruptPayloadError, match="overruns the declared length 5"):
            lz77_decompress(blob)


def test_match_ending_exactly_at_the_declared_length_decodes():
    assert lz77_decompress(_stream(5, 4)) == b"aaaaa"
    with pytest.raises(CorruptPayloadError, match="overruns"):
        lz77_decompress(_stream(5, 5))
