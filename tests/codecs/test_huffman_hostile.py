"""Hostile bytes into the Huffman decoder (ROADMAP 4a).

Every case must end in :class:`repro.errors.CorruptPayloadError` (still a
``ValueError``) quickly and cheaply: the declared sizes in a payload are
checked against the bytes actually present before they size anything.  CI
runs this file again under ``ulimit -v`` so that a regression of the
allocation bound fails instead of taking the runner down.
"""

import random

import numpy as np
import pytest
from hostile_bounds import bounded

from repro.codecs.huffman import MAX_CODE_LEN, HuffmanCodec, HuffmanTable
from repro.codecs.varint import encode_uvarints, zigzag_encode
from repro.errors import CorruptPayloadError, ReproError

def rejects(blob: bytes) -> CorruptPayloadError:
    with bounded():
        with pytest.raises(CorruptPayloadError) as caught:
            HuffmanCodec().decode(blob)
    assert isinstance(caught.value, ValueError) and isinstance(caught.value, ReproError)
    return caught.value


def table_bytes(symbols, lengths) -> bytes:
    """A serialised table with arbitrary (possibly invalid) contents."""
    symbols = np.asarray(symbols, dtype=np.int64)
    return (
        encode_uvarints(np.asarray([symbols.size], dtype=np.uint64))
        + encode_uvarints(zigzag_encode(np.diff(symbols, prepend=np.int64(0))))
        + encode_uvarints(np.asarray(lengths, dtype=np.uint64))
    )


def stream(symbols, lengths, count: int, payload: bytes) -> bytes:
    return table_bytes(symbols, lengths) + count.to_bytes(8, "big") + payload


@pytest.fixture(scope="module")
def valid() -> bytes:
    r = np.random.default_rng(11)
    data = (r.geometric(0.3, 600) - 1).astype(np.int64) * r.choice([-1, 1], 600)
    return HuffmanCodec().encode(data)


def count_offset(blob: bytes) -> int:
    return HuffmanTable.deserialize(blob)[1]


class TestTruncation:
    def test_every_prefix_is_rejected(self, valid):
        blob = valid
        payload_start = count_offset(blob) + 8
        for cut in range(len(blob)):
            error = rejects(blob[:cut])
            if cut >= payload_start:
                assert "Huffman payload truncated" in str(error)

    def test_last_code_must_end_inside_the_payload(self):
        # Two 1-bit codes: 8 symbols fill the byte exactly, a 9th cannot exist.
        assert HuffmanCodec().decode(stream([0, 1], [1, 1], 8, b"\xa5")).tolist() == [
            1, 0, 1, 0, 0, 1, 0, 1,
        ]
        # Lengths 1, 2, 2: seven 1-bit codes, then "10" needs a bit that is not there.
        assert "Huffman payload truncated" in str(rejects(stream([0, 1, 2], [1, 2, 2], 8, b"\x01")))


class TestDeclaredSizes:
    def test_symbol_count_of_a_trillion(self, valid):
        blob = valid
        off = count_offset(blob)
        hostile = blob[:off] + (10**12).to_bytes(8, "big") + blob[off + 8 :]
        assert str(10**12) in str(rejects(hostile))

    def test_symbol_count_max_uint64_on_single_symbol_table(self):
        rejects(stream([7], [1], 2**64 - 1, b"\x00"))

    def test_alphabet_size_of_a_trillion(self):
        rejects(encode_uvarints(np.asarray([10**12], dtype=np.uint64)) + b"\x00" * 64)

    def test_forty_bit_code(self):
        rejects(stream([0, 1], [1, 40], 4, b"\x00" * 8))

    def test_code_longer_than_the_limit_by_one(self):
        rejects(stream([0, 1], [1, MAX_CODE_LEN + 1], 4, b"\x00" * 8))

    def test_length_that_wraps_int64(self):
        rejects(stream([0, 1], [1, 2**64 - 1], 4, b"\x00" * 8))

    def test_uvarint_that_never_ends(self):
        rejects(b"\x80" * 100_000)

    def test_bytes_trailing_a_short_stream_cost_nothing(self):
        # One symbol, a megabyte of junk after it: work is sized by the count.
        with bounded():
            out = HuffmanCodec().decode(stream([0, 1, 2], [1, 2, 2], 1, b"\xc0" + b"\xff" * (1 << 20)))
        assert out.tolist() == [2]


class TestInvalidTables:
    def test_zero_length_code(self):
        rejects(stream([0, 1, 2], [0, 1, 1], 4, b"\x00" * 8))

    def test_oversubscribed_code(self):
        rejects(stream([0, 1, 2], [1, 1, 1], 4, b"\x00" * 8))
        rejects(stream([0, 1, 2, 3], [1, 2, 3, 2], 4, b"\x00" * 8))

    @pytest.mark.parametrize(
        "symbols",
        # The last one serialises as three deltas of +2**62 whose sum wraps int64.
        [[5, 5], [5, 4], [0, 2**62, -(2**62), 2**62], [2**62, -(2**63), -(2**62)]],
    )
    def test_symbols_not_strictly_increasing(self, symbols):
        rejects(stream(symbols, [2] * len(symbols), 2, b"\x00" * 8))

    def test_empty_table_with_symbols_declared(self):
        rejects(stream([], [], 3, b"\x00" * 8))

    def test_window_no_code_owns(self):
        # Lengths 2, 2, 2 leave "11" unassigned; the old decoder returned symbol 0.
        assert HuffmanCodec().decode(stream([0, 1, 2], [2, 2, 2], 4, b"\x24")).tolist() == [0, 2, 1, 0]
        rejects(stream([0, 1, 2], [2, 2, 2], 4, b"\x2c"))
        rejects(stream([0, 1, 2], [2, 2, 2], 1, b"\xc0"))


class TestMutations:
    def test_byte_flips_raise_typed_or_decode(self, valid):
        blob = valid
        rnd = random.Random(2024)
        outcomes = set()
        with bounded():
            for _ in range(400):
                mutated = bytearray(blob)
                for _ in range(rnd.randint(1, 3)):
                    mutated[rnd.randrange(len(mutated))] = rnd.randrange(256)
                try:
                    out = HuffmanCodec().decode(bytes(mutated))
                except CorruptPayloadError:
                    outcomes.add("rejected")
                else:
                    outcomes.add("decoded")
                    assert out.dtype == np.int64 and out.ndim == 1
        assert outcomes == {"rejected", "decoded"}
