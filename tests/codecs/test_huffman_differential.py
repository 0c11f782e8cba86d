"""Differential tests: the vectorised Huffman code paths against the loops
they replaced (``huffman_oracle.py``), on equal inputs, for equal outputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huffman_oracle import build_decode_table_loop, canonical_codes_loop, decode_loop
from repro.codecs.huffman import (
    MAX_CODE_LEN,
    HuffmanCodec,
    HuffmanTable,
    canonical_codes,
    code_lengths,
)

_SETTINGS = dict(max_examples=40, deadline=None)

# The decoder picks its doubling depth from the count (64 .. 1024) and places
# an anchor every 2**depth symbols: probe both sides of every such boundary.
_COUNTS = sorted({1, 2} | {(1 << k) + d for k in range(5, 14) for d in (-1, 0, 1)})


def _stream(alphabet: int, skew: float, count: int, seed: int) -> np.ndarray:
    """``count`` symbols over up to ``alphabet`` distinct, scattered values;
    rank ``i`` has weight ``skew**i`` and every value that fits occurs once."""
    r = np.random.default_rng(seed)
    values = np.sort(r.choice(np.arange(-(2**20), 2**20), alphabet, replace=False))
    weights = skew ** np.arange(alphabet, dtype=np.float64)
    ranks = r.choice(alphabet, count, p=weights / weights.sum())
    present = min(alphabet, count)
    ranks[r.choice(count, present, replace=False)] = np.arange(present)
    return values[ranks].astype(np.int64)


def _fibonacci(n: int) -> np.ndarray:
    fib = [1, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return np.array(fib[:n], dtype=np.int64)


def _length_vectors() -> dict[str, np.ndarray]:
    r = np.random.default_rng(7)
    vectors = {
        "single": np.array([1]),
        "incomplete": np.array([2, 3, 2]),
        "uniform-4": np.array([2, 2, 2, 2]),
        "length-limited": code_lengths(_fibonacci(40)),
    }
    for m in (2, 3, 17, 300, 5000):
        vectors[f"random-{m}"] = code_lengths(r.integers(1, 10_000, m))
        skewed = np.maximum(1e9 * 0.7 ** np.arange(m), 1).astype(np.int64)
        vectors[f"skewed-{m}"] = code_lengths(skewed)
    return vectors


class TestVectorisedTables:
    @pytest.mark.parametrize("lengths", _length_vectors().values(), ids=_length_vectors())
    def test_codes_and_decode_table_equal_the_loops(self, lengths):
        codes = canonical_codes(lengths)
        assert codes.dtype == np.uint64
        assert codes.tolist() == canonical_codes_loop(lengths).tolist()

        table = HuffmanTable(np.arange(lengths.size), lengths, codes)
        for got, want in zip(table.build_decode_table(), build_decode_table_loop(lengths, codes)):
            assert np.array_equal(got, want)

    def test_length_limited_case_hits_the_limit(self):
        assert code_lengths(_fibonacci(40)).max() == MAX_CODE_LEN

    def test_empty(self):
        assert canonical_codes(np.zeros(0, np.int64)).size == 0


class TestDecodeEqualsOracle:
    @given(
        alphabet=st.integers(2, 5000),
        skew=st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.1]),
        count=st.sampled_from(_COUNTS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**_SETTINGS)
    def test_random_streams(self, alphabet, skew, count, seed):
        data = _stream(alphabet, skew, count, seed)
        blob = HuffmanCodec().encode(data)
        decoded = HuffmanCodec().decode(blob)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, decode_loop(blob))
        assert np.array_equal(decoded, data)

    @pytest.mark.parametrize("count", _COUNTS)
    def test_every_count_boundary(self, count):
        data = _stream(300, 0.8, count, seed=count)
        blob = HuffmanCodec().encode(data)
        assert np.array_equal(HuffmanCodec().decode(blob), decode_loop(blob))

    def test_last_code_on_the_final_bit_and_before_pad_bits(self):
        data = _stream(60, 0.7, 700, seed=3)
        pad_bits = set()
        for n in range(600, 700):
            blob = HuffmanCodec().encode(data[:n])
            table, _ = HuffmanTable.deserialize(blob)
            _, counts = np.unique(data[:n], return_counts=True)
            pad_bits.add(-table.expected_bits(counts) % 8)
            assert np.array_equal(HuffmanCodec().decode(blob), decode_loop(blob))
        assert pad_bits == set(range(8))  # 0: the last code ends the last byte

    @pytest.mark.parametrize(
        "data",
        [np.zeros(0, np.int64), np.array([7]), np.full(1000, -3), np.array([4, 9])],
        ids=["empty", "one", "constant", "two"],
    )
    def test_degenerate_streams(self, data):
        blob = HuffmanCodec().encode(data)
        assert np.array_equal(HuffmanCodec().decode(blob), decode_loop(blob))
        assert np.array_equal(HuffmanCodec().decode(blob), data)

    def test_long_stream_with_full_length_codes(self):
        # Many anchors, and a table deep enough to use MAX_CODE_LEN-bit windows.
        r = np.random.default_rng(5)
        data = np.concatenate([r.choice(40, 150_000, p=_fibonacci(40) / _fibonacci(40).sum()),
                               np.arange(40)])
        blob = HuffmanCodec().encode(data)
        assert HuffmanTable.deserialize(blob)[0].max_length == MAX_CODE_LEN
        assert np.array_equal(HuffmanCodec().decode(blob), decode_loop(blob))
