"""Canonical, length-limited Huffman coding for integer symbol streams.

This is SZ's stage-3 entropy coder (Sec. II-A1 of the paper): quantization
codes are small integers with a highly skewed distribution, and a Huffman
code customised to that distribution captures most of the redundancy.

Implementation notes
--------------------
* Code lengths come from the classic two-queue/heap Huffman construction on
  symbol frequencies.  If the deepest code exceeds :data:`MAX_CODE_LEN`, the
  frequency table is repeatedly halved (``(f + 1) // 2``) and the tree
  rebuilt — a standard, always-terminating length-limiting device (each
  halving flattens the distribution toward uniform, whose depth is
  ``ceil(log2(m))``).
* Codes are *canonical*: ordered by (length, symbol), so only the lengths and
  the symbol list need to be serialised.
* Encoding is fully vectorised through :func:`repro.codecs.bitstream.pack_bits`.
* Decoding is table-driven and has no per-symbol Python loop.  A
  ``2**maxlen`` lookup table maps every possible ``maxlen``-bit window to
  (symbol, code length); :func:`repro.codecs.bitstream.bit_windows` gives the
  window at *every* bit offset, so ``step[p] = p + length(window[p])`` says
  where a code starting at bit ``p`` would end.  The codes actually present
  are the orbit of bit 0 under ``step``.  Pointer doubling (``jump <-
  jump[jump]``, ``K`` times) makes one lookup advance ``2**K`` codes; a short
  walk with it places one anchor every ``2**K`` symbols, and ``2**K - 1``
  applications of ``step`` to *all* anchors at once fill in the codes
  between them.  Memory is four words per payload bit, never
  ``nbits x maxlen``.
* Format limits, enforced on decode with
  :class:`~repro.errors.CorruptPayloadError` before anything is sized from
  them: code lengths in ``[1, MAX_CODE_LEN]`` with Kraft sum <= 1, strictly
  increasing symbols, symbol count <= payload bits, and the last code ending
  inside the payload.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.codecs.bitstream import bit_windows, pack_bits
from repro.codecs.varint import (
    decode_uvarints,
    encode_uvarints,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import CorruptPayloadError

__all__ = ["HuffmanCodec", "HuffmanTable", "MAX_CODE_LEN", "code_lengths"]

MAX_CODE_LEN = 16
"""Maximum codeword length; keeps the decode table at 2**16 entries."""

_MAX_JUMP_LEVELS = 5
# Each pointer-doubling level is one gather over every payload bit and halves
# the anchor walk (one Python step per anchor); at ~1 ns per gathered element
# against ~100 ns per step the two meet near 2**5 symbols per anchor.


def code_lengths(freqs: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Compute Huffman code lengths for positive frequencies.

    Parameters
    ----------
    freqs:
        Positive integer frequency per distinct symbol.
    max_len:
        Length limit; the frequency table is halved until respected.

    Returns
    -------
    numpy.ndarray
        int64 code length per symbol.  A single-symbol alphabet gets length 1
        (a degenerate but decodable code).
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(freqs <= 0):
        raise ValueError("all frequencies must be positive")
    if freqs.size == 1:
        return np.ones(1, dtype=np.int64)
    if freqs.size > (1 << max_len):
        raise ValueError(
            f"{freqs.size} symbols cannot fit in {max_len}-bit codes"
        )

    work = freqs.copy()
    while True:
        lengths = _huffman_depths(work)
        if lengths.max() <= max_len:
            return lengths
        work = (work + 1) // 2


def _huffman_depths(freqs: np.ndarray) -> np.ndarray:
    """Tree depths from the heap-based Huffman construction."""
    n = freqs.size
    # Heap entries: (weight, tiebreak, node id). Node ids < n are leaves.
    heap: list[tuple[int, int, int]] = [
        (int(f), i, i) for i, f in enumerate(freqs)
    ]
    heapq.heapify(heap)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    next_id = n
    tiebreak = n
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (w1 + w2, tiebreak, next_id))
        next_id += 1
        tiebreak += 1

    depths = np.zeros(n, dtype=np.int64)
    # Depth of each internal node, computed root-down (ids increase toward
    # the root, so a reverse sweep sees parents before children).
    node_depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):
        node_depth[node] = node_depth[parent[node]] + 1
    depths[:] = node_depth[:n]
    return depths


def _canonical_order(lengths: np.ndarray) -> np.ndarray:
    """Indices that sort codes by (length, position): canonical order."""
    return np.lexsort((np.arange(lengths.size), lengths))


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given code lengths.

    Symbols are implicitly ordered as given; ties in length are broken by
    position, matching :class:`HuffmanTable` serialisation (symbols are
    stored sorted).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    order = _canonical_order(lengths)
    # In units of the longest code, a codeword is the sum of the spans
    # 2**(longest - length) of every code before it in canonical order.
    pad = (lengths.max() - lengths[order]).astype(np.uint64)
    spans = np.uint64(1) << pad
    codes = np.empty(lengths.size, dtype=np.uint64)
    codes[order] = (np.cumsum(spans) - spans) >> pad
    return codes


@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman code over a set of integer symbols."""

    symbols: np.ndarray  # int64, sorted ascending
    lengths: np.ndarray  # int64, aligned with symbols
    codes: np.ndarray  # uint64, canonical

    @classmethod
    def from_symbols(cls, data: np.ndarray, max_len: int = MAX_CODE_LEN) -> "HuffmanTable":
        """Build a table from the empirical distribution of ``data``."""
        symbols, counts = np.unique(np.asarray(data, dtype=np.int64), return_counts=True)
        lengths = code_lengths(counts, max_len)
        return cls(symbols=symbols, lengths=lengths, codes=canonical_codes(lengths))

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def expected_bits(self, counts: np.ndarray) -> int:
        """Total payload bits for the given per-symbol counts."""
        return int((np.asarray(counts, dtype=np.int64) * self.lengths).sum())

    def serialize(self) -> bytes:
        """Serialise as (m, zigzag-delta symbols, lengths) varints."""
        deltas = np.diff(self.symbols, prepend=np.int64(0))
        parts = [
            encode_uvarints(np.asarray([self.symbols.size], dtype=np.uint64)),
            encode_uvarints(zigzag_encode(deltas)),
            encode_uvarints(self.lengths.astype(np.uint64)),
        ]
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes) -> tuple["HuffmanTable", int]:
        """Parse a serialised table; returns (table, bytes consumed).

        Raises :class:`~repro.errors.CorruptPayloadError` unless the bytes
        describe a prefix code this module could have written: lengths in
        ``[1, MAX_CODE_LEN]`` whose Kraft sum is at most 1, over strictly
        increasing symbols.
        """
        (m,), off = decode_uvarints(data, 1, 0)
        deltas, off = decode_uvarints(data, int(m), off)
        raw_lengths, off = decode_uvarints(data, int(m), off)
        if m and not 1 <= raw_lengths.min() <= raw_lengths.max() <= MAX_CODE_LEN:
            raise CorruptPayloadError(
                f"Huffman table: code lengths must be in [1, {MAX_CODE_LEN}], "
                f"got {raw_lengths.min()}..{raw_lengths.max()}"
            )
        lengths = raw_lengths.astype(np.int64)
        if (1 << (MAX_CODE_LEN - lengths)).sum() > 1 << MAX_CODE_LEN:
            raise CorruptPayloadError("Huffman table: over-subscribed (Kraft sum > 1)")
        symbols = np.cumsum(zigzag_decode(deltas))
        if not (symbols[1:] > symbols[:-1]).all():
            raise CorruptPayloadError("Huffman table: symbols are not strictly increasing")
        return (
            cls(symbols=symbols, lengths=lengths, codes=canonical_codes(lengths)),
            off,
        )

    def build_decode_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Dense window -> (symbol index, length) lookup arrays.

        Canonical codes tile the ``2**maxlen`` windows in canonical order, a
        code of length ``l`` owning ``2**(maxlen - l)`` consecutive entries.
        Windows no code owns (Kraft sum < 1) keep length 0, which marks them
        invalid.
        """
        maxlen = self.max_length
        order = _canonical_order(self.lengths)
        spans = 1 << (maxlen - self.lengths[order])
        owned = int(spans.sum())
        table_sym = np.zeros(1 << maxlen, dtype=np.int64)
        table_len = np.zeros(1 << maxlen, dtype=np.int64)
        table_sym[:owned] = np.repeat(order, spans)
        table_len[:owned] = np.repeat(self.lengths[order], spans)
        return table_sym, table_len, maxlen


class HuffmanCodec:
    """Encode/decode int64 symbol streams with a canonical Huffman code.

    The payload layout is::

        [table bytes][8-byte big-endian symbol count][packed code bits]
    """

    def __init__(self, max_len: int = MAX_CODE_LEN) -> None:
        if not 1 <= max_len <= MAX_CODE_LEN:
            raise ValueError(f"max_len must be in [1, {MAX_CODE_LEN}], got {max_len}")
        self.max_len = max_len

    def encode(self, data: np.ndarray) -> bytes:
        """Compress an integer array; round-trips exactly via :meth:`decode`."""
        data = np.asarray(data, dtype=np.int64).ravel()
        if data.size == 0:
            return b"\x00" * 8
        table = HuffmanTable.from_symbols(data, self.max_len)
        index = np.searchsorted(table.symbols, data)
        payload = pack_bits(table.codes[index], table.lengths[index])
        return table.serialize() + data.size.to_bytes(8, "big") + payload

    def decode(self, blob: bytes) -> np.ndarray:
        """Decompress a payload produced by :meth:`encode`.

        Raises :class:`~repro.errors.CorruptPayloadError` (a ``ValueError``)
        on bytes :meth:`encode` cannot have produced; the declared symbol
        count is checked against the payload size before it sizes anything.
        """
        if blob == b"\x00" * 8:
            return np.zeros(0, dtype=np.int64)
        table, off = HuffmanTable.deserialize(blob)
        if len(blob) < off + 8:
            raise CorruptPayloadError("Huffman payload truncated: no symbol count")
        count = int.from_bytes(blob[off : off + 8], "big")
        payload = memoryview(blob)[off + 8 :]
        if count > 8 * len(payload):  # every code is at least one bit long
            raise CorruptPayloadError(
                f"Huffman payload truncated: {count} symbols declared, "
                f"{8 * len(payload)} bits present"
            )
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if table.symbols.size == 0:
            raise CorruptPayloadError("Huffman table is empty but symbols are declared")
        if table.symbols.size == 1:
            # Degenerate single-symbol stream: nothing to read from the bits.
            return np.full(count, table.symbols[0], dtype=np.int64)
        return self._decode_payload(table, payload, count)

    @staticmethod
    def _decode_payload(table: HuffmanTable, payload: memoryview, count: int) -> np.ndarray:
        table_sym, table_len, maxlen = table.build_decode_table()
        # Bits past count * maxlen cannot belong to a code: work and memory
        # are bounded by the symbol count even if bytes trail the stream.
        windows = bit_windows(payload[: (count * maxlen + 7) // 8], maxlen)
        nbits = windows.size

        # step[p]: where the code after one starting at bit p starts.
        # ``nbits`` is an absorbing sentinel that overlong and invalid
        # (length 0) codes fall into, so a corrupt stream ends there instead
        # of looping or running off the array.
        table_len[table_len == 0] = nbits + 1
        step = np.empty(nbits + 1, dtype=np.int64)
        table_len.take(windows, out=step[:nbits], mode="clip")
        step[:nbits] += np.arange(nbits)
        step[nbits] = nbits
        np.minimum(step, nbits, out=step)

        # Pointer doubling, jump <- jump[jump], so that one lookup advances
        # 2**levels codes.  Only the top level is kept, in two buffers used
        # alternately.  Every index is in [0, nbits]: "clip" never clips, it
        # spares ``take`` the staging copy its default mode makes for ``out``.
        levels = min((count >> 6).bit_length(), _MAX_JUMP_LEVELS)
        jump = step
        buffers = (np.empty_like(step), np.empty_like(step))
        for level in range(levels):
            jump = jump.take(jump, out=buffers[level % 2], mode="clip")

        # Row 0: one anchor every 2**levels symbols, walked with the top
        # level.  Row i: the code i places after each anchor, all anchors at
        # once.  Read column by column that is every code start in order.
        rows = np.empty((1 << levels, -(-count >> levels)), dtype=np.int64)
        anchors = [0] * rows.shape[1]
        stride = jump.item
        for i in range(1, len(anchors)):
            anchors[i] = stride(anchors[i - 1])
        rows[0] = anchors
        for i in range(1, len(rows)):
            step.take(rows[i - 1], out=rows[i], mode="clip")
        starts = rows.T.reshape(-1)[:count]

        last = int(starts[-1])
        if last == nbits or last + table_len[windows[last]] > nbits:
            raise CorruptPayloadError("Huffman payload truncated")
        return table.symbols[table_sym.take(windows.take(starts))]
