"""Reference Huffman decoder: the per-symbol loops ``repro.codecs.huffman`` used
before its decoder was vectorised, kept verbatim as the oracle the
differential tests compare against.  Test-only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.bitstream import unpack_bits
from repro.codecs.huffman import HuffmanTable


def canonical_codes_loop(lengths: np.ndarray) -> np.ndarray:
    """Canonical codewords, one Python step per symbol."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = 0
    prev_len = 0
    for idx in order:
        length = int(lengths[idx])
        code <<= length - prev_len
        codes[idx] = code
        code += 1
        prev_len = length
    return codes


def build_decode_table_loop(
    lengths: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense window -> (symbol index, length) arrays, one slice per symbol."""
    maxlen = int(lengths.max())
    size = 1 << maxlen
    table_sym = np.zeros(size, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.int64)
    for i in range(lengths.size):
        length = int(lengths[i])
        prefix = int(codes[i]) << (maxlen - length)
        span = 1 << (maxlen - length)
        table_sym[prefix : prefix + span] = i
        table_len[prefix : prefix + span] = length
    return table_sym, table_len, maxlen


def decode_loop(blob: bytes) -> np.ndarray:
    """Decode a ``HuffmanCodec.encode`` payload one symbol at a time."""
    if blob == b"\x00" * 8:
        return np.zeros(0, dtype=np.int64)
    table, off = HuffmanTable.deserialize(blob)
    count = int.from_bytes(blob[off : off + 8], "big")
    bits = unpack_bits(blob[off + 8 :])
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if table.symbols.size == 1:
        return np.full(count, table.symbols[0], dtype=np.int64)
    table_sym, table_len, maxlen = build_decode_table_loop(
        table.lengths, canonical_codes_loop(table.lengths)
    )

    padded = np.concatenate([bits, np.zeros(maxlen, dtype=bits.dtype)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, maxlen)
    weights = np.uint64(1) << np.arange(maxlen - 1, -1, -1, dtype=np.uint64)
    win_vals = windows.astype(np.uint64) @ weights

    sym_idx = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        w = win_vals[pos]
        sym_idx[i] = table_sym[w]
        pos += table_len[w]
    if pos > bits.size:
        raise ValueError("Huffman payload truncated")
    return table.symbols[sym_idx]
