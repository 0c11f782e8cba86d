"""Vectorised bit-level I/O.

The compressors need two access patterns:

* **packing many variable-length codes** (Huffman codewords, ZFP bit planes):
  done wholesale with :func:`pack_bits`, which turns per-symbol
  ``(code, length)`` arrays into a packed byte string using cumulative-sum
  indexing and :func:`numpy.packbits` — no per-symbol Python loop.
* **cursor-style reads/writes of fixed-width fields** (headers, block
  metadata): done with :class:`BitWriter` / :class:`BitReader`.
* **peeking a short field at every bit offset at once** (the Huffman
  decoder's table lookups): done with :func:`bit_windows`, straight from
  the packed bytes.

Bits are packed MSB-first: the first bit written is the most significant bit
of the first byte, matching the convention of DEFLATE-style canonical Huffman
tables and making hexdumps readable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_bits", "unpack_bits", "bit_windows", "BitReader", "BitWriter"]

_MAX_CODE_BITS = 57

_MAX_WINDOW_BITS = 25
# A window starts up to 7 bits into its 32-bit word.


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack variable-length codes into bytes, MSB-first.

    Parameters
    ----------
    codes:
        Unsigned integer array; only the low ``lengths[i]`` bits of
        ``codes[i]`` are emitted.
    lengths:
        Bit length of each code, in ``[0, 57]``.  Zero-length entries emit
        nothing.

    Returns
    -------
    bytes
        ``ceil(sum(lengths) / 8)`` bytes; trailing pad bits are zero.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError(f"codes {codes.shape} and lengths {lengths.shape} differ")
    if codes.ndim != 1:
        codes = codes.ravel()
        lengths = lengths.ravel()
    if lengths.size == 0:
        return b""
    if lengths.min() < 0 or lengths.max() > _MAX_CODE_BITS:
        raise ValueError(f"lengths must be in [0, {_MAX_CODE_BITS}]")

    total_bits = int(lengths.sum())
    if total_bits == 0:
        return b""

    # Scatter one bit *position* at a time (<= max code length iterations)
    # rather than materialising per-output-bit index arrays: transients stay
    # a few words per symbol instead of ~32 bytes per output bit, which is
    # what lets memory-capped streaming compress small chunks cheaply.
    starts = np.cumsum(lengths) - lengths
    bits = np.zeros(total_bits, dtype=np.uint8)
    for p in range(int(lengths.max())):
        mask = lengths > p
        shift = (lengths[mask] - 1 - p).astype(np.uint64)
        bits[starts[mask] + p] = (codes[mask] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, nbits: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_bits`: bytes -> uint8 array of 0/1 bits.

    ``nbits`` truncates trailing pad bits when the logical bit count is known.
    """
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if nbits is not None:
        if nbits > bits.size:
            raise ValueError(f"requested {nbits} bits but payload has {bits.size}")
        bits = bits[:nbits]
    return bits


def bit_windows(data: bytes, width: int) -> np.ndarray:
    """The ``width``-bit MSB-first field starting at *every* bit offset.

    Element ``p`` of the result is the unsigned value of bits
    ``p .. p + width - 1`` of ``data``, with zero bits read past the end —
    what :meth:`BitReader.read` of ``width`` bits after ``seek(p)`` gives on
    a zero-padded stream.  One big-endian 32-bit word is formed per
    byte and shifted by its eight in-byte offsets, so the cost is a handful
    of passes over ``8 * len(data)`` elements and no ``nbits x width``
    intermediate.

    Returns an ``intp`` array of ``8 * len(data)`` values, ready to index a
    ``2**width``-entry lookup table; ``width`` is limited to
    ``[1, 25]``.
    """
    if not 1 <= width <= _MAX_WINDOW_BITS:
        raise ValueError(f"width must be in [1, {_MAX_WINDOW_BITS}], got {width}")
    raw = np.frombuffer(data, dtype=np.uint8)
    padded = np.zeros(raw.size + 3, dtype=np.intp)
    padded[: raw.size] = raw
    words = (padded[:-3] << 24) | (padded[1:-2] << 16) | (padded[2:-1] << 8) | padded[3:]
    windows = words[:, None] >> (32 - width - np.arange(8))
    windows &= (1 << width) - 1
    return windows.reshape(-1)


class BitWriter:
    """Accumulates fixed-width fields and flushes them vectorised.

    Writes are buffered as ``(value, nbits)`` pairs; :meth:`getvalue` performs
    a single :func:`pack_bits` call.  This keeps header construction readable
    without paying a per-field packing cost.
    """

    def __init__(self) -> None:
        self._values: list[int] = []
        self._widths: list[int] = []
        self._nbits = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``."""
        if nbits < 0 or nbits > _MAX_CODE_BITS:
            raise ValueError(f"nbits must be in [0, {_MAX_CODE_BITS}], got {nbits}")
        if value < 0:
            raise ValueError("BitWriter.write takes unsigned values; zigzag first")
        if nbits == 0:
            return
        self._values.append(value & ((1 << nbits) - 1))
        self._widths.append(nbits)
        self._nbits += nbits

    def write_array(self, values: np.ndarray, nbits: int) -> None:
        """Append each element of ``values`` as an ``nbits``-wide field."""
        values = np.asarray(values, dtype=np.uint64).ravel()
        mask = np.uint64((1 << nbits) - 1) if nbits < 64 else np.uint64(2**64 - 1)
        self._values.extend(int(v) for v in (values & mask))
        self._widths.extend([nbits] * values.size)
        self._nbits += nbits * values.size

    def write_codes(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append pre-computed variable-length codes (vectorised path)."""
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        self._values.extend(int(v) for v in codes)
        self._widths.extend(int(w) for w in lengths)
        self._nbits += int(lengths.sum())

    def getvalue(self) -> bytes:
        """Pack all buffered fields into bytes."""
        if not self._values:
            return b""
        return pack_bits(
            np.asarray(self._values, dtype=np.uint64),
            np.asarray(self._widths, dtype=np.int64),
        )


class BitReader:
    """Cursor-based reader over a packed bit string.

    Builds the unpacked 0/1 bit array once; fixed-width vector reads are then
    pure reshape/dot operations.  ``peek``/``read`` of scalar fields are used
    only for headers, never in per-datum loops.
    """

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        self._bits = unpack_bits(data, nbits)
        self._pos = 0

    @property
    def pos(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._bits.size - self._pos

    def bits(self) -> np.ndarray:
        """The raw 0/1 bit array (read-only view)."""
        return self._bits

    def seek(self, pos: int) -> None:
        if pos < 0 or pos > self._bits.size:
            raise ValueError(f"seek target {pos} outside [0, {self._bits.size}]")
        self._pos = pos

    def read(self, nbits: int) -> int:
        """Read one ``nbits``-wide unsigned field."""
        if nbits == 0:
            return 0
        end = self._pos + nbits
        if end > self._bits.size:
            raise EOFError(f"read past end of bitstream ({end} > {self._bits.size})")
        chunk = self._bits[self._pos : end]
        self._pos = end
        value = 0
        for b in chunk.tolist():
            value = (value << 1) | b
        return value

    def read_array(self, count: int, nbits: int) -> np.ndarray:
        """Read ``count`` consecutive ``nbits``-wide unsigned fields, vectorised."""
        if nbits == 0:
            return np.zeros(count, dtype=np.uint64)
        if nbits > _MAX_CODE_BITS:
            raise ValueError(f"nbits must be <= {_MAX_CODE_BITS}")
        end = self._pos + count * nbits
        if end > self._bits.size:
            raise EOFError(f"read past end of bitstream ({end} > {self._bits.size})")
        chunk = self._bits[self._pos : end].reshape(count, nbits).astype(np.uint64)
        self._pos = end
        weights = np.uint64(1) << np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return chunk @ weights
