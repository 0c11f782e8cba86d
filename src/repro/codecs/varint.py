"""LEB128 variable-length integers and zigzag signed mapping.

Used for serialising headers, Huffman tables and block metadata where values
are small but occasionally large.  Encoding/decoding loop per *value group*,
not per byte, and all zigzag math is vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptPayloadError

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarints",
    "decode_uvarints",
    "zigzag_encode",
    "zigzag_decode",
]


def encode_uvarint(value: int) -> bytes:
    """Encode one unsigned integer as LEB128."""
    if value < 0:
        raise ValueError("uvarint requires a non-negative value")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one LEB128 integer; returns (value, next offset)."""
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CorruptPayloadError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode an array of unsigned integers as concatenated LEB128."""
    values = np.asarray(values, dtype=np.uint64).ravel()
    out = bytearray()
    for v in values.tolist():
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def decode_uvarints(data: bytes, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode ``count`` LEB128 integers; returns (uint64 array, next offset).

    ``count`` usually comes from the bytes being parsed, so it is checked
    against the input left (one byte per value at least) before anything
    is allocated; a value that does not fit 64 bits is rejected as well.
    """
    if count > len(data) - offset:
        raise CorruptPayloadError(
            f"truncated uvarint stream: {count} values declared, "
            f"{max(len(data) - offset, 0)} bytes left"
        )
    out = np.empty(count, dtype=np.uint64)
    pos = offset
    for i in range(count):
        value = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise CorruptPayloadError("truncated uvarint stream")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise CorruptPayloadError("uvarint longer than 10 bytes")
        if value >> 64:
            raise CorruptPayloadError("uvarint does not fit 64 bits")
        out[i] = value
    return out, pos


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 -> unsigned uint64 with small-magnitude bias.

    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
    """
    values = np.asarray(values, dtype=np.int64)
    return ((values << 1) ^ (values >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.uint64)
    return ((values >> np.uint64(1)).astype(np.int64)) ^ -(values & np.uint64(1)).astype(
        np.int64
    )
