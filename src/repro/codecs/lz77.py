"""From-scratch LZ77 dictionary coder.

This is the reference implementation of SZ's stage-4 "dictionary encoder"
(the paper's builds link Gzip or Zstd; see docs/COMPRESSORS.md for the
substitution notes).  The default SZ pipeline uses the stdlib-``zlib`` backend for speed;
this module exists so the substrate is genuinely built, is covered by the
same property tests, and can be selected with
``make_compressor("sz", dict_codec="lz77")``.

Format
------
A token stream with two token kinds, preceded by a varint original length:

* literal run: ``0`` flag bit, varint run length, raw bytes;
* match: ``1`` flag bit, varint (length - MIN_MATCH), varint distance.

Matching uses a hash table over 4-byte windows with bounded chain probing —
the classic hash-chain greedy parser.  The encoder loop advances by whole
matches, so throughput scales with compressibility; it is intentionally not
the hot path of the default pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.interface import ByteCodec, register_byte_codec
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptPayloadError

__all__ = ["LZ77Codec", "lz77_compress", "lz77_decompress"]

MIN_MATCH = 4
MAX_MATCH = 1 << 16
WINDOW = 1 << 16
_HASH_BITS = 15


def _hash4(data: bytes, pos: int) -> int:
    """Multiplicative hash of the 4 bytes at ``pos``."""
    v = int.from_bytes(data[pos : pos + 4], "little")
    return (v * 2654435761) >> (32 - _HASH_BITS) & ((1 << _HASH_BITS) - 1)


def lz77_compress(data: bytes, max_probes: int = 16) -> bytes:
    """Compress ``data``; see module docstring for the format."""
    n = len(data)
    out = bytearray(encode_uvarint(n))
    if n == 0:
        return bytes(out)

    head: dict[int, list[int]] = {}
    literal_start = 0
    pos = 0

    def flush_literals(end: int) -> None:
        if end > literal_start:
            run = data[literal_start:end]
            out.append(0)
            out.extend(encode_uvarint(len(run)))
            out.extend(run)

    while pos < n:
        best_len = 0
        best_dist = 0
        if pos + MIN_MATCH <= n:
            h = _hash4(data, pos)
            chain = head.get(h)
            if chain:
                lo = pos - WINDOW
                probes = 0
                for cand in reversed(chain):
                    if cand < lo:
                        break
                    probes += 1
                    if probes > max_probes:
                        break
                    # Extend the match as far as it goes.
                    length = 0
                    limit = min(n - pos, MAX_MATCH)
                    while length < limit and data[cand + length] == data[pos + length]:
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_dist = pos - cand
                        if length >= 64:
                            break
            chain = head.setdefault(h, [])
            chain.append(pos)
            if len(chain) > 64:
                del chain[:32]

        if best_len >= MIN_MATCH:
            flush_literals(pos)
            out.append(1)
            out += encode_uvarint(best_len - MIN_MATCH)
            out += encode_uvarint(best_dist)
            # Index a sparse sample of positions inside the match so later
            # repeats can still be found without hashing every byte.
            step = max(1, best_len // 8)
            for p in range(pos + 1, min(pos + best_len, n - MIN_MATCH + 1), step):
                head.setdefault(_hash4(data, p), []).append(p)
            pos += best_len
            literal_start = pos
        else:
            pos += 1

    flush_literals(n)
    return bytes(out)


def lz77_decompress(blob: bytes) -> bytes:
    """Invert :func:`lz77_compress`."""
    n, off = decode_uvarint(blob, 0)
    out = bytearray()
    while len(out) < n:
        if off >= len(blob):
            raise CorruptPayloadError("truncated LZ77 stream")
        flag = blob[off]
        off += 1
        if flag == 0:
            run, off = decode_uvarint(blob, off)
            out += blob[off : off + run]
            off += run
        elif flag == 1:
            length, off = decode_uvarint(blob, off)
            length += MIN_MATCH
            dist, off = decode_uvarint(blob, off)
            if dist <= 0 or dist > len(out):
                raise CorruptPayloadError(f"invalid match distance {dist}")
            if length > n - len(out):
                raise CorruptPayloadError(
                    f"match of {length} bytes overruns the declared length {n}"
                )
            start = len(out) - dist
            if dist >= length:
                out += out[start : start + length]
            else:
                # Overlapping copy (RLE-style), byte at a time.
                for i in range(length):
                    out.append(out[start + i])
        else:
            raise CorruptPayloadError(f"invalid token flag {flag}")
    if len(out) != n:
        raise CorruptPayloadError("LZ77 output length mismatch")
    return bytes(out)


@register_byte_codec
class LZ77Codec(ByteCodec):
    """ByteCodec wrapper around :func:`lz77_compress`."""

    name = "lz77"

    def __init__(self, max_probes: int = 16) -> None:
        self.max_probes = max_probes

    def compress(self, data: bytes) -> bytes:
        return lz77_compress(data, self.max_probes)

    def decompress(self, data: bytes) -> bytes:
        return lz77_decompress(data)
