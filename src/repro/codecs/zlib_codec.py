"""DEFLATE byte codec backed by the standard library.

The paper's SZ builds call out to Gzip (DEFLATE) or Zstd for the stage-4
dictionary pass; Python's bundled :mod:`zlib` *is* DEFLATE, so this backend
is the faithful default.  The from-scratch alternative lives in
:mod:`repro.codecs.lz77`.
"""

from __future__ import annotations

import zlib

from repro.codecs.interface import ByteCodec, register_byte_codec
from repro.errors import CorruptPayloadError

__all__ = ["ZlibCodec"]


@register_byte_codec
class ZlibCodec(ByteCodec):
    """Stdlib DEFLATE with configurable level (default 6, zlib's default)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        if not -1 <= level <= 9:
            raise ValueError(f"zlib level must be in [-1, 9], got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        # Deflate's working state is ~(1 << (wbits + 2)) + (1 << (memLevel
        # + 9)) bytes — ~384 KB at the 15/8 defaults, which dwarfs small
        # inputs (the streaming layer compresses many small chunks under a
        # memory cap).  A window already covering the whole input loses no
        # compression, so scale both down to the input size; decompression
        # is unaffected (a 15-bit inflate window accepts any smaller one).
        wbits = min(15, max(9, len(data).bit_length()))
        mem_level = min(8, max(1, len(data).bit_length() - 8))
        obj = zlib.compressobj(self.level, zlib.DEFLATED, wbits, mem_level)
        return obj.compress(data) + obj.flush()

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CorruptPayloadError(f"not a DEFLATE stream: {exc}") from None
