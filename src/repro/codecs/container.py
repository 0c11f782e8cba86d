"""Framed multi-section payload containers.

Every lossy compressor in this package emits several independent byte
sections (header, predictor metadata, entropy payload, literals, ...).  The
container frames them with names and lengths so decompressors can address
sections directly, and so payload-size accounting (compression-ratio
measurement, the quantity FRaZ optimises) is exact and auditable.

Two layouts share the ``FRZC`` magic and differ by version byte:

**Version 1** — :class:`Container`, fully in memory.  All section names
and lengths are known before serialisation, so the header is up front::

    magic "FRZC" | version u8 = 1 | section count (uvarint)
    per section: name length (uvarint) | name utf-8 | payload length (uvarint)
    concatenated payloads

**Version 2** — :class:`ContainerWriter` / :class:`ContainerReader`, file
backed and *streamed*: sections are appended one at a time (the writer
never holds more than the section being written), and a JSON index plus a
fixed-size footer land at the end so readers seek straight to any section
without scanning — the layout behind out-of-core chunked compression
(:mod:`repro.stream`)::

    magic "FRZC" | version u8 = 2
    per section: name length (uvarint) | name utf-8
                 | payload length (uvarint) | payload
    index section (reserved name "\\x00index",
                   JSON {name: [payload offset, length]})
    footer: index section offset (u64 LE) | magic "FRZE"
"""

from __future__ import annotations

import io
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO

from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptPayloadError

__all__ = ["Container", "ContainerWriter", "ContainerReader", "is_streamed_container"]

_MAGIC = b"FRZC"
_VERSION = 1
_STREAM_VERSION = 2
_INDEX_NAME = "\x00index"
_FOOTER_MAGIC = b"FRZE"
_FOOTER_STRUCT = struct.Struct("<Q4s")  # index section offset, footer magic


class Container:
    """Ordered mapping of named byte sections with exact serialisation."""

    def __init__(self) -> None:
        self._sections: dict[str, bytes] = {}

    def add(self, name: str, payload: bytes) -> None:
        """Add a section; names must be unique."""
        if name in self._sections:
            raise KeyError(f"duplicate section {name!r}")
        self._sections[name] = bytes(payload)

    def get(self, name: str) -> bytes:
        """Fetch a section by name; a payload without it is corrupt."""
        try:
            return self._sections[name]
        except KeyError:
            raise CorruptPayloadError(
                f"section {name!r} missing; container holds {self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def names(self) -> list[str]:
        return list(self._sections)

    def nbytes(self) -> int:
        """Serialised size in bytes (frame overhead included)."""
        return len(self.tobytes())

    def tobytes(self) -> bytes:
        parts = [_MAGIC, bytes([_VERSION]), encode_uvarint(len(self._sections))]
        for name, payload in self._sections.items():
            encoded = name.encode("utf-8")
            parts.append(encode_uvarint(len(encoded)))
            parts.append(encoded)
            parts.append(encode_uvarint(len(payload)))
        parts.extend(self._sections.values())
        return b"".join(parts)

    @classmethod
    def frombytes(cls, blob: bytes) -> "Container":
        """Parse a version-1 container.

        Raises :class:`~repro.errors.CorruptPayloadError` for bytes
        :meth:`tobytes` could not have written; every declared length is
        checked against the bytes left before it is used to slice.
        """
        if blob[:4] != _MAGIC:
            raise CorruptPayloadError("not a FRZC container")
        if len(blob) < 5 or blob[4] != _VERSION:
            raise CorruptPayloadError(
                f"unsupported container version "
                f"{blob[4] if len(blob) > 4 else '(missing)'}")
        count, off = decode_uvarint(blob, 5)
        # A section header is at least two bytes (empty name, zero length).
        if 2 * count > len(blob) - off:
            raise CorruptPayloadError(
                f"container declares {count} sections, {len(blob) - off} bytes left")
        names: list[str] = []
        sizes: list[int] = []
        for _ in range(count):
            nlen, off = decode_uvarint(blob, off)
            if nlen > len(blob) - off:
                raise CorruptPayloadError(
                    f"section name of {nlen} bytes declared, {len(blob) - off} left")
            try:
                names.append(blob[off : off + nlen].decode("utf-8"))
            except UnicodeDecodeError:
                raise CorruptPayloadError("section name is not UTF-8") from None
            off += nlen
            plen, off = decode_uvarint(blob, off)
            sizes.append(plen)
        out = cls()
        for name, size in zip(names, sizes):
            if size > len(blob) - off:
                raise CorruptPayloadError(
                    f"section {name!r} declares {size} bytes, {len(blob) - off} left")
            if name in out._sections:
                raise CorruptPayloadError(f"duplicate section {name!r}")
            out._sections[name] = blob[off : off + size]
            off += size
        if off != len(blob):
            raise CorruptPayloadError("container has trailing bytes")
        return out


def is_streamed_container(path: str | os.PathLike) -> bool:
    """Whether ``path`` holds a version-2 (streamed) container."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(5)
    except OSError:
        return False
    return head[:4] == _MAGIC and len(head) == 5 and head[4] == _STREAM_VERSION


def _write_frame_header(fh: BinaryIO, name: str, payload_len: int) -> None:
    encoded = name.encode("utf-8")
    fh.write(encode_uvarint(len(encoded)))
    fh.write(encoded)
    fh.write(encode_uvarint(payload_len))


class ContainerWriter:
    """Append-only, file-backed container (version 2).

    Sections are flushed to disk as they are added, so peak memory is one
    section regardless of how many the file ends up holding.  The index and
    footer are written by :meth:`close` (or on context-manager exit); a file
    whose writer died before ``close`` has no footer and is rejected by
    :class:`ContainerReader`.

    Usage::

        with ContainerWriter(path) as w:
            w.add("meta", meta_bytes)
            w.add("chunk:0", payload0)
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = Path(path)
        self._fh: BinaryIO | None = open(self._path, "wb")
        self._index: dict[str, tuple[int, int]] = {}
        self._fh.write(_MAGIC)
        self._fh.write(bytes([_STREAM_VERSION]))

    def add(self, name: str, payload: bytes) -> None:
        """Append one section; names must be unique and not reserved."""
        if self._fh is None:
            raise ValueError("writer is closed")
        if name in self._index:
            raise KeyError(f"duplicate section {name!r}")
        if name.startswith("\x00"):
            raise ValueError(f"section names starting with NUL are reserved: {name!r}")
        payload = bytes(payload)
        _write_frame_header(self._fh, name, len(payload))
        offset = self._fh.tell()
        self._fh.write(payload)
        # Flush per section: the writer's contract is that added payloads
        # are on disk, so peak memory never includes buffered sections.
        self._fh.flush()
        self._index[name] = (offset, len(payload))

    def names(self) -> list[str]:
        return list(self._index)

    def tell(self) -> int:
        """Bytes written so far (payload accounting for ratio reports)."""
        if self._fh is None:
            return self._path.stat().st_size
        return self._fh.tell()

    def close(self) -> None:
        """Write the index + footer and close the file (idempotent)."""
        if self._fh is None:
            return
        index_blob = json.dumps(
            {name: [off, length] for name, (off, length) in self._index.items()}
        ).encode("utf-8")
        _write_frame_header(self._fh, _INDEX_NAME, len(index_blob))
        index_offset = self._fh.tell()
        self._fh.write(index_blob)
        self._fh.write(_FOOTER_STRUCT.pack(index_offset, _FOOTER_MAGIC))
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ContainerReader:
    """Random-access reader for version-2 (streamed) containers.

    Only the index lives in memory; :meth:`get` seeks directly to the
    requested section, so decompressing one chunk of a huge file reads
    just that chunk's bytes.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = Path(path)
        self._fh: BinaryIO | None = open(self._path, "rb")
        try:
            head = self._fh.read(5)
            if head[:4] != _MAGIC:
                raise ValueError("not a FRZC container")
            if len(head) < 5 or head[4] != _STREAM_VERSION:
                raise ValueError(
                    f"not a streamed container (version "
                    f"{head[4] if len(head) == 5 else '?'}, expected "
                    f"{_STREAM_VERSION}); use Container.frombytes for version 1"
                )
            if self._fh.seek(0, io.SEEK_END) < 5 + _FOOTER_STRUCT.size:
                raise ValueError("streamed container has no footer (truncated write?)")
            self._fh.seek(-_FOOTER_STRUCT.size, io.SEEK_END)
            index_offset, magic = _FOOTER_STRUCT.unpack(self._fh.read(_FOOTER_STRUCT.size))
            if magic != _FOOTER_MAGIC:
                raise ValueError("streamed container has no footer (truncated write?)")
            end = self._fh.seek(0, io.SEEK_END) - _FOOTER_STRUCT.size
            self._fh.seek(index_offset)
            self._index: dict[str, tuple[int, int]] = {
                name: (int(off), int(length))
                for name, (off, length) in json.loads(
                    self._fh.read(end - index_offset).decode("utf-8")
                ).items()
            }
        except BaseException:
            self.close()  # a rejected container must not leak its fh
            raise

    def names(self) -> list[str]:
        return list(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def length(self, name: str) -> int:
        """Payload size of one section without reading it."""
        return self._index[name][1]

    def get(self, name: str) -> bytes:
        """Read one section's payload (a single seek + read)."""
        if self._fh is None:
            raise ValueError("reader is closed")
        offset, length = self._index[name]
        self._fh.seek(offset)
        return self._fh.read(length)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
