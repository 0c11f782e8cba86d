"""The payload frame every compressor writes and reads.

A payload is a :class:`~repro.codecs.container.Container` that opens with a
``header`` section (dtype code, rank, extents, applied bound, per-compressor
integers, dictionary-codec name) and continues with either a ``body`` — the
dictionary-coded *inner* container of ``sz``, ``sz-interp`` and ``mgard`` —
or the compressor's own sections (``zfp*``, ``sz-pwrel``); verify-and-patch
compressors add ``patch_n``, ``patch_idx`` and ``patch_val``.  The byte
layout and the format limits are tabulated once, in ``docs/COMPRESSORS.md``
("Payload frame").  Readers raise :class:`~repro.errors.CorruptPayloadError`
for bytes the writers here could not have produced, and check every declared
size against the bytes present before it sizes anything.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Sequence

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.codecs.interface import get_byte_codec, list_byte_codecs
from repro.codecs.varint import decode_uvarints, encode_uvarints, zigzag_decode, zigzag_encode
from repro.errors import CorruptPayloadError
from repro.pressio.compressor import CompressedField

__all__ = [
    "DTYPES", "Header", "write_header", "read_header", "new_payload", "write_empty",
    "write_body", "open_payload", "read_empty", "read_body", "read_symbols",
    "read_values", "unpack_mask", "add_patches", "apply_patches",
]

#: Storage dtypes by header code.
DTYPES = ("float32", "float64")


class Header(NamedTuple):
    """A parsed ``header`` section."""

    dtype: np.dtype
    shape: tuple[int, ...]
    bound: float
    extra: tuple[float, ...]
    params: tuple[int, ...]
    codec: str | None

    @property
    def size(self) -> int:
        """Element count, as a Python int so that hostile extents cannot wrap it."""
        return math.prod(self.shape)


def write_header(data: np.ndarray, bound: float, params: Sequence[int] = (),
                 codec: str | None = None, extra: Sequence[float] = ()) -> bytes:
    """Header of ``data``'s payload: ``bound`` is the value that was applied,
    ``extra`` further doubles, ``params`` the compressor's integers, ``codec``
    the dictionary stage (``None``: the compressor has none)."""
    if data.dtype.name not in DTYPES:
        raise TypeError(f"unsupported dtype {data.dtype.name!r}; compressors take {DTYPES}")
    if not 0 < bound < math.inf:
        raise ValueError(f"applied bound must be positive and finite, got {bound}")
    out = encode_uvarints([DTYPES.index(data.dtype.name), data.ndim, *data.shape])
    out += struct.pack(f"<{1 + len(extra)}d", bound, *extra) + encode_uvarints(params)
    if codec is not None:
        name = codec.encode("utf-8")
        out += encode_uvarints([len(name)]) + name
    return out


def read_header(blob: bytes, ndims: Sequence[int], n_params: int = 0,
                codec: bool = True, n_extra: int = 0) -> Header:
    """Parse a header written with the same field counts, consuming it exactly."""
    (code, ndim), off = decode_uvarints(blob, 2)
    if code >= len(DTYPES):
        raise CorruptPayloadError(f"unknown dtype code {code}")
    if ndim not in ndims:
        raise CorruptPayloadError(f"{ndim}-D payload, supported: {tuple(ndims)}")
    extents, off = decode_uvarints(blob, int(ndim), off)
    dtype = np.dtype(DTYPES[code])
    shape = tuple(int(s) for s in extents)
    if math.prod(max(s, 1) for s in shape) * dtype.itemsize >= 2**63:
        raise CorruptPayloadError(f"shape {shape} is beyond the address space")
    if len(blob) - off < 8 * (1 + n_extra):
        raise CorruptPayloadError("header cut before the bound")
    bound, *extra = struct.unpack_from(f"<{1 + n_extra}d", blob, off)
    if not 0 < bound < math.inf or not all(map(math.isfinite, extra)):
        raise CorruptPayloadError(f"bound {bound} {extra} is not positive and finite")
    params, off = decode_uvarints(blob, n_params, off + 8 * (1 + n_extra))
    name = None
    if codec:
        (length,), off = decode_uvarints(blob, 1, off)
        name = blob[off : off + int(length)].decode("utf-8", "replace")
        off += int(length)
        if name not in list_byte_codecs():
            raise CorruptPayloadError(f"unknown byte codec {name!r}")
    if off != len(blob):
        raise CorruptPayloadError(f"header of {len(blob)} bytes, its fields take {off}")
    return Header(dtype, shape, bound, tuple(extra), tuple(int(p) for p in params), name)


def new_payload(header: bytes) -> Container:
    """The outer container of a payload, ``header`` in place."""
    outer = Container()
    outer.add("header", header)
    return outer


def write_empty(data: np.ndarray, header: bytes, body: bool = False) -> CompressedField:
    """Payload of an array without elements: the header, plus an empty ``body``
    for the compressors that have always written one."""
    outer = new_payload(header)
    if body:
        outer.add("body", b"")
    return CompressedField(outer.tobytes(), data.nbytes)


def write_body(data: np.ndarray, header: bytes, inner: Container, codec: str) -> CompressedField:
    """Payload of ``header`` + ``body``, the dictionary-coded ``inner`` container."""
    outer = new_payload(header)
    outer.add("body", get_byte_codec(codec).compress(inner.tobytes()))
    return CompressedField(outer.tobytes(), data.nbytes)


def open_payload(field: CompressedField | bytes, ndims: Sequence[int],
                 **layout) -> tuple[Header, Container]:
    """Unwrap and parse a payload (``layout`` as for :func:`read_header`)."""
    payload = field.payload if isinstance(field, CompressedField) else field
    outer = Container.frombytes(payload)
    return read_header(outer.get("header"), ndims, **layout), outer


def read_empty(header: Header, outer: Container) -> np.ndarray:
    """The array of a payload whose header declares no elements."""
    if any(outer.get(name) for name in outer.names() if name != "header"):
        raise CorruptPayloadError(f"shape {header.shape} has no elements, yet data follows")
    return np.zeros(header.shape, dtype=header.dtype)


def read_body(header: Header, outer: Container) -> Container:
    """The inner container of a ``header`` + ``body`` payload."""
    return Container.frombytes(get_byte_codec(header.codec).decompress(outer.get("body")))


def read_symbols(inner: Container, count: int, what: str) -> np.ndarray:
    """The Huffman-coded ``codes`` section, which must hold ``count`` symbols.

    The decoder bounds the symbol count by the bytes present, so nothing is
    sized by a declared shape before the two agree.
    """
    symbols = HuffmanCodec().decode(inner.get("codes"))
    if symbols.size != count:
        raise CorruptPayloadError(
            f"{what} payload holds {symbols.size} symbols, header declares {count}"
        )
    return symbols


def read_values(raw: bytes, dtype: np.dtype, count: int, what: str) -> np.ndarray:
    """``count`` values of ``dtype`` from a section of exactly that size."""
    if len(raw) != count * np.dtype(dtype).itemsize:
        raise CorruptPayloadError(f"{what}: {len(raw)} bytes for {count} {dtype} values")
    return np.frombuffer(raw, dtype=dtype)


def unpack_mask(raw: bytes, count: int, what: str) -> np.ndarray:
    """``count`` booleans from an ``np.packbits`` section of exactly that size."""
    if len(raw) != (count + 7) // 8:
        raise CorruptPayloadError(f"{what}: {len(raw)} bytes cannot hold {count} bits")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count).astype(bool)


def add_patches(sections: Container, data: np.ndarray, bad: np.ndarray,
                index_first: bool = False) -> None:
    """Append the patch sections for the ascending flat indices ``bad``
    (``index_first``: ZFP's order, ``patch_idx`` before ``patch_n``)."""
    count = ("patch_n", encode_uvarints([bad.size]))
    index = ("patch_idx", encode_uvarints(zigzag_encode(np.diff(bad, prepend=np.int64(0)))))
    for name, blob in (index, count) if index_first else (count, index):
        sections.add(name, blob)
    sections.add("patch_val", data.ravel()[bad].tobytes())


def apply_patches(sections: Container, recon: np.ndarray) -> np.ndarray:
    """``recon`` with the patched points overwritten by their stored values."""
    (count,), _ = decode_uvarints(sections.get("patch_n"), 1)
    values = read_values(sections.get("patch_val"), recon.dtype, int(count), "patch_val")
    raw = sections.get("patch_idx")
    deltas, end = decode_uvarints(raw, int(count))
    if end != len(raw):
        raise CorruptPayloadError(f"patch_idx holds more than {count} indices")
    idx = np.cumsum(zigzag_decode(deltas))
    if idx.size and (idx.min() < 0 or idx.max() >= recon.size):
        raise CorruptPayloadError(f"patch index outside [0, {recon.size})")
    flat = recon.ravel()
    flat[idx] = values
    return flat.reshape(recon.shape)
