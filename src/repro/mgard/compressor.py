"""MGARD compressor: decompose -> per-level quantize -> Huffman -> dictionary.

Error budgeting (infinity norm / ``abs`` mode): with ``L`` levels, detail
level ``l`` gets bin half-width ``eb * 2**-(l+1)`` and the coarsest grid
``eb * 2**-L``; interpolation is max-norm non-expansive, so errors add
across levels and telescope to at most ``eb``.  A verify-and-patch pass
(as in :mod:`repro.zfp.compressor`) makes the bound unconditional against
storage-dtype rounding.

Out-of-range quantization codes escape to verbatim float64 coefficients
(sentinel symbol), so pathological data cannot overflow the Huffman
alphabet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.codecs.interface import get_byte_codec
from repro.codecs.varint import decode_uvarints, encode_uvarints, zigzag_decode, zigzag_encode
from repro.errors import CorruptPayloadError
from repro.mgard.decompose import decompose, detail_sizes, recompose
from repro.mgard.grid import level_shape, num_levels
from repro.pressio.arrayio import decode_array_header, encode_array_header
from repro.pressio.compressor import CompressedField, Compressor

__all__ = ["MGARDCompressor"]


def _level_budgets(eb: float, levels: int) -> tuple[list[float], float]:
    """(per-detail-level half-widths finest-first, coarsest half-width)."""
    detail = [eb * 2.0 ** -(l + 1) for l in range(levels)]
    coarse = eb * 2.0**-levels
    return detail, coarse


@dataclass(frozen=True)
class MGARDCompressor(Compressor):
    """MGARD-style multilevel compressor with an absolute error bound.

    Parameters
    ----------
    error_bound:
        Infinity-norm bound (must be positive at compress time).
    radius:
        Quantization codes outside ``(-radius, radius)`` escape to verbatim
        float64 storage.
    dict_codec:
        Dictionary coder for the entropy-coded payload (``"zlib"``/``"lz77"``).
    max_levels:
        Cap on hierarchy depth.
    """

    error_bound: float = 1e-3
    radius: int = 32768
    dict_codec: str = "zlib"
    max_levels: int = 12
    norm: str = "inf"

    name = "mgard"
    supported_ndims = (2, 3)

    def __post_init__(self) -> None:
        if self.norm not in ("inf", "l2"):
            raise ValueError(f"norm must be 'inf' or 'l2', got {self.norm!r}")

    @property
    def mode(self) -> str:  # type: ignore[override]
        # "abs" = infinity norm (absolute bound); "mse" = L2 norm mode,
        # where ``error_bound`` is the target mean squared error (the
        # paper: "the L2 norm mode can be used to control the MSE").
        return "abs" if self.norm == "inf" else "mse"

    def with_error_bound(self, error_bound: float) -> "MGARDCompressor":
        return replace(self, error_bound=float(error_bound))

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = np.asarray(data)
        self.check_supported(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"MGARD expects float32/float64 data, got {data.dtype}")
        if not self.error_bound > 0:
            raise ValueError(f"error bound must be positive, got {self.error_bound}")
        if data.size == 0:
            outer = Container()
            outer.add("header", self._header(data, 0, float(self.error_bound)))
            return CompressedField(outer.tobytes(), data.nbytes)

        if self.norm == "inf":
            return self._compress_abs(data, float(self.error_bound), patch=True)

        # L2 norm mode: quantization with uniform half-width tau gives
        # per-point error variance ~ tau^2 / 3; start there and verify
        # against the exact decode path, halving until the measured MSE
        # meets the target (a computable guarantee, like the inf mode's
        # patching but in the right norm).
        target_mse = float(self.error_bound)
        tau = float(np.sqrt(3.0 * target_mse))
        field = self._compress_abs(data, tau, patch=False)
        for _ in range(12):
            recon = self.decompress(field)
            diff = recon.astype(np.float64) - data.astype(np.float64)
            if float(np.mean(diff * diff)) <= target_mse:
                break
            tau *= 0.5
            field = self._compress_abs(data, tau, patch=False)
        return field

    def _compress_abs(self, data: np.ndarray, eb: float, patch: bool) -> CompressedField:
        levels = num_levels(data.shape, self.max_levels)
        coarse, details = decompose(data, levels)
        det_eps, coarse_eps = _level_budgets(eb, levels)

        segments = [coarse.ravel()] + details
        epsilons = [coarse_eps] + det_eps
        symbols_parts: list[np.ndarray] = []
        escape_parts: list[np.ndarray] = []
        sentinel = np.int64(self.radius)
        for values, eps in zip(segments, epsilons):
            q = np.rint(values / (2.0 * eps))
            ok = np.abs(q) < self.radius
            symbols_parts.append(np.where(ok, q, float(sentinel)).astype(np.int64))
            escape_parts.append(values[~ok])
        symbols = np.concatenate(symbols_parts)
        escapes = np.concatenate(escape_parts) if escape_parts else np.zeros(0)

        inner = Container()
        inner.add("codes", HuffmanCodec().encode(symbols))
        inner.add("escapes", escapes.astype(np.float64).tobytes())

        if patch:
            # Verify-and-patch against the exact decode path (inf norm).
            recon = self._reconstruct(data.shape, data.dtype, levels, symbols, escapes, eb)
            bad = np.flatnonzero(
                np.abs(recon.astype(np.float64).ravel() - data.astype(np.float64).ravel())
                > eb
            )
        else:
            bad = np.zeros(0, dtype=np.int64)
        inner.add("patch_n", encode_uvarints(np.asarray([bad.size], dtype=np.uint64)))
        inner.add(
            "patch_idx",
            encode_uvarints(zigzag_encode(np.diff(bad, prepend=np.int64(0)))),
        )
        inner.add("patch_val", data.ravel()[bad].tobytes())

        body = get_byte_codec(self.dict_codec).compress(inner.tobytes())
        outer = Container()
        outer.add("header", self._header(data, levels, eb))
        outer.add("body", body)
        return CompressedField(outer.tobytes(), data.nbytes)

    def _header(self, data: np.ndarray, levels: int, applied_bound: float) -> bytes:
        # The header carries the absolute half-width actually applied (for
        # L2 mode that is the internal tau, not the MSE target), so the
        # decoder is norm-agnostic.
        codec_name = self.dict_codec.encode("utf-8")
        return (
            encode_array_header(data)
            + struct.pack("<d", applied_bound)
            + encode_uvarints(
                np.asarray([levels, self.radius, len(codec_name)], dtype=np.uint64)
            )
            + codec_name
        )

    # ------------------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        payload = field.payload if isinstance(field, CompressedField) else field
        outer = Container.frombytes(payload)
        header = outer.get("header")
        dtype, shape, off = decode_array_header(header)
        (eb,) = struct.unpack_from("<d", header, off)
        off += 8
        (levels, radius, codec_len), off = decode_uvarints(header, 3, off)
        codec_name = header[off : off + int(codec_len)].decode("utf-8")

        if int(np.prod(shape)) == 0:
            return np.zeros(shape, dtype=dtype)

        inner = Container.frombytes(get_byte_codec(codec_name).decompress(outer.get("body")))
        symbols = HuffmanCodec().decode(inner.get("codes"))
        escapes = np.frombuffer(inner.get("escapes"), dtype=np.float64)

        recon = self._reconstruct(shape, dtype, int(levels), symbols, escapes, float(eb))

        (n_patch,), _ = decode_uvarints(inner.get("patch_n"), 1, 0)
        if int(n_patch):
            deltas, _ = decode_uvarints(inner.get("patch_idx"), int(n_patch), 0)
            idx = np.cumsum(zigzag_decode(deltas))
            values = np.frombuffer(inner.get("patch_val"), dtype=dtype)
            flat = recon.ravel()
            flat[idx] = values
            recon = flat.reshape(shape)
        return recon

    def _reconstruct(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        levels: int,
        symbols: np.ndarray,
        escapes: np.ndarray,
        eb: float,
    ) -> np.ndarray:
        """Dequantize segments and recompose; shared by both directions."""
        det_eps, coarse_eps = _level_budgets(eb, levels)
        coarse_shape = level_shape(shape, levels)
        sizes = [int(np.prod(coarse_shape))] + detail_sizes(shape, levels)
        epsilons = [coarse_eps] + det_eps

        boundaries = np.cumsum(sizes)
        if symbols.size != boundaries[-1]:
            raise CorruptPayloadError(
                f"mgard payload holds {symbols.size} symbols, "
                f"header declares {boundaries[-1]} coefficients"
            )
        parts = np.split(symbols, boundaries[:-1])

        esc_mask_all = symbols == self.radius
        esc_counts = [int(esc_mask_all[b - s : b].sum()) for s, b in zip(sizes, boundaries)]
        esc_bounds = np.cumsum(esc_counts)
        esc_parts = np.split(escapes, esc_bounds[:-1])

        values: list[np.ndarray] = []
        for part, eps, esc in zip(parts, epsilons, esc_parts):
            v = part.astype(np.float64) * (2.0 * eps)
            mask = part == self.radius
            v[mask] = esc
            values.append(v)

        coarse = values[0].reshape(coarse_shape)
        recon = recompose(coarse, values[1:], shape, levels)
        return recon.astype(dtype)
