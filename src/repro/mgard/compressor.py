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

from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.errors import CorruptPayloadError
from repro.mgard.decompose import decompose, detail_sizes, recompose
from repro.mgard.grid import level_shape, num_levels
from repro.pressio import frame
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
        data = self._checked_input(data)
        if self.norm == "inf" or data.size == 0:  # no elements: either norm holds
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
        # The header carries the absolute half-width actually applied (for
        # L2 mode that is the internal tau, not the MSE target), so the
        # decoder is norm-agnostic.
        header = frame.write_header(data, eb, (levels, self.radius), self.dict_codec)
        if data.size == 0:
            return frame.write_empty(data, header)
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
            recon = self._reconstruct(
                data.shape, data.dtype, levels, self.radius, symbols, escapes, eb
            )
            bad = np.flatnonzero(
                np.abs(recon.astype(np.float64).ravel() - data.astype(np.float64).ravel())
                > eb
            )
        else:
            bad = np.zeros(0, dtype=np.int64)
        frame.add_patches(inner, data, bad)
        return frame.write_body(data, header, inner, self.dict_codec)

    # ------------------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        header, outer = frame.open_payload(field, self.supported_ndims, n_params=2)
        if header.size == 0:
            return frame.read_empty(header, outer)
        levels, radius = header.params
        if levels > num_levels(header.shape, levels):
            raise CorruptPayloadError(f"{levels} levels do not fit shape {header.shape}")

        inner = frame.read_body(header, outer)
        symbols = frame.read_symbols(inner, header.size, self.name)
        escapes = frame.read_values(
            inner.get("escapes"), np.float64, int((symbols == radius).sum()), "escapes"
        )
        recon = self._reconstruct(
            header.shape, header.dtype, levels, radius, symbols, escapes, header.bound
        )
        return frame.apply_patches(inner, recon)

    def _reconstruct(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        levels: int,
        radius: int,
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
        parts = np.split(symbols, boundaries[:-1])

        esc_mask_all = symbols == radius
        esc_counts = [int(esc_mask_all[b - s : b].sum()) for s, b in zip(sizes, boundaries)]
        esc_bounds = np.cumsum(esc_counts)
        esc_parts = np.split(escapes, esc_bounds[:-1])

        values: list[np.ndarray] = []
        for part, eps, esc in zip(parts, epsilons, esc_parts):
            v = part.astype(np.float64) * (2.0 * eps)
            mask = part == radius
            v[mask] = esc
            values.append(v)

        coarse = values[0].reshape(coarse_shape)
        recon = recompose(coarse, values[1:], shape, levels)
        return recon.astype(dtype)
