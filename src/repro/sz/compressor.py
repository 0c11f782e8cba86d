"""The SZ compression pipeline (prediction -> quantization -> Huffman -> dictionary).

Payload layout: the ``header`` + ``body`` frame of :mod:`repro.pressio.frame`
(header integers: block size, radius, regression flag); the inner container
holds predictor selection bits, regression coefficients, Huffman-coded
quantization codes and verbatim literals.

Determinism contract: the decompressor replays exactly the arithmetic the
compressor used — float32 regression coefficients, float64 prediction math,
storage-dtype reconstruction casts — so reconstruction is bit-identical and
the absolute error bound holds for every point (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.errors import CorruptPayloadError
from repro.pressio import frame
from repro.pressio.compressor import CompressedField, Compressor
from repro.sz.blocks import BlockGrid
from repro.sz.lorenzo import lorenzo_decode, lorenzo_encode, lorenzo_predict_full
from repro.sz.quantizer import dequantize, quantize
from repro.sz.regression import fit_full_blocks, predict_full_blocks

__all__ = ["SZCompressor"]

_REGRESSION_BIAS = 0.9
# Regression must beat Lorenzo by 10% (covers its coefficient storage cost).


@dataclass(frozen=True)
class SZCompressor(Compressor):
    """SZ 2.x-style error-bounded compressor.

    Parameters
    ----------
    error_bound:
        Absolute error bound (must be positive at compress time).
    block_size:
        Side of the predictor-selection blocks (paper: 6 for 3D).
    radius:
        Quantization code radius: codes live in ``(-radius, radius)``;
        out-of-range points are stored verbatim.  SZ's default corresponds
        to 65536 bins.
    dict_codec:
        Stage-4 dictionary coder: ``"zlib"`` (DEFLATE, default) or
        ``"lz77"`` (the from-scratch reference coder).
    use_regression:
        Enable the per-block regression predictor (SZ 2.x hybrid); with
        ``False`` this degrades to pure Lorenzo (SZ 1.4-style).
    """

    error_bound: float = 1e-3
    block_size: int = 6
    radius: int = 32768
    dict_codec: str = "zlib"
    use_regression: bool = True
    bound_mode: str = "abs"

    name = "sz"
    supported_ndims = (1, 2, 3)

    def __post_init__(self) -> None:
        if self.bound_mode not in ("abs", "rel"):
            raise ValueError(f"bound_mode must be 'abs' or 'rel', got {self.bound_mode!r}")

    @property
    def mode(self) -> str:  # type: ignore[override]
        return self.bound_mode

    def with_error_bound(self, error_bound: float) -> "SZCompressor":
        return replace(self, error_bound=float(error_bound))

    def _effective_bound(self, data: np.ndarray) -> float:
        """Resolve the configured bound to an absolute one.

        SZ's REL mode (value-range relative bound) scales by ``max - min``
        of the input, exactly as SZ 2.x does; for constant data the range
        is treated as 1 so REL degrades gracefully.
        """
        if self.bound_mode == "abs":
            return float(self.error_bound)
        span = float(data.max() - data.min()) if data.size else 1.0
        if span <= 0.0:
            span = 1.0
        return float(self.error_bound) * span

    def default_bound_range(self, data: np.ndarray) -> tuple[float, float]:
        if self.bound_mode == "rel":
            return (1e-9, 1.0)
        return super().default_bound_range(data)

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = self._checked_input(data)
        # The header carries the *absolute* bound actually applied, so
        # decompression is mode-agnostic (REL resolves at compress time).
        eb = self._effective_bound(data)
        header = frame.write_header(
            data, eb, (self.block_size, self.radius, int(self.use_regression)), self.dict_codec
        )
        if data.size == 0:
            return frame.write_empty(data, header, body=True)

        dtype = data.dtype
        shape = data.shape
        n = data.size
        flat64 = data.astype(np.float64).ravel()
        flat_store = data.ravel()

        grid = BlockGrid(shape, self.block_size)
        select = np.zeros(grid.n_full_blocks, dtype=bool)
        coeffs_all = np.zeros((grid.n_full_blocks, data.ndim + 1), dtype=np.float32)
        if self.use_regression and grid.n_full_blocks > 0:
            data64 = flat64.reshape(shape)
            block_values = grid.full_block_view(data64)
            coeffs_all = fit_full_blocks(grid, block_values)
            pred_reg = predict_full_blocks(grid, coeffs_all)
            reg_err = np.abs(pred_reg - block_values).sum(axis=1)
            lor_abs = np.abs(lorenzo_predict_full(data64) - data64)
            lor_err = grid.full_block_view(lor_abs).sum(axis=1)
            select = reg_err < _REGRESSION_BIAS * lor_err

        codes_flat = np.zeros(n, dtype=np.int64)
        literal_mask = np.zeros(n, dtype=bool)
        recon_flat = np.zeros(n, dtype=dtype)

        # --- stage 1a/2: regression blocks, fully vectorised --------------
        reg_point_mask = np.zeros(n, dtype=bool)
        if select.any():
            flat_ids = grid.full_block_view(np.arange(n).reshape(shape))
            sel_ids = flat_ids[select]  # (nsel, B**d)
            preds = predict_full_blocks(grid, coeffs_all[select])
            qr = quantize(flat64[sel_ids], preds, eb, self.radius, dtype)
            idx = sel_ids.ravel()
            ok = qr.ok.ravel()
            codes_flat[idx] = qr.codes.ravel()
            literal_mask[idx[~ok]] = True
            recon_flat[idx] = np.where(ok, qr.recon.ravel(), flat_store[idx])
            reg_point_mask[idx] = True

        # --- stage 1b/2: Lorenzo wavefront over the remaining points ------
        lorenzo_encode(
            shape, flat64, flat_store, eb, self.radius,
            codes_flat, literal_mask, recon_flat, skip=reg_point_mask,
        )

        # --- stages 3/4: entropy + dictionary coding ----------------------
        symbols = np.where(literal_mask, np.int64(self.radius), codes_flat)
        literals = flat_store[literal_mask]

        inner = Container()
        inner.add("select", np.packbits(select).tobytes())
        inner.add("coeffs", coeffs_all[select].tobytes())
        inner.add("codes", HuffmanCodec().encode(symbols))
        inner.add("literals", literals.tobytes())
        return frame.write_body(data, header, inner, self.dict_codec)

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        header, outer = frame.open_payload(field, self.supported_ndims, n_params=3)
        if header.size == 0:
            return frame.read_empty(header, outer)
        dtype, shape, eb, n = header.dtype, header.shape, header.bound, header.size
        block_size, radius, _ = header.params

        inner = frame.read_body(header, outer)
        symbols = frame.read_symbols(inner, n, self.name)
        if block_size < 1:
            raise CorruptPayloadError(f"block size {block_size}")
        grid = BlockGrid(shape, block_size)
        select = frame.unpack_mask(inner.get("select"), grid.n_full_blocks, "select")
        coeffs = frame.read_values(
            inner.get("coeffs"), np.float32, int(select.sum()) * (len(shape) + 1), "coeffs"
        ).reshape(-1, len(shape) + 1)
        literal_mask = symbols == radius

        recon_flat = np.zeros(n, dtype=dtype)
        recon_flat[literal_mask] = frame.read_values(
            inner.get("literals"), dtype, int(literal_mask.sum()), "literals"
        )

        reg_point_mask = np.zeros(n, dtype=bool)
        if select.any():
            flat_ids = grid.full_block_view(np.arange(n).reshape(shape))
            sel_ids = flat_ids[select]
            preds = predict_full_blocks(grid, coeffs)
            idx = sel_ids.ravel()
            keep = ~literal_mask[idx]
            recon_flat[idx[keep]] = dequantize(
                symbols[idx[keep]], preds.ravel()[keep], eb, dtype
            )
            reg_point_mask[idx] = True

        lorenzo_decode(shape, symbols, literal_mask, eb, recon_flat, skip=reg_point_mask)
        return recon_flat.reshape(shape)
