"""The SZ compression pipeline (prediction -> quantization -> Huffman -> dictionary).

Payload layout: an outer :class:`~repro.codecs.container.Container` with a
plain-text ``header`` section (shape, dtype, bound, block geometry, codec
name) and a ``body`` section holding a dictionary-coded *inner* container
(predictor selection bits, regression coefficients, Huffman-coded
quantization codes, verbatim literals).

Determinism contract: the decompressor replays exactly the arithmetic the
compressor used — float32 regression coefficients, float64 prediction math,
storage-dtype reconstruction casts — so reconstruction is bit-identical and
the absolute error bound holds for every point (property-tested).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.codecs.interface import get_byte_codec
from repro.codecs.varint import decode_uvarints, encode_uvarints
from repro.errors import CorruptPayloadError
from repro.pressio.arrayio import decode_array_header, encode_array_header
from repro.pressio.compressor import CompressedField, Compressor
from repro.sz.blocks import BlockGrid
from repro.sz.lorenzo import lorenzo_predict_full, wavefront_plan
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
        data = np.asarray(data)
        self.check_supported(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"SZ expects float32/float64 data, got {data.dtype}")
        if not self.error_bound > 0:
            raise ValueError(f"error bound must be positive, got {self.error_bound}")
        if data.size == 0:
            return self._compress_empty(data)

        eb = self._effective_bound(data)
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
        plan = wavefront_plan(shape)
        for plane in plan.planes:
            pts = plane[~reg_point_mask[plane]]
            if pts.size == 0:
                continue
            pred = plan.predict_plane(recon_flat, pts)
            qr = quantize(flat64[pts], pred, eb, self.radius, dtype)
            codes_flat[pts] = qr.codes
            literal_mask[pts[~qr.ok]] = True
            recon_flat[pts] = np.where(qr.ok, qr.recon, flat_store[pts])

        # --- stages 3/4: entropy + dictionary coding ----------------------
        symbols = np.where(literal_mask, np.int64(self.radius), codes_flat)
        literals = flat_store[literal_mask]

        inner = Container()
        inner.add("select", np.packbits(select).tobytes())
        inner.add("coeffs", coeffs_all[select].tobytes())
        inner.add("codes", HuffmanCodec().encode(symbols))
        inner.add("literals", literals.tobytes())
        body = get_byte_codec(self.dict_codec).compress(inner.tobytes())

        outer = Container()
        outer.add("header", self._header(data, eb))
        outer.add("body", body)
        return CompressedField(payload=outer.tobytes(), original_nbytes=data.nbytes)

    def _header(self, data: np.ndarray, effective_bound: float) -> bytes:
        # The header always carries the *absolute* bound actually applied,
        # so decompression is mode-agnostic (REL resolves at compress time).
        codec_name = self.dict_codec.encode("utf-8")
        return (
            encode_array_header(data)
            + struct.pack("<d", effective_bound)
            + encode_uvarints(
                np.asarray(
                    [self.block_size, self.radius, int(self.use_regression), len(codec_name)],
                    dtype=np.uint64,
                )
            )
            + codec_name
        )

    def _compress_empty(self, data: np.ndarray) -> CompressedField:
        outer = Container()
        outer.add("header", self._header(data, float(self.error_bound)))
        outer.add("body", b"")
        return CompressedField(payload=outer.tobytes(), original_nbytes=data.nbytes)

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        payload = field.payload if isinstance(field, CompressedField) else field
        outer = Container.frombytes(payload)
        header = outer.get("header")
        dtype, shape, off = decode_array_header(header)
        (eb,) = struct.unpack_from("<d", header, off)
        off += 8
        (block_size, radius, use_reg, codec_len), off = decode_uvarints(header, 4, off)
        codec_name = header[off : off + int(codec_len)].decode("utf-8")

        n = int(np.prod(shape)) if shape else 1
        if n == 0 or len(shape) == 0:
            return np.zeros(shape, dtype=dtype)

        inner = Container.frombytes(get_byte_codec(codec_name).decompress(outer.get("body")))
        grid = BlockGrid(shape, int(block_size))
        select = (
            np.unpackbits(
                np.frombuffer(inner.get("select"), dtype=np.uint8),
                count=grid.n_full_blocks,
            ).astype(bool)
            if grid.n_full_blocks
            else np.zeros(0, dtype=bool)
        )
        coeffs = np.frombuffer(inner.get("coeffs"), dtype=np.float32).reshape(
            -1, len(shape) + 1
        )
        symbols = HuffmanCodec().decode(inner.get("codes"))
        if symbols.size != n:
            raise CorruptPayloadError(
                f"sz payload holds {symbols.size} symbols, header declares {n} elements"
            )
        literal_mask = symbols == int(radius)
        literals = np.frombuffer(inner.get("literals"), dtype=dtype)

        recon_flat = np.zeros(n, dtype=dtype)
        recon_flat[literal_mask] = literals

        reg_point_mask = np.zeros(n, dtype=bool)
        if select.any():
            flat_ids = grid.full_block_view(np.arange(n).reshape(shape))
            sel_ids = flat_ids[select]
            preds = predict_full_blocks(grid, coeffs)
            idx = sel_ids.ravel()
            keep = ~literal_mask[idx]
            recon_flat[idx[keep]] = dequantize(
                symbols[idx[keep]], preds.ravel()[keep], float(eb), dtype
            )
            reg_point_mask[idx] = True

        plan = wavefront_plan(tuple(shape))
        for plane in plan.planes:
            pts = plane[~reg_point_mask[plane]]
            if pts.size == 0:
                continue
            pred = plan.predict_plane(recon_flat, pts)
            keep = ~literal_mask[pts]
            recon_flat[pts[keep]] = dequantize(
                symbols[pts[keep]], pred[keep], float(eb), dtype
            )
        return recon_flat.reshape(shape)
