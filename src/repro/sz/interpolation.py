"""SZ3-style multilevel interpolation compressor.

The successor to the paper's SZ 2.x replaces the block hybrid predictor
with dyadic **interpolation prediction** (Zhao et al., ICDE'21): anchor
points on a coarse grid are coded first, then each refinement level
predicts the new points by linear interpolation from already-*reconstructed*
neighbours, one axis at a time, quantizing immediately so later passes feed
on decompressed values (the same feedback discipline as Lorenzo, hence the
same non-monotonic ratio curves FRaZ is built to tolerate).

Vectorisation: within one ``(level, axis)`` pass every target point is
independent — its neighbours were reconstructed in earlier passes — so each
pass is a handful of strided-view operations; there is no per-point loop.
The anchor grid is coded with the existing wavefront Lorenzo machinery.

Pipeline after prediction matches SZ: linear-scaling quantization with
verbatim literals, Huffman, dictionary stage.  Absolute bound enforced
per point (property-tested).
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
from repro.sz.lorenzo import wavefront_plan
from repro.sz.quantizer import dequantize, quantize

__all__ = ["SZInterpolationCompressor"]

_MAX_LEVELS = 6
_MIN_ANCHOR_POINTS = 4


def _num_levels(shape: tuple[int, ...], max_levels: int = _MAX_LEVELS) -> int:
    """Deepest dyadic hierarchy keeping >= _MIN_ANCHOR_POINTS anchors per axis."""
    levels = 0
    while levels < max_levels:
        stride = 2 ** (levels + 1)
        if any(-(-dim // stride) < _MIN_ANCHOR_POINTS for dim in shape):
            break
        levels += 1
    return levels


def _pass_slicers(
    shape: tuple[int, ...], stride: int, axis: int
) -> tuple[tuple[slice, ...], tuple[slice, ...], tuple[slice, ...]] | None:
    """(target, left, right) strided views for one interpolation pass.

    Targets sit at odd multiples of ``half = stride // 2`` along ``axis``;
    axes before ``axis`` are already refined to ``half`` resolution, axes
    after it are still at ``stride``.  ``right`` may be shorter than the
    target along ``axis`` (boundary targets have no right neighbour).
    """
    half = stride // 2
    if half < 1 or shape[axis] <= half:
        return None
    target, left, right = [], [], []
    for d, dim in enumerate(shape):
        if d < axis:
            target.append(slice(0, None, half))
            left.append(slice(0, None, half))
            right.append(slice(0, None, half))
        elif d == axis:
            target.append(slice(half, None, stride))
            left.append(slice(0, dim - half, stride))
            right.append(slice(stride, None, stride))
        else:
            target.append(slice(0, None, stride))
            left.append(slice(0, None, stride))
            right.append(slice(0, None, stride))
    return tuple(target), tuple(left), tuple(right)


def _interp_pred(recon: np.ndarray, slicers) -> np.ndarray:
    """Linear interpolation prediction for one pass (float64).

    Boundary targets lacking a right neighbour copy the left one (the
    standard dyadic convention, also used by :mod:`repro.mgard.grid`).
    """
    _, left_sl, right_sl = slicers
    left = recon[left_sl].astype(np.float64)
    right = recon[right_sl].astype(np.float64)
    if left.shape == right.shape:
        return 0.5 * (left + right)
    pred = left.copy()
    d = _diff_axis(left.shape, right.shape)
    sl = [slice(None)] * left.ndim
    sl[d] = slice(0, right.shape[d])
    pred[tuple(sl)] = 0.5 * (left[tuple(sl)] + right)
    return pred


def _diff_axis(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    for d, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return d
    return 0


@dataclass(frozen=True)
class SZInterpolationCompressor(Compressor):
    """Interpolation-predicted error-bounded compressor (SZ3 style).

    Parameters mirror :class:`repro.sz.compressor.SZCompressor`; there is
    no block size (prediction is global/dyadic) and no regression stage.
    """

    error_bound: float = 1e-3
    radius: int = 32768
    dict_codec: str = "zlib"
    max_levels: int = _MAX_LEVELS

    name = "sz-interp"
    mode = "abs"
    supported_ndims = (1, 2, 3)

    def with_error_bound(self, error_bound: float) -> "SZInterpolationCompressor":
        return replace(self, error_bound=float(error_bound))

    # -- shared pass schedule -------------------------------------------
    def _passes(self, shape: tuple[int, ...]) -> list[tuple[int, int]]:
        """(stride, axis) pairs in coding order, finest last."""
        levels = _num_levels(shape, self.max_levels)
        out = []
        for level in range(levels, 0, -1):
            stride = 2**level
            for axis in range(len(shape)):
                out.append((stride, axis))
        return out

    # -- compression ------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = np.asarray(data)
        self.check_supported(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"sz-interp expects float32/float64 data, got {data.dtype}")
        if not self.error_bound > 0:
            raise ValueError(f"error bound must be positive, got {self.error_bound}")
        if data.size == 0:
            outer = Container()
            outer.add("header", self._header(data, 0))
            outer.add("body", b"")
            return CompressedField(outer.tobytes(), data.nbytes)

        eb = float(self.error_bound)
        dtype = data.dtype
        shape = data.shape
        data64 = data.astype(np.float64)
        levels = _num_levels(shape, self.max_levels)
        anchor_stride = 2**levels

        recon = np.zeros(shape, dtype=dtype)
        symbols: list[np.ndarray] = []
        literals: list[np.ndarray] = []
        sentinel = np.int64(self.radius)

        # Anchor grid: wavefront Lorenzo on the strided view.
        anchor_sel = (slice(0, None, anchor_stride),) * data.ndim
        anchors = np.ascontiguousarray(data64[anchor_sel])
        anchors_store = np.ascontiguousarray(data[anchor_sel])
        plan = wavefront_plan(anchors.shape)
        a_flat64 = anchors.ravel()
        a_recon = np.zeros(a_flat64.size, dtype=dtype)
        a_codes = np.zeros(a_flat64.size, dtype=np.int64)
        a_lit = np.zeros(a_flat64.size, dtype=bool)
        for plane in plan.planes:
            pred = plan.predict_plane(a_recon, plane)
            qr = quantize(a_flat64[plane], pred, eb, self.radius, dtype)
            a_codes[plane] = qr.codes
            a_lit[plane] = ~qr.ok
            a_recon[plane] = np.where(qr.ok, qr.recon, anchors_store.ravel()[plane])
        symbols.append(np.where(a_lit, sentinel, a_codes))
        literals.append(anchors_store.ravel()[a_lit])
        recon[anchor_sel] = a_recon.reshape(anchors.shape)

        # Refinement passes, finest last, with reconstruction feedback.
        for stride, axis in self._passes(shape):
            slicers = _pass_slicers(shape, stride, axis)
            if slicers is None:
                continue
            target_sl = slicers[0]
            values = data64[target_sl]
            if values.size == 0:
                continue
            pred = _interp_pred(recon, slicers)
            qr = quantize(values.ravel(), pred.ravel(), eb, self.radius, dtype)
            store_vals = data[target_sl].ravel()
            recon[target_sl] = np.where(
                qr.ok, qr.recon, store_vals
            ).reshape(values.shape)
            symbols.append(np.where(qr.ok, qr.codes, sentinel))
            literals.append(store_vals[~qr.ok])

        all_symbols = np.concatenate(symbols)
        all_literals = (
            np.concatenate(literals) if literals else np.zeros(0, dtype=dtype)
        )
        inner = Container()
        inner.add("codes", HuffmanCodec().encode(all_symbols))
        inner.add("literals", all_literals.tobytes())
        body = get_byte_codec(self.dict_codec).compress(inner.tobytes())

        outer = Container()
        outer.add("header", self._header(data, levels))
        outer.add("body", body)
        return CompressedField(outer.tobytes(), data.nbytes)

    def _header(self, data: np.ndarray, levels: int) -> bytes:
        codec = self.dict_codec.encode()
        return (
            encode_array_header(data)
            + struct.pack("<d", self.error_bound)
            + encode_uvarints(
                np.asarray([levels, self.radius, len(codec)], dtype=np.uint64)
            )
            + codec
        )

    # -- decompression ------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        payload = field.payload if isinstance(field, CompressedField) else field
        outer = Container.frombytes(payload)
        header = outer.get("header")
        dtype, shape, off = decode_array_header(header)
        (eb,) = struct.unpack_from("<d", header, off)
        off += 8
        (levels, radius, codec_len), off = decode_uvarints(header, 3, off)
        codec = header[off : off + int(codec_len)].decode()

        n = int(np.prod(shape))
        if n == 0:
            return np.zeros(shape, dtype=dtype)

        inner = Container.frombytes(get_byte_codec(codec).decompress(outer.get("body")))
        all_symbols = HuffmanCodec().decode(inner.get("codes"))
        # Anchors and refinement passes visit every element exactly once.
        if all_symbols.size != n:
            raise CorruptPayloadError(
                f"sz-interp payload holds {all_symbols.size} symbols, "
                f"header declares {n} elements"
            )
        all_literals = np.frombuffer(inner.get("literals"), dtype=dtype)

        recon = np.zeros(shape, dtype=dtype)
        sym_pos = 0
        lit_pos = 0
        anchor_stride = 2 ** int(levels)
        eb = float(eb)

        # Anchors.
        anchor_sel = (slice(0, None, anchor_stride),) * len(shape)
        anchor_shape = tuple(-(-dim // anchor_stride) for dim in shape)
        n_anchor = int(np.prod(anchor_shape))
        seg = all_symbols[sym_pos : sym_pos + n_anchor]
        sym_pos += n_anchor
        lit_mask = seg == int(radius)
        n_lit = int(lit_mask.sum())
        seg_lit = all_literals[lit_pos : lit_pos + n_lit]
        lit_pos += n_lit
        plan = wavefront_plan(anchor_shape)
        a_recon = np.zeros(n_anchor, dtype=dtype)
        lit_values = np.zeros(n_anchor, dtype=dtype)
        lit_values[lit_mask] = seg_lit
        a_recon[lit_mask] = seg_lit
        for plane in plan.planes:
            pred = plan.predict_plane(a_recon, plane)
            keep = ~lit_mask[plane]
            a_recon[plane[keep]] = dequantize(seg[plane[keep]], pred[keep], eb, dtype)
        recon[anchor_sel] = a_recon.reshape(anchor_shape)

        # Refinement passes in the identical order.
        for stride, axis in self._passes(shape):
            slicers = _pass_slicers(shape, stride, axis)
            if slicers is None:
                continue
            target_sl = slicers[0]
            view_shape = recon[target_sl].shape
            count = int(np.prod(view_shape))
            if count == 0:
                continue
            seg = all_symbols[sym_pos : sym_pos + count]
            sym_pos += count
            lit_mask = seg == int(radius)
            n_lit = int(lit_mask.sum())
            seg_lit = all_literals[lit_pos : lit_pos + n_lit]
            lit_pos += n_lit
            pred = _interp_pred(recon, slicers).ravel()
            out = np.empty(count, dtype=dtype)
            out[lit_mask] = seg_lit
            keep = ~lit_mask
            out[keep] = dequantize(seg[keep], pred[keep], eb, dtype)
            recon[target_sl] = out.reshape(view_shape)

        return recon
