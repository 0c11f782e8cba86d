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

from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.codecs.huffman import HuffmanCodec
from repro.errors import CorruptPayloadError
from repro.pressio import frame
from repro.pressio.compressor import CompressedField, Compressor
from repro.sz.lorenzo import lorenzo_decode, lorenzo_encode
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


def _passes(ndim: int, levels: int) -> list[tuple[int, int]]:
    """(stride, axis) pairs in coding order, finest last."""
    return [(2**level, axis) for level in range(levels, 0, -1) for axis in range(ndim)]


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

    # -- compression ------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = self._checked_input(data)
        eb = float(self.error_bound)
        dtype = data.dtype
        shape = data.shape
        levels = _num_levels(shape, self.max_levels)
        header = frame.write_header(data, eb, (levels, self.radius), self.dict_codec)
        if data.size == 0:
            return frame.write_empty(data, header, body=True)

        data64 = data.astype(np.float64)
        anchor_stride = 2**levels

        recon = np.zeros(shape, dtype=dtype)
        symbols: list[np.ndarray] = []
        literals: list[np.ndarray] = []
        sentinel = np.int64(self.radius)

        # Anchor grid: wavefront Lorenzo on the strided view.
        anchor_sel = (slice(0, None, anchor_stride),) * data.ndim
        anchors = np.ascontiguousarray(data64[anchor_sel])
        anchors_store = np.ascontiguousarray(data[anchor_sel]).ravel()
        a_recon = np.zeros(anchors.size, dtype=dtype)
        a_codes = np.zeros(anchors.size, dtype=np.int64)
        a_lit = np.zeros(anchors.size, dtype=bool)
        lorenzo_encode(
            anchors.shape, anchors.ravel(), anchors_store, eb, self.radius,
            a_codes, a_lit, a_recon,
        )
        symbols.append(np.where(a_lit, sentinel, a_codes))
        literals.append(anchors_store[a_lit])
        recon[anchor_sel] = a_recon.reshape(anchors.shape)

        # Refinement passes, finest last, with reconstruction feedback.
        for stride, axis in _passes(len(shape), levels):
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
        inner = Container()
        inner.add("codes", HuffmanCodec().encode(all_symbols))
        inner.add("literals", np.concatenate(literals).tobytes())
        return frame.write_body(data, header, inner, self.dict_codec)

    # -- decompression ------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        header, outer = frame.open_payload(field, self.supported_ndims, n_params=2)
        if header.size == 0:
            return frame.read_empty(header, outer)
        dtype, shape, eb, n = header.dtype, header.shape, header.bound, header.size
        levels, radius = header.params
        if levels > _num_levels(shape, levels):
            raise CorruptPayloadError(f"{levels} levels do not fit shape {shape}")

        inner = frame.read_body(header, outer)
        # Anchors and refinement passes visit every element exactly once.
        symbols = frame.read_symbols(inner, n, self.name)
        literal = symbols == radius
        # Coding order: literals sit at their symbols, the rest is filled below.
        values = np.zeros(n, dtype=dtype)
        values[literal] = frame.read_values(
            inner.get("literals"), dtype, int(literal.sum()), "literals"
        )

        recon = np.zeros(shape, dtype=dtype)
        anchor_stride = 2**levels
        anchor_sel = (slice(0, None, anchor_stride),) * len(shape)
        anchor_shape = tuple(-(-dim // anchor_stride) for dim in shape)
        pos = int(np.prod(anchor_shape))
        lorenzo_decode(anchor_shape, symbols[:pos], literal[:pos], eb, values[:pos])
        recon[anchor_sel] = values[:pos].reshape(anchor_shape)

        # Refinement passes in the identical order.
        for stride, axis in _passes(len(shape), levels):
            slicers = _pass_slicers(shape, stride, axis)
            if slicers is None:
                continue
            target_sl = slicers[0]
            view_shape = recon[target_sl].shape
            count = int(np.prod(view_shape))
            if count == 0:
                continue
            seg = slice(pos, pos + count)
            pos += count
            keep = ~literal[seg]
            pred = _interp_pred(recon, slicers).ravel()
            values[seg][keep] = dequantize(symbols[seg][keep], pred[keep], eb, dtype)
            recon[target_sl] = values[seg].reshape(view_shape)

        return recon
