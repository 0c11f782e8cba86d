"""1-layer Lorenzo predictor with wavefront vectorisation.

The Lorenzo predictor [22] estimates each point from its already-processed
neighbours: in 3D,

    pred[i,j,k] = + f[i-1,j,k] + f[i,j-1,k] + f[i,j,k-1]
                  - f[i-1,j-1,k] - f[i-1,j,k-1] - f[i,j-1,k-1]
                  + f[i-1,j-1,k-1]

(inclusion-exclusion over the corner hypercube; out-of-bounds neighbours
count as 0).  SZ evaluates it on *decompressed* values so compressor and
decompressor stay in lockstep — which serialises the scan order.  The points
on the anti-diagonal hyperplane ``i + j + ... = s`` only reference planes
``< s``, so we precompute, per array shape, the flat indices of every plane
(:class:`WavefrontPlan`, cached) and process one plane per iteration with
batched gathers.  For a ``64x64x32`` field that is ~160 vectorised steps
instead of 131k Python-level point updates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from repro.sz.quantizer import dequantize, quantize

__all__ = [
    "lorenzo_offsets",
    "WavefrontPlan",
    "wavefront_plan",
    "lorenzo_encode",
    "lorenzo_decode",
    "lorenzo_predict_full",
]


def lorenzo_offsets(ndim: int) -> list[tuple[tuple[int, ...], int]]:
    """Neighbour offsets and inclusion-exclusion signs for the predictor.

    Returns every nonzero 0/1 offset vector ``o`` with sign
    ``(-1)**(sum(o) + 1)``; e.g. in 2D: ``(1,0):+1, (0,1):+1, (1,1):-1``.
    """
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    out = []
    for offset in product((0, 1), repeat=ndim):
        weight = sum(offset)
        if weight == 0:
            continue
        out.append((offset, 1 if weight % 2 == 1 else -1))
    return out


class WavefrontPlan:
    """Per-shape wavefront schedule for Lorenzo processing.

    Attributes
    ----------
    planes:
        List of int64 arrays; ``planes[s]`` holds the flat (C-order) indices
        of the points with coordinate sum ``s``, in ascending flat order.
    coords:
        ``ndim``-row int64 array, ``coords[:, flat]`` = the point's
        coordinates (indexed by flat position).
    strides:
        Element (not byte) strides of the C-order layout.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = tuple(int(s) for s in shape)
        ndim = len(self.shape)
        n = int(np.prod(self.shape))
        # Plans are lru_cached per shape and index arrays dominate their
        # footprint; int32 indices halve it (fields with 2**31+ elements per
        # chunk are far past the streaming layer's chunk sizes).
        itype = np.int32 if n < 2**31 else np.int64
        idx = np.indices(self.shape).reshape(ndim, n).astype(itype, copy=False)
        self.coords = idx
        plane_of = idx.sum(axis=0, dtype=itype)
        order = np.argsort(plane_of, kind="stable").astype(itype, copy=False)
        sorted_planes = plane_of[order]
        boundaries = np.searchsorted(
            sorted_planes, np.arange(int(sorted_planes[-1]) + 2 if n else 1)
        )
        self.planes: list[np.ndarray] = [
            np.sort(order[boundaries[s] : boundaries[s + 1]])
            for s in range(len(boundaries) - 1)
        ]
        strides = np.ones(ndim, dtype=np.int64)
        for d in range(ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * self.shape[d + 1]
        self.strides = strides
        self.offsets = lorenzo_offsets(ndim)
        # Pre-resolve per-offset flat deltas.
        self._deltas = [
            (np.asarray(off, dtype=itype), int(np.dot(off, strides)), sign)
            for off, sign in self.offsets
        ]

    def predict_plane(self, recon_flat: np.ndarray, plane: np.ndarray) -> np.ndarray:
        """Lorenzo predictions for one wavefront plane.

        ``recon_flat`` is the flattened reconstruction-so-far; out-of-bounds
        neighbours contribute 0.  Returns float64 predictions aligned with
        ``plane``.
        """
        coords = self.coords[:, plane]
        pred = np.zeros(plane.size, dtype=np.float64)
        for off_vec, delta, sign in self._deltas:
            valid = np.all(coords >= off_vec[:, None], axis=0)
            if not valid.any():
                continue
            vals = recon_flat[plane[valid] - delta].astype(np.float64, copy=False)
            if sign == 1:
                pred[valid] += vals
            else:
                pred[valid] -= vals
        return pred


@lru_cache(maxsize=32)
def wavefront_plan(shape: tuple[int, ...]) -> WavefrontPlan:
    """Cached :class:`WavefrontPlan` for a shape."""
    return WavefrontPlan(shape)


def _plane_points(plan: WavefrontPlan, skip: np.ndarray | None) -> Iterator[np.ndarray]:
    """The points of each wavefront plane, in order, without those set in ``skip``."""
    for plane in plan.planes:
        pts = plane if skip is None else plane[~skip[plane]]
        if pts.size:
            yield pts


def lorenzo_encode(
    shape: tuple[int, ...], values: np.ndarray, store: np.ndarray, error_bound: float,
    radius: int, codes: np.ndarray, literal: np.ndarray, recon: np.ndarray,
    skip: np.ndarray | None = None,
) -> None:
    """Predict and quantize plane by plane, in place; all arrays are flat.

    ``values`` holds the float64 originals, ``store`` the same points in the
    storage dtype.  Filled per point: ``codes``, ``literal`` (True: the
    point travels verbatim) and ``recon``, the value the decoder will hold,
    from which later planes are predicted.  Points set in ``skip`` were
    coded by the caller: their ``recon`` is read, never written.
    """
    plan = wavefront_plan(shape)
    for pts in _plane_points(plan, skip):
        pred = plan.predict_plane(recon, pts)
        qr = quantize(values[pts], pred, error_bound, radius, recon.dtype)
        codes[pts] = qr.codes
        literal[pts] = ~qr.ok
        recon[pts] = np.where(qr.ok, qr.recon, store[pts])


def lorenzo_decode(
    shape: tuple[int, ...], codes: np.ndarray, literal: np.ndarray, error_bound: float,
    recon: np.ndarray, skip: np.ndarray | None = None,
) -> None:
    """Inverse of :func:`lorenzo_encode`: fill the points of ``recon`` that are
    neither ``literal`` nor in ``skip`` (those are in it already)."""
    plan = wavefront_plan(shape)
    for pts in _plane_points(plan, skip):
        pred = plan.predict_plane(recon, pts)
        keep = ~literal[pts]
        recon[pts[keep]] = dequantize(codes[pts[keep]], pred[keep], error_bound, recon.dtype)


def lorenzo_predict_full(data: np.ndarray) -> np.ndarray:
    """Lorenzo prediction of every point from *original* neighbours.

    This is not usable for coding (the decompressor lacks originals) but is
    the cheap vectorised proxy SZ-style predictor selection uses to compare
    Lorenzo against regression per block: one shifted-add per offset.
    """
    data = np.asarray(data, dtype=np.float64)
    pred = np.zeros_like(data)
    for offset, sign in lorenzo_offsets(data.ndim):
        shifted = np.zeros_like(data)
        src = tuple(slice(0, s - o) for s, o in zip(data.shape, offset))
        dst = tuple(slice(o, None) for o in offset)
        shifted[dst] = data[src]
        pred += sign * shifted
    return pred
