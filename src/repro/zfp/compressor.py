"""ZFP compressor front-ends: fixed-accuracy and fixed-rate modes.

Shared pipeline: pad -> 4^d blocks -> block floating point -> decorrelating
transform -> sequency order -> negabinary -> embedded plane coding.  The two
modes differ only in how many bit planes each block keeps:

* **accuracy**: planes down to ``floor(log2(tol)) + FRAC_BITS - emax - GUARD``
  (the flooring quantises the achievable ratios — the paper's Sec. VI-B3
  observation).  A verify-and-patch pass stores any residual out-of-bound
  points verbatim, making the absolute bound unconditional.
* **rate**: exactly ``rate * 4^d`` bits per block (plane-granular cutoff,
  zero-padded to the exact budget).  No error bound — this is the baseline
  whose fidelity gap Figs. 1/9/10 quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.container import Container
from repro.errors import CorruptPayloadError
from repro.pressio import frame
from repro.pressio.compressor import CompressedField, Compressor
from repro.zfp.embedded import (
    COUNT_BITS,
    decode_plane_bits,
    encode_plane_bits,
    rate_limited_nplanes,
    suffix_max,
    unit_counts,
    unit_layout,
)
from repro.zfp.fixedpoint import (
    EMAX_BIAS,
    EMAX_BITS,
    FRAC_BITS,
    block_exponents,
    from_fixed,
    from_negabinary,
    msb_positions,
    to_fixed,
    to_negabinary,
)
from repro.zfp.transform import BLOCK, fwd_transform, inv_transform, sequency_order
from repro.codecs.bitstream import BitReader, pack_bits

__all__ = ["ZFPCompressor", "ZFPFixedRateCompressor", "ZFPPrecisionCompressor"]

GUARD_BITS_PER_DIM = 1
# Inverse-transform error amplification allowance per dimension.  Chosen
# empirically as the best CR/patch tradeoff: one guard bit per dimension
# leaves <1% of points out of bound, and those are fixed exactly by the
# patch section (larger guards cost 15-50% compression ratio).

_KMAX_BITS = 6
_NPLANES_BITS = 6
_BLOCK_HEADER_BITS = EMAX_BITS + _KMAX_BITS + _NPLANES_BITS


def _pack_fields(values: np.ndarray, width: int) -> bytes:
    """One ``width``-bit unsigned field per value, MSB first."""
    return pack_bits(values.astype(np.uint64), np.full(values.size, width, dtype=np.int64))


def _read_fields(outer: Container, name: str, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_fields` for a section that must hold exactly
    ``count`` fields — checked before ``count`` sizes anything."""
    raw = outer.get(name)
    if len(raw) != (count * width + 7) // 8:
        raise CorruptPayloadError(
            f"section {name!r}: {len(raw)} bytes cannot hold {count} {width}-bit fields"
        )
    return BitReader(raw).read_array(count, width).astype(np.int64)


def _pad_to_blocks(data: np.ndarray) -> np.ndarray:
    """Edge-replicate to a multiple of 4 along every axis."""
    pads = [(0, (-s) % BLOCK) for s in data.shape]
    if any(p[1] for p in pads):
        return np.pad(data, pads, mode="edge")
    return data


def _gather_blocks(padded: np.ndarray) -> np.ndarray:
    """(nblocks, 4, ..., 4) batch in C-order over the block grid."""
    ndim = padded.ndim
    counts = tuple(s // BLOCK for s in padded.shape)
    interleaved = padded.reshape(tuple(x for c in counts for x in (c, BLOCK)))
    axes = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
    nblocks = int(np.prod(counts))
    return interleaved.transpose(axes).reshape((nblocks,) + (BLOCK,) * ndim)


def _scatter_blocks(blocks: np.ndarray, padded_shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_gather_blocks`."""
    ndim = len(padded_shape)
    counts = tuple(s // BLOCK for s in padded_shape)
    axes = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
    inverse = np.argsort(axes)
    shaped = blocks.reshape(counts + (BLOCK,) * ndim).transpose(inverse)
    return shaped.reshape(padded_shape)


@dataclass(frozen=True)
class _ZFPBase(Compressor):
    """Shared machinery; subclasses fix the mode and plane-budget policy."""

    error_bound: float = 1e-3

    supported_ndims = (1, 2, 3)

    def with_error_bound(self, error_bound: float) -> "_ZFPBase":
        return replace(self, error_bound=float(error_bound))

    # -- plane budget policy (mode-specific) ---------------------------
    def _nplanes(self, smax: np.ndarray, kmax: np.ndarray, emax: np.ndarray, ndim: int) -> np.ndarray:
        raise NotImplementedError

    # -- compression ----------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = self._checked_input(data)
        header = frame.write_header(data, self.error_bound)
        if data.size == 0:
            return frame.write_empty(data, header)

        ndim = data.ndim
        padded = _pad_to_blocks(data.astype(np.float64))
        blocks = _gather_blocks(padded)
        nblocks = blocks.shape[0]
        m = BLOCK**ndim
        perm = sequency_order(ndim)

        emax = block_exponents(blocks)
        coeff = fwd_transform(to_fixed(blocks, emax)).reshape(nblocks, m)[:, perm]
        neg = to_negabinary(coeff)
        msb = msb_positions(neg)
        smax = suffix_max(msb)
        kmax = (smax[:, 0] + 1).astype(np.int64)

        nplanes = self._nplanes(smax, kmax, emax, ndim)
        unit_block, unit_plane = unit_layout(kmax, nplanes)
        counts = unit_counts(smax, unit_block, unit_plane)
        payload_bits = encode_plane_bits(neg, unit_block, unit_plane, counts)

        outer = frame.new_payload(header)
        outer.add("emax", _pack_fields(emax + EMAX_BIAS, EMAX_BITS))
        outer.add("kmax", _pack_fields(kmax, _KMAX_BITS))
        outer.add("nplanes", _pack_fields(nplanes, _NPLANES_BITS))
        outer.add("counts", _pack_fields(counts, COUNT_BITS))
        outer.add("payload", np.packbits(payload_bits).tobytes() if payload_bits.size else b"")

        if self.mode == "abs":  # verify and patch: the bound holds at every point
            recon = self._reconstruct_array(
                data.shape, padded.shape, data.dtype, emax, kmax, nplanes, counts,
                unit_block, unit_plane, payload_bits,
            )
            bad = np.flatnonzero(
                np.abs(recon.astype(np.float64).ravel() - data.astype(np.float64).ravel())
                > self.error_bound
            )
            frame.add_patches(outer, data, bad, index_first=True)
        else:
            # Fixed-rate: zero-pad the container to the exact bit budget.
            target_bytes = math.ceil(nblocks * m * self.error_bound / 8)
            current = outer.nbytes()
            if current < target_bytes:
                outer.add("pad", b"\x00" * (target_bytes - current))

        return CompressedField(outer.tobytes(), data.nbytes)

    # -- decompression ----------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        header, outer = frame.open_payload(field, self.supported_ndims, codec=False)
        if header.size == 0:
            return frame.read_empty(header, outer)
        shape = header.shape
        padded_shape = tuple(s + ((-s) % BLOCK) for s in shape)
        nblocks = math.prod(s // BLOCK for s in padded_shape)

        emax = _read_fields(outer, "emax", nblocks, EMAX_BITS) - EMAX_BIAS
        kmax = _read_fields(outer, "kmax", nblocks, _KMAX_BITS)
        nplanes = _read_fields(outer, "nplanes", nblocks, _NPLANES_BITS)
        unit_block, unit_plane = unit_layout(kmax, nplanes)
        counts = _read_fields(outer, "counts", unit_block.size, COUNT_BITS)
        total_bits = int(counts.sum())
        packed = outer.get("payload")
        if len(packed) != (total_bits + 7) // 8:
            raise CorruptPayloadError(
                f"section 'payload': {len(packed)} bytes for {total_bits} plane bits"
            )
        payload_bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=total_bits)

        recon = self._reconstruct_array(
            shape, padded_shape, header.dtype, emax, kmax, nplanes, counts,
            unit_block, unit_plane, payload_bits,
        )
        return frame.apply_patches(outer, recon) if self.mode == "abs" else recon

    def _reconstruct_array(
        self,
        shape: tuple[int, ...],
        padded_shape: tuple[int, ...],
        dtype: np.dtype,
        emax: np.ndarray,
        kmax: np.ndarray,
        nplanes: np.ndarray,
        counts: np.ndarray,
        unit_block: np.ndarray,
        unit_plane: np.ndarray,
        payload_bits: np.ndarray,
    ) -> np.ndarray:
        """Shared decoder core (used by decompress and verify-and-patch)."""
        ndim = len(shape)
        m = BLOCK**ndim
        nblocks = int(np.prod([s // BLOCK for s in padded_shape]))
        perm = sequency_order(ndim)
        inv_perm = np.argsort(perm)

        neg = decode_plane_bits(payload_bits, unit_block, unit_plane, counts, nblocks, m)
        coeff = from_negabinary(neg)[:, inv_perm].reshape((nblocks,) + (BLOCK,) * ndim)
        ints = inv_transform(coeff)
        blocks = from_fixed(ints, emax)
        padded = _scatter_blocks(blocks, padded_shape)
        crop = tuple(slice(0, s) for s in shape)
        return padded[crop].astype(dtype)


@dataclass(frozen=True)
class ZFPCompressor(_ZFPBase):
    """ZFP fixed-accuracy mode: ``error_bound`` is the absolute tolerance."""

    name = "zfp"
    mode = "abs"

    def _nplanes(self, smax, kmax, emax, ndim):
        tol = self.error_bound
        log_tol = math.frexp(tol)[1] - 1  # floor(log2(tol)) for tol > 0
        guard = GUARD_BITS_PER_DIM * ndim
        minplane = log_tol + FRAC_BITS - emax - guard
        minplane = np.maximum(minplane, 0)
        return np.clip(kmax - minplane, 0, kmax).astype(np.int64)


@dataclass(frozen=True)
class ZFPPrecisionCompressor(_ZFPBase):
    """ZFP fixed-precision mode: ``error_bound`` is the number of (most
    significant) bit planes kept per block.

    The paper lists precision as one of ZFP's "fixed-accuracy modes"
    alongside the absolute tolerance (Sec. III).  Precision bounds the
    *relative* error per block (each kept plane halves the coefficient
    truncation error w.r.t. the block's own magnitude) but not the absolute
    error, so like rate mode it carries no patch section.
    """

    name = "zfp-prec"
    mode = "prec"

    def _nplanes(self, smax, kmax, emax, ndim):
        precision = max(int(self.error_bound), 0)
        return np.minimum(kmax, precision).astype(np.int64)

    def default_bound_range(self, data: np.ndarray) -> tuple[float, float]:
        """Planes from 1 (coarsest) to full fixed-point depth."""
        return (1.0, float(FRAC_BITS + 6))


@dataclass(frozen=True)
class ZFPFixedRateCompressor(_ZFPBase):
    """ZFP fixed-rate mode: ``error_bound`` is the rate in bits per value.

    Not error-bounded; the paper's fixed-rate baseline (Figs. 1, 9, 10).
    """

    name = "zfp-rate"
    mode = "rate"

    def _nplanes(self, smax, kmax, emax, ndim):
        m = BLOCK**ndim
        budget = int(self.error_bound * m) - _BLOCK_HEADER_BITS
        return rate_limited_nplanes(smax, kmax, budget)

    def default_bound_range(self, data: np.ndarray) -> tuple[float, float]:
        """Rates from ~lossless (dtype width) down to half a bit per value."""
        return (0.5, float(np.asarray(data).dtype.itemsize * 8))
