"""Point-wise relative error bounds via log-domain transform.

SZ's ``PW_REL`` mode guarantees ``|d_i - d'_i| <= rel * |d_i|`` for every
point — the bound the paper's reference [9] (Liang et al., CLUSTER'18)
obtains with "an efficient transformation scheme": compress ``log2|d|``
under an *absolute* bound of ``log2(1 + rel)``, store signs separately,
and exponentiate on reconstruction.  Cosmology users favour it because
particle coordinates span magnitudes (halo cores vs voids) that no single
absolute bound serves.

:class:`SZPointwiseRelative` composes the stock :class:`SZCompressor` on
the transformed field:

* ``sign`` bits and a ``zero`` mask travel as dictionary-coded bitmaps;
* values with ``|d| <= zero_threshold`` reconstruct as exactly 0 (a
  relative bound is meaningless at 0; the threshold is the standard
  practical floor, and it is recorded in the payload);
* a verify-and-patch pass stores any point whose *relative* error exceeds
  the bound after the float cast, making the guarantee unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.codecs.interface import get_byte_codec
from repro.errors import CorruptPayloadError
from repro.pressio import frame
from repro.pressio.compressor import CompressedField, Compressor
from repro.sz.compressor import SZCompressor

__all__ = ["SZPointwiseRelative"]

DEFAULT_ZERO_THRESHOLD = 1e-35


@dataclass(frozen=True)
class SZPointwiseRelative(Compressor):
    """SZ with a point-wise relative error bound.

    Parameters
    ----------
    error_bound:
        Relative tolerance ``rel``: every reconstructed value satisfies
        ``|d - d'| <= rel * |d|`` (points below ``zero_threshold`` become
        exactly 0 instead).
    zero_threshold:
        Magnitude floor under which values are treated as zero.
    dict_codec:
        Dictionary backend for the sign/zero bitmaps and the inner SZ.
    """

    error_bound: float = 1e-3
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD
    dict_codec: str = "zlib"

    name = "sz-pwrel"
    mode = "pwrel"
    supported_ndims = (1, 2, 3)

    def with_error_bound(self, error_bound: float) -> "SZPointwiseRelative":
        return replace(self, error_bound=float(error_bound))

    def default_bound_range(self, data: np.ndarray) -> tuple[float, float]:
        """Relative bounds from one part per billion to 50%."""
        return (1e-9, 0.5)

    def _inner(self) -> SZCompressor:
        # log2(1 + rel) in the log domain gives exactly the multiplicative
        # band [1/(1+rel), 1+rel] around each value.
        log_bound = float(np.log2(1.0 + self.error_bound))
        return SZCompressor(error_bound=log_bound, dict_codec=self.dict_codec)

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedField:
        data = self._checked_input(data)
        if not np.isfinite(data).all():
            raise ValueError("sz-pwrel does not support NaN/Inf values")

        flat = data.astype(np.float64).ravel()
        zero_mask = np.abs(flat) <= self.zero_threshold
        sign_mask = flat < 0

        logs = np.zeros_like(flat)
        nz = ~zero_mask
        logs[nz] = np.log2(np.abs(flat[nz]))
        # Zero positions carry a filler value so they do not distort the
        # inner compressor's statistics more than necessary.
        if nz.any():
            logs[zero_mask] = logs[nz].min()
        log_field = self._inner().compress(logs.reshape(data.shape))

        # Verify in the *relative* metric and patch violators verbatim
        # (float casts and the log/exp roundtrip can graze the bound).
        recon = self._reconstruct(
            data.shape, data.dtype, log_field.payload, zero_mask, sign_mask
        ).ravel()
        rel_err = np.zeros_like(flat)
        rel_err[nz] = np.abs(recon.astype(np.float64)[nz] - flat[nz]) / np.abs(flat[nz])
        bad = np.flatnonzero(rel_err > self.error_bound)

        outer = frame.new_payload(
            frame.write_header(
                data, self.error_bound, codec=self.dict_codec, extra=(self.zero_threshold,)
            )
        )
        codec = get_byte_codec(self.dict_codec)
        outer.add("signs", codec.compress(np.packbits(sign_mask).tobytes()))
        outer.add("zeros", codec.compress(np.packbits(zero_mask).tobytes()))
        outer.add("logs", log_field.payload)
        frame.add_patches(outer, data, bad)
        return CompressedField(payload=outer.tobytes(), original_nbytes=data.nbytes)

    # ------------------------------------------------------------------
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        header, outer = frame.open_payload(field, self.supported_ndims, n_extra=1)
        codec = get_byte_codec(header.codec)
        # An empty array takes the same path: its masks hold no bytes.
        sign_mask = frame.unpack_mask(codec.decompress(outer.get("signs")), header.size, "signs")
        zero_mask = frame.unpack_mask(codec.decompress(outer.get("zeros")), header.size, "zeros")
        recon = self._reconstruct(
            header.shape, header.dtype, outer.get("logs"), zero_mask, sign_mask
        )
        return frame.apply_patches(outer, recon)

    def _reconstruct(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        log_payload: bytes,
        zero_mask: np.ndarray,
        sign_mask: np.ndarray,
    ) -> np.ndarray:
        logs = self._inner().decompress(log_payload)
        if logs.shape != shape:
            raise CorruptPayloadError(f"log field of shape {logs.shape} in a {shape} payload")
        out = np.exp2(logs.astype(np.float64).ravel())
        out[sign_mask] *= -1.0
        out[zero_mask] = 0.0
        return out.astype(dtype).reshape(shape)
