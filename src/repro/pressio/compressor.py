"""Abstract lossy-compressor interface.

A :class:`Compressor` is an immutable configuration object: changing the
error bound produces a *new* instance via :meth:`with_error_bound`.  This is
what lets FRaZ's search treat compression as a pure function of the bound
(the paper requires a "deterministic function" for the optimizer) and lets
the parallel orchestrator ship configurations across processes safely —
the paper notes SZ/MGARD's C implementations could not be multithreaded
because of global state; value-semantics configurations avoid that entirely.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["Compressor", "CompressedField", "CompressorOptionError"]


class CompressorOptionError(TypeError):
    """A compressor was configured with options it does not understand.

    Raised instead of the factory's raw ``TypeError`` so the message
    names the compressor and lists the options it *does* accept (the
    libpressio-style introspection surface of :meth:`Compressor.get_options`).
    """

    def __init__(self, compressor: str, message: str, valid_options=()):
        detail = f"compressor {compressor!r}: {message}"
        if valid_options:
            detail += f" (valid options: {sorted(valid_options)})"
        super().__init__(detail)
        self.compressor = compressor
        self.valid_options = tuple(sorted(valid_options))


@dataclass(frozen=True)
class CompressedField:
    """A compressed payload plus the bookkeeping FRaZ needs.

    ``nbytes`` is the serialised payload size (what compression ratio is
    measured against); ``original_nbytes`` the input size.
    """

    payload: bytes
    original_nbytes: int

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio ``rho_r`` achieved by this payload."""
        if self.nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.nbytes


class Compressor(ABC):
    """Error-controlled lossy compressor with value semantics.

    Subclasses are frozen dataclasses (or otherwise immutable); every
    configuration knob is a constructor argument.
    """

    #: registry name, e.g. ``"sz"``; set by subclasses.
    name: str = ""

    #: error-control mode: ``"abs"`` (absolute bound) or ``"rate"``
    #: (fixed bits per value — ZFP's fixed-rate mode has no bound).
    mode: str = "abs"

    #: dimensionalities this compressor supports (MGARD: 2D/3D only).
    supported_ndims: tuple[int, ...] = (1, 2, 3)

    # -- core operations -------------------------------------------------
    @abstractmethod
    def compress(self, data: np.ndarray) -> CompressedField:
        """Compress ``data`` under the current configuration."""

    @abstractmethod
    def decompress(self, field: CompressedField | bytes) -> np.ndarray:
        """Reconstruct the array from a payload produced by :meth:`compress`."""

    # -- error-bound configuration ---------------------------------------
    @property
    @abstractmethod
    def error_bound(self) -> float:
        """The current error-control parameter (bound, or rate in rate mode)."""

    @abstractmethod
    def with_error_bound(self, error_bound: float) -> "Compressor":
        """A copy of this compressor with a different error-control value."""

    # -- option introspection (libpressio-style) -------------------------
    def get_options(self) -> dict:
        """Current configuration as a plain ``{name: value}`` dict.

        Mirrors libpressio's ``get_options``: every constructor knob of a
        (frozen-dataclass) compressor is reported, so callers can discover
        what :meth:`set_options` accepts without reading the source.
        """
        if dataclasses.is_dataclass(self):
            return {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.init
            }
        return {"error_bound": self.error_bound}

    def set_options(self, **options) -> "Compressor":
        """A reconfigured copy of this compressor (value semantics).

        Unknown option names raise :class:`CompressorOptionError` listing
        the valid ones — configurations stay immutable, so this returns a
        *new* instance rather than mutating ``self``.
        """
        if not options:
            return self
        valid = self.get_options()
        unknown = sorted(set(options) - set(valid))
        if unknown:
            raise CompressorOptionError(
                self.name, f"unknown option(s) {unknown}", valid
            )
        if dataclasses.is_dataclass(self):
            return dataclasses.replace(self, **options)
        if set(options) == {"error_bound"}:
            return self.with_error_bound(options["error_bound"])
        raise CompressorOptionError(  # pragma: no cover - all built-ins are dataclasses
            self.name, "non-dataclass compressor only supports error_bound", valid
        )

    def capabilities(self) -> dict:
        """JSON-ready description of what this compressor supports.

        Covers the registry name, the error-control mode, the accepted
        dimensionalities, and the full option dict with current values.
        """
        return {
            "name": self.name,
            "mode": self.mode,
            "supported_ndims": list(self.supported_ndims),
            "options": self.get_options(),
        }

    # -- search-range defaults -------------------------------------------
    def default_bound_range(self, data: np.ndarray) -> tuple[float, float]:
        """Default error-bound search interval for FRaZ.

        The upper end is "the maximum allowed level of an error bound by the
        compressor" (Sec. V-B3) — for absolute bounds, the full value range
        (a bound that wide permits collapsing the field to a constant).  The
        lower end is a tiny positive fraction of the range, since a zero
        bound degenerates to lossless.
        """
        data = np.asarray(data)
        span = float(data.max() - data.min()) if data.size else 1.0
        if span <= 0.0:
            span = 1.0
        return (span * 1e-9, span)

    # -- capability checks -------------------------------------------------
    def supports(self, data: np.ndarray) -> bool:
        """Whether this compressor can handle the array's dimensionality."""
        return np.asarray(data).ndim in self.supported_ndims

    def _checked_input(self, data: np.ndarray) -> np.ndarray:
        """``data`` as an array, once every ``compress()`` precondition holds:
        a supported rank, float32/float64 storage, a positive finite bound."""
        data = np.asarray(data)
        if not self.supports(data):
            raise ValueError(
                f"{self.name} supports {self.supported_ndims}-D data, got {data.ndim}-D"
            )
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"{self.name} expects float32/float64 data, got {data.dtype}")
        if not 0 < self.error_bound < np.inf:
            raise ValueError(
                f"{self.name}: {self.mode} parameter must be positive and finite, "
                f"got {self.error_bound}"
            )
        return data

    # -- convenience -------------------------------------------------------
    def roundtrip(self, data: np.ndarray) -> tuple[CompressedField, np.ndarray]:
        """Compress then decompress; returns (payload, reconstruction)."""
        field = self.compress(data)
        return field, self.decompress(field)

    def describe(self) -> str:
        """``name:mode`` label used in the paper's plots (e.g. ``sz:abs``)."""
        return f"{self.name}:{self.mode}"
