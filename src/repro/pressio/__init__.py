"""Libpressio-analog abstraction layer (paper ref. [34]).

The paper built *libpressio* precisely so FRaZ could treat SZ, ZFP and MGARD
uniformly: "a generic interface for lossy compressors that abstracts between
their differences so that we could write one implementation of the framework"
(Sec. V-B2).  This package is that middle layer:

* :class:`repro.pressio.Compressor` — the abstract interface every lossy
  compressor implements (compress/decompress plus error-bound configuration).
* :mod:`repro.pressio.registry` — name-based construction
  (``make_compressor("sz", error_bound=1e-3)``).
* :class:`repro.pressio.RatioFunction` — the closure ``e -> rho_r(D, e)``
  FRaZ optimises, with call counting and memoisation.
* :func:`repro.pressio.evaluate` — one-stop compress/decompress quality
  report used by the benchmarks.
* :mod:`repro.pressio.frame` — the payload frame (header, body and patch
  sections) every compressor writes and reads.
"""

from repro.pressio import frame
from repro.pressio.closures import RatioFunction
from repro.pressio.compressor import (
    CompressedField,
    Compressor,
    CompressorOptionError,
)
from repro.pressio.evaluation import CompressionRecord, evaluate
from repro.pressio.registry import (
    available_compressors,
    compressor_option_names,
    describe_compressor,
    make_compressor,
    register_compressor,
)

__all__ = [
    "CompressedField",
    "CompressionRecord",
    "Compressor",
    "CompressorOptionError",
    "RatioFunction",
    "available_compressors",
    "compressor_option_names",
    "describe_compressor",
    "evaluate",
    "frame",
    "make_compressor",
    "register_compressor",
]
