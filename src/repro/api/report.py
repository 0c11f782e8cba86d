"""Typed reports: the one result surface behind every entry point.

``repro tune``/``repro compress --json``/``repro run``, the service's
``/result/<id>`` bodies, and :func:`repro.api.execute` all emit the
dictionaries produced by these classes' :meth:`to_dict`, so a client
written against one entry point parses the others' results unchanged.

Four shapes, all JSON-ready and parseable back via
:func:`report_from_dict`:

* :class:`TuneReport` — one FRaZ search (``kind: "tune"``);
* :class:`CompressReport` — an in-memory compression, optionally with
  the tuning that chose its bound nested under ``"tuning"``;
* :class:`StreamReport` — an out-of-core compression routed through
  ``repro.stream`` (``"streamed": true``);
* :class:`DecompressReport` — a ``.frz``/``.frzs`` reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RequestError
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.cache.evalcache import EvalCache
    from repro.core.results import TrainingResult
    from repro.pressio.compressor import CompressedField
    from repro.stream.pipeline import StreamResult

__all__ = [
    "Report",
    "TuneReport",
    "CompressReport",
    "StreamReport",
    "DecompressReport",
    "report_from_dict",
    "stage_timings",
]


def cache_section(cache: "EvalCache | None") -> dict | None:
    """The ``"cache"`` block of a report (``None`` when caching is off)."""
    if cache is None:
        return None
    return cache.stats_dict()  # snapshot under the cache lock, not ours


def _round(value: float | None, digits: int) -> float | None:
    return round(value, digits) if value is not None else None


class Report:
    """Base class: every report is a frozen dataclass with a wire dict.

    ``counters`` feeds the service's search accounting
    (``(evaluations, compressor_calls)``); ``streamed`` says whether the
    work went through the out-of-core pipeline.
    """

    kind: ClassVar[str] = ""
    streamed: ClassVar[bool] = False

    @property
    def counters(self) -> tuple[int, int]:
        return (0, 0)

    def to_dict(self) -> dict:  # pragma: no cover - always overridden
        raise NotImplementedError


@dataclass(frozen=True)
class TuneReport(Report):
    """Structured record of one FRaZ search."""

    compressor: str
    target_ratio: float
    tolerance: float
    error_bound: float
    ratio: float
    feasible: bool
    within_tolerance: bool
    evaluations: int
    cache_hits: int
    cache_misses: int
    compressor_calls: int
    wall_seconds: float
    compress_seconds: float
    input: str | None = None
    max_error_bound: float | None = None
    cache: dict | None = None

    kind: ClassVar[str] = "tune"

    @property
    def counters(self) -> tuple[int, int]:
        return (self.evaluations, self.compressor_calls)

    @classmethod
    def from_training(
        cls,
        result: "TrainingResult",
        *,
        compressor: str,
        input: str | None = None,
        max_error_bound: float | None = None,
        cache: "EvalCache | None" = None,
    ) -> "TuneReport":
        return cls(
            compressor=compressor,
            input=input,
            target_ratio=result.target_ratio,
            tolerance=result.tolerance,
            max_error_bound=max_error_bound,
            error_bound=result.error_bound,
            ratio=result.ratio,
            feasible=bool(result.feasible),
            within_tolerance=bool(result.within_tolerance),
            evaluations=result.evaluations,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            compressor_calls=result.compressor_calls,
            wall_seconds=round(result.wall_seconds, 6),
            compress_seconds=round(result.compress_seconds, 6),
            cache=cache_section(cache),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "tune",
            "compressor": self.compressor,
            "input": self.input,
            "target_ratio": self.target_ratio,
            "tolerance": self.tolerance,
            "max_error_bound": self.max_error_bound,
            "error_bound": self.error_bound,
            "ratio": self.ratio,
            "feasible": self.feasible,
            "within_tolerance": self.within_tolerance,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "compressor_calls": self.compressor_calls,
            "wall_seconds": self.wall_seconds,
            "compress_seconds": self.compress_seconds,
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuneReport":
        data = dict(payload)
        if data.pop("kind", "tune") != "tune":
            raise RequestError("not a tune report")
        return cls(**data)


@dataclass(frozen=True)
class CompressReport(Report):
    """Structured record of one in-memory compression.

    ``tuning`` is the :class:`TuneReport` of the search that picked
    ``error_bound``, or ``None`` for a fixed-bound run.
    """

    compressor: str
    error_bound: float
    ratio: float
    original_nbytes: int
    compressed_nbytes: int
    input: str | None = None
    output: str | None = None
    wall_seconds: float | None = None
    tuning: TuneReport | None = None
    cache: dict | None = None

    kind: ClassVar[str] = "compress"
    streamed: ClassVar[bool] = False

    @property
    def counters(self) -> tuple[int, int]:
        if self.tuning is None:
            return (0, 0)
        return self.tuning.counters

    @property
    def feasible(self) -> bool:
        """Fixed-bound runs are trivially feasible; tuned runs report the search's verdict."""
        return self.tuning is None or self.tuning.feasible

    @classmethod
    def from_field(
        cls,
        payload: "CompressedField",
        *,
        compressor: str,
        error_bound: float,
        output: str | None = None,
        input: str | None = None,
        tuning: "TuneReport | None" = None,
        wall_seconds: float | None = None,
        cache: "EvalCache | None" = None,
    ) -> "CompressReport":
        return cls(
            compressor=compressor,
            input=input,
            output=output,
            error_bound=error_bound,
            ratio=payload.ratio,
            original_nbytes=payload.original_nbytes,
            compressed_nbytes=payload.nbytes,
            wall_seconds=_round(wall_seconds, 6),
            tuning=tuning,
            cache=cache_section(cache),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "compress",
            "streamed": False,
            "compressor": self.compressor,
            "input": self.input,
            "output": self.output,
            "error_bound": self.error_bound,
            "ratio": self.ratio,
            "original_nbytes": self.original_nbytes,
            "compressed_nbytes": self.compressed_nbytes,
            "wall_seconds": self.wall_seconds,
            "tuning": self.tuning.to_dict() if self.tuning is not None else None,
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CompressReport":
        data = dict(payload)
        if data.pop("kind", "compress") != "compress" or data.pop("streamed", False):
            raise RequestError("not an in-memory compress report")
        if data.get("tuning") is not None:
            data["tuning"] = TuneReport.from_dict(data["tuning"])
        return cls(**data)


@dataclass(frozen=True)
class StreamReport(Report):
    """Structured record of one out-of-core (``.frzs``) compression."""

    compressor: str
    error_bound: float
    ratio: float
    original_nbytes: int
    compressed_nbytes: int
    n_chunks: int
    chunk_shape: tuple[int, ...]
    retrains: int
    in_band_chunks: int
    evaluations: int
    cache_hits: int
    cache_misses: int
    mb_per_second: float
    wall_seconds: float
    input: str | None = None
    output: str | None = None
    cache: dict | None = None
    #: Seconds fitting the bound on the training prefix (the "train"
    #: stage); 0 for fixed-bound runs.
    train_seconds: float = 0.0

    kind: ClassVar[str] = "compress"
    streamed: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunk_shape", tuple(self.chunk_shape))

    @property
    def counters(self) -> tuple[int, int]:
        # Stream probes hit the shared cache directly; misses are the
        # compressor calls the pipeline actually paid for.
        return (self.evaluations, self.cache_misses)

    @classmethod
    def from_result(
        cls,
        result: "StreamResult",
        *,
        compressor: str,
        input: str | None = None,
        cache: "EvalCache | None" = None,
    ) -> "StreamReport":
        return cls(
            compressor=compressor,
            input=input,
            output=result.path,
            error_bound=result.error_bound,
            ratio=result.ratio,
            original_nbytes=result.original_nbytes,
            compressed_nbytes=result.compressed_nbytes,
            n_chunks=result.n_chunks,
            chunk_shape=tuple(result.chunk_shape),
            retrains=result.retrains,
            in_band_chunks=result.in_band_chunks,
            evaluations=result.evaluations,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            mb_per_second=round(result.mb_per_second, 3),
            wall_seconds=round(result.wall_seconds, 6),
            cache=cache_section(cache),
            train_seconds=round(result.train_seconds, 6),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "compress",
            "streamed": True,
            "compressor": self.compressor,
            "input": self.input,
            "output": self.output,
            "error_bound": self.error_bound,
            "ratio": self.ratio,
            "original_nbytes": self.original_nbytes,
            "compressed_nbytes": self.compressed_nbytes,
            "n_chunks": self.n_chunks,
            "chunk_shape": list(self.chunk_shape),
            "retrains": self.retrains,
            "in_band_chunks": self.in_band_chunks,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "mb_per_second": self.mb_per_second,
            "wall_seconds": self.wall_seconds,
            "train_seconds": self.train_seconds,
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamReport":
        data = dict(payload)
        if data.pop("kind", "compress") != "compress" or not data.pop("streamed", True):
            raise RequestError("not a streamed compress report")
        return cls(**data)


@dataclass(frozen=True)
class DecompressReport(Report):
    """Structured record of one ``.frz``/``.frzs`` reconstruction."""

    compressor: str
    input: str
    output: str
    ratio: float
    shape: tuple[int, ...]
    dtype: str
    from_stream: bool = False
    n_chunks: int | None = None
    wall_seconds: float | None = None

    kind: ClassVar[str] = "decompress"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(self.shape))

    @property
    def streamed(self) -> bool:  # type: ignore[override]
        return self.from_stream

    def to_dict(self) -> dict:
        return {
            "kind": "decompress",
            "streamed": self.from_stream,
            "compressor": self.compressor,
            "input": self.input,
            "output": self.output,
            "ratio": self.ratio,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "n_chunks": self.n_chunks,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DecompressReport":
        data = dict(payload)
        if data.pop("kind", "decompress") != "decompress":
            raise RequestError("not a decompress report")
        data["from_stream"] = data.pop("streamed", False)
        return cls(**data)


def stage_timings(payload: dict | Report) -> dict[str, float]:
    """Break a report into per-stage latencies (seconds) for observability.

    The stages are the service's latency vocabulary — the ``stage`` label
    of the ``repro_stage_seconds`` histogram family (see
    ``docs/OBSERVABILITY.md``):

    * ``"search"`` — the FRaZ error-bound search (a tune report's wall
      time, or the ``tuning`` nested in a compress report);
    * ``"encode"`` — compression proper: a compress report's wall time
      minus its nested search, or a stream report's wall time minus its
      training prefix;
    * ``"train"`` — a stream report's prefix fit;
    * ``"decode"`` — a decompress report's wall time.

    Works on a typed report or its wire dict (what crosses the process
    boundary from pool workers), which is why the scheduler can record
    per-stage timings without the stages themselves ever touching a
    metrics object — reports already carry the numbers.  Missing or
    ``None`` wall times contribute nothing; values are clamped at 0.
    """
    if isinstance(payload, Report):
        payload = payload.to_dict()
    out: dict[str, float] = {}

    def _put(stage: str, seconds) -> None:
        if isinstance(seconds, (int, float)) and seconds >= 0:
            out[stage] = float(seconds)

    kind = payload.get("kind")
    wall = payload.get("wall_seconds")
    if kind == "tune":
        _put("search", wall)
    elif kind == "decompress":
        _put("decode", wall)
    elif kind == "compress" and payload.get("streamed"):
        train = payload.get("train_seconds") or 0.0
        if train > 0:  # fixed-bound streams never train; keep the histogram honest
            _put("train", train)
        if isinstance(wall, (int, float)):
            _put("encode", max(0.0, wall - train))
    elif kind == "compress":
        tuning = payload.get("tuning")
        search = tuning.get("wall_seconds") if isinstance(tuning, dict) else None
        if isinstance(search, (int, float)):
            _put("search", search)
        if isinstance(wall, (int, float)):
            _put("encode", max(0.0, wall - (search or 0.0)))
    return out


def report_from_dict(payload: dict) -> Report:
    """Parse any report wire dict back into its typed class."""
    if not isinstance(payload, dict):
        raise RequestError(f"report must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind == "tune":
        return TuneReport.from_dict(payload)
    if kind == "decompress":
        return DecompressReport.from_dict(payload)
    if kind == "compress":
        if payload.get("streamed"):
            return StreamReport.from_dict(payload)
        return CompressReport.from_dict(payload)
    raise RequestError(f"unknown report kind {kind!r}")
