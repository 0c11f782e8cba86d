"""Typed reports: the one result surface behind every entry point.

``repro tune``/``repro compress --json``/``repro run``, the service's
``/result/<id>`` bodies, and :func:`repro.api.execute` all emit the
dictionaries produced by these classes' :meth:`to_dict`, so a client
written against one entry point parses the others' results unchanged.

The wire dict is *derived*: :meth:`Report.to_dict` writes each class's
constant ``envelope`` (``kind``, and ``streamed`` where the class fixes
it) followed by every dataclass field in declared order, and
:meth:`Report.from_dict` is its inverse.  Declaring a field is what puts
it on the wire, at that position; there is no second list to keep in
step.

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

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar

from repro.errors import RequestError

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
    """Base class: every report is a frozen, keyword-only dataclass whose
    fields, in declared order, are its wire dict.

    ``counters`` feeds the service's search accounting
    (``(evaluations, compressor_calls)``).
    """

    #: Constant keys written ahead of the fields.
    envelope: ClassVar[dict] = {}

    @property
    def counters(self) -> tuple[int, int]:
        return (0, 0)

    def to_dict(self) -> dict:
        """JSON-ready wire dict: the envelope, then the fields as declared."""
        payload = dict(self.envelope)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Report):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Report":
        """Inverse of :meth:`to_dict`; a missing envelope key is taken as read."""
        data = dict(payload)
        for key, constant in cls.envelope.items():
            if data.pop(key, constant) != constant:
                raise RequestError(
                    f"not a {cls.__name__}: {key} is {payload[key]!r}, "
                    f"expected {constant!r}")
        if data.get("tuning") is not None:
            data["tuning"] = TuneReport.from_dict(data["tuning"])
        return cls(**data)


@dataclass(frozen=True, kw_only=True)
class TuneReport(Report):
    """Structured record of one FRaZ search."""

    envelope: ClassVar[dict] = {"kind": "tune"}

    compressor: str
    input: str | None = None
    target_ratio: float
    tolerance: float
    max_error_bound: float | None = None
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
    cache: dict | None = None

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


@dataclass(frozen=True, kw_only=True)
class CompressReport(Report):
    """Structured record of one in-memory compression.

    ``tuning`` is the :class:`TuneReport` of the search that picked
    ``error_bound``, or ``None`` for a fixed-bound run.
    """

    envelope: ClassVar[dict] = {"kind": "compress", "streamed": False}

    compressor: str
    input: str | None = None
    output: str | None = None
    error_bound: float
    ratio: float
    original_nbytes: int
    compressed_nbytes: int
    wall_seconds: float | None = None
    tuning: TuneReport | None = None
    cache: dict | None = None

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


@dataclass(frozen=True, kw_only=True)
class StreamReport(Report):
    """Structured record of one out-of-core (``.frzs``) compression."""

    envelope: ClassVar[dict] = {"kind": "compress", "streamed": True}

    compressor: str
    input: str | None = None
    output: str | None = None
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
    #: Seconds fitting the bound on the training prefix (the "train"
    #: stage); 0 for fixed-bound runs.
    train_seconds: float = 0.0
    cache: dict | None = None

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


@dataclass(frozen=True, kw_only=True)
class DecompressReport(Report):
    """Structured record of one ``.frz``/``.frzs`` reconstruction.

    ``streamed`` is a field here, not an envelope constant: one class
    reports both container kinds.
    """

    envelope: ClassVar[dict] = {"kind": "decompress"}

    streamed: bool = False
    compressor: str
    input: str
    output: str
    ratio: float
    shape: tuple[int, ...]
    dtype: str
    n_chunks: int | None = None
    wall_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(self.shape))


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
