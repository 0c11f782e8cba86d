"""Result records for FRaZ searches.

Notation follows the paper's Table I: ``rho_t`` target ratio, ``rho_r``
achieved ratio, ``e`` the recommended error bound, ``eps`` the acceptable
ratio tolerance, ``U`` the user's maximum allowed compression error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.loss import acceptance_band

if TYPE_CHECKING:
    # Annotation only.  A real import here would start ``repro.pressio``
    # before ``repro.core``, and in that order package start-up measures
    # ~0.1 s slower (the ledger's ``setup_s``).
    from repro.pressio.compressor import CompressedField

__all__ = ["WorkerResult", "TrainingResult", "TimeSeriesResult", "FieldResult"]


@dataclass(frozen=True)
class WorkerResult:
    """Outcome of one region's worker task (Algorithm 1)."""

    error_bound: float
    ratio: float
    feasible: bool
    evaluations: int
    region: tuple[float, float]
    compress_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    #: why the region's search ended: ``"cutoff"`` (a probe landed in the
    #: band), ``"excluded"`` (its probes rule the band out on the whole
    #: region) or ``"budget"`` (``max_calls`` spent).
    stop_reason: str = "budget"
    #: what compressing at ``error_bound`` produced, when this worker ran
    #: that probe itself; in-process only, like ``stop_reason``.
    payload: CompressedField | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a full search over all regions (Algorithm 2)."""

    error_bound: float
    ratio: float
    target_ratio: float
    tolerance: float
    feasible: bool
    evaluations: int
    compress_seconds: float
    wall_seconds: float
    #: the prediction's one probe landed in the band and was returned.
    used_prediction: bool
    workers: tuple[WorkerResult, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    #: the winning probe's output, only when the caller asked ``train`` to
    #: keep it (``FRaZ.compress`` does, so it need not compress again).
    payload: CompressedField | None = field(default=None, repr=False, compare=False)

    @property
    def within_tolerance(self) -> bool:
        lo, hi = acceptance_band(self.target_ratio, self.tolerance)
        return lo <= self.ratio <= hi

    @property
    def compressor_calls(self) -> int:
        """Actual compressor invocations this search paid for.

        ``evaluations`` counts probes; with a shared cache attached some
        probes are answered without compressing, so
        ``compressor_calls == evaluations - cache_hits``.
        """
        return self.evaluations - self.cache_hits


@dataclass
class TimeSeriesResult:
    """Per-time-step results for one field (Sec. V-C time-step reuse)."""

    field_name: str
    steps: list[TrainingResult] = field(default_factory=list)
    retrain_steps: list[int] = field(default_factory=list)

    @property
    def converged_fraction(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.within_tolerance for s in self.steps) / len(self.steps)

    @property
    def total_evaluations(self) -> int:
        return sum(s.evaluations for s in self.steps)

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.steps)

    @property
    def total_compressor_calls(self) -> int:
        return sum(s.compressor_calls for s in self.steps)

    @property
    def total_wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.steps)


@dataclass
class FieldResult:
    """Results across all fields of a dataset (Algorithm 3)."""

    fields: dict[str, TimeSeriesResult] = field(default_factory=dict)

    @property
    def total_wall_seconds(self) -> float:
        return sum(f.total_wall_seconds for f in self.fields.values())

    @property
    def total_evaluations(self) -> int:
        return sum(f.total_evaluations for f in self.fields.values())

    @property
    def total_cache_hits(self) -> int:
        return sum(f.total_cache_hits for f in self.fields.values())

    @property
    def total_compressor_calls(self) -> int:
        return sum(f.total_compressor_calls for f in self.fields.values())

    @property
    def longest_field_seconds(self) -> float:
        if not self.fields:
            return 0.0
        return max(f.total_wall_seconds for f in self.fields.values())
