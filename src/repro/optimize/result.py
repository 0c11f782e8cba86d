"""Result records for the global optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Evaluation", "OptimizationResult"]


@dataclass(frozen=True)
class Evaluation:
    """One probe of the objective."""

    x: float
    fx: float


@dataclass
class OptimizationResult:
    """Outcome of :func:`repro.optimize.find_global_min`.

    Attributes
    ----------
    x_best, f_best:
        Argument and value of the best (lowest) evaluation.
    n_calls:
        Number of objective evaluations performed.
    stop_reason:
        Why the search ended: ``"cutoff"`` (``f_best <= cutoff``),
        ``"excluded"`` (the probes made rule a hit out on the whole
        interval) or ``"budget"`` (``max_calls`` spent).
    history:
        Every evaluation in probe order.
    """

    x_best: float
    f_best: float
    n_calls: int
    stop_reason: str
    history: list[Evaluation] = field(default_factory=list)

    @property
    def hit_cutoff(self) -> bool:
        """True when the search stopped early because ``f_best <= cutoff``."""
        return self.stop_reason == "cutoff"
