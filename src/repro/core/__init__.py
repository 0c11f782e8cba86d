"""FRaZ core: the paper's contribution (Sec. V).

Public entry point is :class:`repro.core.FRaZ` — configure a compressor, a
target compression ratio ``rho_t`` and a tolerance ``eps``; it returns the
error bound whose achieved ratio lands in
``[rho_t * (1 - eps), rho_t * (1 + eps)]`` (or the closest observed point
when the target is infeasible).

Internals map one-to-one onto the paper:

* :mod:`repro.core.loss` — the clamped-square loss (Sec. V-B2);
* :mod:`repro.core.worker` — Algorithm 1 (the cutoff-equipped optimizer
  over one region);
* :mod:`repro.core.regions` — overlapping error-bound regions (Fig. 5);
* :mod:`repro.core.training` — Algorithm 2 (the prediction probe,
  parallel regions, first-success cancellation, closest-observation
  fallback) and :class:`~repro.core.training.SearchSpec`, the settings
  every search takes;
* :mod:`repro.core.fields` — Algorithm 3 (parallel by field) plus the
  time-step error-bound reuse optimisation;
* :mod:`repro.core.baselines` — binary/grid search comparators.
"""

from repro.core.baselines import binary_search_ratio, grid_search_ratio
from repro.core.fields import tune_fields, tune_time_series
from repro.core.fraz import FRaZ
from repro.core.loss import DEFAULT_GAMMA, clamped_absolute_loss, clamped_square_loss, cutoff_for
from repro.core.online import OnlineFRaZ, OnlineStepResult
from repro.core.quality import QualityResult, max_ratio_at_quality, tune_quality
from repro.core.regions import split_regions
from repro.core.results import FieldResult, TimeSeriesResult, TrainingResult, WorkerResult
from repro.core.training import SearchSpec, train
from repro.core.worker import worker_task

__all__ = [
    "DEFAULT_GAMMA",
    "FRaZ",
    "FieldResult",
    "OnlineFRaZ",
    "OnlineStepResult",
    "QualityResult",
    "SearchSpec",
    "TimeSeriesResult",
    "TrainingResult",
    "WorkerResult",
    "binary_search_ratio",
    "clamped_absolute_loss",
    "clamped_square_loss",
    "cutoff_for",
    "grid_search_ratio",
    "max_ratio_at_quality",
    "split_regions",
    "train",
    "tune_fields",
    "tune_quality",
    "tune_time_series",
    "worker_task",
]
