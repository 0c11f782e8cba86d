"""Algorithm 1: the worker task.

One worker owns one error-bound region.  It first tries the *prediction*
(the previous time-step's bound) — if that already lands inside the
acceptance band, the whole search is skipped (lines 1-6).  Otherwise it
runs the cutoff-equipped global optimizer over its region (line 7,
``train_with_cutoff``) and reports the best ratio it observed.
"""

from __future__ import annotations

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.core.loss import acceptance_band, clamped_square_loss, cutoff_for
from repro.core.results import WorkerResult
from repro.optimize import find_global_min
from repro.pressio.closures import RatioFunction
from repro.pressio.compressor import Compressor

__all__ = ["worker_task"]


def worker_task(
    compressor: Compressor,
    data: np.ndarray,
    target_ratio: float,
    tolerance: float,
    region: tuple[float, float],
    prediction: float | None = None,
    max_calls: int = 16,
    seed: int = 0,
    cache: EvalCache | None = None,
) -> WorkerResult:
    """Search one region for an error bound achieving ``target_ratio``.

    Parameters
    ----------
    compressor:
        Error-bounded compressor configuration (any bound it carries is
        overridden by the probes).
    data:
        The field/time-step dataset ``D_{f,t}``.
    target_ratio:
        ``rho_t``.
    tolerance:
        ``eps``; acceptance band is ``rho_t * (1 +- eps)``.
    region:
        ``(lower, upper)`` error-bound subinterval owned by this worker.
    prediction:
        Previous time-step's bound; tried before any training.
    max_calls:
        Objective-evaluation budget for this region (the paper constrains
        iterations rather than time, Sec. V-C).
    seed:
        Optimizer determinism seed.
    cache:
        Optional shared :class:`~repro.cache.EvalCache`; probes another
        worker or time-step already paid for are answered without
        compressing.
    """
    lo_band, hi_band = acceptance_band(target_ratio, tolerance)
    lower, upper = region
    ratio_fn = RatioFunction(compressor, data, cache=cache)

    # Lines 1-6: try the prediction first and return immediately on success.
    if prediction is not None and prediction > 0:
        ratio = ratio_fn(prediction)
        if lo_band <= ratio <= hi_band:
            return WorkerResult(
                error_bound=float(prediction),
                ratio=ratio,
                feasible=True,
                evaluations=ratio_fn.evaluations,
                region=region,
                used_prediction=True,
                compress_seconds=ratio_fn.compress_seconds,
                cache_hits=ratio_fn.cache_hits,
                cache_misses=ratio_fn.cache_misses,
            )

    # Line 7: train with cutoff.
    loss = clamped_square_loss(ratio_fn, target_ratio)
    cutoff = cutoff_for(target_ratio, tolerance)
    initial = [prediction] if prediction is not None and lower <= prediction <= upper else []
    find_global_min(
        loss,
        lower,
        upper,
        max_calls=max_calls,
        cutoff=cutoff,
        seed=seed,
        initial_points=initial,
    )

    best = ratio_fn.best_observation(target_ratio)
    assert best is not None  # the optimizer always evaluates at least once
    feasible = lo_band <= best.ratio <= hi_band
    return WorkerResult(
        error_bound=best.error_bound,
        ratio=best.ratio,
        feasible=feasible,
        evaluations=ratio_fn.evaluations,
        region=region,
        used_prediction=False,
        compress_seconds=ratio_fn.compress_seconds,
        cache_hits=ratio_fn.cache_hits,
        cache_misses=ratio_fn.cache_misses,
    )
