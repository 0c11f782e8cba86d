"""Algorithm 1: the worker task.

One worker owns one error-bound region.  It first tries the *prediction*
(the previous time-step's bound) — if that already lands inside the
acceptance band, the whole search is skipped (lines 1-6).  Otherwise it
runs the cutoff-equipped global optimizer over its region (line 7,
``train_with_cutoff``) and reports the best ratio it observed.

The search also gets the signed residual ``rho(e) - rho_t`` of its probes,
so it ends as soon as they exclude the band from the whole region (the
mirror of the paper's cutoff, :func:`repro.optimize.lipo.excludes`) rather
than spending the rest of ``max_calls`` on a region that cannot succeed.
Why it stopped is on the result and on the region's last
``search_iteration`` span; the payload of the reported probe rides along
when this worker compressed it.
"""

from __future__ import annotations

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.cache.keys import normalize_bound
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
    ratio_fn = RatioFunction(compressor, data, cache=cache, target_ratio=target_ratio)

    def result(error_bound, ratio, feasible, used_prediction, stop_reason) -> WorkerResult:
        ratio_fn.tag_last_probe("stop_reason", stop_reason)
        return WorkerResult(
            error_bound=error_bound,
            ratio=ratio,
            feasible=feasible,
            evaluations=ratio_fn.evaluations,
            region=region,
            used_prediction=used_prediction,
            compress_seconds=ratio_fn.compress_seconds,
            cache_hits=ratio_fn.cache_hits,
            cache_misses=ratio_fn.cache_misses,
            stop_reason=stop_reason,
            payload=ratio_fn.payload_at(error_bound),
        )

    # Lines 1-6: try the prediction first and return immediately on success.
    if prediction is not None and prediction > 0:
        ratio = ratio_fn(prediction)
        if lo_band <= ratio <= hi_band:
            # The bound that was probed, not the one that was passed in:
            # the closure normalises it, and the ratio belongs to that.
            return result(normalize_bound(prediction), ratio, True, True, "cutoff")

    # Line 7: train with cutoff.
    loss = clamped_square_loss(ratio_fn, target_ratio)
    cutoff = cutoff_for(target_ratio, tolerance)
    initial = [prediction] if prediction is not None and lower <= prediction <= upper else []
    half_width = tolerance * target_ratio
    search = find_global_min(
        loss,
        lower,
        upper,
        max_calls=max_calls,
        cutoff=cutoff,
        seed=seed,
        initial_points=initial,
        residual=lambda e: (ratio_fn.ratio_at(e) - target_ratio) / half_width,
    )

    best = ratio_fn.best_observation(target_ratio)
    assert best is not None  # the optimizer always evaluates at least once
    feasible = lo_band <= best.ratio <= hi_band
    return result(best.error_bound, best.ratio, feasible, False, search.stop_reason)
