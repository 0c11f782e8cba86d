"""Search baselines FRaZ is compared against.

* :func:`binary_search_ratio` — the "straightforward binary search" of
  Sec. V-B1: bisect the error bound assuming the ratio grows monotonically
  with it.  On the Hurricane CLOUD example the paper reports 39 iterations
  vs FRaZ's 6 — and on non-monotonic data it can converge to the wrong
  plateau entirely; both effects are benchmarked.
* :func:`grid_search_ratio` — exhaustive sweep, the trial-and-error
  strategy users resort to today (Sec. II-B).
"""

from __future__ import annotations

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.core.loss import acceptance_band
from repro.core.results import TrainingResult
from repro.pressio.closures import RatioFunction
from repro.pressio.compressor import Compressor

__all__ = ["binary_search_ratio", "grid_search_ratio"]


def binary_search_ratio(
    compressor: Compressor,
    data: np.ndarray,
    target_ratio: float,
    tolerance: float = 0.1,
    lower: float | None = None,
    upper: float | None = None,
    max_calls: int = 64,
    cache: EvalCache | None = None,
) -> TrainingResult:
    """Bisect the error bound toward ``target_ratio``.

    Assumes ratio is nondecreasing in the bound (true on average, false in
    detail — Fig. 3); stops when the band is hit, the bracket collapses, or
    the call budget is exhausted.
    """
    import time

    t0 = time.perf_counter()
    data = np.asarray(data)
    default_lo, default_hi = compressor.default_bound_range(data)
    lo = default_lo if lower is None else float(lower)
    hi = default_hi if upper is None else float(upper)
    ratio_fn = RatioFunction(compressor, data, cache=cache)
    lo_band, hi_band = acceptance_band(target_ratio, tolerance)

    feasible = False
    while ratio_fn.evaluations < max_calls and hi - lo > 1e-15 * (default_hi - default_lo):
        mid = 0.5 * (lo + hi)
        ratio = ratio_fn(mid)
        if lo_band <= ratio <= hi_band:
            feasible = True
            break
        if ratio < target_ratio:
            lo = mid  # need a looser bound for a higher ratio
        else:
            hi = mid
    best = ratio_fn.best_observation(target_ratio)
    assert best is not None
    return TrainingResult(
        error_bound=best.error_bound,
        ratio=best.ratio,
        target_ratio=target_ratio,
        tolerance=tolerance,
        feasible=feasible or lo_band <= best.ratio <= hi_band,
        evaluations=ratio_fn.evaluations,
        compress_seconds=ratio_fn.compress_seconds,
        wall_seconds=time.perf_counter() - t0,
        used_prediction=False,
        cache_hits=ratio_fn.cache_hits,
        cache_misses=ratio_fn.cache_misses,
    )


def grid_search_ratio(
    compressor: Compressor,
    data: np.ndarray,
    target_ratio: float,
    tolerance: float = 0.1,
    lower: float | None = None,
    upper: float | None = None,
    points: int = 64,
    log_spaced: bool = True,
    cache: EvalCache | None = None,
) -> TrainingResult:
    """Exhaustive sweep over ``points`` candidate bounds (trial-and-error)."""
    import time

    t0 = time.perf_counter()
    data = np.asarray(data)
    default_lo, default_hi = compressor.default_bound_range(data)
    lo = default_lo if lower is None else float(lower)
    hi = default_hi if upper is None else float(upper)
    if log_spaced and lo > 0:
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)

    ratio_fn = RatioFunction(compressor, data, cache=cache)
    lo_band, hi_band = acceptance_band(target_ratio, tolerance)
    feasible = False
    for e in grid:
        ratio = ratio_fn(float(e))
        if lo_band <= ratio <= hi_band:
            feasible = True
            break
    best = ratio_fn.best_observation(target_ratio)
    assert best is not None
    return TrainingResult(
        error_bound=best.error_bound,
        ratio=best.ratio,
        target_ratio=target_ratio,
        tolerance=tolerance,
        feasible=feasible,
        evaluations=ratio_fn.evaluations,
        compress_seconds=ratio_fn.compress_seconds,
        wall_seconds=time.perf_counter() - t0,
        used_prediction=False,
        cache_hits=ratio_fn.cache_hits,
        cache_misses=ratio_fn.cache_misses,
    )
