"""Algorithm 1: the worker task.

One worker owns one error-bound region.  It runs the cutoff-equipped global
optimizer over its region (line 7, ``train_with_cutoff``) and reports the
best ratio it observed.  Lines 1-6 — try the previous time-step's bound
first — are made once per search, before any region starts, by
:func:`repro.core.training.train` through :func:`probe_task`.

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
from repro.core.loss import acceptance_band, clamped_square_loss, cutoff_for
from repro.core.results import WorkerResult
from repro.optimize import find_global_min
from repro.pressio.closures import RatioFunction
from repro.pressio.compressor import Compressor

__all__ = ["probe_task", "worker_task"]


def worker_task(
    compressor: Compressor,
    data: np.ndarray,
    target_ratio: float,
    tolerance: float,
    region: tuple[float, float],
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
    band = acceptance_band(target_ratio, tolerance)
    lower, upper = region
    ratio_fn = RatioFunction(compressor, data, cache=cache, target_ratio=target_ratio)
    half_width = tolerance * target_ratio
    search = find_global_min(
        clamped_square_loss(ratio_fn, target_ratio),
        lower,
        upper,
        max_calls=max_calls,
        cutoff=cutoff_for(target_ratio, tolerance),
        seed=seed,
        residual=lambda e: (ratio_fn.ratio_at(e) - target_ratio) / half_width,
    )
    return _report(ratio_fn, band, region, search.stop_reason)


def probe_task(
    compressor: Compressor,
    data: np.ndarray,
    target_ratio: float,
    tolerance: float,
    region: tuple[float, float],
    bound: float,
    cache: EvalCache | None,
) -> WorkerResult:
    """One compression at ``bound``, reported as a worker with a budget of one.

    The reported bound is the one probed — the closure normalises it, and
    the ratio belongs to that.  It stops on ``"cutoff"`` when the ratio is
    in the band and on ``"budget"`` otherwise.
    """
    band = acceptance_band(target_ratio, tolerance)
    ratio_fn = RatioFunction(compressor, data, cache=cache, target_ratio=target_ratio)
    ratio = ratio_fn(bound)
    return _report(ratio_fn, band, region, "cutoff" if band[0] <= ratio <= band[1] else "budget")


def _report(
    ratio_fn: RatioFunction, band: tuple[float, float], region: tuple[float, float],
    stop_reason: str,
) -> WorkerResult:
    """The probe closest to the target, every probe's cost, the kept payload."""
    best = ratio_fn.best_observation(ratio_fn.target_ratio)
    assert best is not None  # every task evaluates at least once
    ratio_fn.tag_last_probe("stop_reason", stop_reason)
    return WorkerResult(
        error_bound=best.error_bound,
        ratio=best.ratio,
        feasible=band[0] <= best.ratio <= band[1],
        evaluations=ratio_fn.evaluations,
        region=region,
        compress_seconds=ratio_fn.compress_seconds,
        cache_hits=ratio_fn.cache_hits,
        cache_misses=ratio_fn.cache_misses,
        stop_reason=stop_reason,
        payload=ratio_fn.payload_at(best.error_bound),
    )
