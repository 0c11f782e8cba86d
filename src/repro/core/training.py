"""Algorithm 2: training over overlapping regions with early cancellation.

The error-bound interval is split into ``k`` overlapping regions
(:func:`repro.core.regions.split_regions`), one worker task per region,
dispatched through a cancel-aware executor.  As workers complete, the first
result inside the acceptance band cancels everything not yet started
(lines 7-14); if none succeeds, the result whose ratio is *closest* to the
target is reported and the request is deemed infeasible (lines 17-25).

Before any of that, a search given a *prediction* (the previous time-step's
bound, Sec. V-C) compresses at it once; a ratio inside the acceptance band
returns it and skips the search (Algorithm 1, lines 1-6, made once per
search instead of once per region).  A miss starts the regions cold.

The paper found 12 regions the sweet spot ("there seems to be a floor for
how many iterations are required to converge"); that is the default.

Because regions *overlap* (Fig. 5), adjacent workers routinely probe the
same bounds.  Passing a shared :class:`~repro.cache.EvalCache` deduplicates
those probes: serial/thread executors share the instance directly, while
process-pool workers receive a pickled copy and ship their new entries back
in the worker payload for a deterministic merge (results are folded in
region order, and entries are pure functions of their key, so completion
order cannot change the merged state).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.cache.evalcache import CacheEntry, EvalCache
from repro.core.loss import acceptance_band
from repro.core.regions import split_regions
from repro.core.results import TrainingResult, WorkerResult
from repro.core.worker import probe_task, worker_task
from repro.parallel.executor import BaseExecutor, SerialExecutor
from repro.pressio.compressor import Compressor

__all__ = ["SearchSpec", "train"]


@dataclass(frozen=True)
class SearchSpec:
    """What one search looks for and how hard it looks, checked once.

    ``target_ratio`` and ``tolerance`` are ``rho_t`` and ``eps``.
    ``lower``/``upper`` default to the compressor's full admissible range;
    ``upper`` is the user's maximum allowed compression error ``U`` (Eq. 2).
    ``regions`` and ``overlap`` are Algorithm 2's ``k`` and ``alpha``
    (Fig. 5), ``max_calls_per_region`` each region's probe budget, and
    region ``i`` optimizes with seed ``seed + i``.
    """

    target_ratio: float
    tolerance: float = 0.1
    lower: float | None = None
    upper: float | None = None
    regions: int = 12
    overlap: float = 0.1
    max_calls_per_region: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        acceptance_band(self.target_ratio, self.tolerance)  # validates both
        if self.lower is not None and self.upper is not None and not self.upper > self.lower:
            raise ValueError(f"invalid error-bound range [{self.lower}, {self.upper}]")
        if self.regions < 1:
            raise ValueError(f"need at least one region, got {self.regions}")
        if not 0.0 <= self.overlap < 0.5:
            raise ValueError(f"overlap must be in [0, 0.5), got {self.overlap}")
        if self.max_calls_per_region < 1:
            raise ValueError("max_calls must be >= 1")

    @property
    def band(self) -> tuple[float, float]:
        """The ratios that count as hitting the target (Sec. V-B3)."""
        return acceptance_band(self.target_ratio, self.tolerance)


def _run_worker(payload: tuple) -> tuple[WorkerResult, dict[str, CacheEntry] | None]:
    """Module-level trampoline so process pools can pickle the task.

    Returns the worker's result plus its cache delta — the entries this
    worker stored — so the parent process can fold them into the shared
    cache.  ``ship_delta`` is False for shared-memory executors, where
    workers write straight into the parent's instance and a delta would
    be a wasted copy.
    """
    compressor, data, spec, region, cache, ship_delta = payload
    result = worker_task(
        compressor,
        data,
        spec.target_ratio,
        spec.tolerance,
        region,
        max_calls=spec.max_calls_per_region,
        seed=spec.seed,
        cache=cache,
    )
    return result, (cache.new_entries() if cache is not None and ship_delta else None)


def train(
    compressor: Compressor,
    data: np.ndarray,
    spec: SearchSpec,
    *,
    prediction: float | None = None,
    executor: BaseExecutor | None = None,
    cache: EvalCache | None = None,
    keep_payload: bool = False,
) -> TrainingResult:
    """Find an error bound whose ratio lands in ``spec.band``.

    If the search fails under an explicit ``spec.upper`` (Sec. V-B3), rerun
    with the default upper bound or relax the constraint.

    ``cache`` is an optional shared :class:`~repro.cache.EvalCache`; all
    region workers consult it, and entries probed by pool workers are
    merged back so later searches (other regions, time-steps, baselines)
    reuse them.

    ``prediction`` is the previous time-step's bound.  It is compressed
    once, and only when it lies inside ``[lower, upper]``: one outside costs
    no probe, so a stale bound above ``U`` is never returned (Eq. 2).  In
    the band, it is the result (``used_prediction``); otherwise the regions
    search cold and the probe's cost counts toward the search's.

    ``keep_payload`` puts the winning probe's ``CompressedField`` on the
    result when the worker that made it ran the compressor (not on a cache
    hit): the caller about to compress at ``error_bound`` already has the
    bytes.  Off by default, so a result that is only kept for its numbers
    holds no payload alive.
    """
    data = np.asarray(data)
    t0 = time.perf_counter()
    default_lo, default_hi = compressor.default_bound_range(data)
    lo = default_lo if spec.lower is None else float(spec.lower)
    hi = default_hi if spec.upper is None else float(spec.upper)
    if not hi > lo:
        raise ValueError(f"invalid error-bound range [{lo}, {hi}]")

    # Algorithm 1 lines 1-6, once for the whole search.
    probe = None
    if prediction is not None and lo <= prediction <= hi:
        probe = probe_task(compressor, data, spec.target_ratio, spec.tolerance, (lo, hi),
                           prediction, cache)
        if probe.feasible:
            return _result(probe, (probe,), spec, t0, keep_payload, True)

    executor = executor or SerialExecutor()
    ship_delta = cache is not None and not getattr(executor, "shares_memory", True)
    region_list = split_regions(lo, hi, spec.regions, spec.overlap)
    payloads = [
        (compressor, data, dataclasses.replace(spec, seed=spec.seed + i), region, cache,
         ship_delta)
        for i, region in enumerate(region_list)
    ]
    completed = executor.run_cancellable(
        _run_worker, payloads, stop_when=lambda res: res[0].feasible
    )
    workers = tuple(res for _, (res, _entries) in completed)
    if probe is not None:
        # The failed probe joins the worker list first: its evaluations,
        # compress seconds and cache traffic are part of this search's
        # cost, and (rarely) its observation may even be the best one.
        workers = (probe,) + workers
    if ship_delta:
        # run_cancellable returns results sorted by region index, so the
        # merge order — hence the final LRU state — is deterministic even
        # under process pools.
        for _, (_res, entries) in completed:
            cache.merge_entries(entries)

    # Lines 17-25: prefer a feasible result; otherwise the closest observed.
    feasible = [w for w in workers if w.feasible]
    if feasible:
        best = feasible[0]
    else:
        best = min(workers, key=lambda w: (w.ratio - spec.target_ratio) ** 2)

    return _result(best, workers, spec, t0, keep_payload, False)


def _result(
    best: WorkerResult,
    workers: tuple[WorkerResult, ...],
    spec: SearchSpec,
    t0: float,
    keep_payload: bool,
    used_prediction: bool,
) -> TrainingResult:
    """The search's result: ``best``'s verdict, every worker's cost."""
    return TrainingResult(
        error_bound=best.error_bound,
        ratio=best.ratio,
        target_ratio=spec.target_ratio,
        tolerance=spec.tolerance,
        feasible=best.feasible,
        evaluations=sum(w.evaluations for w in workers),
        compress_seconds=sum(w.compress_seconds for w in workers),
        wall_seconds=time.perf_counter() - t0,
        used_prediction=used_prediction,
        # Only the winner's payload leaves, and only on request: a dozen
        # regions' incumbents must not stay alive inside a kept result.
        workers=tuple(dataclasses.replace(w, payload=None) for w in workers),
        cache_hits=sum(w.cache_hits for w in workers),
        cache_misses=sum(w.cache_misses for w in workers),
        payload=best.payload if keep_payload else None,
    )
