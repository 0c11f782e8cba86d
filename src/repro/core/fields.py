"""Algorithm 3 and the time-step reuse optimisation (Sec. V-C).

``tune_time_series`` processes one field across its time-steps: the first
step trains from scratch; afterwards the previous step's error bound is
*assumed correct* and only verified (one compression) — retraining happens
only when the verification misses the acceptance band.  On the paper's
Hurricane CLOUD field this retrains just 4 times in 48 steps (steps 0, 8,
15, 29); the benchmark reproduces that behaviour on the synthetic analog.

``tune_fields`` fans the per-field loops out over an executor — the
"embarrassingly parallel" field dimension.

Both accept a shared :class:`~repro.cache.EvalCache`, which composes with
the prediction-reuse optimisation rather than replacing it: prediction
reuse avoids *searches*, the cache avoids *re-compressions* when a search
(or a verification probe) revisits a bound any previous step, region or
baseline already evaluated.  Under a process-pool executor each field task
works on a pickled copy and ships its new entries back for a deterministic
field-order merge.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.evalcache import CacheEntry, EvalCache
from repro.core.results import FieldResult, TimeSeriesResult
from repro.core.training import SearchSpec, train
from repro.parallel.executor import BaseExecutor, SerialExecutor
from repro.pressio.compressor import Compressor

__all__ = ["tune_time_series", "tune_fields"]


def tune_time_series(
    compressor: Compressor,
    series: list[np.ndarray],
    spec: SearchSpec,
    *,
    field_name: str = "field",
    executor: BaseExecutor | None = None,
    reuse_prediction: bool = True,
    cache: EvalCache | None = None,
) -> TimeSeriesResult:
    """Tune every time-step of one field, reusing bounds across steps.

    Step ``t`` searches with seed ``spec.seed + 1000 * t``.
    """
    result = TimeSeriesResult(field_name=field_name)
    prediction: float | None = None
    for t, data in enumerate(series):
        step = train(
            compressor,
            data,
            dataclasses.replace(spec, seed=spec.seed + 1000 * t),
            prediction=prediction if reuse_prediction else None,
            executor=executor,
            cache=cache,
        )
        result.steps.append(step)
        if not step.used_prediction:
            result.retrain_steps.append(t)
        if step.feasible:
            prediction = step.error_bound
    return result


def _run_field(payload: tuple) -> tuple[TimeSeriesResult, dict[str, CacheEntry] | None]:
    """Module-level trampoline for process pools; returns the cache delta too.

    ``ship_delta`` is False for shared-memory executors, where the field
    tasks write straight into the parent's cache instance.
    """
    compressor, series, spec, name, reuse, cache, ship_delta = payload
    result = tune_time_series(
        compressor,
        series,
        spec,
        field_name=name,
        executor=None,  # regions run serially inside each field task
        reuse_prediction=reuse,
        cache=cache,
    )
    return result, (cache.new_entries() if cache is not None and ship_delta else None)


def tune_fields(
    compressor: Compressor,
    fields: dict[str, list[np.ndarray]],
    spec: SearchSpec,
    *,
    executor: BaseExecutor | None = None,
    reuse_prediction: bool = True,
    cache: EvalCache | None = None,
) -> FieldResult:
    """Tune all fields of a dataset in parallel (Algorithm 3).

    Field ``i`` (in ``fields`` order) searches with seed
    ``spec.seed + 10_000 * i``.
    """
    executor = executor or SerialExecutor()
    ship_delta = cache is not None and not getattr(executor, "shares_memory", True)
    names = list(fields)
    payloads = [
        (
            compressor, fields[name], dataclasses.replace(spec, seed=spec.seed + 10_000 * i),
            name, reuse_prediction, cache, ship_delta,
        )
        for i, name in enumerate(names)
    ]
    pairs = executor.map_all(_run_field, payloads)
    if ship_delta:
        for _series_result, entries in pairs:
            cache.merge_entries(entries)
    return FieldResult(fields=dict(zip(names, (res for res, _ in pairs))))
