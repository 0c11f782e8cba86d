"""The FRaZ public API.

    from repro import FRaZ

    fraz = FRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
    result = fraz.tune(field)             # -> TrainingResult with the bound
    payload, result = fraz.compress(field)  # tune + compress in one call

For multi-time-step data use :meth:`FRaZ.tune_series`; for whole datasets
(many fields) :meth:`FRaZ.tune_dataset`.  Error-control-based fixed-ratio
compression (problem formulation Eq. 2) is expressed by ``max_error_bound``
— the search never probes beyond it, so the returned configuration always
respects the user's distortion constraint ``U``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.core.fields import tune_fields, tune_time_series
from repro.core.results import FieldResult, TimeSeriesResult, TrainingResult
from repro.core.training import SearchSpec, train
from repro.parallel.executor import BaseExecutor, make_executor
from repro.pressio.compressor import CompressedField, Compressor
from repro.pressio.registry import make_compressor

__all__ = ["FRaZ"]


@dataclass
class FRaZ:
    """Fixed-ratio lossy compression tuner.

    Parameters
    ----------
    compressor:
        A :class:`~repro.pressio.compressor.Compressor` instance or a
        registry name (``"sz"``, ``"zfp"``, ``"mgard"``, ``"zfp-rate"``).
    target_ratio:
        ``rho_t`` — the requested compression ratio.
    tolerance:
        ``eps`` — acceptance band half-width as a fraction of the target.
    max_error_bound:
        ``U`` — optional cap on the error bound the search may recommend
        (Eq. 2's distortion constraint).  ``None`` uses the compressor's
        full admissible range.
    regions, overlap:
        Error-bound region count (paper default 12) and overlap fraction.
    max_calls_per_region:
        Iteration cap per worker task.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` (or an executor
        instance) for the region/field fan-out.
    workers:
        Pool size for thread/process executors.
    seed:
        Determinism seed threaded through the optimizer.
    cache:
        Evaluation-cache policy: ``True`` (default) builds a private
        in-memory :class:`~repro.cache.EvalCache` shared by every search
        this instance runs (regions, time-steps, fields); ``False``
        disables caching; an :class:`~repro.cache.EvalCache` instance is
        used as-is — share one across tuners/baselines for cross-search
        reuse.
    cache_dir:
        Optional persistent-tier directory for the auto-built cache
        (ignored when an explicit instance is injected).
    """

    compressor: Compressor | str = "sz"
    target_ratio: float = 10.0
    tolerance: float = SearchSpec.tolerance
    max_error_bound: float | None = None
    regions: int = SearchSpec.regions
    overlap: float = SearchSpec.overlap
    max_calls_per_region: int = SearchSpec.max_calls_per_region
    executor: BaseExecutor | str = "serial"
    workers: int = 4
    seed: int = 0
    reuse_prediction: bool = True
    cache: EvalCache | bool = True
    cache_dir: str | None = None
    #: The search every method runs, built (and checked) at construction.
    spec: SearchSpec = dataclass_field(init=False, repr=False)
    _compressor: Compressor = dataclass_field(init=False, repr=False)
    _executor: BaseExecutor = dataclass_field(init=False, repr=False)
    _cache: EvalCache | None = dataclass_field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.spec = SearchSpec(self.target_ratio, self.tolerance, upper=self.max_error_bound,
                               regions=self.regions, overlap=self.overlap,
                               max_calls_per_region=self.max_calls_per_region, seed=self.seed)
        self._compressor = (
            make_compressor(self.compressor)
            if isinstance(self.compressor, str)
            else self.compressor
        )
        self._executor = (
            make_executor(self.executor, self.workers)
            if isinstance(self.executor, str)
            else self.executor
        )
        if isinstance(self.cache, EvalCache):
            self._cache = self.cache
        elif self.cache:
            self._cache = EvalCache(cache_dir=self.cache_dir)
        else:
            self._cache = None

    @property
    def evaluation_cache(self) -> EvalCache | None:
        """The shared :class:`~repro.cache.EvalCache` (``None`` if disabled)."""
        return self._cache

    # ------------------------------------------------------------------
    @classmethod
    def from_request(
        cls,
        request,
        *,
        executor: BaseExecutor | str | None = None,
        workers: int | None = None,
        seed: int | None = None,
        cache: EvalCache | bool | None = None,
    ) -> "FRaZ":
        """Build a tuner from a :class:`~repro.api.request.CompressionRequest`.

        The request's compressor name + ``options`` become a configured
        :class:`~repro.pressio.compressor.Compressor`; its ``resources``
        block takes precedence over the ``executor``/``workers`` keyword
        fallbacks.  ``cache=None`` derives the cache policy from
        ``resources.cache``/``cache_dir``; an explicit value overrides it
        (the unified :func:`repro.api.execute` path passes the cache it
        already resolved).
        """
        if request.target_ratio is None:
            raise ValueError("FRaZ.from_request needs a request with a target_ratio")
        res = request.resources
        kwargs: dict = {}
        eff_executor = res.executor if res.executor is not None else executor
        if eff_executor is not None:
            kwargs["executor"] = eff_executor
        eff_workers = res.workers if res.workers is not None else workers
        if eff_workers is not None:
            kwargs["workers"] = eff_workers
        if seed is not None:
            kwargs["seed"] = seed
        if cache is None:
            kwargs["cache"] = res.cache
            kwargs["cache_dir"] = res.cache_dir
        else:
            kwargs["cache"] = cache
        return cls(
            compressor=make_compressor(request.compressor, **request.options),
            target_ratio=request.target_ratio,
            tolerance=request.tolerance,
            max_error_bound=request.max_error_bound,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def tune(self, data: np.ndarray, prediction: float | None = None) -> TrainingResult:
        """Search the error bound for a single field/time-step."""
        return self._train(data, prediction)

    def _train(
        self, data: np.ndarray, prediction: float | None, keep_payload: bool = False
    ) -> TrainingResult:
        return train(
            self._compressor,
            data,
            self.spec,
            prediction=prediction,
            executor=self._executor,
            cache=self._cache,
            keep_payload=keep_payload,
        )

    def tune_series(
        self, series: list[np.ndarray], field_name: str = "field"
    ) -> TimeSeriesResult:
        """Tune a multi-time-step field with error-bound reuse."""
        return tune_time_series(
            self._compressor,
            series,
            self.spec,
            field_name=field_name,
            executor=self._executor,
            reuse_prediction=self.reuse_prediction,
            cache=self._cache,
        )

    def tune_dataset(self, fields: dict[str, list[np.ndarray]]) -> FieldResult:
        """Tune every field of a dataset (parallel by field)."""
        return tune_fields(
            self._compressor,
            fields,
            self.spec,
            executor=self._executor,
            reuse_prediction=self.reuse_prediction,
            cache=self._cache,
        )

    # ------------------------------------------------------------------
    def compress(
        self, data: np.ndarray, prediction: float | None = None
    ) -> tuple[CompressedField, TrainingResult]:
        """Tune, then compress with the recommended bound.

        The search has usually compressed at that very bound already: the
        winning probe's payload is then the output, and only a probe the
        shared cache answered (no bytes were made) is compressed here.
        """
        result = self._train(data, prediction, keep_payload=True)
        payload = result.payload
        if payload is None:
            payload = self._compressor.with_error_bound(result.error_bound).compress(data)
        return payload, dataclasses.replace(result, payload=None)

    def decompress(self, payload: CompressedField | bytes) -> np.ndarray:
        """Decompress a payload produced by :meth:`compress`."""
        return self._compressor.decompress(payload)
