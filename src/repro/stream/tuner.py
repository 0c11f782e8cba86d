"""Per-chunk error-bound strategy for streamed compression.

Tuning every chunk from scratch would multiply FRaZ's search cost by the
chunk count; tuning none would let the bound rot as the field's character
changes across the domain.  :class:`ChunkTuner` does what the paper's
time-step reuse (Sec. V-C) does in time, but in space: every chunk it is
fitted on is one :func:`repro.core.training.train` call with the carried
bound as the prediction — one compression when that bound still lands in
the band, a search with cold regions when it misses.

:func:`repro.stream.pipeline.stream_compress` fits it on a sampled prefix
of chunks, reuses the locked bound for the rest, and fits again on any
chunk whose ratio leaves the band.  All searches share one
:class:`repro.cache.EvalCache`, so probes repeated across chunks (the
optimizer's interval-seeded probes, bisection points, the pipeline's own
compressions) are paid once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.core.training import SearchSpec, train
from repro.parallel.executor import BaseExecutor
from repro.pressio.compressor import Compressor

__all__ = ["ChunkTuner"]


@dataclass
class ChunkTuner:
    """Trains an error bound on chunks, carrying it from one to the next.

    Parameters mirror :class:`repro.core.fraz.FRaZ`.
    """

    compressor: Compressor
    target_ratio: float
    tolerance: float = SearchSpec.tolerance
    max_error_bound: float | None = None
    regions: int = SearchSpec.regions
    overlap: float = SearchSpec.overlap
    max_calls_per_region: int = SearchSpec.max_calls_per_region
    executor: BaseExecutor | None = None
    cache: EvalCache | None = None
    seed: int = 0

    current_bound: float | None = None
    #: searches run: chunks whose carried bound missed the band (or had none).
    retrain_count: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: The search each chunk runs, built (and checked) at construction.
    spec: SearchSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.spec = SearchSpec(self.target_ratio, self.tolerance, upper=self.max_error_bound,
                               regions=self.regions, overlap=self.overlap,
                               max_calls_per_region=self.max_calls_per_region, seed=self.seed)

    def in_band(self, ratio: float) -> bool:
        lo, hi = self.spec.band
        return lo <= ratio <= hi

    def fit(self, chunks: Iterable[np.ndarray]) -> float:
        """Fit the bound on each chunk in turn; returns the locked bound.

        The first chunk pays a full search.  On each further chunk the
        carried bound costs one probe (free when the shared cache has it)
        and a miss searches again.  Chunks are consumed lazily, one at a
        time — pass a generator and peak memory stays at a single chunk.
        """
        for data in chunks:
            result = train(
                self.compressor,
                data,
                dataclasses.replace(self.spec, seed=self.spec.seed + self.retrain_count),
                prediction=self.current_bound,
                executor=self.executor,
                cache=self.cache,
            )
            self.retrain_count += not result.used_prediction
            self.evaluations += result.evaluations
            self.cache_hits += result.cache_hits
            self.cache_misses += result.cache_misses
            self.current_bound = result.error_bound
        if self.current_bound is None:
            raise ValueError("fit needs at least one training chunk")
        return self.current_bound
