"""Per-chunk error-bound strategy for streamed compression.

Tuning every chunk from scratch would multiply FRaZ's search cost by the
chunk count; tuning none would let the bound rot as the field's character
changes across the domain.  :class:`ChunkTuner` does what the paper's
time-step reuse (Sec. V-C) does in time, but in space:

1. **train** on a prefix of sampled chunks — a full region-parallel search
   (:func:`repro.core.training.train`) on the first sample, then one
   verification compression per further sample, retraining (seeded with
   the carried bound) only on a band miss;
2. **reuse** the locked bound for the remaining chunks, feeding every
   achieved ratio to a :class:`repro.core.online.DriftMonitor`;
3. **retrain** when a chunk's ratio leaves the acceptance band or the
   monitor predicts it is about to — again seeded with the stale bound,
   so recovery usually costs a handful of probes.

All searches share one :class:`repro.cache.EvalCache`, so probes repeated
across chunks (the optimizer's interval-seeded probes, bisection points)
are paid once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.cache.evalcache import EvalCache
from repro.core.loss import acceptance_band
from repro.core.online import DriftMonitor
from repro.core.training import DEFAULT_OVERLAP, DEFAULT_REGIONS, train
from repro.parallel.executor import BaseExecutor
from repro.pressio.compressor import Compressor

__all__ = ["ChunkTuner"]


@dataclass
class ChunkTuner:
    """Trains an error bound on sampled chunks, reuses it with drift checks.

    Parameters mirror :class:`repro.core.fraz.FRaZ` plus:

    drift_margin, drift_window:
        :class:`~repro.core.online.DriftMonitor` knobs — when the rolling
        mean of recent chunk ratios creeps within ``drift_margin`` of a
        band edge, the next chunk retrains pre-emptively (0 disables).
    """

    compressor: Compressor
    target_ratio: float
    tolerance: float = 0.1
    max_error_bound: float | None = None
    regions: int = DEFAULT_REGIONS
    overlap: float = DEFAULT_OVERLAP
    max_calls_per_region: int = 16
    executor: BaseExecutor | None = None
    cache: EvalCache | None = None
    seed: int = 0
    drift_margin: float = 0.0
    drift_window: int = 4

    current_bound: float | None = None
    retrain_count: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    _drift: DriftMonitor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._drift = DriftMonitor(
            band=self.band, margin=self.drift_margin, window=self.drift_window
        )

    @property
    def band(self) -> tuple[float, float]:
        return acceptance_band(self.target_ratio, self.tolerance)

    def in_band(self, ratio: float) -> bool:
        lo, hi = self.band
        return lo <= ratio <= hi

    # ------------------------------------------------------------------
    def _train_on(self, data: np.ndarray) -> float:
        """One full search (seeded with the stale bound when present)."""
        result = train(
            self.compressor,
            data,
            self.target_ratio,
            tolerance=self.tolerance,
            upper=self.max_error_bound,
            regions=self.regions,
            overlap=self.overlap,
            max_calls_per_region=self.max_calls_per_region,
            prediction=self.current_bound,
            executor=self.executor,
            seed=self.seed + self.retrain_count,
            cache=self.cache,
        )
        self.retrain_count += 1
        self.evaluations += result.evaluations
        self.cache_hits += result.cache_hits
        self.cache_misses += result.cache_misses
        self.current_bound = result.error_bound
        self._drift.reset()
        return result.error_bound

    def fit(self, training_chunks: Iterable[np.ndarray]) -> float:
        """Train on a sampled prefix of chunks; returns the locked bound.

        The first chunk pays a full search.  Each further chunk is a
        verification: with a shared cache the probe costs one compression
        at most, and a miss retrains seeded with the carried bound.
        Chunks are consumed lazily, one at a time — pass a generator and
        peak memory stays at a single chunk.
        """
        for data in training_chunks:
            if self.current_bound is None:
                self._train_on(data)
                continue
            ratio = self._verify(data)
            if not self.in_band(ratio):
                self._train_on(data)
        if self.current_bound is None:
            raise ValueError("fit needs at least one training chunk")
        return self.current_bound

    def _verify(self, data: np.ndarray) -> float:
        """Ratio at the current bound on one chunk (cache-aware)."""
        self.evaluations += 1
        if self.cache is not None:
            entry, was_hit = self.cache.evaluate(self.compressor, data, self.current_bound)
            if was_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return entry.ratio
        self.cache_misses += 1
        configured = self.compressor.with_error_bound(self.current_bound)
        return configured.compress(data).ratio

    # ------------------------------------------------------------------
    def observe(self, ratio: float) -> None:
        """Record one streamed chunk's achieved ratio for drift tracking."""
        self._drift.observe(ratio)

    def should_retrain(self, ratio: float) -> bool:
        """Whether the chunk that achieved ``ratio`` warrants a retrain."""
        return not self.in_band(ratio) or self._drift.drifting()

    def retrain(self, data: np.ndarray) -> float:
        """Retrain on a drifting chunk; returns the new bound."""
        return self._train_on(data)
