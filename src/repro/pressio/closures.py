"""The closure FRaZ optimises: ``e -> rho_r(D, e)``.

Sec. V-B2: "we created a closure for each compressor, rho_r(D_{f,t}, e),
that transformed its interface including a dataset D and parameters theta
into a function accepting only the error bound e."

:class:`RatioFunction` adds what a search loop needs on top of the bare
closure: memoisation (the optimizer may revisit bounds), an evaluation
counter (iteration budgets, Fig. 7's cost accounting), and a full history of
``(e, rho_r, nbytes)`` observations so the training algorithm can report the
*closest* observed ratio when the target is infeasible (Algorithm 2, lines
17-25).

When a shared :class:`~repro.cache.EvalCache` is attached, it is consulted
before the compressor: probes another worker, time-step or baseline already
paid for come back free, and the hit/miss split is tracked per closure so
result records can report how much work the cache absorbed.  Bounds are
normalised (:func:`repro.cache.normalize_bound`) so the local memo, the
shared cache and the disk tier all agree on keys.

Given the ``target_ratio`` of the search it serves, the closure also keeps
the :class:`~repro.pressio.compressor.CompressedField` of its incumbent —
the probe closest to the target so far — whenever the compressor actually
ran for it, so the caller can hand that payload out instead of compressing
again at the bound it ends up recommending.  One payload at a time, held
only here and in the in-process result records: never in an
:class:`~repro.cache.EvalCache` entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.evalcache import CacheEntry, EvalCache
from repro.cache.keys import normalize_bound
from repro.obs.trace import span as _trace_span
from repro.pressio.compressor import CompressedField, Compressor

__all__ = ["RatioFunction"]


@dataclass(frozen=True)
class Observation:
    """One compressor evaluation during a search."""

    error_bound: float
    ratio: float
    nbytes: int
    seconds: float


@dataclass
class RatioFunction:
    """Memoised ``e -> rho_r`` closure over one (compressor, dataset) pair."""

    compressor: Compressor
    data: np.ndarray
    cache: EvalCache | None = None
    target_ratio: float | None = None
    history: list[Observation] = field(default_factory=list)
    _cache: dict[float, float] = field(default_factory=dict)
    compress_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    _kept: tuple[float, CompressedField | None] | None = None  # incumbent's bound, payload
    _last_span: object = None

    def __call__(self, error_bound: float) -> float:
        e = normalize_bound(error_bound)
        if e in self._cache:
            # Memo hits are free re-reads of an observation already in
            # the history — no span, or traces of revisiting searches
            # would double-count iterations.
            return self._cache[e]
        # One span per genuine search iteration: this closure is the
        # single point every tuning algorithm funnels probes through, so
        # tagging it here makes any trace a convergence log.
        with _trace_span("search_iteration") as sp:
            iteration = len(self.history)
            ran: list[CompressedField] = []  # the payload, when the compressor ran
            if self.cache is not None:
                entry, was_hit = self.cache.evaluate(
                    self.compressor, self.data, e, on_compress=ran.append
                )
                elapsed = 0.0 if was_hit else entry.seconds
                if was_hit:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
                if sp.is_recording:
                    sp.set_attr("cache_hit", was_hit)
            else:
                start = time.perf_counter()
                compressed = self.compressor.with_error_bound(e).compress(self.data)
                elapsed = time.perf_counter() - start
                entry = CacheEntry(compressed.ratio, compressed.nbytes, elapsed)
                ran.append(compressed)
                self.cache_misses += 1
            self.compress_seconds += elapsed
            obs = Observation(e, entry.ratio, entry.nbytes, elapsed)
            self.history.append(obs)
            self._cache[e] = entry.ratio
            if self.target_ratio is not None and self.best_observation(self.target_ratio) is obs:
                self._kept = (e, ran[0] if ran else None)
            self._last_span = sp
            if sp.is_recording:
                sp.set_attr("bound", e)
                sp.set_attr("ratio", entry.ratio)
                sp.set_attr("iteration", iteration)
            return entry.ratio

    @property
    def evaluations(self) -> int:
        """Number of *distinct* probes so far (cache hits included)."""
        return len(self.history)

    def ratio_at(self, error_bound: float) -> float:
        """The ratio already observed at ``error_bound``: a read, not a probe."""
        return self._cache[normalize_bound(error_bound)]

    def best_observation(self, target_ratio: float) -> Observation | None:
        """The observation whose ratio is closest to ``target_ratio``.

        This is what FRaZ reports when no observation lands inside the
        acceptable band (Sec. V-B3: "FRaZ will return the closest point that
        it observes to the target").
        """
        if not self.history:
            return None
        return min(self.history, key=lambda obs: (obs.ratio - target_ratio) ** 2)

    def payload_at(self, error_bound: float) -> CompressedField | None:
        """The kept payload, if it was compressed at exactly ``error_bound``.

        ``None`` when the incumbent sits at another bound or was answered
        by the shared cache (no compressor ran, so there are no bytes).
        """
        if self._kept is None or self._kept[0] != error_bound:
            return None
        return self._kept[1]

    def tag_last_probe(self, key: str, value) -> None:
        """Set an attribute on the latest ``search_iteration`` span.

        For facts only known once the probe has returned (why the search
        stopped after it).  The span has ended by then; its stored record
        shares the span's attribute dict, so the attribute still lands.
        """
        if self._last_span is not None and self._last_span.is_recording:
            self._last_span.set_attr(key, value)
