"""Online (in-situ) fixed-ratio compression — the paper's future work #2.

Sec. VII: "we would like to develop an online version of this algorithm to
provide in situ fixed-ratio compression for simulation and instrument
data."  :class:`OnlineFRaZ` is that version: a stateful tuner for frames
arriving one at a time.

Steady-state cost is **one compression per frame**: the verification
compression at the carried-over bound *is* the output payload when it
lands in the band.  Retraining happens only when the stream drifts out of
the acceptance band, and it seeds the search with the stale bound, so
recovery is cheap; the retrain's winning probe is likewise the output, not
a compression to be repeated.  An optional drift monitor tracks how close recent
ratios have come to the band edges and can retrain pre-emptively.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.loss import acceptance_band
from repro.core.training import DEFAULT_OVERLAP, DEFAULT_REGIONS, train
from repro.parallel.executor import BaseExecutor
from repro.pressio.compressor import CompressedField, Compressor
from repro.pressio.registry import make_compressor

__all__ = ["DriftMonitor", "OnlineFRaZ", "OnlineStepResult"]


@dataclass
class DriftMonitor:
    """Rolling-ratio drift detector over an acceptance band.

    Tracks the last ``window`` observed ratios; :meth:`drifting` fires when
    their mean creeps within ``margin`` (a fraction of the band half-width)
    of either band edge — the signal that the carried-over error bound is
    about to start missing, so retraining *now* is cheaper than waiting for
    the miss.  Shared by :class:`OnlineFRaZ` (frames arriving in time) and
    :class:`repro.stream.ChunkTuner` (chunks arriving in space).

    ``margin = 0`` disables the monitor; the window must fill before it can
    fire, so isolated outliers right after a retrain don't trigger.
    """

    band: tuple[float, float]
    margin: float = 0.0
    window: int = 4
    _recent: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.margin < 1:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        self._recent = deque(maxlen=max(self.window, 1))

    def observe(self, ratio: float) -> None:
        """Record one achieved ratio."""
        self._recent.append(float(ratio))

    def reset(self) -> None:
        """Forget history (call after a retrain)."""
        self._recent.clear()

    def drifting(self) -> bool:
        """Whether the rolling mean has crept into the margin zone."""
        if self.margin <= 0 or len(self._recent) < self._recent.maxlen:
            return False
        lo, hi = self.band
        pad = self.margin * (hi - lo) / 2.0
        mean = float(np.mean(self._recent))
        return mean < lo + pad or mean > hi - pad


@dataclass(frozen=True)
class OnlineStepResult:
    """Outcome of one pushed frame."""

    payload: CompressedField
    ratio: float
    error_bound: float
    in_band: bool
    retrained: bool
    evaluations: int
    seconds: float


@dataclass
class OnlineFRaZ:
    """Streaming fixed-ratio tuner.

    Parameters mirror :class:`repro.core.fraz.FRaZ`; the extra knob is
    ``drift_margin``: when the rolling mean of recent ratios drifts within
    that fraction of a band edge, the next frame retrains pre-emptively
    instead of waiting for a miss (set to 0 to disable).
    """

    compressor: Compressor | str = "sz"
    target_ratio: float = 10.0
    tolerance: float = 0.1
    max_error_bound: float | None = None
    regions: int = DEFAULT_REGIONS
    overlap: float = DEFAULT_OVERLAP
    max_calls_per_region: int = 16
    executor: BaseExecutor | None = None
    seed: int = 0
    drift_margin: float = 0.0
    drift_window: int = 4

    current_bound: float | None = None
    frames_seen: int = 0
    retrain_count: int = 0
    _drift: DriftMonitor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.compressor, str):
            self.compressor = make_compressor(self.compressor)
        self._drift = DriftMonitor(
            band=self.band, margin=self.drift_margin, window=self.drift_window
        )

    # ------------------------------------------------------------------
    @property
    def band(self) -> tuple[float, float]:
        return acceptance_band(self.target_ratio, self.tolerance)

    def _drift_predicted(self) -> bool:
        """Pre-emptive retrain signal from the rolling ratio trend."""
        return self._drift.drifting()

    def push(self, frame: np.ndarray) -> OnlineStepResult:
        """Compress one arriving frame at the target ratio."""
        frame = np.asarray(frame)
        t0 = time.perf_counter()
        lo, hi = self.band
        self.frames_seen += 1

        payload: CompressedField | None = None
        evaluations = 0
        if self.current_bound is not None and not self._drift_predicted():
            configured = self.compressor.with_error_bound(self.current_bound)
            payload = configured.compress(frame)
            evaluations = 1
            if lo <= payload.ratio <= hi:
                self._drift.observe(payload.ratio)
                return OnlineStepResult(
                    payload=payload,
                    ratio=payload.ratio,
                    error_bound=self.current_bound,
                    in_band=True,
                    retrained=False,
                    evaluations=1,
                    seconds=time.perf_counter() - t0,
                )

        # Miss (or cold start / predicted drift): retrain, seeding with the
        # stale bound when there is one.
        result = train(
            self.compressor,
            frame,
            self.target_ratio,
            tolerance=self.tolerance,
            upper=self.max_error_bound,
            regions=self.regions,
            overlap=self.overlap,
            max_calls_per_region=self.max_calls_per_region,
            prediction=self.current_bound,
            executor=self.executor,
            seed=self.seed + self.frames_seen,
            keep_payload=True,
        )
        self.retrain_count += 1
        evaluations += result.evaluations
        self.current_bound = result.error_bound
        # The winning probe compressed this frame at this bound: its
        # payload is the output.
        payload = result.payload
        if payload is None:
            payload = self.compressor.with_error_bound(result.error_bound).compress(frame)
            evaluations += 1
        self._drift.reset()
        self._drift.observe(payload.ratio)
        return OnlineStepResult(
            payload=payload,
            ratio=payload.ratio,
            error_bound=result.error_bound,
            in_band=lo <= payload.ratio <= hi,
            retrained=True,
            evaluations=evaluations,
            seconds=time.perf_counter() - t0,
        )

    def decompress(self, payload: CompressedField | bytes) -> np.ndarray:
        """Reconstruct any payload this tuner produced."""
        return self.compressor.decompress(payload)
