"""Online (in-situ) fixed-ratio compression — the paper's future work #2.

Sec. VII: "we would like to develop an online version of this algorithm to
provide in situ fixed-ratio compression for simulation and instrument
data."  :class:`OnlineFRaZ` is that version: a stateful tuner for frames
arriving one at a time.

Each frame is one :func:`~repro.core.training.train` call with the
carried-over bound as its prediction (Sec. V-C's time-step reuse), so the
steady-state cost is **one compression per frame**: the probe at that bound
*is* the output payload when it lands in the band.  A miss retrains with
cold regions, and the retrain's winning probe is likewise the output, not a
compression to be repeated.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.training import SearchSpec, train
from repro.parallel.executor import BaseExecutor
from repro.pressio.compressor import CompressedField, Compressor
from repro.pressio.registry import make_compressor

__all__ = ["OnlineFRaZ", "OnlineStepResult"]


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
    """Streaming fixed-ratio tuner; parameters mirror :class:`repro.core.fraz.FRaZ`."""

    compressor: Compressor | str = "sz"
    target_ratio: float = 10.0
    tolerance: float = SearchSpec.tolerance
    max_error_bound: float | None = None
    regions: int = SearchSpec.regions
    overlap: float = SearchSpec.overlap
    max_calls_per_region: int = SearchSpec.max_calls_per_region
    executor: BaseExecutor | None = None
    seed: int = 0

    current_bound: float | None = None
    frames_seen: int = 0
    retrain_count: int = 0
    #: The search each frame runs, built (and checked) at construction.
    spec: SearchSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.spec = SearchSpec(self.target_ratio, self.tolerance, upper=self.max_error_bound,
                               regions=self.regions, overlap=self.overlap,
                               max_calls_per_region=self.max_calls_per_region, seed=self.seed)
        if isinstance(self.compressor, str):
            self.compressor = make_compressor(self.compressor)

    # ------------------------------------------------------------------
    def push(self, frame: np.ndarray) -> OnlineStepResult:
        """Compress one arriving frame at the target ratio."""
        frame = np.asarray(frame)
        t0 = time.perf_counter()
        self.frames_seen += 1
        result = train(
            self.compressor,
            frame,
            dataclasses.replace(self.spec, seed=self.spec.seed + self.frames_seen),
            prediction=self.current_bound,
            executor=self.executor,
            keep_payload=True,
        )
        retrained = not result.used_prediction
        self.retrain_count += retrained
        self.current_bound = result.error_bound
        evaluations = result.evaluations
        # The winning probe compressed this frame at this bound: its
        # payload is the output.
        payload = result.payload
        if payload is None:
            payload = self.compressor.with_error_bound(result.error_bound).compress(frame)
            evaluations += 1
        lo, hi = self.spec.band
        return OnlineStepResult(
            payload=payload,
            ratio=payload.ratio,
            error_bound=result.error_bound,
            in_band=lo <= payload.ratio <= hi,
            retrained=retrained,
            evaluations=evaluations,
            seconds=time.perf_counter() - t0,
        )

    def decompress(self, payload: CompressedField | bytes) -> np.ndarray:
        """Reconstruct any payload this tuner produced."""
        return self.compressor.decompress(payload)
