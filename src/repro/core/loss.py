"""Loss construction (Sec. V-B2).

The ratio closure ``rho_r(D, e)`` is turned into a minimisable loss by
taking the squared distance to the target and clamping:

    l(e) = min( (rho_r(D, e) - rho_t)**2 , gamma )

with ``gamma`` equal to 80% of the largest representable double — the
paper's choice, which (a) gives the function a bounded range so the global
optimizer has a well-defined floor, and (b) avoided a segfault in Dlib's
implementation (our reimplementation doesn't segfault, but we keep the
clamp for fidelity and because it also absorbs ``inf`` ratios from empty
payloads).

The paper also evaluated ``min(|x|, gamma)`` and found the quadratic
converged faster; both are provided so the ablation benchmark can compare
them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_GAMMA",
    "clamped_square_loss",
    "clamped_absolute_loss",
    "cutoff_for",
    "acceptance_band",
]

DEFAULT_GAMMA = 0.8 * float(np.finfo(np.float64).max)


def clamped_square_loss(
    ratio_fn: Callable[[float], float],
    target_ratio: float,
    gamma: float = DEFAULT_GAMMA,
) -> Callable[[float], float]:
    """``e -> min((rho_r(e) - rho_t)**2, gamma)`` (the paper's loss)."""
    if target_ratio <= 0:
        raise ValueError(f"target ratio must be positive, got {target_ratio}")

    def loss(error_bound: float) -> float:
        ratio = ratio_fn(error_bound)
        if not np.isfinite(ratio):
            return gamma
        diff = abs(ratio - target_ratio)
        # Squaring a huge float raises OverflowError; the clamp would win
        # anyway, so short-circuit past sqrt(gamma).
        if diff >= np.sqrt(gamma):
            return gamma
        return min(diff * diff, gamma)

    return loss


def clamped_absolute_loss(
    ratio_fn: Callable[[float], float],
    target_ratio: float,
    gamma: float = DEFAULT_GAMMA,
) -> Callable[[float], float]:
    """``e -> min(|rho_r(e) - rho_t|, gamma)`` (the rejected alternative)."""
    if target_ratio <= 0:
        raise ValueError(f"target ratio must be positive, got {target_ratio}")

    def loss(error_bound: float) -> float:
        ratio = ratio_fn(error_bound)
        if not np.isfinite(ratio):
            return gamma
        return min(abs(ratio - target_ratio), gamma)

    return loss


def cutoff_for(target_ratio: float, tolerance: float, squared: bool = True) -> float:
    """Early-termination threshold: loss values in ``[0, (eps * rho_t)**2]``
    are acceptable (Sec. V-B3)."""
    base = tolerance * target_ratio
    return base**2 if squared else base


def acceptance_band(target_ratio: float, tolerance: float) -> tuple[float, float]:
    """The ratios that count as hitting the target (Sec. V-B3):
    ``lo <= rho <= hi`` with ``(lo, hi) = (rho_t (1 - eps), rho_t (1 + eps))``.
    Both edges are inside the band."""
    if target_ratio <= 0:
        raise ValueError(f"target_ratio must be positive, got {target_ratio}")
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    return target_ratio * (1.0 - tolerance), target_ratio * (1.0 + tolerance)
