"""MaxLIPO-style candidate selection.

Given evaluations ``(x_i, y_i)`` of an unknown function with (estimated)
Lipschitz constant ``k``, the piecewise-linear *lower* bound

    L(x) = max_i ( y_i - k * |x - x_i| )

is the tightest bound consistent with the data.  The next probe should go
where ``L`` is smallest — the point that could improve on the incumbent the
most.  Following the practical MaxLIPO recipe, ``k`` is estimated from the
data itself (the steepest observed secant slope, inflated slightly), and
candidates are scored over a dense deterministic grid plus random jitter so
plateaus in step-like objectives (exactly what compressor ratio curves look
like — Fig. 4) are still explored.

The same model, read the other way, says when to *stop*: :func:`excludes`
is true once the lower bound on the distance to the target stays above the
acceptable distance over the whole interval.
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimate_lipschitz", "lower_bound", "propose"]

_K_INFLATION = 1.1
#: :func:`excludes` trusts a slope this many times the steepest secant it
#: has seen: giving up on a region is costlier to get wrong than placing
#: the next probe, so its margin is wider than the proposal's.
_K_EXCLUSION = 2.0
_CANDIDATES = 256


def estimate_lipschitz(xs: np.ndarray, ys: np.ndarray) -> float:
    """Steepest pairwise secant slope, slightly inflated; >= tiny positive."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        return 1.0
    dx = np.abs(xs[:, None] - xs[None, :])
    dy = np.abs(ys[:, None] - ys[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(dx > 0, dy / dx, 0.0)
    k = float(slopes.max())
    return max(k * _K_INFLATION, 1e-12)


def lower_bound(x: np.ndarray, xs: np.ndarray, ys: np.ndarray, k: float) -> np.ndarray:
    """``L(x)`` evaluated at each candidate in ``x`` (vectorised)."""
    x = np.asarray(x, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return (ys[None, :] - k * np.abs(x[:, None] - xs[None, :])).max(axis=1)


def excludes(ts: np.ndarray, rs: np.ndarray, lower: float, upper: float) -> bool:
    """Whether probes at ``ts`` rule out a hit anywhere on ``[lower, upper]``.

    ``rs`` are signed residuals in units of the acceptable distance: a probe
    with ``|r| <= 1`` is a hit.  True when both interval ends and at least
    one interior point were probed, every probe missed on the *same* side
    (a pair of neighbours on opposite sides brackets the target and a
    non-finite residual says nothing, so neither ever excludes), and
    between every pair of neighbours the Lipschitz cone under both,
    ``(|r_i| + |r_j|) / 2 - k * dt / 2``, stays above 1 with ``k`` the
    steepest secant among the probes times :data:`_K_EXCLUSION`.
    """
    if len(ts) < 3:
        return False
    order = np.argsort(ts)
    t = np.asarray(ts, dtype=np.float64)[order]
    r = np.asarray(rs, dtype=np.float64)[order]
    if t[0] > lower or t[-1] < upper or not np.all(np.isfinite(r)):
        return False
    if not (np.all(r > 1.0) or np.all(r < -1.0)):
        return False
    dt = np.diff(t)
    k = _K_EXCLUSION * float((np.abs(np.diff(r)) / dt).max())
    dist = np.abs(r)
    return bool(np.all((dist[:-1] + dist[1:]) / 2 - k * dt / 2 > 1.0))


def propose(
    xs: np.ndarray,
    ys: np.ndarray,
    lower: float,
    upper: float,
    rng: np.random.Generator,
) -> float:
    """Next probe location by minimum lower bound.

    Candidates are a uniform grid over ``[lower, upper]`` with per-call
    random jitter; ties in the bound (plateaus) break toward the candidate
    farthest from existing samples, which keeps exploration moving across
    the steps of a staircase objective.
    """
    span = upper - lower
    if span <= 0:
        return lower
    base = np.linspace(lower, upper, _CANDIDATES)
    jitter = rng.uniform(-0.5, 0.5, _CANDIDATES) * (span / _CANDIDATES)
    cand = np.clip(base + jitter, lower, upper)
    t_xs = np.asarray(xs, dtype=np.float64)

    k = estimate_lipschitz(t_xs, ys)
    bound = lower_bound(cand, t_xs, ys, k)
    # Distance to nearest sample (tie-break toward unexplored space).
    dist = np.abs(cand[:, None] - t_xs[None, :]).min(axis=1)
    # Normalise both terms so the bound dominates and distance only breaks ties.
    bound_range = bound.max() - bound.min()
    if bound_range <= 0:
        score = -dist
    else:
        score = (bound - bound.min()) / bound_range - 1e-3 * dist / max(span, 1e-300)
    return float(cand[int(np.argmin(score))])
