"""``find_global_min``: the alternating LIPO / trust-region driver.

Mirrors Dlib's global optimizer with FRaZ's modification:

* evaluations alternate between a MaxLIPO exploration proposal and a
  quadratic trust-region refinement of the best valley;
* the **cutoff** terminates the search as soon as the best value drops to
  the user's acceptance threshold (Sec. V-B3: stop once the loss is within
  ``[0, (eps * rho_t)**2]``), trading exactness for speed;
* the function is treated as deterministic and expensive — every proposal
  is deduplicated against previous probes before being evaluated;
* the **exclusion cutoff** is the mirror image: a caller that can say on
  which side of its target each probe fell (``residual``) lets the search
  end as soon as the probes made rule a hit out everywhere on the interval
  (:func:`repro.optimize.lipo.excludes`).  It only ever *ends* a search —
  the probes made up to that point are exactly those of a search without it.

Scale handling: compressor error bounds are *scale* parameters — a ratio
curve's structure concentrates in the lowest decades of a wide interval.
When ``upper / lower`` spans more than three decades the entire search
(seeding, LIPO bounds, quadratic refinement) runs in log-space, where such
objectives are far closer to uniformly Lipschitz.  Results are reported in
the original coordinates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.optimize.lipo import excludes, propose
from repro.optimize.result import Evaluation, OptimizationResult
from repro.optimize.trust_region import refine, v_refine

__all__ = ["find_global_min"]

_LOG_SPAN_THRESHOLD = 1e3


def find_global_min(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    max_calls: int = 40,
    cutoff: float | None = None,
    seed: int = 0,
    residual: Callable[[float], float] | None = None,
) -> OptimizationResult:
    """Minimise a scalar black-box function over ``[lower, upper]``.

    Parameters
    ----------
    func:
        Deterministic objective (FRaZ passes the clamped-square ratio loss).
    lower, upper:
        Search interval; every probe stays inside it.
    max_calls:
        Hard budget on objective evaluations.
    cutoff:
        Early-termination threshold: stop as soon as ``f(x) <= cutoff``.
    seed:
        Seed for the (deterministic) candidate jitter.
    residual:
        Internal hook of FRaZ's region workers: maps a probe already made
        to the signed distance of what it observed from the target, in
        units of the acceptable distance (``|r| <= 1`` is a hit, the sign
        says on which side a miss fell).  With it the search also stops
        once :func:`~repro.optimize.lipo.excludes` holds.

    Returns
    -------
    OptimizationResult
        Best probe, call count, why the search stopped and the full history
        (all in the original, untransformed coordinates).
    """
    if not upper > lower:
        raise ValueError(f"need upper > lower, got [{lower}, {upper}]")
    if max_calls < 1:
        raise ValueError("max_calls must be >= 1")

    span = upper - lower
    use_log = lower > 0 and upper / lower > _LOG_SPAN_THRESHOLD

    if use_log:
        t_lower, t_upper = float(np.log(lower)), float(np.log(upper))

        def from_t(t: float) -> float:
            # Clip in x-space too: exp(log(upper)) can overshoot by one ULP.
            return float(np.clip(np.exp(np.clip(t, t_lower, t_upper)), lower, upper))

    else:
        t_lower, t_upper = float(lower), float(upper)

        def from_t(t: float) -> float:
            return float(np.clip(t, lower, upper))

    rng = np.random.default_rng(seed)
    history: list[Evaluation] = []
    t_seen: list[float] = []
    r_seen: list[float] = []
    seen_x: set[float] = set()

    def evaluate(t: float) -> float:
        x = from_t(t)
        fx = float(func(x))
        history.append(Evaluation(x, fx))
        t_seen.append(t)
        if residual is not None:
            r_seen.append(float(residual(x)))
        seen_x.add(x)
        return fx

    def stop_reason() -> str | None:
        if cutoff is not None and history and min(h.fx for h in history) <= cutoff:
            return "cutoff"
        if len(history) >= max_calls:
            return "budget"
        if r_seen and excludes(np.asarray(t_seen), np.asarray(r_seen), t_lower, t_upper):
            return "excluded"
        return None

    # Seed probes in t-space: the interval ends and interior quantiles,
    # capped at half the budget so the optimizer proper keeps its share of
    # probes.
    t_span = t_upper - t_lower
    seeds = [
        t_lower,
        t_upper,
        t_lower + 0.5 * t_span,
        t_lower + 0.25 * t_span,
        t_lower + 0.75 * t_span,
        t_lower + 0.61803398875 * t_span,
    ][: max(3, max_calls // 2)]
    for t in seeds:
        if stop_reason():
            break
        if from_t(t) not in seen_x:
            evaluate(t)

    # Adaptive alternation (Dlib-style): exploit the incumbent valley while
    # it keeps improving the best value; fall back to one MaxLIPO
    # exploration probe whenever exploitation stalls.  Exploitation leads
    # with the sqrt-loss secant/V step — exact for FRaZ's squared-distance
    # objective — and uses the quadratic trust region only when that step
    # has no fresh proposal (the parabola's vertex is easily dragged off
    # target by the tall far wall of an asymmetric valley).
    explore_next = False
    while not stop_reason():
        ts = np.asarray(t_seen)
        ys = np.asarray([h.fx for h in history])
        best_before = float(ys.min())
        exploring = explore_next
        if exploring:
            t_next = propose(ts, ys, t_lower, t_upper, rng)
            explore_next = False
        else:
            t_next = v_refine(ts, ys, t_lower, t_upper)
            if t_next is None:
                t_next = refine(ts, ys, t_lower, t_upper)
        if t_next is None or from_t(t_next) in seen_x:
            # Degenerate proposal: fall back to a random unexplored probe.
            for _ in range(16):
                t_next = float(rng.uniform(t_lower, t_upper))
                if from_t(t_next) not in seen_x:
                    break
            else:
                break
        fx = evaluate(t_next)
        if not exploring and fx >= best_before:
            # Exploitation stalled: spend the next probe exploring.  An
            # exploration probe always hands back to exploitation, whatever
            # it finds — otherwise a dry spell would explore forever.
            explore_next = True

    best = min(history, key=lambda h: h.fx)
    return OptimizationResult(
        x_best=best.x,
        f_best=best.fx,
        n_calls=len(history),
        # No fresh probe left to propose is the budget running out early.
        stop_reason=stop_reason() or "budget",
        history=history,
    )
