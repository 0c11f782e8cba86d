"""Ablations of FRaZ's design choices.

Four knobs the paper fixes with brief justification; each ablation measures
the knob's actual effect on this implementation:

* **loss shape** — clamped square vs clamped absolute value ("we found the
  quadratic version converged faster", Sec. V-B2);
* **region overlap** — 10% overlap avoids border-case worst-time searches
  (Fig. 5);
* **region count** — "there seems to be a floor for how many iterations
  are required ... limited benefit to splitting into more than a few
  ranges"; 12 is the paper's default;
* **time-step reuse** — trying the previous bound first retrains only a
  few times per series (Sec. V-C).
"""

from __future__ import annotations

import numpy as np

from repro.core.fields import tune_time_series
from repro.core.loss import clamped_absolute_loss, clamped_square_loss, cutoff_for
from repro.core.training import SearchSpec, train
from repro.optimize import find_global_min
from repro.pressio.closures import RatioFunction
from repro.sz.compressor import SZCompressor


def test_ablation_loss_shape(benchmark, report, hurricane_small):
    """Square vs absolute loss: calls to reach the band over several targets."""
    data = hurricane_small.fields["TCf"].steps[0]
    sz = SZCompressor()
    lo, hi = sz.default_bound_range(data)
    targets = [6.0, 10.0, 16.0, 24.0]

    def run():
        stats = {}
        for label, loss_fn, squared in (
            ("square", clamped_square_loss, True),
            ("absolute", clamped_absolute_loss, False),
        ):
            calls = []
            hits = 0
            for target in targets:
                rf = RatioFunction(sz, data)
                res = find_global_min(
                    loss_fn(rf, target), lo, hi, max_calls=24,
                    cutoff=cutoff_for(target, 0.1, squared=squared), seed=0,
                )
                calls.append(res.n_calls)
                hits += res.hit_cutoff
            stats[label] = (float(np.mean(calls)), hits)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "",
        "== Ablation: loss shape (paper: quadratic converged faster) ==",
        f"{'loss':<10} {'mean calls':>11} {'targets hit':>12}",
    )
    for label, (mean_calls, hits) in stats.items():
        report(f"{label:<10} {mean_calls:>11.1f} {hits:>12}/{len(targets)}")
    assert stats["square"][1] >= stats["absolute"][1] or (
        stats["square"][0] <= stats["absolute"][0] * 1.5
    )


def test_ablation_region_overlap(benchmark, report, hurricane_small):
    """Overlap 0% vs 10% vs 25%: success and cost across targets."""
    data = hurricane_small.fields["CLOUDf"].steps[0]

    def run():
        stats = {}
        for overlap in (0.0, 0.1, 0.25):
            evals = []
            feas = 0
            for target in (6.0, 10.0, 16.0):
                res = train(SZCompressor(), data,
                            SearchSpec(target, tolerance=0.1, regions=6, overlap=overlap,
                                       max_calls_per_region=10, seed=0))
                evals.append(res.evaluations)
                feas += res.feasible
            stats[overlap] = (float(np.mean(evals)), feas)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "",
        "== Ablation: region overlap alpha (paper default 10%) ==",
        f"{'overlap':>8} {'mean evals':>11} {'feasible':>9}",
    )
    for overlap, (mean_evals, feas) in stats.items():
        report(f"{overlap:>8.2f} {mean_evals:>11.1f} {feas:>9}/3")
    # All variants should mostly succeed; overlap must not hurt success.
    assert stats[0.1][1] >= stats[0.0][1]


def test_ablation_region_count(benchmark, report, hurricane_small):
    """k = 1, 4, 12, 24 regions: diminishing returns past a few regions."""
    data = hurricane_small.fields["CLOUDf"].steps[0]

    def run():
        stats = {}
        for k in (1, 4, 12, 24):
            res = train(SZCompressor(), data,
                        SearchSpec(10.0, tolerance=0.1, regions=k, max_calls_per_region=10,
                                   seed=0))
            stats[k] = (res.evaluations, res.feasible, res.wall_seconds)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "",
        "== Ablation: region count k (paper default 12) ==",
        f"{'k':>4} {'evals':>6} {'feasible':>9} {'wall (s)':>9}",
    )
    for k, (evals, feas, wall) in stats.items():
        report(f"{k:>4} {evals:>6} {str(feas):>9} {wall:>9.3f}")
    # The serial executor stops at the first feasible region, so more
    # regions must not multiply the work once one succeeds.
    assert stats[12][1]  # k=12 succeeds
    assert stats[24][0] <= 24 * 10  # budget honoured


def test_ablation_timestep_reuse(benchmark, report, hurricane_small):
    """Reuse on/off: total evaluations over a drifting series."""
    series = hurricane_small.fields["TCf"].steps[:8]

    def run():
        with_reuse = tune_time_series(SZCompressor(), series,
                                      SearchSpec(10.0, tolerance=0.1, seed=0))
        without = tune_time_series(SZCompressor(), series, SearchSpec(10.0, tolerance=0.1, seed=0),
                                   reuse_prediction=False)
        return with_reuse, without

    with_reuse, without = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "",
        "== Ablation: time-step error-bound reuse (Sec. V-C) ==",
        f"reuse ON : {with_reuse.total_evaluations:4d} evaluations, "
        f"retrains at {with_reuse.retrain_steps}",
        f"reuse OFF: {without.total_evaluations:4d} evaluations, "
        f"retrains at {without.retrain_steps}",
    )
    assert with_reuse.converged_fraction == 1.0
    assert with_reuse.total_evaluations < without.total_evaluations
    assert len(with_reuse.retrain_steps) <= 3
