"""Figure 8: strong scaling of the field/time-step fan-out.

Paper result (Hurricane, 36-252 Bebop cores): runtime drops steeply while
tasks still queue, then flattens at 180-216 cores where the makespan equals
the longest single field task (QCLOUD took 1022 s vs a <500 s 75th
percentile); sz:abs scales past zfp:accuracy because ZFP's sparser feasible
ratios leave more budget-exhausting infeasible searches.

We cannot host hundreds of cores, so the *measured* single-task
durations are replayed through a deterministic list scheduler
(:mod:`repro.parallel.simulate`) — the same quantity the paper analyses.
"""

from __future__ import annotations

from repro.core.fields import tune_time_series
from repro.core.training import SearchSpec
from repro.parallel.simulate import simulate_scaling
from repro.pressio import make_compressor

_CORES = [1, 2, 4, 9, 13, 18, 26, 39]
# Scaled-down analog of the paper's 36..252-core sweep (13 fields here vs
# 13 fields x many steps there).


def _task_durations(dataset, compressor, target, steps):
    """Measured per-field search durations (the fan-out's task list)."""
    durations = {}
    for name, series in dataset.field_arrays().items():
        res = tune_time_series(
            compressor, series[:steps],
            SearchSpec(target, tolerance=0.1, regions=4, max_calls_per_region=5, seed=0),
            field_name=name,
        )
        durations[name] = res.total_wall_seconds
    return durations


def test_fig08_strong_scaling(benchmark, report, hurricane_tiny):
    target = 10.0

    def run():
        out = {}
        for comp_name in ("sz", "zfp"):
            comp = make_compressor(comp_name)
            durations = _task_durations(hurricane_tiny, comp, target, steps=4)
            curve = simulate_scaling(list(durations.values()), _CORES)
            out[comp.describe()] = (durations, curve)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    report("", "== Fig. 8: strong scaling (simulated-cluster replay of measured "
           "task durations) ==")
    for label, (durations, curve) in out.items():
        longest = max(durations.values())
        report(
            f"-- {label}: longest field task "
            f"{max(durations, key=durations.get)} = {longest:.3f}s --",
            f"{'cores':>6} {'makespan (s)':>13} {'speedup':>8}",
        )
        base = curve[_CORES[0]]
        for c in _CORES:
            report(f"{c:6d} {curve[c]:13.4f} {base / curve[c]:8.2f}")

        # Monotone non-increasing, and floored at the longest task.
        values = [curve[c] for c in _CORES]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - longest) < 1e-9, (
            "scaling must flatten at the longest worker task"
        )

    # Paper: total sz runtime (feasible-rich) is below zfp (budget-burning).
    sz_total = sum(out["sz:abs"][0].values())
    zfp_total = sum(out["zfp:abs"][0].values())
    report(f"total task time: sz={sz_total:.2f}s zfp={zfp_total:.2f}s")
