"""Sec. V-B1 baseline comparison: FRaZ's optimizer vs binary search.

Paper result: "when searching for the target compression ratio 8:1 at the
48th time-step on the Hurricane-CLOUD field, our method requires only 6
iterations to converge to an acceptable solution, whereas binary search
needs 39 iterations" — because bisection climbs from the minimum possible
error bound through bounds that cannot produce an acceptable ratio.  On
non-monotonic curves (Fig. 3) bisection can fail outright.
"""

from __future__ import annotations

from repro.core.baselines import binary_search_ratio, grid_search_ratio
from repro.core.training import SearchSpec, train
from repro.sz.compressor import SZCompressor


def test_baseline_iteration_comparison(benchmark, report, hurricane_small):
    data = hurricane_small.fields["CLOUDf"].steps[-1]
    target = 8.0

    def run():
        fraz = train(SZCompressor(), data,
                     SearchSpec(target, tolerance=0.1, regions=6, max_calls_per_region=12, seed=0))
        binary = binary_search_ratio(SZCompressor(), data, target,
                                     tolerance=0.1, max_calls=64)
        grid = grid_search_ratio(SZCompressor(), data, target,
                                 tolerance=0.1, points=64)
        return fraz, binary, grid

    fraz, binary, grid = benchmark.pedantic(run, rounds=1, iterations=1)

    report(
        "",
        "== Sec. V-B1: iterations to reach rho_t=8 on Hurricane CLOUD "
        "(paper: FRaZ 6 vs binary search 39) ==",
        f"{'method':<14} {'iterations':>10} {'ratio':>8} {'feasible':>9}",
        f"{'FRaZ':<14} {fraz.evaluations:>10} {fraz.ratio:>8.3f} {str(fraz.feasible):>9}",
        f"{'binary':<14} {binary.evaluations:>10} {binary.ratio:>8.3f} {str(binary.feasible):>9}",
        f"{'grid':<14} {grid.evaluations:>10} {grid.ratio:>8.3f} {str(grid.feasible):>9}",
    )
    assert fraz.feasible
    # FRaZ needs no more evaluations than the exhaustive sweep, and is in
    # the same league as (or better than) bisection when both succeed.
    assert fraz.evaluations <= grid.evaluations or grid.feasible
    if binary.feasible:
        assert fraz.evaluations <= binary.evaluations * 3
