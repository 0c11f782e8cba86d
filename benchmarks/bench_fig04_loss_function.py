"""Figure 4: the autotuning loss function on a step-like ratio curve.

The paper illustrates how a staircase ratio/bound relation (typical of
ZFP's accuracy mode) maps through the clamped-square loss into a landscape
whose acceptable region the optimizer can hit.  This bench regenerates both
panels: the measured ZFP ratio staircase and the corresponding
distance-from-objective values, and verifies the two claims the figure
encodes — (a) the ratio curve is a step function (few distinct values), and
(b) a target on a step is *feasible* while a target between steps is
*infeasible* yet FRaZ still returns the closest step.
"""

from __future__ import annotations

import numpy as np

from repro.core.loss import clamped_square_loss
from repro.core.training import SearchSpec, train
from repro.pressio.closures import RatioFunction
from repro.zfp.compressor import ZFPCompressor


def test_fig04_loss_landscape(benchmark, report, hurricane_small):
    data = hurricane_small.fields["TCf"].steps[0]
    span = float(data.max() - data.min())
    bounds = np.geomspace(span * 1e-5, span, 48)

    def run():
        rf = RatioFunction(ZFPCompressor(), data)
        ratios = np.array([rf(float(e)) for e in bounds])
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    distinct = np.unique(np.round(np.log(ratios) * 50).astype(int)) * 1.0
    distinct = np.exp(distinct / 50)  # ratio levels at 2% granularity

    target = 15.0
    loss = clamped_square_loss(lambda e: float(np.interp(e, bounds, ratios)), target)
    losses = np.array([loss(float(e)) for e in bounds])

    report(
        "",
        "== Fig. 4: ZFP(accuracy) ratio staircase and clamped-square loss ==",
        f"{'bound':>12} {'ratio':>9} {'loss(target=15)':>16}",
    )
    for e, r, l in zip(bounds[::4], ratios[::4], losses[::4]):
        report(f"{e:12.5f} {r:9.3f} {l:16.3f}")
    report(
        f"distinct ratio levels over {len(bounds)} probed bounds: {distinct.size}"
    )

    # (a) Step function: within a power-of-two bound bracket the coded
    # planes are identical (only verify-and-patch bytes drift), so the
    # ratio is near-constant; crossing a bracket makes it jump.  At 2%
    # granularity the curve collapses to far fewer levels than probes.
    assert distinct.size < len(bounds) * 0.7
    brackets = np.floor(np.log2(bounds))
    same = [
        abs(ratios[i + 1] - ratios[i]) / ratios[i]
        for i in range(len(bounds) - 1)
        if brackets[i + 1] == brackets[i]
    ]
    assert same and float(np.median(same)) < 0.05

    # (b) Feasible vs infeasible targets behave as the figure describes.
    on_step = float(distinct[np.argmin(np.abs(distinct - 10.0))])
    feasible = train(ZFPCompressor(), data, SearchSpec(on_step, tolerance=0.1, regions=4, seed=0))
    assert feasible.feasible

    # A target in a gap between consecutive steps (if one is wide enough).
    gaps = np.diff(distinct)
    wide = np.argmax(gaps / distinct[:-1])
    lo_step, hi_step = float(distinct[wide]), float(distinct[wide + 1])
    if hi_step / lo_step > 1.5:
        mid = float(np.sqrt(lo_step * hi_step))
        tol = min(0.05, (hi_step / mid - 1) * 0.4, (1 - lo_step / mid) * 0.4)
        infeasible = train(ZFPCompressor(), data,
                           SearchSpec(mid, tolerance=tol, regions=4, max_calls_per_region=8,
                                      seed=0))
        report(
            f"gap target rho_t={mid:.2f} (steps {lo_step:.2f}/{hi_step:.2f}): "
            f"feasible={infeasible.feasible}, closest ratio={infeasible.ratio:.2f}"
        )
        assert not infeasible.feasible
        # FRaZ reports the closest observed step (Sec. V-B3).
        assert min(abs(infeasible.ratio - lo_step), abs(infeasible.ratio - hi_step)) < (
            hi_step - lo_step
        )
