"""Extension bench: predictor generations and error-control modes under FRaZ.

The calibration context notes SZ3 (interpolation prediction) and pw-rel
ratio workflows exist in the ecosystem; this bench shows the black-box
framework drives all of them without modification — the genericity claim
at the heart of the paper — and records their rate-distortion relationship:

* ``sz`` (SZ2 block hybrid) vs ``sz-interp`` (SZ3 interpolation) on a
  smooth 3D field across bounds;
* ``sz-pwrel`` on magnitude-spanning 1D data where absolute bounds fail;
* FRaZ fixed-ratio searches over every registered abs-mode compressor.
"""

from __future__ import annotations

import numpy as np

from repro.core.training import SearchSpec, train
from repro.metrics import psnr
from repro.pressio import make_compressor


def test_predictor_generations_rate_distortion(benchmark, report, nyx_small):
    data = nyx_small.fields["temperature"].steps[0]
    span = float(data.max() - data.min())
    bounds = np.geomspace(span * 1e-6, span * 1e-2, 8)

    def run():
        rows = {}
        for name in ("sz", "sz-interp"):
            series = []
            for eb in bounds:
                comp = make_compressor(name, error_bound=float(eb))
                payload = comp.compress(data)
                recon = comp.decompress(payload)
                series.append((8.0 * payload.nbytes / data.size, psnr(data, recon)))
            rows[name] = series
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("", "== Extension: SZ2 block hybrid vs SZ3 interpolation "
           "(NYX temperature) ==")
    for name, series in rows.items():
        pts = "  ".join(f"({br:5.2f}, {ps:6.2f})" for br, ps in sorted(series))
        report(f"  {name:<10} {pts}")

    # At the loosest bound (lowest bit rate) interpolation matches or beats
    # the block hybrid on this smooth field.
    sz_low = min(rows["sz"], key=lambda p: p[0])
    si_low = min(rows["sz-interp"], key=lambda p: p[0])
    assert si_low[0] <= sz_low[0] * 1.2


def test_fraz_generic_over_all_abs_compressors(benchmark, report, nyx_small):
    """One search loop, every error-bounded backend — zero special-casing."""
    data = nyx_small.fields["temperature"].steps[0]
    target = 10.0
    backends = ["sz", "sz-interp", "zfp", "mgard"]

    def run():
        out = {}
        for name in backends:
            comp = make_compressor(name)
            res = train(comp, data,
                        SearchSpec(target, tolerance=0.15, regions=4, max_calls_per_region=10,
                                   seed=0))
            out[name] = res
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    report("", f"== Extension: FRaZ across every abs-mode backend "
           f"(rho_t={target}) ==",
           f"{'backend':<10} {'ratio':>8} {'feasible':>9} {'evals':>6}")
    for name, res in out.items():
        report(f"{name:<10} {res.ratio:>8.2f} {str(res.feasible):>9} "
               f"{res.evaluations:>6}")
    feasible = [name for name, res in out.items() if res.feasible]
    assert len(feasible) >= 3, f"most backends should converge, got {feasible}"


def test_pwrel_on_multiscale_particles(benchmark, report, hacc_tiny):
    """Point-wise relative bounds on HACC-style data (the use case the
    mode exists for)."""
    data = hacc_tiny.fields["vx"].steps[0]

    def run():
        comp = make_compressor("sz-pwrel", error_bound=1e-2)
        payload = comp.compress(data)
        recon = comp.decompress(payload)
        nz = np.abs(data) > 1e-35
        rel = np.abs(
            recon.astype(np.float64)[nz] - data.astype(np.float64)[nz]
        ) / np.abs(data.astype(np.float64)[nz])
        return payload.ratio, float(rel.max())

    ratio, max_rel = benchmark.pedantic(run, rounds=1, iterations=1)
    report("", "== Extension: sz-pwrel on HACC velocities ==",
           f"ratio {ratio:.2f}:1, max pointwise relative error {max_rel:.3e} "
           "(bound 1e-2)")
    assert max_rel <= 1e-2
    assert ratio > 1.0
