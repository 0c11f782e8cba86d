"""Figure 9: rate distortion of SZ(FRaZ), ZFP(FRaZ), ZFP(fixed-rate) and
MGARD(FRaZ) on all five datasets.

Paper results: (a) Hurricane TCf, (b) NYX temperature, (c) CESM CLDHGH,
(d) HACC x/y/z, (e) EXAALT x/y/z.  ZFP(FRaZ) consistently beats
ZFP(fixed-rate); SZ(FRaZ) has the best rate distortion in most cases;
MGARD is absent from (d)/(e) because it does not support 1D data.
"""

from __future__ import annotations

import numpy as np

from repro.core.training import SearchSpec, train
from repro.metrics import psnr
from repro.pressio import make_compressor

# Per-panel bit-rate grids, matching the x-ranges of the paper's panels:
# 3D fields sweep low rates; the 1D particle datasets only express low
# ratios (Fig. 9 d/e reach bit rate 14-18), and our ZFP's 24-bit block
# header makes sub-2-bit rates degenerate in 1D/2D (documented overhead of
# the sectioned layout — see docs/BENCHMARKS.md).
_PANELS = [
    ("Hurricane", "TCf", "hurricane_tiny", [1.0, 2.0, 4.0, 8.0]),
    ("NYX", "temperature", "nyx_tiny", [1.0, 2.0, 4.0, 8.0]),
    ("CESM", "CLDHGH", "cesm_tiny", [2.0, 4.0, 8.0, 12.0]),
    ("HACC", "x", "hacc_tiny", [12.0, 16.0, 20.0, 26.0]),
    ("Exaalt", "x", "exaalt_tiny", [10.0, 12.0, 16.0, 24.0]),
]


def _fraz_point(comp_name: str, data: np.ndarray, target_ratio: float):
    """FRaZ-tuned (bit_rate, psnr) or None when infeasible/unsupported."""
    comp = make_compressor(comp_name)
    if not comp.supports(data):
        return None
    res = train(comp, data,
                SearchSpec(target_ratio, tolerance=0.15, regions=4, max_calls_per_region=10,
                           seed=0))
    tuned = comp.with_error_bound(res.error_bound)
    field = tuned.compress(data)
    recon = tuned.decompress(field)
    return 8.0 * field.nbytes / data.size, psnr(data, recon), res.feasible


def _rate_point(data: np.ndarray, rate: float):
    comp = make_compressor("zfp-rate", error_bound=rate)
    field = comp.compress(data)
    recon = comp.decompress(field)
    return 8.0 * field.nbytes / data.size, psnr(data, recon)


def _panel(data: np.ndarray, bit_rates: list[float]):
    itemsize_bits = data.dtype.itemsize * 8
    rows: dict[str, list[tuple[float, float]]] = {
        "SZ(FRaZ)": [], "ZFP(FRaZ)": [], "ZFP(fixed-rate)": [], "MGARD(FRaZ)": [],
    }
    for bit_rate in bit_rates:
        target = itemsize_bits / bit_rate
        for comp_name, label in (
            ("sz", "SZ(FRaZ)"), ("zfp", "ZFP(FRaZ)"), ("mgard", "MGARD(FRaZ)"),
        ):
            point = _fraz_point(comp_name, data, target)
            if point is not None and point[2]:
                rows[label].append((point[0], point[1]))
        rows["ZFP(fixed-rate)"].append(_rate_point(data, bit_rate))
    return rows


def test_fig09_rate_distortion(
    benchmark, report, hurricane_tiny, nyx_tiny, cesm_tiny, hacc_tiny, exaalt_tiny
):
    datasets = {
        "hurricane_tiny": hurricane_tiny,
        "nyx_tiny": nyx_tiny,
        "cesm_tiny": cesm_tiny,
        "hacc_tiny": hacc_tiny,
        "exaalt_tiny": exaalt_tiny,
    }

    def run():
        out = {}
        for ds_name, field_name, fixture, bit_rates in _PANELS:
            data = datasets[fixture].fields[field_name].steps[0]
            out[(ds_name, field_name)] = (_panel(data, bit_rates), data.ndim)
        return out

    panels = benchmark.pedantic(run, rounds=1, iterations=1)

    report("", "== Fig. 9: rate distortion, PSNR (dB) vs bit rate ==")
    for (ds_name, field_name), (rows, ndim) in panels.items():
        report(f"-- {ds_name}({field_name}) --")
        for label, series in rows.items():
            if not series:
                report(f"  {label:<16} (no feasible points)")
                continue
            pts = "  ".join(f"({br:5.2f}, {ps:6.2f})" for br, ps in sorted(series))
            report(f"  {label:<16} {pts}")

        # MGARD must be absent on 1D datasets (paper: panels d/e).
        if ndim == 1:
            assert not rows["MGARD(FRaZ)"], "MGARD cannot appear on 1D data"
        # Every panel has at least one FRaZ-tuned SZ point.
        assert rows["SZ(FRaZ)"], f"{ds_name}: SZ(FRaZ) produced no points"

        # ZFP(FRaZ) dominates ZFP(fixed-rate) at comparable bit rates.
        fraz_pts = sorted(rows["ZFP(FRaZ)"])
        rate_pts = sorted(rows["ZFP(fixed-rate)"])
        if len(fraz_pts) >= 2:
            fr_br = np.array([p[0] for p in fraz_pts])
            fr_ps = np.array([p[1] for p in fraz_pts])
            wins = total = 0
            for br, ps in rate_pts:
                if fr_br[0] <= br <= fr_br[-1]:
                    total += 1
                    wins += float(np.interp(br, fr_br, fr_ps)) > ps
            if total:
                assert wins >= total * 0.5, (
                    f"{ds_name}: ZFP(FRaZ) should win at most bit rates "
                    f"({wins}/{total})"
                )
