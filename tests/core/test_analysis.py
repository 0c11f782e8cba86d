"""Tests for the analysis sweep helpers."""

import numpy as np
import pytest

from repro.analysis import (
    default_bound_sweep,
    feasible_ratio_range,
    rate_distortion_curve,
    ratio_curve,
)
from repro.sz.compressor import SZCompressor
from repro.zfp.compressor import ZFPCompressor


class TestDefaultSweep:
    def test_within_compressor_range(self, smooth2d):
        comp = SZCompressor()
        sweep = default_bound_sweep(comp, smooth2d, points=10)
        lo, hi = comp.default_bound_range(smooth2d)
        assert sweep.size == 10
        assert sweep[0] >= lo * 0.999
        assert sweep[-1] <= hi * 1.001

    def test_geometric_spacing(self, smooth2d):
        sweep = default_bound_sweep(SZCompressor(), smooth2d, points=8)
        log_gaps = np.diff(np.log(sweep))
        assert np.allclose(log_gaps, log_gaps[0])


class TestRatioCurve:
    def test_matches_direct_compression(self, smooth2d):
        comp = SZCompressor()
        bounds = np.array([1e-3, 1e-2])
        _, ratios = ratio_curve(comp, smooth2d, bounds)
        direct = comp.with_error_bound(1e-2).compress(smooth2d).ratio
        assert ratios[1] == pytest.approx(direct)

    def test_globally_increasing(self, smooth2d):
        bounds, ratios = ratio_curve(SZCompressor(), smooth2d)
        assert ratios[-1] > ratios[0]

    def test_default_bounds_used(self, smooth2d):
        bounds, ratios = ratio_curve(SZCompressor(), smooth2d)
        assert bounds.size == ratios.size == 24


class TestRateDistortion:
    def test_sorted_by_bit_rate(self, smooth2d):
        points = rate_distortion_curve(
            SZCompressor(), smooth2d, np.geomspace(1e-4, 1e-1, 6)
        )
        rates = [p.bit_rate for p in points]
        assert rates == sorted(rates)

    def test_monotone_quality_tradeoff(self, smooth2d):
        points = rate_distortion_curve(
            SZCompressor(), smooth2d, np.geomspace(1e-5, 1e-1, 8)
        )
        # Higher bit rate -> higher PSNR, at least end-to-end.
        assert points[-1].psnr > points[0].psnr
        assert points[-1].max_error < points[0].max_error

    def test_bound_respected_at_each_point(self, smooth2d):
        for p in rate_distortion_curve(
            ZFPCompressor(), smooth2d, np.geomspace(1e-3, 1e-1, 4)
        ):
            assert p.max_error <= p.error_bound

    def test_ssim_skippable(self, smooth2d):
        points = rate_distortion_curve(
            SZCompressor(), smooth2d, np.array([1e-2]), compute_ssim=False
        )
        assert np.isnan(points[0].ssim)


class TestFeasibleRange:
    def test_contains_known_achievable_ratio(self, smooth2d):
        comp = SZCompressor()
        lo, hi = feasible_ratio_range(comp, smooth2d)
        mid = comp.with_error_bound(1e-2).compress(smooth2d).ratio
        assert lo <= mid <= hi

    def test_range_ordering(self, smooth2d):
        lo, hi = feasible_ratio_range(SZCompressor(), smooth2d)
        assert lo < hi
        assert lo >= 0.5  # payload never more than ~2x the input

    def test_predicts_fig7_infeasibility(self, smooth2d):
        """Targets outside the range are exactly the slow Fig. 7 cases."""
        from repro.core.training import SearchSpec, train

        lo, hi = feasible_ratio_range(SZCompressor(), smooth2d)
        below = max(lo * 0.3, 0.1)
        res = train(SZCompressor(), smooth2d,
                    SearchSpec(below, tolerance=0.05, regions=3, max_calls_per_region=4, seed=0))
        assert not res.feasible
