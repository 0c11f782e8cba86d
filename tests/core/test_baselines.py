"""Tests for the binary/grid search baselines."""

import numpy as np
import pytest

from repro.core.baselines import binary_search_ratio, grid_search_ratio
from repro.core.training import SearchSpec, train
from repro.sz.compressor import SZCompressor


@pytest.fixture(scope="module")
def field():
    r = np.random.default_rng(41)
    x, y = np.meshgrid(np.linspace(0, 4, 48), np.linspace(0, 4, 40), indexing="ij")
    return (np.sin(x) * np.cos(y) + 0.01 * r.standard_normal(x.shape)).astype(np.float32)


class TestBinarySearch:
    def test_finds_feasible_target(self, field):
        res = binary_search_ratio(SZCompressor(), field, 10.0, tolerance=0.1)
        assert res.feasible
        assert res.within_tolerance

    def test_reports_evaluations(self, field):
        res = binary_search_ratio(SZCompressor(), field, 10.0, tolerance=0.1)
        assert res.evaluations >= 1

    def test_budget_respected(self, field):
        res = binary_search_ratio(
            SZCompressor(), field, 500.0, tolerance=0.01, max_calls=10
        )
        assert res.evaluations <= 10

    def test_binary_fails_on_nonmonotonic_staircase_fraz_succeeds(self):
        """The paper's Sec. V-B1 claim: binary search assumes monotonicity
        and can converge to the wrong plateau; FRaZ's global optimizer does
        not.  Demonstrated on a deterministic dipping-staircase ratio curve
        (the Fig. 3 shape)."""
        stair = _StaircaseCompressor()
        data = np.zeros(1000, np.float32)
        target, tol = 14.0, 0.05  # band [13.3, 14.7]; only e in [0.2, 0.4) hits
        binary = binary_search_ratio(stair, data, target, tolerance=tol,
                                     lower=1e-6, upper=1.0, max_calls=40)
        fraz = train(stair, data,
                     SearchSpec(target, tolerance=tol, lower=1e-6, upper=1.0, regions=4,
                                max_calls_per_region=16, seed=0))
        assert fraz.feasible
        assert not binary.feasible


class _StaircaseCompressor(SZCompressor):
    """Ratio curve with a dip: 10, *14*, 11, 12, 20 over five bound bands.

    The dip after the target band breaks bisection's monotonicity
    assumption: bisection of [1e-6, 1] only ever probes bands 2-4 (ratios
    11, 12, 20) and homes in on the 12/20 boundary, never reaching the
    target band [0.2, 0.4).
    """

    _LEVELS = (10.0, 14.0, 11.0, 12.0, 20.0)

    def compress(self, data):
        from repro.pressio.compressor import CompressedField

        band = min(int(self.error_bound / 0.2), 4) if self.error_bound > 0 else 0
        ratio = self._LEVELS[band]
        nbytes = max(1, round(max(data.nbytes, 1) / ratio))
        return CompressedField(payload=b"\x00" * nbytes, original_nbytes=data.nbytes)


class TestGridSearch:
    def test_finds_feasible_target(self, field):
        res = grid_search_ratio(SZCompressor(), field, 10.0, tolerance=0.1, points=48)
        assert res.feasible

    def test_linear_spacing_option(self, field):
        res = grid_search_ratio(
            SZCompressor(), field, 10.0, tolerance=0.2, points=32, log_spaced=False
        )
        assert res.evaluations <= 32

    def test_more_expensive_than_fraz(self, field):
        fraz = train(SZCompressor(), field, SearchSpec(10.0, tolerance=0.1, seed=0))
        grid = grid_search_ratio(SZCompressor(), field, 10.0, tolerance=0.1, points=64)
        assert fraz.evaluations < grid.evaluations or grid.feasible
