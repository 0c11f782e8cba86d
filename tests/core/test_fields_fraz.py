"""Tests for Algorithm 3 (fields/time-steps) and the FRaZ front-end."""

import numpy as np
import pytest

from repro.core import FRaZ, SearchSpec, tune_fields, tune_time_series
from repro.sz.compressor import SZCompressor


def _series(n_steps=6, shape=(24, 24, 12), drift=0.03, seed=31):
    r = np.random.default_rng(seed)
    x, y, z = np.meshgrid(
        np.linspace(0, 4, shape[0]), np.linspace(0, 4, shape[1]),
        np.linspace(0, 4, shape[2]), indexing="ij",
    )
    return [
        (np.sin(x + drift * t) * np.cos(y + z) + 0.01 * r.standard_normal(shape)).astype(
            np.float32
        )
        for t in range(n_steps)
    ]


@pytest.fixture(scope="module")
def series():
    return _series()


class TestTimeSeries:
    def test_all_steps_converge(self, series):
        res = tune_time_series(SZCompressor(), series, SearchSpec(10.0, tolerance=0.1, seed=0))
        assert res.converged_fraction == 1.0

    def test_reuse_skips_training(self, series):
        res = tune_time_series(SZCompressor(), series, SearchSpec(10.0, tolerance=0.1, seed=0))
        # Slowly drifting data: only the first step should retrain.
        assert res.retrain_steps[0] == 0
        assert len(res.retrain_steps) <= 2
        reused = [s for s in res.steps[1:] if s.used_prediction]
        assert len(reused) >= len(series) - 2

    def test_reuse_disabled_retrains_everywhere(self, series):
        res = tune_time_series(
            SZCompressor(), series, SearchSpec(10.0, tolerance=0.1, seed=0),
            reuse_prediction=False,
        )
        assert res.retrain_steps == list(range(len(series)))

    def test_reuse_cheaper_than_retraining(self, series):
        with_reuse = tune_time_series(SZCompressor(), series, SearchSpec(10.0, seed=0))
        without = tune_time_series(
            SZCompressor(), series, SearchSpec(10.0, seed=0), reuse_prediction=False,
        )
        assert with_reuse.total_evaluations < without.total_evaluations

    def test_field_name_recorded(self, series):
        res = tune_time_series(SZCompressor(), series, SearchSpec(10.0, seed=0),
                               field_name="CLOUD")
        assert res.field_name == "CLOUD"


class TestTuneFields:
    def test_two_fields(self, series):
        fields = {"A": series[:3], "B": [s * 2 for s in series[:3]]}
        res = tune_fields(SZCompressor(), fields, SearchSpec(10.0, tolerance=0.1, seed=0))
        assert set(res.fields) == {"A", "B"}
        for f in res.fields.values():
            assert f.converged_fraction == 1.0

    def test_longest_field_seconds(self, series):
        fields = {"A": series[:2]}
        res = tune_fields(SZCompressor(), fields, SearchSpec(10.0, seed=0))
        assert res.longest_field_seconds > 0
        assert res.total_wall_seconds >= res.longest_field_seconds


class TestFRaZ:
    def test_tune_and_compress(self, series):
        fraz = FRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
        payload, result = fraz.compress(series[0])
        assert result.within_tolerance
        recon = fraz.decompress(payload)
        err = np.abs(recon.astype(np.float64) - series[0].astype(np.float64)).max()
        assert err <= result.error_bound + 1e-12

    def test_accepts_compressor_instance(self, series):
        fraz = FRaZ(compressor=SZCompressor(block_size=6), target_ratio=8.0)
        res = fraz.tune(series[0])
        assert res.feasible

    def test_tune_series_api(self, series):
        fraz = FRaZ(compressor="sz", target_ratio=10.0)
        res = fraz.tune_series(series[:3], field_name="f")
        assert res.converged_fraction == 1.0

    def test_tune_dataset_api(self, series):
        fraz = FRaZ(compressor="sz", target_ratio=10.0)
        res = fraz.tune_dataset({"a": series[:2], "b": series[2:4]})
        assert set(res.fields) == {"a", "b"}

    def test_max_error_bound_respected(self, series):
        fraz = FRaZ(compressor="sz", target_ratio=60.0, tolerance=0.1,
                    max_error_bound=1e-5, max_calls_per_region=4, regions=3)
        res = fraz.tune(series[0])
        assert res.error_bound <= 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            FRaZ(target_ratio=-5)
        with pytest.raises(ValueError):
            FRaZ(tolerance=2.0)

    def test_unknown_compressor_name(self):
        with pytest.raises(KeyError):
            FRaZ(compressor="nope")
