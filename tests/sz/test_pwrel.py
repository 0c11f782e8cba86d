"""Tests for the point-wise relative bound mode."""

import numpy as np
import pytest

from repro.pressio import make_compressor
from repro.sz.pwrel import SZPointwiseRelative


def _check_pwrel(data: np.ndarray, rel: float, zero_threshold: float) -> np.ndarray:
    comp = SZPointwiseRelative(error_bound=rel, zero_threshold=zero_threshold)
    recon = comp.decompress(comp.compress(data))
    d = data.astype(np.float64).ravel()
    r = recon.astype(np.float64).ravel()
    big = np.abs(d) > zero_threshold
    if big.any():
        rel_err = np.abs(r[big] - d[big]) / np.abs(d[big])
        assert rel_err.max() <= rel, f"pw-rel bound violated: {rel_err.max()}"
    assert (r[~big] == 0.0).all()
    return recon


class TestPointwiseRelBound:
    @pytest.mark.parametrize("rel", [1e-4, 1e-3, 1e-2, 0.1])
    def test_bound_on_wide_magnitude_data(self, rel):
        r = np.random.default_rng(0)
        # Magnitudes spanning 12 decades with both signs.
        data = (
            r.choice([-1.0, 1.0], 5000)
            * 10.0 ** r.uniform(-6, 6, 5000)
        ).astype(np.float32)
        _check_pwrel(data, rel, 1e-35)

    def test_bound_on_smooth_field(self, smooth3d):
        _check_pwrel(smooth3d, 1e-3, 1e-35)

    def test_zeros_reconstruct_exactly(self, sparse3d):
        recon = _check_pwrel(sparse3d, 1e-2, 1e-35)
        assert ((sparse3d == 0) == (recon == 0)).all()

    def test_signs_preserved(self):
        r = np.random.default_rng(1)
        data = (r.standard_normal(2000) * 100).astype(np.float32)
        comp = SZPointwiseRelative(error_bound=1e-2)
        recon = comp.decompress(comp.compress(data))
        nz = data != 0
        assert (np.sign(recon[nz]) == np.sign(data[nz])).all()

    def test_beats_abs_mode_on_multi_scale_data(self):
        """The mode's raison d'etre: on magnitude-spanning data, pw-rel at
        1% error compresses while an abs bound protecting the smallest
        values cannot."""
        r = np.random.default_rng(2)
        # Smoothly varying exponent spanning 10 decades (halo-to-void-like).
        exponent = np.cumsum(r.normal(0, 0.05, 20000))
        exponent = 10.0 * (exponent - exponent.min()) / (np.ptp(exponent) + 1e-9) - 5.0
        data = (10.0**exponent).astype(np.float32)
        pwrel = SZPointwiseRelative(error_bound=0.01)
        f_rel = pwrel.compress(data)
        # Abs bound that gives the smallest magnitudes the same protection.
        abs_bound = 0.01 * float(np.abs(data[data != 0]).min())
        f_abs = make_compressor("sz", error_bound=abs_bound).compress(data)
        assert f_rel.ratio > f_abs.ratio * 2

    def test_2d_shape_preserved(self, smooth2d):
        comp = SZPointwiseRelative(error_bound=1e-3)
        recon = comp.decompress(comp.compress(smooth2d))
        assert recon.shape == smooth2d.shape
        assert recon.dtype == smooth2d.dtype

    def test_registry_and_describe(self):
        comp = make_compressor("sz-pwrel", error_bound=0.05)
        assert isinstance(comp, SZPointwiseRelative)
        assert comp.describe() == "sz-pwrel:pwrel"

    def test_rejects_nan(self):
        data = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(ValueError):
            SZPointwiseRelative().compress(data)

    def test_rejects_nonpositive_bound(self, smooth2d):
        with pytest.raises(ValueError):
            SZPointwiseRelative(error_bound=0).compress(smooth2d)

    def test_fraz_drives_pwrel(self):
        from repro.core.training import SearchSpec, train

        r = np.random.default_rng(3)
        data = (10.0 ** r.uniform(-3, 3, 8000)).astype(np.float32)
        res = train(SZPointwiseRelative(), data,
                    SearchSpec(4.0, tolerance=0.2, regions=4, max_calls_per_region=10, seed=0))
        assert res.ratio > 1.0
        assert res.error_bound <= 0.5  # rel bounds live in (0, 0.5]

    def test_default_bound_range(self, smooth2d):
        lo, hi = SZPointwiseRelative().default_bound_range(smooth2d)
        assert lo == 1e-9 and hi == 0.5
