"""Tests for the additional compressor modes (SZ REL, ZFP precision,
MGARD L2/MSE) — the modes the paper names in Secs. II/III but does not
evaluate."""

import numpy as np
import pytest

from repro.metrics import mse
from repro.mgard.compressor import MGARDCompressor
from repro.pressio import make_compressor
from repro.sz.compressor import SZCompressor
from repro.zfp.compressor import ZFPPrecisionCompressor


def _maxerr(a, b):
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


class TestSZRelativeMode:
    def test_bound_scales_with_value_range(self, smooth2d):
        rel = 1e-3
        c = SZCompressor(error_bound=rel, bound_mode="rel")
        recon = c.decompress(c.compress(smooth2d))
        span = float(smooth2d.max() - smooth2d.min())
        assert _maxerr(smooth2d, recon) <= rel * span

    def test_scaled_data_same_relative_fidelity(self, smooth2d):
        """REL's point: scaling the data scales the applied bound."""
        c = SZCompressor(error_bound=1e-3, bound_mode="rel")
        small = smooth2d
        big = (smooth2d * np.float32(1000.0)).astype(np.float32)
        err_small = _maxerr(small, c.decompress(c.compress(small)))
        err_big = _maxerr(big, c.decompress(c.compress(big)))
        assert err_big > err_small * 100  # bound grew with the range
        assert err_big <= 1e-3 * float(big.max() - big.min())

    def test_describe_and_mode(self):
        c = SZCompressor(bound_mode="rel")
        assert c.mode == "rel"
        assert c.describe() == "sz:rel"

    def test_default_range_is_unit_interval(self, smooth2d):
        lo, hi = SZCompressor(bound_mode="rel").default_bound_range(smooth2d)
        assert hi == 1.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SZCompressor(bound_mode="percent")

    def test_constant_data_degrades_gracefully(self):
        data = np.full((12, 12), 3.0, np.float32)
        c = SZCompressor(error_bound=1e-3, bound_mode="rel")
        recon = c.decompress(c.compress(data))
        assert _maxerr(data, recon) <= 1e-3  # range treated as 1

    def test_registry_option(self):
        c = make_compressor("sz", bound_mode="rel", error_bound=0.01)
        assert isinstance(c, SZCompressor) and c.mode == "rel"


class TestZFPPrecisionMode:
    def test_more_planes_more_bytes_less_error(self, smooth3d):
        sizes, errs = [], []
        for planes in (4, 10, 20):
            c = ZFPPrecisionCompressor(error_bound=planes)
            f = c.compress(smooth3d)
            sizes.append(f.nbytes)
            errs.append(_maxerr(smooth3d, c.decompress(f)))
        assert sizes[0] < sizes[1] < sizes[2]
        assert errs[0] > errs[1] > errs[2]

    def test_precision_bounds_relative_error(self, smooth3d):
        # p kept planes => truncation at ~2**-p of the block magnitude.
        c = ZFPPrecisionCompressor(error_bound=20)
        recon = c.decompress(c.compress(smooth3d))
        span = float(np.abs(smooth3d).max())
        assert _maxerr(smooth3d, recon) <= span * 2.0**-10  # generous margin

    def test_describe_and_registry(self):
        c = make_compressor("zfp-prec", error_bound=16)
        assert c.describe() == "zfp-prec:prec"

    def test_default_bound_range(self, smooth3d):
        lo, hi = ZFPPrecisionCompressor().default_bound_range(smooth3d)
        assert lo == 1.0 and hi > 40

    def test_roundtrip_shapes(self, smooth1d, smooth2d):
        for data in (smooth1d, smooth2d):
            c = ZFPPrecisionCompressor(error_bound=16)
            recon = c.decompress(c.compress(data))
            assert recon.shape == data.shape


class TestMGARDL2Mode:
    @pytest.mark.parametrize("target_mse", [1e-6, 1e-4, 1e-2])
    def test_mse_bound_holds(self, smooth2d, target_mse):
        c = MGARDCompressor(error_bound=target_mse, norm="l2")
        recon = c.decompress(c.compress(smooth2d))
        assert mse(smooth2d, recon) <= target_mse

    def test_mse_mode_compresses_better_than_matching_inf(self, smooth2d):
        """Controlling the mean rather than the max lets the same MSE ship
        fewer bytes (no pointwise patching)."""
        target_mse = 1e-4
        l2 = MGARDCompressor(error_bound=target_mse, norm="l2")
        f_l2 = l2.compress(smooth2d)
        achieved = mse(smooth2d, l2.decompress(f_l2))
        # An inf bound achieving the same MSE must be <= sqrt(target), i.e.
        # much tighter pointwise; compare payloads at equal achieved MSE.
        inf = MGARDCompressor(error_bound=float(np.sqrt(achieved)), norm="inf")
        f_inf = inf.compress(smooth2d)
        assert f_l2.nbytes <= f_inf.nbytes * 1.5  # same ballpark or better

    def test_describe_and_mode(self):
        c = MGARDCompressor(norm="l2")
        assert c.mode == "mse"
        assert c.describe() == "mgard:mse"

    def test_3d(self, smooth3d):
        c = MGARDCompressor(error_bound=1e-4, norm="l2")
        recon = c.decompress(c.compress(smooth3d))
        assert mse(smooth3d, recon) <= 1e-4

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            MGARDCompressor(norm="l3")

    def test_registry_option(self):
        c = make_compressor("mgard", norm="l2", error_bound=1e-5)
        assert c.mode == "mse"


class TestFRaZWithNewModes:
    def test_fraz_drives_rel_mode(self, smooth2d):
        from repro.core.training import SearchSpec, train

        c = SZCompressor(bound_mode="rel")
        res = train(c, smooth2d, SearchSpec(8.0, tolerance=0.15, regions=4, seed=0))
        assert res.feasible
        assert res.error_bound <= 1.0  # rel bounds live in (0, 1]

    def test_fraz_drives_precision_mode(self, smooth3d):
        from repro.core.training import SearchSpec, train

        c = ZFPPrecisionCompressor()
        res = train(c, smooth3d,
                    SearchSpec(4.0, tolerance=0.25, regions=3, max_calls_per_region=10, seed=0))
        assert res.ratio > 1.0
