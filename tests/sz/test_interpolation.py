"""Tests for the SZ3-style interpolation compressor."""

import numpy as np
import pytest

from repro.pressio import make_compressor
from repro.sz.interpolation import (
    SZInterpolationCompressor,
    _num_levels,
    _pass_slicers,
    _passes,
)


def _maxerr(a, b):
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


class TestLevels:
    def test_small_grid_no_levels(self):
        # ceil(dim / 2) must keep >= 4 anchor points per axis.
        assert _num_levels((6,)) == 0
        assert _num_levels((5, 5)) == 0
        assert _num_levels((7, 7)) == 1  # ceil(7/2) = 4 anchors

    def test_larger_grids(self):
        assert _num_levels((64,)) >= 3
        assert _num_levels((64, 64, 64)) >= 3

    def test_cap(self):
        assert _num_levels((10**6,), max_levels=4) == 4


class TestPassSlicers:
    def test_1d_counts(self):
        # stride 4 on 11 points: targets at 2, 6, 10.
        slicers = _pass_slicers((11,), 4, 0)
        target, left, right = slicers
        idx = np.arange(11)
        assert idx[target].tolist() == [2, 6, 10]
        assert idx[left].tolist() == [0, 4, 8]
        assert idx[right].tolist() == [4, 8]  # last target has no right

    def test_degenerate_axis_none(self):
        assert _pass_slicers((1,), 2, 0) is None

    def test_pass_coverage_full_grid(self):
        """Anchors plus all passes visit every point exactly once."""
        shape = (13, 10)
        levels = _num_levels(shape)
        stride0 = 2**levels
        seen = np.zeros(shape, dtype=int)
        seen[(slice(0, None, stride0),) * 2] += 1
        for stride, axis in _passes(len(shape), levels):
            slicers = _pass_slicers(shape, stride, axis)
            if slicers is not None:
                seen[slicers[0]] += 1
        assert (seen == 1).all()


class TestRoundtrip:
    @pytest.mark.parametrize("eb", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_bound_3d(self, smooth3d, eb):
        c = SZInterpolationCompressor(error_bound=eb)
        assert _maxerr(smooth3d, c.decompress(c.compress(smooth3d))) <= eb

    def test_bound_2d_1d(self, smooth2d, smooth1d):
        c = SZInterpolationCompressor(error_bound=1e-3)
        for data in (smooth2d, smooth1d):
            assert _maxerr(data, c.decompress(c.compress(data))) <= 1e-3

    def test_bound_sparse_and_rough(self, sparse3d, rough1d):
        c = SZInterpolationCompressor(error_bound=1e-2)
        for data in (sparse3d, rough1d):
            assert _maxerr(data, c.decompress(c.compress(data))) <= 1e-2

    def test_odd_shapes(self):
        r = np.random.default_rng(0)
        for shape in [(17, 23, 9), (31,), (5, 5), (4, 4, 4)]:
            data = r.standard_normal(shape).astype(np.float32)
            c = SZInterpolationCompressor(error_bound=1e-2)
            recon = c.decompress(c.compress(data))
            assert recon.shape == shape
            assert _maxerr(data, recon) <= 1e-2

    def test_float64(self, smooth2d):
        data = smooth2d.astype(np.float64)
        c = SZInterpolationCompressor(error_bound=1e-9)
        recon = c.decompress(c.compress(data))
        assert recon.dtype == np.float64
        assert _maxerr(data, recon) <= 1e-9

    def test_empty(self):
        c = SZInterpolationCompressor()
        assert c.decompress(c.compress(np.zeros((0,), np.float32))).shape == (0,)

    def test_nan_roundtrips_as_literal(self):
        data = np.ones((16, 16), np.float32)
        data[5, 5] = np.nan
        c = SZInterpolationCompressor(error_bound=1e-3)
        recon = c.decompress(c.compress(data))
        assert np.isnan(recon[5, 5])


class TestBehaviour:
    def test_beats_blockwise_sz_on_smooth_data(self):
        """SZ3's headline: interpolation prediction outperforms the SZ2
        hybrid on smooth fields at loose bounds (on rough/noisy fields the
        block hybrid can still win — as in the real systems)."""
        x, y, z = np.meshgrid(
            np.linspace(0, 4, 40), np.linspace(0, 4, 40), np.linspace(0, 4, 20),
            indexing="ij",
        )
        data = (np.sin(x) * np.cos(y) * np.exp(-0.1 * z)).astype(np.float32)
        interp = SZInterpolationCompressor(error_bound=1e-2).compress(data)
        block = make_compressor("sz", error_bound=1e-2).compress(data)
        assert interp.ratio > block.ratio

    def test_ratio_grows_with_bound(self, smooth3d):
        r1 = SZInterpolationCompressor(error_bound=1e-4).compress(smooth3d).ratio
        r2 = SZInterpolationCompressor(error_bound=1e-1).compress(smooth3d).ratio
        assert r2 > r1

    def test_registry_and_describe(self):
        c = make_compressor("sz-interp", error_bound=0.5)
        assert isinstance(c, SZInterpolationCompressor)
        assert c.describe() == "sz-interp:abs"

    def test_fraz_drives_interp(self, smooth3d):
        from repro.core.training import SearchSpec, train

        res = train(SZInterpolationCompressor(), smooth3d,
                    SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        assert res.feasible

    def test_validation(self, smooth2d):
        with pytest.raises(ValueError):
            SZInterpolationCompressor(error_bound=0).compress(smooth2d)
        with pytest.raises(TypeError):
            SZInterpolationCompressor().compress(np.arange(10))
