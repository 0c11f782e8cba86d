"""Tests for the libpressio-analog layer."""

import numpy as np
import pytest

from repro.pressio import (
    CompressedField,
    RatioFunction,
    available_compressors,
    evaluate,
    frame,
    make_compressor,
)
from repro.sz.compressor import SZCompressor


class TestArrayHeader:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_roundtrip(self, dtype, shape):
        data = np.zeros(shape, dtype)
        header = frame.read_header(frame.write_header(data, 0.5), (1, 2, 3), codec=False)
        assert header.dtype == np.dtype(dtype)
        assert header.shape == shape
        assert header.size == data.size

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            frame.write_header(np.zeros(3, np.int32), 0.5)


class TestCompressedField:
    def test_ratio(self):
        f = CompressedField(payload=b"1234", original_nbytes=40)
        assert f.ratio == 10.0
        assert f.nbytes == 4

    def test_empty_payload_infinite_ratio(self):
        f = CompressedField(payload=b"", original_nbytes=10)
        assert f.ratio == float("inf")


class TestRegistry:
    def test_builtins_available(self):
        names = available_compressors()
        assert {"sz", "zfp", "zfp-rate", "mgard"} <= set(names)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_compressor("definitely-not-real")

    def test_options_forwarded(self):
        c = make_compressor("sz", error_bound=0.25, block_size=4)
        assert c.error_bound == 0.25 and c.block_size == 4


class TestRatioFunction:
    def test_memoisation(self, smooth2d):
        rf = RatioFunction(SZCompressor(), smooth2d)
        a = rf(1e-3)
        b = rf(1e-3)
        assert a == b
        assert rf.evaluations == 1  # second call served from cache

    def test_history_records_each_distinct_bound(self, smooth2d):
        rf = RatioFunction(SZCompressor(), smooth2d)
        for e in (1e-4, 1e-3, 1e-2):
            rf(e)
        assert rf.evaluations == 3
        assert [obs.error_bound for obs in rf.history] == [1e-4, 1e-3, 1e-2]

    def test_best_observation(self, smooth2d):
        rf = RatioFunction(SZCompressor(), smooth2d)
        ratios = {e: rf(e) for e in (1e-4, 1e-2, 1e-1)}
        target = 10.0
        best = rf.best_observation(target)
        expected = min(ratios.items(), key=lambda kv: (kv[1] - target) ** 2)
        assert best.error_bound == expected[0]

    def test_best_observation_empty(self, smooth2d):
        rf = RatioFunction(SZCompressor(), smooth2d)
        assert rf.best_observation(10.0) is None

    def test_compress_seconds_accumulates(self, smooth2d):
        rf = RatioFunction(SZCompressor(), smooth2d)
        rf(1e-3)
        assert rf.compress_seconds > 0


class TestEvaluate:
    def test_record_fields(self, smooth2d):
        rec = evaluate(SZCompressor(error_bound=1e-3), smooth2d)
        assert rec.compressor == "sz:abs"
        assert rec.max_error <= 1e-3
        assert rec.ratio > 1
        assert rec.bit_rate == pytest.approx(32.0 / rec.ratio, rel=1e-6)
        assert 0 < rec.ssim <= 1
        assert rec.psnr > 20
        assert rec.compress_seconds > 0

    def test_row_renders(self, smooth2d):
        rec = evaluate(SZCompressor(error_bound=1e-2), smooth2d)
        row = rec.row()
        assert "sz:abs" in row and "PSNR" in row

    def test_skip_ssim(self, smooth2d):
        rec = evaluate(SZCompressor(error_bound=1e-2), smooth2d, compute_ssim=False)
        assert np.isnan(rec.ssim)


class TestCompressorDefaults:
    def test_default_bound_range_spans_value_range(self, smooth2d):
        lo, hi = SZCompressor().default_bound_range(smooth2d)
        span = float(smooth2d.max() - smooth2d.min())
        assert hi == pytest.approx(span)
        assert lo == pytest.approx(span * 1e-9)

    def test_constant_data_fallback(self):
        lo, hi = SZCompressor().default_bound_range(np.zeros((4, 4), np.float32))
        assert hi == 1.0

    def test_supports(self, smooth2d):
        assert SZCompressor().supports(smooth2d)
        assert not make_compressor("mgard").supports(np.zeros(5, np.float32))
