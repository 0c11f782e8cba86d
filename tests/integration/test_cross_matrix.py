"""Cross matrix: every registered compressor x every dataset field family.

The genericity claim made concrete: any abs-mode backend must round-trip
any supported field within its bound, and FRaZ must drive any backend on
any dataset without special-casing.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.pressio import available_compressors, evaluate, make_compressor

_ABS_BACKENDS = ["sz", "sz-interp", "zfp", "mgard"]

_FIELDS = [
    ("Hurricane", "TCf"),          # smooth 3D
    ("Hurricane", "QCLOUDf.log10"),  # sparse/log 3D
    ("CESM", "CLDHGH"),            # bounded 2D
    ("HACC", "x"),                 # rough 1D
    ("Exaalt", "z"),               # sawtooth 1D
    ("NYX", "baryon_density"),     # heavy-tailed 3D
]


@pytest.fixture(scope="module")
def field_bank():
    return {
        (ds, f): load_dataset(ds, "tiny").fields[f].steps[0] for ds, f in _FIELDS
    }


class TestRoundtripMatrix:
    @pytest.mark.parametrize("backend", _ABS_BACKENDS)
    @pytest.mark.parametrize("key", _FIELDS, ids=[f"{d}-{f}" for d, f in _FIELDS])
    def test_bound_holds(self, field_bank, backend, key):
        data = field_bank[key]
        comp = make_compressor(backend)
        if not comp.supports(data):
            pytest.skip(f"{backend} does not support {data.ndim}D")
        span = float(data.max() - data.min()) or 1.0
        eb = span * 1e-3
        configured = comp.with_error_bound(eb)
        recon = configured.decompress(configured.compress(data))
        err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
        assert err <= eb

    def test_registry_is_complete(self):
        names = available_compressors()
        for expected in ("sz", "sz-interp", "sz-pwrel", "zfp", "zfp-rate",
                         "zfp-prec", "mgard"):
            assert expected in names


class TestEvaluateMatrix:
    @pytest.mark.parametrize("backend", _ABS_BACKENDS)
    def test_quality_record_sane(self, field_bank, backend):
        data = field_bank[("Hurricane", "TCf")]
        span = float(data.max() - data.min())
        rec = evaluate(make_compressor(backend, error_bound=span * 1e-3), data)
        assert rec.ratio > 1.0
        assert rec.max_error <= span * 1e-3
        assert rec.psnr > 30
        assert 0 <= rec.ssim <= 1
        assert rec.bit_rate == pytest.approx(32.0 / rec.ratio, rel=1e-9)


class TestFRaZMatrix:
    @pytest.mark.parametrize("backend", _ABS_BACKENDS)
    def test_fraz_reaches_modest_target(self, field_bank, backend):
        from repro.core.training import SearchSpec, train

        data = field_bank[("Hurricane", "TCf")]
        comp = make_compressor(backend)
        res = train(comp, data,
                    SearchSpec(5.0, tolerance=0.2, regions=4, max_calls_per_region=10, seed=0))
        # Modest target: every backend should land in or near the band.
        assert res.ratio == pytest.approx(5.0, rel=0.5)
