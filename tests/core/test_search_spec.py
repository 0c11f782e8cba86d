"""Search settings are checked once, where a search is configured.

Every entry point that searches builds one :class:`SearchSpec`, so a bad
region count, overlap or probe budget fails at construction (or at the call,
for ``stream_compress``) — not only once a search fans out into regions, and
not at all on a prediction that lands in the band.
"""

import numpy as np
import pytest

from repro.core import FRaZ, OnlineFRaZ, SearchSpec
from repro.pressio.registry import make_compressor
from repro.stream import ChunkTuner, stream_compress

_BAD = [
    ({"regions": 0}, "need at least one region"),
    ({"overlap": 0.9}, r"overlap must be in \[0, 0.5\)"),
    ({"max_calls_per_region": 0}, "max_calls must be >= 1"),
]


def _field():
    x = np.linspace(0, 4, 16)
    return (np.sin(x)[:, None, None] * np.cos(x)[None, :, None]
            * np.ones(8)[None, None, :]).astype(np.float32)


@pytest.mark.parametrize("bad, message", _BAD)
def test_spec_rejects(bad, message):
    with pytest.raises(ValueError, match=message):
        SearchSpec(8.0, **bad)


def test_spec_rejects_empty_range():
    with pytest.raises(ValueError, match="invalid error-bound range"):
        SearchSpec(8.0, lower=1.0, upper=0.5)
    with pytest.raises(ValueError, match="invalid error-bound range"):
        SearchSpec(8.0, lower=0.5, upper=0.5)


@pytest.mark.parametrize("bad, message", _BAD)
def test_constructors_reject(bad, message):
    with pytest.raises(ValueError, match=message):
        FRaZ("sz", 8.0, **bad)
    with pytest.raises(ValueError, match=message):
        OnlineFRaZ("sz", 8.0, **bad)
    with pytest.raises(ValueError, match=message):
        ChunkTuner(make_compressor("sz"), 8.0, **bad)


def test_fraz_rejects_before_a_prediction_hits():
    data = _field()
    bound = FRaZ("sz", 8.0).tune(data).error_bound
    with pytest.raises(ValueError, match="need at least one region"):
        FRaZ("sz", 8.0, regions=0).tune(data, prediction=bound)


@pytest.mark.parametrize("bad, message", _BAD)
def test_stream_compress_rejects_before_opening(tmp_path, bad, message):
    out = tmp_path / "out.frzs"
    with pytest.raises(ValueError, match=message):
        stream_compress(_field(), out, compressor="sz", target_ratio=8.0, **bad)
    assert not out.exists()


def test_fixed_bound_stream_ignores_search_settings(tmp_path):
    res = stream_compress(_field(), tmp_path / "out.frzs", compressor="sz",
                          error_bound=1e-3, regions=0, overlap=0.9, max_calls_per_region=0)
    assert res.retrains == 0


def test_bound_below_the_range_rejected_at_call(tmp_path):
    """``U`` below the compressor's lowest bound leaves nothing to search."""
    data = _field()
    with pytest.raises(ValueError, match="invalid error-bound range"):
        FRaZ("sz", 8.0, max_error_bound=1e-15).tune(data)
    with pytest.raises(ValueError, match="invalid error-bound range"):
        OnlineFRaZ("sz", 8.0, max_error_bound=1e-15).push(data)
    with pytest.raises(ValueError, match="invalid error-bound range"):
        ChunkTuner(make_compressor("sz"), 8.0, max_error_bound=1e-15).fit((data,))
    with pytest.raises(ValueError, match="invalid error-bound range"):
        stream_compress(data, tmp_path / "out.frzs", compressor="sz", target_ratio=8.0,
                        max_error_bound=1e-15)
