"""``FRaZ.compress`` returns the winning probe's payload: byte identity.

The search compresses at the bound it ends up recommending, so its output
is handed up instead of being made a second time.  Whatever the route —
executor, cache state, prediction — the bytes must equal a fresh
``compress`` at ``result.error_bound``; a probe the shared cache answered
has no bytes and falls back to that fresh compress.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import EvalCache
from repro.cache.keys import normalize_bound
from repro.core import FRaZ
from repro.core.online import OnlineFRaZ
from repro.core.training import SearchSpec, train
from repro.datasets import fourier_field
from repro.pressio import available_compressors, make_compressor
from repro.sz.compressor import SZCompressor

TARGET, TOLERANCE = 6.0, 0.25


@pytest.fixture(scope="module")
def field():
    return fourier_field((12, 12, 8), 2, np.random.default_rng(5))[1]


@pytest.fixture(scope="module")
def found(field):
    """Per compressor, the bound a cold search recommends (a prediction that hits)."""
    return {name: FRaZ(name, TARGET, tolerance=TOLERANCE, cache=False).tune(field).error_bound
            for name in available_compressors()}


def _prediction(kind: str, bound: float) -> float | None:
    if kind == "none":
        return None
    if kind == "normalised":
        assert normalize_bound(bound) == bound
        return bound
    noisy = bound * (1.0 + 3e-14)
    assert noisy != bound and normalize_bound(noisy) == bound
    return noisy


@pytest.mark.parametrize("prediction", ["none", "normalised", "un-normalised"])
@pytest.mark.parametrize("cache_state", ["none", "cold", "warm"])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("name", available_compressors())
def test_output_equals_a_fresh_compress_at_the_reported_bound(
    name, executor, cache_state, prediction, field, found
):
    cache = False if cache_state == "none" else EvalCache()
    fraz = FRaZ(name, TARGET, tolerance=TOLERANCE, executor=executor, workers=2, cache=cache)
    guess = _prediction(prediction, found[name])
    if cache_state == "warm":
        fraz.tune(field, prediction=guess)
    payload, result = fraz.compress(field, prediction=guess)
    if cache_state == "warm":
        # The winning probe is a hit; under a pool the set of regions that
        # get to run before the first success varies, so some may be new.
        assert result.cache_hits == result.evaluations if executor == "serial" \
            else result.cache_hits > 0
    fresh = make_compressor(name).with_error_bound(result.error_bound).compress(field)
    assert payload.payload == fresh.payload
    assert payload.ratio == result.ratio
    assert result.payload is None and all(w.payload is None for w in result.workers)


@pytest.fixture
def compress_calls(monkeypatch):
    calls: list[float] = []
    real = SZCompressor.compress

    def counting(self, data):
        calls.append(self.error_bound)
        return real(self, data)

    monkeypatch.setattr(SZCompressor, "compress", counting)
    return calls


class TestNoSecondCompress:
    def test_cold_search_compresses_once_per_probe(self, field, compress_calls):
        _payload, result = FRaZ("sz", TARGET, tolerance=TOLERANCE).compress(field)
        assert len(compress_calls) == result.evaluations == result.compressor_calls

    def test_prediction_hit_is_one_compression(self, field, found, compress_calls):
        fraz = FRaZ("sz", TARGET, tolerance=TOLERANCE, cache=False)
        _payload, result = fraz.compress(field, prediction=found["sz"])
        assert result.used_prediction and compress_calls == [found["sz"]]

    def test_cache_hit_has_no_bytes_and_recompresses(self, field, compress_calls):
        fraz = FRaZ("sz", TARGET, tolerance=TOLERANCE)
        first, result = fraz.compress(field)
        del compress_calls[:]
        again, replay = fraz.compress(field)
        assert replay.compressor_calls == 0 and compress_calls == [result.error_bound]
        assert again.payload == first.payload

    def test_online_retrain_outputs_the_winning_probe(self, field, compress_calls):
        online = OnlineFRaZ("sz", TARGET, tolerance=TOLERANCE)
        step = online.push(field)
        assert step.retrained and len(compress_calls) == step.evaluations
        fresh = SZCompressor().with_error_bound(step.error_bound).compress(field)
        assert step.payload.payload == fresh.payload


def test_payload_only_leaves_train_on_request(field):
    sz = SZCompressor()
    assert train(sz, field, SearchSpec(TARGET, tolerance=TOLERANCE)).payload is None
    kept = train(sz, field, SearchSpec(TARGET, tolerance=TOLERANCE), keep_payload=True)
    assert kept.payload == sz.with_error_bound(kept.error_bound).compress(field)
    assert all(w.payload is None for w in kept.workers)


def test_payload_never_enters_the_cache(field):
    cache = EvalCache()
    FRaZ("sz", TARGET, tolerance=TOLERANCE, cache=cache).compress(field)
    for entry in cache.export_entries().values():
        assert set(vars(entry)) == {"ratio", "nbytes", "seconds", "aux"}
        assert not any(isinstance(v, bytes) for v in vars(entry).values())
