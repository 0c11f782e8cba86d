"""Sec. V-C's time-step reuse through every entry point that carries a bound.

``FRaZ.tune(prediction=b)``, ``OnlineFRaZ.push`` and ``ChunkTuner.fit`` all
check a stale bound ``b`` the same way, inside ``train``: one compression
when ``b`` lies inside ``[lower, U]``, none otherwise, and a search with
cold regions on a miss.  Eq. 2 holds whatever ``b`` is: the returned bound
never exceeds the user's ``U``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import EvalCache
from repro.core import FRaZ
from repro.core.online import OnlineFRaZ
from repro.pressio.registry import make_compressor
from repro.stream import ChunkTuner
from repro.sz.compressor import SZCompressor

TARGET = 10.0


def _frame(noise: float, seed: int = 51) -> np.ndarray:
    x, y, z = np.meshgrid(np.linspace(0, 4, 24), np.linspace(0, 4, 24),
                          np.linspace(0, 4, 12), indexing="ij")
    r = np.random.default_rng(seed)
    return (np.sin(x) * np.cos(y + z) + noise * r.standard_normal(x.shape)).astype(np.float32)


@pytest.fixture(scope="module")
def smooth():
    return _frame(0.01)


@pytest.fixture(scope="module")
def rough():
    return _frame(0.3)


@pytest.fixture(scope="module")
def free_bound(smooth):
    """The bound an unconstrained search returns: a prediction that hits."""
    result = FRaZ("sz", TARGET, cache=False).tune(smooth)
    assert result.feasible
    return result.error_bound


@pytest.fixture
def compress_calls(monkeypatch):
    calls: list[float] = []
    real = SZCompressor.compress

    def counting(self, data):
        calls.append(self.error_bound)
        return real(self, data)

    monkeypatch.setattr(SZCompressor, "compress", counting)
    return calls


def _via_fraz(data, bound, cap):
    result = FRaZ("sz", TARGET, max_error_bound=cap, cache=False).tune(
        data, prediction=bound)
    assert not result.used_prediction
    return result.error_bound


def _via_online(data, bound, cap):
    step = OnlineFRaZ("sz", TARGET, max_error_bound=cap, current_bound=bound).push(data)
    assert step.retrained
    return step.error_bound


def _via_chunk_tuner(data, bound, cap):
    return ChunkTuner(make_compressor("sz"), TARGET, max_error_bound=cap,
                      current_bound=bound).fit([data])


@pytest.mark.parametrize("entry", [_via_fraz, _via_online, _via_chunk_tuner],
                         ids=["FRaZ.tune", "OnlineFRaZ.push", "ChunkTuner.fit"])
def test_stale_bound_above_cap_is_never_probed_or_returned(
    entry, smooth, free_bound, compress_calls
):
    # In band, but ten times the user's U: Eq. 2 rules it out.
    cap = free_bound / 10
    assert entry(smooth, free_bound, cap) <= cap
    assert compress_calls and free_bound not in compress_calls


def test_online_miss_compresses_the_stale_bound_once(smooth, rough, compress_calls):
    tuner = OnlineFRaZ("sz", TARGET)
    tuner.push(smooth)
    stale = tuner.current_bound
    del compress_calls[:]
    step = tuner.push(rough)
    assert step.retrained
    assert compress_calls.count(stale) == 1
    assert step.evaluations == len(compress_calls)


def test_chunk_tuner_miss_counts_one_evaluation(smooth, rough, compress_calls):
    tuner = ChunkTuner(make_compressor("sz"), TARGET, cache=EvalCache())
    tuner.fit([smooth])
    stale, evaluations, hits = tuner.current_bound, tuner.evaluations, tuner.cache_hits
    del compress_calls[:]
    tuner.fit([rough])
    assert tuner.retrain_count == 2
    # Nothing in this fit was probed before: every evaluation compressed,
    # and the stale bound was evaluated once.
    assert compress_calls.count(stale) == 1
    assert tuner.cache_hits == hits
    assert tuner.evaluations - evaluations == len(compress_calls)
