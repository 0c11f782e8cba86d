"""Tests for Algorithm 1 (worker task) and Algorithm 2 (training)."""

import numpy as np
import pytest

from repro.cache.keys import normalize_bound
from repro.core.training import SearchSpec, train
from repro.core.worker import worker_task
from repro.obs.trace import Tracer
from repro.parallel.executor import SerialExecutor, ThreadExecutor
from repro.sz.compressor import SZCompressor


@pytest.fixture(scope="module")
def field():
    r = np.random.default_rng(21)
    x, y, z = np.meshgrid(
        np.linspace(0, 4, 24), np.linspace(0, 4, 24), np.linspace(0, 4, 12),
        indexing="ij",
    )
    return (np.sin(x) * np.cos(y + z) + 0.01 * r.standard_normal(x.shape)).astype(
        np.float32
    )


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestWorkerTask:
    def test_finds_feasible_target(self, sz, field):
        lo, hi = sz.default_bound_range(field)
        res = worker_task(sz, field, target_ratio=10.0, tolerance=0.1, region=(lo, hi))
        assert res.feasible
        assert 9.0 <= res.ratio <= 11.0

    def test_returned_bound_reproduces_ratio(self, sz, field):
        lo, hi = sz.default_bound_range(field)
        res = worker_task(sz, field, 10.0, 0.1, (lo, hi))
        again = sz.with_error_bound(res.error_bound).compress(field).ratio
        assert again == pytest.approx(res.ratio)

    def test_infeasible_returns_closest(self, sz, field):
        lo, hi = sz.default_bound_range(field)
        # Every bound yields CR >= ~1.06, so 0.5 sits below the floor.
        res = worker_task(sz, field, 0.5, 0.05, (lo, hi), max_calls=8)
        assert not res.feasible
        assert res.ratio > 0

    @pytest.mark.parametrize("target,max_calls,reason", [
        (10.0, 16, "cutoff"), (5000.0, 16, "excluded"), (1.2, 2, "budget"),
    ])
    def test_stop_reason_on_result_and_last_iteration_span(
        self, sz, field, target, max_calls, reason
    ):
        tracer = Tracer()
        root = tracer.start_trace("tune")
        with tracer.activate(root):
            res = worker_task(sz, field, target, 0.05, sz.default_bound_range(field),
                              max_calls=max_calls)
        assert res.stop_reason == reason
        iters = [s for s in tracer.store.get(root.trace_id) if s["name"] == "search_iteration"]
        assert len(iters) == res.evaluations
        assert ["stop_reason" in s["attrs"] for s in iters] == \
            [False] * (len(iters) - 1) + [True]
        assert iters[-1]["attrs"]["stop_reason"] == reason

    def test_validation(self, sz, field):
        with pytest.raises(ValueError):
            worker_task(sz, field, -1.0, 0.1, (0.0, 1.0))
        with pytest.raises(ValueError):
            worker_task(sz, field, 10.0, 1.5, (0.0, 1.0))


class TestTraining:
    def test_feasible_search(self, sz, field):
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        assert res.feasible and res.within_tolerance

    def test_result_reproducible(self, sz, field):
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        ratio = sz.with_error_bound(res.error_bound).compress(field).ratio
        assert ratio == pytest.approx(res.ratio)

    def test_infeasible_reports_closest(self, sz, field):
        # Every error bound yields CR >= ~1.06, so 0.5 is unreachable.
        res = train(sz, field,
                    SearchSpec(0.5, tolerance=0.05, regions=3, max_calls_per_region=6, seed=0))
        assert not res.feasible
        # The reported point is the closest the search observed.
        assert res.ratio == min(
            (w.ratio for w in res.workers),
            key=lambda r: (r - 0.5) ** 2,
        )

    def test_early_cancellation_limits_work(self, sz, field):
        res = train(sz, field,
                    SearchSpec(10.0, tolerance=0.1, regions=8, max_calls_per_region=16, seed=0))
        # Serial executor stops at the first feasible region: far fewer
        # evaluations than the full 8 * 16 worst case.
        assert res.evaluations < 8 * 16 / 2

    def test_prediction_fast_path(self, sz, field):
        first = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                    prediction=first.error_bound)
        assert res.used_prediction
        assert res.evaluations == 1

    def test_prediction_short_circuit(self, sz, field):
        first = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                    prediction=first.error_bound)
        assert res.used_prediction and res.feasible
        # One probe, reported as the only worker: no region ever started.
        (probe,) = res.workers
        assert probe.evaluations == 1
        assert probe.stop_reason == "cutoff"

    def test_prediction_reports_the_bound_it_probed(self, sz, field):
        # The closure normalises bounds to 12 digits: a prediction that is
        # not 12-digit clean is probed at its normalised value, and that is
        # the bound the reported ratio belongs to.
        first = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0))
        noisy = first.error_bound * (1.0 + 3e-14)
        assert normalize_bound(noisy) != noisy
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                    prediction=noisy)
        assert res.used_prediction
        assert res.error_bound == normalize_bound(noisy)
        assert sz.with_error_bound(res.error_bound).compress(field).ratio == res.ratio

    def test_bad_prediction_falls_through(self, sz, field):
        _, hi = sz.default_bound_range(field)
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0), prediction=hi)
        assert not res.used_prediction
        # The miss cost one probe; the regions then searched and found the band.
        assert res.workers[0].evaluations == 1
        assert res.workers[0].stop_reason == "budget"
        assert res.feasible

    def test_failed_probe_is_accounted(self, sz, field):
        # A prediction probe that does NOT short-circuit must still show
        # up in the totals: its evaluations, compress seconds and cache
        # traffic were paid, and it joins the workers tuple.
        lo, hi = sz.default_bound_range(field)
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                    prediction=hi)  # hi is a terrible prediction
        assert not res.used_prediction
        probe = res.workers[0]
        assert probe.region == (lo, hi)  # the probe owns the full range
        assert probe.evaluations >= 1
        assert res.evaluations == sum(w.evaluations for w in res.workers)
        assert res.compress_seconds == pytest.approx(
            sum(w.compress_seconds for w in res.workers))

    def test_failed_probe_cache_traffic_counted(self, sz, field):
        from repro.cache.evalcache import EvalCache

        cache = EvalCache()
        train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0), cache=cache)
        _, hi = sz.default_bound_range(field)
        res = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0), cache=cache,
                    prediction=hi)
        # The probe's hit/miss totals are inside the result's, so
        # compressor_calls == evaluations - cache_hits stays honest.
        assert res.cache_hits == sum(w.cache_hits for w in res.workers)
        assert res.cache_misses == sum(w.cache_misses for w in res.workers)
        assert res.workers[0].evaluations >= 1
        assert res.compressor_calls == res.evaluations - res.cache_hits

    def test_respects_upper_bound_cap(self, sz, field):
        # A tiny U makes high ratios unreachable.
        res = train(sz, field,
                    SearchSpec(50.0, tolerance=0.1, upper=1e-6, regions=3, max_calls_per_region=5,
                               seed=0))
        for w in res.workers:
            assert w.region[1] <= 1e-6

    def test_thread_executor_equivalent_feasibility(self, sz, field):
        serial = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                       executor=SerialExecutor())
        threaded = train(sz, field, SearchSpec(10.0, tolerance=0.1, regions=4, seed=0),
                         executor=ThreadExecutor(workers=4))
        assert serial.feasible and threaded.feasible
        assert threaded.within_tolerance

    def test_invalid_range(self, sz, field):
        with pytest.raises(ValueError):
            train(sz, field, SearchSpec(10.0, lower=1.0, upper=0.5))
