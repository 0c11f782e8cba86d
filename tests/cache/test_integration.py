"""Cache integration across the search stack (closures -> training -> CLI)."""

import json

import numpy as np
import pytest

from repro import FRaZ
from repro.analysis.sweeps import ratio_curve
from repro.cache import EvalCache
from repro.core.baselines import binary_search_ratio, grid_search_ratio
from repro.core.fields import tune_fields, tune_time_series
from repro.core.quality import tune_quality
from repro.core.training import SearchSpec, train
from repro.core.worker import worker_task
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.pressio.closures import RatioFunction
from repro.sz.compressor import SZCompressor


@pytest.fixture(scope="module")
def field():
    r = np.random.default_rng(17)
    x, y = np.meshgrid(np.linspace(0, 4, 32), np.linspace(0, 4, 32), indexing="ij")
    return (np.sin(x) * np.cos(y) + 0.02 * r.standard_normal(x.shape)).astype(np.float32)


@pytest.fixture(scope="module")
def series(field):
    return [field, field + np.float32(0.01), field, field + np.float32(0.02)]


class TestRatioFunction:
    def test_counts_hits_and_misses(self, field):
        cache = EvalCache()
        fn = RatioFunction(SZCompressor(), field, cache=cache)
        fn(1e-3)
        fn(2e-3)
        assert (fn.cache_hits, fn.cache_misses) == (0, 2)
        other = RatioFunction(SZCompressor(), field, cache=cache)
        other(1e-3)
        assert (other.cache_hits, other.cache_misses) == (1, 0)
        assert other.compress_seconds == 0.0  # hits cost no compress time

    def test_history_includes_hits(self, field):
        """best_observation must see cached probes too (Algorithm 2 fallback)."""
        cache = EvalCache()
        RatioFunction(SZCompressor(), field, cache=cache)(1e-3)
        fn = RatioFunction(SZCompressor(), field, cache=cache)
        fn(1e-3)
        assert fn.evaluations == 1
        assert fn.best_observation(target_ratio=1.0) is not None

    def test_without_cache_counts_misses(self, field):
        fn = RatioFunction(SZCompressor(), field)
        fn(1e-3)
        fn(1e-3)  # local memo
        assert (fn.cache_hits, fn.cache_misses) == (0, 1)


class TestTrainingIntegration:
    def test_results_unchanged_by_cache(self, field):
        plain = train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0))
        cached = train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0),
                       cache=EvalCache())
        assert cached.error_bound == plain.error_bound
        assert cached.ratio == plain.ratio
        assert cached.evaluations == plain.evaluations

    def test_rerun_fully_cached(self, field):
        cache = EvalCache()
        train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0), cache=cache)
        again = train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0), cache=cache)
        assert again.cache_hits == again.evaluations
        assert again.compressor_calls == 0

    def test_worker_result_accounting(self, field):
        cache = EvalCache()
        res = worker_task(SZCompressor(), field, 8.0, 0.1, (1e-6, 1.0), max_calls=6,
                          cache=cache)
        assert res.cache_hits + res.cache_misses == res.evaluations

    @pytest.mark.parametrize("executor_cls", [ThreadExecutor, ProcessExecutor])
    def test_pool_executors_merge_into_parent_cache(self, field, executor_cls):
        cache = EvalCache()
        res = train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0),
                    executor=executor_cls(2), cache=cache)
        # Every probe any worker paid for is now in the parent cache...
        assert len(cache) > 0
        # ...so an identical serial rerun is free.
        again = train(SZCompressor(), field, SearchSpec(8.0, regions=4, seed=0), cache=cache)
        assert again.compressor_calls == 0
        assert again.error_bound == res.error_bound

    def test_process_pool_merge_deterministic(self, field):
        """Same workload, process pool vs serial: identical merged entries.

        The target is infeasible so no worker triggers early cancellation
        (cancellation timing is executor-dependent by design); with all
        regions running to completion, the merged cache must be identical
        whatever the completion order.
        """
        target = 1e6
        serial_cache = EvalCache()
        train(SZCompressor(), field, SearchSpec(target, regions=4, max_calls_per_region=5, seed=0),
              cache=serial_cache)
        pool_cache = EvalCache()
        train(SZCompressor(), field, SearchSpec(target, regions=4, max_calls_per_region=5, seed=0),
              executor=ProcessExecutor(2), cache=pool_cache)
        serial_keys = sorted(serial_cache.new_entries())
        pool_keys = sorted(pool_cache.new_entries())
        assert serial_keys == pool_keys
        for k in serial_keys:
            assert serial_cache.peek(k).ratio == pool_cache.peek(k).ratio


class TestTimeSeriesAndFields:
    def test_repeated_steps_are_free(self, series):
        """Steps 0 and 2 are identical data: the cache collapses them."""
        cache = EvalCache()
        res = tune_time_series(SZCompressor(), series, SearchSpec(8.0, regions=4, seed=0),
                               cache=cache, reuse_prediction=False)
        assert res.steps[2].compressor_calls < res.steps[0].compressor_calls

    def test_tune_fields_shares_cache_across_fields(self, field, series):
        fields = {"a": series, "b": series}  # same data registered twice
        cache = EvalCache()
        res = tune_fields(SZCompressor(), fields, SearchSpec(8.0, regions=4, seed=0), cache=cache)
        # Field b repeats field a's probes (same data, same seeds offset
        # changes the optimizer path, but seed probes coincide).
        assert res.total_cache_hits > 0

    def test_tune_fields_process_pool_merges(self, series):
        fields = {"a": series[:2], "b": series[:2]}
        cache = EvalCache()
        tune_fields(SZCompressor(), fields, SearchSpec(8.0, regions=4, seed=0),
                    executor=ProcessExecutor(2), cache=cache)
        assert len(cache) > 0
        rerun = tune_fields(SZCompressor(), fields, SearchSpec(8.0, regions=4, seed=0),
                            cache=cache)
        assert rerun.total_compressor_calls == 0


class TestBaselinesAndSweeps:
    def test_baselines_share_the_cache(self, field):
        cache = EvalCache()
        grid_search_ratio(SZCompressor(), field, 8.0, points=12, cache=cache)
        before = cache.stats.misses
        res = grid_search_ratio(SZCompressor(), field, 8.0, points=12, cache=cache)
        assert cache.stats.misses == before  # rerun entirely from cache
        assert res.cache_hits == res.evaluations

    def test_binary_search_accounting(self, field):
        cache = EvalCache()
        res = binary_search_ratio(SZCompressor(), field, 8.0, max_calls=8, cache=cache)
        assert res.cache_hits + res.cache_misses == res.evaluations

    def test_ratio_curve_cached_and_batched(self, field):
        sz = SZCompressor()
        bounds = np.geomspace(1e-5, 1e-1, 8)
        plain_bounds, plain_ratios = ratio_curve(sz, field, bounds)
        cache = EvalCache()
        for executor in (None, ThreadExecutor(2)):
            got_bounds, got_ratios = ratio_curve(sz, field, bounds, cache=cache,
                                                 executor=executor)
            np.testing.assert_array_equal(got_bounds, plain_bounds)
            np.testing.assert_array_equal(got_ratios, plain_ratios)
        assert cache.stats.misses == len(bounds)  # second pass was all hits


class TestQualityCache:
    def test_normalized_keys_regression(self, field):
        """Raw-float keys let near-identical bounds re-probe (stale-cache
        hazard): two bounds equal to 12 significant digits must share one
        closure entry."""
        from repro.core.quality import _QualityClosure

        closure = _QualityClosure(SZCompressor(), field, "ssim")
        q1 = closure(1.234567890123e-3)
        q2 = closure(1.234567890123e-3 * (1 + 1e-14))
        assert q1 == q2
        assert closure.evaluations == 1

    def test_quality_rides_on_shared_cache(self, field):
        cache = EvalCache()
        first = tune_quality(SZCompressor(), field, target=0.95, tolerance=0.02,
                             max_calls=10, seed=0, cache=cache)
        second = tune_quality(SZCompressor(), field, target=0.95, tolerance=0.02,
                              max_calls=10, seed=0, cache=cache)
        assert second.error_bound == first.error_bound
        assert second.cache_misses == 0 and second.cache_hits > 0

    def test_ratio_entry_alone_is_not_a_quality_hit(self, field):
        cache = EvalCache()
        e = 1e-3
        cache.evaluate(SZCompressor(), field, e)  # ratio-only entry
        res = tune_quality(SZCompressor(), field, target=0.9, max_calls=4,
                           lower=e, upper=e * 10, seed=0, cache=cache)
        assert res.cache_misses >= 1  # quality still had to decompress


class TestFRaZFacade:
    def test_default_cache_shared_across_calls(self, field):
        fraz = FRaZ(compressor="sz", target_ratio=8.0, regions=4)
        assert fraz.evaluation_cache is not None
        fraz.tune(field)
        second = fraz.tune(field)
        assert second.compressor_calls == 0

    def test_cache_disabled(self, field):
        fraz = FRaZ(compressor="sz", target_ratio=8.0, regions=4, cache=False)
        assert fraz.evaluation_cache is None
        res = fraz.tune(field)
        assert res.cache_hits == 0

    def test_injected_cache_instance(self, field):
        shared = EvalCache()
        a = FRaZ(compressor="sz", target_ratio=8.0, regions=4, cache=shared)
        b = FRaZ(compressor="sz", target_ratio=8.0, regions=4, cache=shared)
        a.tune(field)
        res = b.tune(field)
        assert res.compressor_calls == 0


class TestCLI:
    def _write_field(self, tmp_path, field):
        path = tmp_path / "data.npy"
        np.save(path, field)
        return path

    def test_tune_reports_cache_counts(self, tmp_path, field, capsys):
        from repro.cli import main

        path = self._write_field(tmp_path, field)
        rc = main(["tune", str(path), "--ratio", "5", "--tolerance", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc in (0, 2)
        assert out["cache_hits"] + out["cache_misses"] == out["evaluations"]

    def test_cache_dir_persists_and_warms(self, tmp_path, field, capsys):
        from repro.cli import main

        path = self._write_field(tmp_path, field)
        cache_dir = tmp_path / "cache"
        args = ["tune", str(path), "--ratio", "5", "--tolerance", "0.5",
                "--cache-dir", str(cache_dir)]
        main(args)
        cold = json.loads(capsys.readouterr().out)
        assert (cache_dir / "evalcache.json").exists()
        main(args)
        warm = json.loads(capsys.readouterr().out)
        assert warm["error_bound"] == cold["error_bound"]
        assert warm["cache_hits"] == warm["evaluations"]

    def test_unwritable_cache_dir_warns_but_reports(self, tmp_path, field, capsys):
        """--cache-dir pointing at a file must not eat the tuning result."""
        from repro.cli import main

        path = self._write_field(tmp_path, field)
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        rc = main(["tune", str(path), "--ratio", "5", "--tolerance", "0.5",
                   "--cache-dir", str(blocker)])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        assert "error_bound" in captured.out  # result still printed
        assert "could not persist" in captured.err

    def test_no_cache_flag(self, tmp_path, field, capsys):
        from repro.cli import main

        path = self._write_field(tmp_path, field)
        main(["tune", str(path), "--ratio", "5", "--tolerance", "0.5", "--no-cache"])
        out = json.loads(capsys.readouterr().out)
        assert out["cache_hits"] == 0
