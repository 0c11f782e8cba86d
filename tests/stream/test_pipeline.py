"""Pipeline behaviour: tuning, band-miss retrains, memory cap, CLI."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.cache import EvalCache
from repro.cli import main, parse_chunk_shape, parse_memory_size
from repro.pressio.registry import make_compressor
from repro.stream import ChunkTuner, stream_compress, stream_decompress
from repro.stream.pipeline import COMPRESS_OVERHEAD_FACTOR


def _smooth(shape, seed=9, dtype=np.float32):
    axes = np.meshgrid(*(np.linspace(0, 9, s) for s in shape), indexing="ij")
    out = sum(np.sin(a + i) for i, a in enumerate(axes))
    return (out * np.float64(1.0)).astype(dtype)


def _rough_lower_half(shape=(64, 48)):
    """Smooth on top, noisy below: the bound trained on top misses below."""
    axes = np.meshgrid(*(np.linspace(0, 9, s) for s in shape), indexing="ij")
    out = sum(np.sin(a + i) for i, a in enumerate(axes))
    half = shape[0] // 2
    out[half:] += 0.5 * np.random.default_rng(3).standard_normal((shape[0] - half,) + shape[1:])
    return out.astype(np.float32)


#: sha256 of the whole ``.frzs`` file, per (compressor, max_error_bound).
#: Every case retrains on the rough half; how the stale bound is checked
#: may change, which bytes come out may not.
_FRZS_SHA256 = {
    ("sz", None): "e2760abce9b5646413354ca4d8858e12b84f06de53e6ea1579b1092af8ed4a0b",
    ("sz", 0.02): "dd0f287e3292d6b5e84942552c9450303847ca2d3dd61d7a1461365fc89adaf5",
    ("zfp", None): "1b62a98bb0800611c5e78e8019fb3c052737f0575f0e31c55922b87ca63b2cf5",
    ("zfp", 0.02): "1ac1a553eb2c4badd3892b06397efba93e4ad2e641af89c568e214467205f98a",
}


@pytest.mark.parametrize("name,max_error_bound", sorted(_FRZS_SHA256, key=str))
def test_retraining_stream_bytes_pinned(tmp_path, name, max_error_bound):
    out = tmp_path / "f.frzs"
    res = stream_compress(
        _rough_lower_half(), out, compressor=name, target_ratio=8.0,
        chunk_shape=(16, 48), train_chunks=2, regions=4,
        max_error_bound=max_error_bound,
    )
    assert res.retrains >= 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FRZS_SHA256[name, max_error_bound]


class TestChunkTuner:
    def test_fit_locks_an_in_band_bound(self):
        chunks = [_smooth((40, 32), seed=s) for s in range(3)]
        tuner = ChunkTuner(
            compressor=make_compressor("sz"), target_ratio=8.0,
            regions=4, cache=EvalCache(),
        )
        bound = tuner.fit(iter(chunks))
        assert bound > 0
        assert tuner.current_bound == bound
        assert tuner.retrain_count >= 1
        ratio = make_compressor("sz", error_bound=bound).compress(chunks[-1]).ratio
        assert tuner.in_band(ratio)

    def test_fit_requires_chunks(self):
        tuner = ChunkTuner(compressor=make_compressor("sz"), target_ratio=8.0)
        with pytest.raises(ValueError):
            tuner.fit(iter([]))

    def test_verification_uses_shared_cache(self):
        chunk = _smooth((40, 32))
        cache = EvalCache()
        tuner = ChunkTuner(
            compressor=make_compressor("sz"), target_ratio=8.0,
            regions=4, cache=cache,
        )
        # Same chunk twice: the second pass verifies against cached probes.
        tuner.fit([chunk, chunk])
        assert tuner.cache_hits >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkTuner(compressor=make_compressor("sz"), target_ratio=0.0)
        with pytest.raises(ValueError):
            ChunkTuner(compressor=make_compressor("sz"), target_ratio=5.0,
                       tolerance=2.0)


class TestStreamCompressTuned:
    def test_tuned_stream_hits_band_on_most_chunks(self, tmp_path):
        data = _smooth((64, 48))
        src = tmp_path / "f.npy"
        np.save(src, data)
        out = tmp_path / "f.frzs"
        res = stream_compress(
            src, out, target_ratio=8.0, chunk_shape=(16, 48),
            train_chunks=2, regions=4,
        )
        assert res.error_bound > 0
        assert res.evaluations >= 1
        assert res.in_band_chunks >= res.n_chunks // 2
        recon = stream_decompress(out)
        assert float(np.abs(recon - data).max()) <= res.error_bound * 1.0000001

    def test_requires_exactly_one_mode(self, tmp_path):
        np.save(tmp_path / "f.npy", _smooth((8, 8)))
        with pytest.raises(ValueError):
            stream_compress(tmp_path / "f.npy", tmp_path / "o.frzs")
        with pytest.raises(ValueError):
            stream_compress(tmp_path / "f.npy", tmp_path / "o.frzs",
                            target_ratio=8.0, error_bound=1e-3)

    def test_shared_cache_absorbs_repeat_run_probes(self, tmp_path):
        data = _smooth((48, 32))
        src = tmp_path / "f.npy"
        np.save(src, data)
        cache = EvalCache()
        stream_compress(src, tmp_path / "a.frzs", target_ratio=8.0,
                        chunk_shape=(24, 32), train_chunks=2, regions=4,
                        cache=cache)
        misses_first = cache.stats.misses
        res = stream_compress(src, tmp_path / "b.frzs", target_ratio=8.0,
                              chunk_shape=(24, 32), train_chunks=2, regions=4,
                              cache=cache)
        # The rerun's tuning probes are answered from the shared cache.
        assert res.cache_hits > 0
        assert cache.stats.misses - misses_first < misses_first

    def test_thread_executor_matches_serial(self, tmp_path):
        data = _smooth((40, 36))
        src = tmp_path / "f.npy"
        np.save(src, data)
        serial = tmp_path / "s.frzs"
        threaded = tmp_path / "t.frzs"
        stream_compress(src, serial, error_bound=1e-3, chunk_shape=(12, 36))
        stream_compress(src, threaded, error_bound=1e-3, chunk_shape=(12, 36),
                        workers=3, executor="thread")
        assert np.array_equal(stream_decompress(serial), stream_decompress(threaded))


class TestMemoryCap:
    def test_dataset_4x_larger_than_cap_stays_under_cap(self, tmp_path):
        """The tentpole acceptance: 4 MiB dataset, 1 MiB cap.

        Peak is measured as tracemalloc's traced-allocation high-water mark
        (RSS itself is dominated by the interpreter + NumPy, which no
        streaming layer can shrink).  A warm-up run hoists one-time costs
        (imports, cached wavefront plans) out of the measurement, as a
        long-running service would.
        """
        cap = 1 << 20
        data = _smooth((128, 64, 64), dtype=np.float64)  # 4 MiB = 4x cap
        assert data.nbytes == 4 * cap
        src = tmp_path / "big.npy"
        np.save(src, data)

        stream_compress(src, tmp_path / "warm.frzs", error_bound=1e-4,
                        max_memory=cap)  # warm-up
        tracemalloc.start()
        res = stream_compress(src, tmp_path / "big.frzs", error_bound=1e-4,
                              max_memory=cap)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        chunk_nbytes = int(np.prod(res.chunk_shape)) * data.itemsize
        assert chunk_nbytes * COMPRESS_OVERHEAD_FACTOR <= cap
        assert res.n_chunks >= 4 * COMPRESS_OVERHEAD_FACTOR  # genuinely chunked
        assert peak < cap, f"peak {peak} exceeded cap {cap}"

        # Round-trips bit-identically against the per-chunk in-memory path.
        recon = stream_decompress(tmp_path / "big.frzs")
        comp = make_compressor("sz", error_bound=1e-4)
        from repro.stream import ChunkReader

        expected = np.empty_like(data)
        for spec, block in ChunkReader(data, chunk_shape=res.chunk_shape):
            expected[spec.slices] = comp.decompress(comp.compress(block).payload)
        assert np.array_equal(recon, expected)


class TestCLI:
    def test_stream_decompress_info_roundtrip(self, tmp_path, capsys):
        data = _smooth((32, 24))
        src = tmp_path / "f.npy"
        np.save(src, data)
        out = tmp_path / "f.frzs"
        rc = main(["stream", str(src), str(out), "--error-bound", "1e-3",
                   "--chunk-shape", "16,24"])
        assert rc == 0
        assert "2 chunks" in capsys.readouterr().out

        recon_path = tmp_path / "recon.npy"
        rc = main(["decompress", str(out), str(recon_path)])
        assert rc == 0
        assert "streamed container" in capsys.readouterr().out
        assert float(np.abs(np.load(recon_path) - data).max()) <= 1e-3 * 1.0000001

        rc = main(["info", str(out)])
        assert rc == 0
        info_out = capsys.readouterr().out
        assert '"kind": "streamed-field"' in info_out
        assert '"n_chunks": 2' in info_out

    def test_stream_tuned_with_max_memory(self, tmp_path, capsys):
        data = _smooth((48, 32))
        src = tmp_path / "f.npy"
        np.save(src, data)
        out = tmp_path / "f.frzs"
        rc = main(["stream", str(src), str(out), "--ratio", "8",
                   "--max-memory", "1MB", "--train-chunks", "2"])
        assert rc == 0
        assert "retrains" in capsys.readouterr().out

    def test_parse_memory_size(self):
        assert parse_memory_size("1048576") == 1 << 20
        assert parse_memory_size("64MB") == 64 * 10**6
        assert parse_memory_size("2GiB") == 2 << 30
        assert parse_memory_size("512k") == 512 << 10
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_memory_size("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_memory_size("-5MB")

    def test_parse_chunk_shape(self):
        assert parse_chunk_shape("64,64,32") == (64, 64, 32)
        assert parse_chunk_shape("128") == (128,)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_chunk_shape("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_chunk_shape("0,4")
