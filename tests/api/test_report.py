"""Typed reports: their wire dicts (key sets, values), and parsing."""

import json

import numpy as np
import pytest

from repro.api import (
    CompressReport,
    CompressionRequest,
    DecompressReport,
    StreamReport,
    TuneReport,
    execute,
    plan,
    report_from_dict,
)
from repro.core.fraz import FRaZ


@pytest.fixture(scope="module")
def tuned(smooth2d):
    fraz = FRaZ(compressor="sz", target_ratio=8.0, tolerance=0.2)
    payload, result = fraz.compress(smooth2d)
    return fraz, payload, result


TUNE_KEYS = [
    "kind", "compressor", "input", "target_ratio", "tolerance",
    "max_error_bound", "error_bound", "ratio", "feasible", "within_tolerance",
    "evaluations", "cache_hits", "cache_misses", "compressor_calls",
    "wall_seconds", "compress_seconds", "cache",
]
COMPRESS_KEYS = [
    "kind", "streamed", "compressor", "input", "output", "error_bound",
    "ratio", "original_nbytes", "compressed_nbytes", "wall_seconds",
    "tuning", "cache",
]


class TestWireDicts:
    """``to_dict()`` is the wire schema: same keys, same values."""

    def test_tune_report_wire_dict(self, tuned):
        fraz, _, result = tuned
        wire = TuneReport.from_training(
            result, compressor="sz", input="f.npy", max_error_bound=None,
            cache=fraz.evaluation_cache,
        ).to_dict()
        assert list(wire) == TUNE_KEYS  # key order too
        assert wire["kind"] == "tune" and wire["compressor"] == "sz"
        assert wire["input"] == "f.npy" and wire["max_error_bound"] is None
        assert wire["target_ratio"] == 8.0 and wire["tolerance"] == 0.2
        assert wire["error_bound"] == pytest.approx(result.error_bound)
        assert wire["ratio"] == pytest.approx(result.ratio)
        assert wire["feasible"] is True and wire["within_tolerance"] is True
        assert wire["evaluations"] == result.evaluations
        assert wire["compressor_calls"] == result.compressor_calls
        assert wire["cache_hits"] == result.cache_hits
        assert wire["cache_misses"] == result.cache_misses
        assert wire["cache"] == fraz.evaluation_cache.stats_dict()

    def test_compress_report_wire_dict(self, tuned):
        _, payload, result = tuned
        tuning = TuneReport.from_training(result, compressor="sz")
        wire = CompressReport.from_field(
            payload, compressor="sz", error_bound=result.error_bound,
            output="o.frz", tuning=tuning, wall_seconds=0.125,
        ).to_dict()
        assert list(wire) == COMPRESS_KEYS
        assert wire["kind"] == "compress" and wire["streamed"] is False
        assert wire["output"] == "o.frz" and wire["input"] is None
        assert wire["error_bound"] == pytest.approx(result.error_bound)
        assert wire["ratio"] == pytest.approx(payload.ratio)
        assert wire["original_nbytes"] == payload.original_nbytes
        assert wire["compressed_nbytes"] == payload.nbytes
        assert wire["wall_seconds"] == 0.125
        assert wire["cache"] is None
        # The nested tuning travels as the tune report's own wire dict and
        # survives a parse/serialize round trip unchanged.
        assert wire["tuning"] == tuning.to_dict()
        assert TuneReport.from_dict(wire["tuning"]).to_dict() == wire["tuning"]

    def test_stream_report_wire_dict(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        req = CompressionRequest(
            kind="stream", error_bound=1e-2, input=str(src),
            output=str(tmp_path / "f.frzs"),
            stream_options={"chunk_shape": (16, 40)},
        )
        report = execute(plan(req))
        assert isinstance(report, StreamReport)
        assert report.to_dict()["streamed"] is True
        assert report.to_dict()["n_chunks"] == report.n_chunks


class TestRoundTrip:
    def test_every_kind_parses_back(self, tuned, tmp_path, smooth2d):
        fraz, payload, result = tuned
        reports = [
            TuneReport.from_training(result, compressor="sz"),
            CompressReport.from_field(
                payload, compressor="sz", error_bound=result.error_bound,
                tuning=TuneReport.from_training(result, compressor="sz"),
            ),
        ]
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        reports.append(execute(plan(CompressionRequest(
            kind="stream", error_bound=1e-2, input=str(src),
            output=str(tmp_path / "f.frzs")))))
        reports.append(execute(plan(CompressionRequest(
            kind="decompress", input=str(tmp_path / "f.frzs"),
            output=str(tmp_path / "r.npy")))))
        for report in reports:
            wire = json.loads(json.dumps(report.to_dict()))
            again = report_from_dict(wire)
            assert type(again) is type(report)
            assert again.to_dict() == report.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            report_from_dict({"kind": "frobnicate"})

    def test_counters_feed_service_accounting(self, tuned):
        _, payload, result = tuned
        tune = TuneReport.from_training(result, compressor="sz")
        assert tune.counters == (result.evaluations, result.compressor_calls)
        fixed = CompressReport.from_field(payload, compressor="sz", error_bound=1e-3)
        assert fixed.counters == (0, 0) and fixed.feasible
        tuned_report = CompressReport.from_field(
            payload, compressor="sz", error_bound=1e-3, tuning=tune)
        assert tuned_report.counters == tune.counters

    def test_decompress_report_shape(self):
        report = DecompressReport(
            compressor="sz", input="x.frz", output="x.npy", ratio=8.0,
            shape=(4, 4), dtype="<f4",
        )
        wire = report.to_dict()
        assert wire["kind"] == "decompress" and wire["streamed"] is False
        assert report_from_dict(wire) == report
