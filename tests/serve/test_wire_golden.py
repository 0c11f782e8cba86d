"""Golden wire JSON: every record the service tier serialises, byte for byte.

``golden_wire.json`` holds ``json.dumps`` of one instance of each report,
a job spec, and the node's and the gateway's ticket, ``/status``,
``/result`` and ``/stats`` bodies as read off real sockets.  It was
written by running this file as a script (``PYTHONPATH=src python
tests/serve/test_wire_golden.py``) at the commit *before* the wire dicts
became derived from the dataclass fields, so a passing run shows that
change moved no key, no value and no key order.

Values that differ from run to run (clocks, durations, trace ids) are
replaced by ``<type>`` under their key; the job runs SZ with the
pure-Python ``lz77`` dictionary stage so ratios do not depend on the
zlib build.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    CompressReport,
    DecompressReport,
    StreamReport,
    TuneReport,
    encode_array,
    report_from_dict,
)
from repro.gateway import GatewayServer
from repro.serve import ServiceServer
from repro.serve.jobs import JobSpec

GOLDEN = Path(__file__).with_name("golden_wire.json")

VOLATILE = frozenset({
    "trace_id", "submitted_at", "started_at", "finished_at",
    "queue_wait_seconds", "run_seconds", "total_seconds",
    "wall_seconds", "compress_seconds", "seconds_saved",
})

CACHE = {"entries": 3, "hits": 1, "misses": 3, "stores": 3, "evictions": 0,
         "seconds_saved": 0.25, "bytes_saved": 10, "disk_loads": 0,
         "hit_rate": 0.25}


def reports() -> dict:
    tune = TuneReport(
        compressor="sz", input="f.npy", target_ratio=8.0, tolerance=0.1,
        max_error_bound=0.5, error_bound=0.0125, ratio=8.25, feasible=True,
        within_tolerance=True, evaluations=7, cache_hits=1, cache_misses=6,
        compressor_calls=6, wall_seconds=0.5, compress_seconds=0.25,
        cache=CACHE)
    return {
        "tune": tune,
        "compress": CompressReport(
            compressor="sz", input="f.npy", output="f.frz",
            error_bound=0.0125, ratio=8.25, original_nbytes=4096,
            compressed_nbytes=496, wall_seconds=0.75, tuning=tune,
            cache=None),
        "compress_fixed": CompressReport(
            compressor="zfp", error_bound=0.001, ratio=3.5,
            original_nbytes=4096, compressed_nbytes=1170),
        "stream": StreamReport(
            compressor="sz", input="f.npy", output="f.frzs",
            error_bound=0.01, ratio=6.5, original_nbytes=1 << 20,
            compressed_nbytes=161319, n_chunks=4, chunk_shape=(16, 64),
            retrains=1, in_band_chunks=3, evaluations=12, cache_hits=2,
            cache_misses=10, mb_per_second=3.125, wall_seconds=0.5,
            cache=CACHE, train_seconds=0.125),
        "decompress": DecompressReport.from_dict({
            "streamed": True, "compressor": "sz", "input": "f.frzs",
            "output": "f.npy", "ratio": 6.5, "shape": (64, 64),
            "dtype": "<f4", "n_chunks": 4, "wall_seconds": 0.25}),
    }


def job_spec() -> JobSpec:
    return JobSpec.from_dict({
        "kind": "compress", "compressor": "sz", "options": {"block_size": 4},
        "target_ratio": 8.0, "tolerance": 0.2, "max_error_bound": 0.5,
        "input": "f.npy", "output": "f.frzs", "stream": True,
        "stream_options": {"chunk_shape": (16, 64), "train_chunks": 2},
        "resources": {"workers": 2, "max_memory": 1 << 20},
        "priority": "high", "max_retries": 2,
    })


def scrub(value):
    if isinstance(value, dict):
        return {k: f"<{type(v).__name__}>" if k in VOLATILE and v is not None
                else scrub(v) for k, v in value.items()}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value


def http(url: str, path: str, body: dict | None = None) -> tuple[int, str]:
    """One round trip: ``(status, scrubbed body re-serialised)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    try:
        with urllib.request.urlopen(
                urllib.request.Request(url + path, data=data), timeout=10) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            status, raw = exc.code, exc.read()
    payload = json.loads(raw)
    # The server writes plain json.dumps output, so a parse/serialise
    # round trip is the identity and scrubbing keeps everything else.
    assert json.dumps(payload).encode("utf-8") == raw
    return status, json.dumps(scrub(payload))


def wait_result(url: str, job_id: str) -> str:
    deadline = time.monotonic() + 60.0
    while True:
        status, body = http(url, f"/result/{job_id}")
        if status == 200:
            return body
        assert status == 202 and time.monotonic() < deadline, body
        time.sleep(0.02)


def stats_keys(url: str) -> str:
    _, body = http(url, "/stats")
    stats = json.loads(body)
    # "metrics" is the registry snapshot: its series come and go with
    # monitor ticks and it names the package version.
    sections = {k: list(v) for k, v in stats.items()
                if isinstance(v, dict) and k != "metrics"}
    return json.dumps({"top": list(stats), **sections})


def exchange(url: str, node: ServiceServer) -> dict:
    """Submit -> pending -> done against ``url``; the node starts paused."""
    field = np.linspace(0.0, 1.0, 256, dtype=np.float32).reshape(16, 16) ** 2
    good = {"kind": "tune", "target_ratio": 4.0, "tolerance": 0.25,
            "options": {"dict_codec": "lz77"}, "data_b64": encode_array(field)}
    bad = {"kind": "tune", "target_ratio": 4.0, "max_retries": 0,
           "input": "/nonexistent/golden.npy"}
    out = {}
    _, out["ticket"] = http(url, "/submit", good)
    _, out["ticket_coalesced"] = http(url, "/submit", good)
    _, out["ticket_bad"] = http(url, "/submit", bad)
    ids = [json.loads(out[k])["job_id"]
           for k in ("ticket", "ticket_coalesced", "ticket_bad")]
    _, out["status_pending"] = http(url, f"/status/{ids[0]}")
    _, out["result_pending"] = http(url, f"/result/{ids[0]}")
    _, out["result_unknown"] = http(url, "/result/nope")
    node.scheduler.resume()
    out["result_done"] = wait_result(url, ids[0])
    out["result_coalesced"] = wait_result(url, ids[1])
    out["result_failed"] = wait_result(url, ids[2])
    _, out["status_done"] = http(url, f"/status/{ids[0]}")
    _, out["status_failed"] = http(url, f"/status/{ids[2]}")
    out["stats_keys"] = stats_keys(url)
    return out


def node_server(**kwargs) -> ServiceServer:
    return ServiceServer(port=0, workers=1, executor="thread", paused=True,
                         **kwargs)


def collect() -> dict:
    out = {f"report.{name}": json.dumps(report.to_dict())
           for name, report in reports().items()}
    out["jobspec"] = json.dumps(job_spec().to_dict())
    with node_server() as node:
        for name, body in exchange(node.url, node).items():
            out[f"node.{name}"] = body
    with GatewayServer(port=0, heartbeat_interval=0.1, check_interval=0.05) as gw:
        with node_server(register=gw.url, node_id="n0") as node:
            deadline = time.monotonic() + 10.0
            while gw.router.registry.counts()["active"] != 1:
                assert time.monotonic() < deadline, "node never registered"
                time.sleep(0.02)
            for name, body in exchange(gw.url, node).items():
                out[f"gateway.{name}"] = body
    return out


@pytest.fixture(scope="module")
def observed() -> dict:
    return collect()


def test_wire_json_is_byte_identical(observed):
    assert observed == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(reports()))
def test_report_round_trip(name):
    report = reports()[name]
    assert report_from_dict(json.loads(json.dumps(report.to_dict()))) == report


def test_job_spec_round_trip():
    spec = job_spec()
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n")
