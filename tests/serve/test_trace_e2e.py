"""End-to-end trace trees on a single service node, over real HTTP.

The acceptance story: a tune job submitted through :class:`ServiceClient`
must leave one span tree behind — ``job`` → ``queue_wait``/``run`` →
``executor_dispatch`` → stage spans → per-iteration ``search_iteration``
spans carrying the bound/ratio the search actually tried — on **both**
executor backends (the process pool ships span context across the pickle
boundary).  Plus the sampling contract: ``--trace-sample 0`` keeps the
job correct but makes ``/trace`` 404, except for failed jobs, which
always leave a forced error root behind.
"""

import numpy as np
import pytest

from repro.serve import (
    JobFailedError,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.obs.trace import TraceContext


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(7)
    return rng.standard_normal((24, 24)).cumsum(axis=0).astype(np.float32)


def _by_name(spans: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for sp in spans:
        out.setdefault(sp["name"], []).append(sp)
    return out


class TestSpanTree:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_tune_job_yields_full_tree(self, field, executor):
        with ServiceServer(port=0, workers=1, executor=executor,
                           cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(field, kind="tune",
                                         target_ratio=8.0, tolerance=0.15)
            client.result(ticket["job_id"], timeout=120)
            trace = client.trace(ticket["job_id"])

        assert trace["trace_id"] == ticket["trace_id"]
        assert trace["job_id"] == ticket["job_id"]
        assert trace["complete"] is True
        spans = trace["spans"]
        assert all(sp["trace_id"] == trace["trace_id"] for sp in spans)
        named = _by_name(spans)

        # The skeleton: lifecycle, queue, execution, stages.
        for required in ("job", "queue_wait", "run", "executor_dispatch",
                         "search"):
            assert required in named, f"missing {required!r}: {sorted(named)}"

        [job] = named["job"]
        assert job["parent_id"] is None
        assert job["attrs"]["job_id"] == ticket["job_id"]
        assert job["attrs"]["kind"] == "tune"

        # Search-iteration visibility: every probe the binary search made
        # is one child span of `search` tagged with what it tried.
        iters = named.get("search_iteration", [])
        assert len(iters) >= 1, sorted(named)
        [search] = named["search"]
        for it in iters:
            assert it["parent_id"] == search["span_id"]
            assert it["attrs"]["bound"] > 0
            assert "ratio" in it["attrs"]
            assert it["attrs"]["iteration"] >= 0
        iterations = [it["attrs"]["iteration"] for it in iters]
        assert iterations == sorted(iterations)
        bounds = [it["attrs"]["bound"] for it in iters]
        assert len(set(bounds)) == len(bounds), "iterations repeat a bound"
        # Each region's last probe says why its search stopped there (set
        # after the span ended, and it still crosses the pool boundary).
        reasons = [it["attrs"]["stop_reason"] for it in iters
                   if "stop_reason" in it["attrs"]]
        assert reasons and set(reasons) <= {"cutoff", "excluded", "budget"}
        assert "stop_reason" in iters[-1]["attrs"]

        # Parentage: queue_wait and run hang off the job root; the
        # dispatch span is run's child (and carries the backend used).
        [queue_wait] = named["queue_wait"]
        [run] = named["run"]
        assert queue_wait["parent_id"] == job["span_id"]
        assert run["parent_id"] == job["span_id"]
        [dispatch] = named["executor_dispatch"]
        assert dispatch["parent_id"] == run["span_id"]
        assert dispatch["attrs"]["backend"] == executor

    def test_trace_addressable_by_raw_trace_id(self, field):
        with ServiceServer(port=0, workers=1, cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(field, kind="tune", target_ratio=8.0)
            client.result(ticket["job_id"], timeout=120)
            by_job = client.trace(ticket["job_id"])
            by_trace = client.trace(ticket["trace_id"])
        assert by_trace["trace_id"] == by_job["trace_id"]
        assert {s["span_id"] for s in by_trace["spans"]} == \
            {s["span_id"] for s in by_job["spans"]}

    def test_status_carries_trace_id(self, field):
        with ServiceServer(port=0, workers=1, cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(field, kind="tune", target_ratio=8.0)
            client.result(ticket["job_id"], timeout=120)
            status = client.status(ticket["job_id"])
        assert status["trace_id"] == ticket["trace_id"]

    def test_caller_traceparent_continues_the_trace(self, field):
        # A caller-minted context (sampled) must become the trace the
        # node records under — the job root is a *child* of the caller.
        ctx = TraceContext("ab" * 16, "cd" * 8, sampled=True)
        with ServiceServer(port=0, workers=1, cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(
                field, kind="tune", target_ratio=8.0,
                traceparent=ctx.to_traceparent())
            client.result(ticket["job_id"], timeout=120)
            trace = client.trace(ticket["job_id"])
        assert ticket["trace_id"] == ctx.trace_id
        assert trace["trace_id"] == ctx.trace_id
        [job] = [s for s in trace["spans"] if s["name"] == "job"]
        assert job["parent_id"] == ctx.span_id


class TestSampling:
    def test_sample_zero_job_succeeds_but_trace_404s(self, field):
        with ServiceServer(port=0, workers=1, cache=False,
                           trace_sample=0.0) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(field, kind="tune", target_ratio=8.0)
            result = client.result(ticket["job_id"], timeout=120)
            assert result["kind"] == "tune"
            # The id still exists (it propagated downstream unsampled)...
            assert len(ticket["trace_id"]) == 32
            # ...but no spans were recorded, so the tree is gone.
            with pytest.raises(ServiceError) as exc:
                client.trace(ticket["job_id"])
            assert exc.value.status == 404
            assert srv.scheduler.tracer.stats_dict()["sampled"] == 0

    def test_failed_job_is_always_sampled(self, field, tmp_path):
        # Head sampling said no, but the job failed: the forced error
        # root must still be retrievable so failures are never invisible.
        with ServiceServer(port=0, workers=1, cache=False,
                           trace_sample=0.0) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit(kind="tune", target_ratio=8.0,
                                   input=str(tmp_path / "missing.npy"),
                                   max_retries=0)
            with pytest.raises(JobFailedError):
                client.result(ticket["job_id"], timeout=120)
            trace = client.trace(ticket["job_id"])
        [root] = trace["spans"]
        assert root["status"] == "error"
        assert "FileNotFoundError" in root["error"]
        assert root["attrs"]["forced_sample"] is True

    def test_unsampled_caller_context_suppresses_recording(self, field):
        # sampled=0 from the caller wins over the node's sample_rate=1:
        # the head decision is made exactly once, upstream.
        ctx = TraceContext("ef" * 16, "cd" * 8, sampled=False)
        with ServiceServer(port=0, workers=1, cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(
                field, kind="tune", target_ratio=8.0,
                traceparent=ctx.to_traceparent())
            client.result(ticket["job_id"], timeout=120)
            assert ticket["trace_id"] == ctx.trace_id
            with pytest.raises(ServiceError) as exc:
                client.trace(ticket["job_id"])
            assert exc.value.status == 404


class TestStatsAndExemplars:
    def test_stats_expose_trace_section_with_exemplars(self, field):
        with ServiceServer(port=0, workers=1, cache=False) as srv:
            client = ServiceClient(srv.url)
            ticket = client.submit_array(field, kind="tune", target_ratio=8.0)
            client.result(ticket["job_id"], timeout=120)
            trace_stats = client.stats()["trace"]
        assert trace_stats["sampled"] >= 1
        assert trace_stats["sample_rate"] == 1.0
        exemplar_jobs = [e["job_id"] for e in trace_stats["exemplars"]]
        assert ticket["job_id"] in exemplar_jobs

    def test_health_reports_version(self):
        from repro import __version__

        with ServiceServer(port=0, workers=1, cache=False) as srv:
            health = ServiceClient(srv.url).health()
        assert health["version"] == __version__
