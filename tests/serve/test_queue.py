"""JobQueue ordering, backpressure, and lazy cancellation."""

import threading

import numpy as np
import pytest

from repro.api import CompressionRequest
from repro.serve.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Job,
    JobSpec,
    JobState,
)
from repro.serve.queue import JobQueue, QueueFull

_B64 = JobSpec.encode_array(np.zeros(4, dtype=np.float32))


def make_job(jid: str, priority: int = PRIORITY_NORMAL) -> Job:
    spec = JobSpec(CompressionRequest(kind="tune", target_ratio=8.0, data_b64=_B64),
                   priority=priority)
    return Job(id=jid, spec=spec)


class TestOrdering:
    def test_fifo_within_priority(self):
        q = JobQueue(maxsize=8)
        for i in range(4):
            q.put(make_job(f"j{i}"))
        assert [q.get(0).id for _ in range(4)] == ["j0", "j1", "j2", "j3"]

    def test_priority_order(self):
        q = JobQueue(maxsize=8)
        q.put(make_job("low", PRIORITY_LOW))
        q.put(make_job("normal", PRIORITY_NORMAL))
        q.put(make_job("high", PRIORITY_HIGH))
        assert [q.get(0).id for _ in range(3)] == ["high", "normal", "low"]

    def test_get_timeout_returns_none(self):
        q = JobQueue(maxsize=2)
        assert q.get(timeout=0.01) is None

    def test_get_wakes_on_put(self):
        q = JobQueue(maxsize=2)
        got = []

        def consumer():
            got.append(q.get(timeout=5.0))

        t = threading.Thread(target=consumer)
        t.start()
        q.put(make_job("j1"))
        t.join(5.0)
        assert got and got[0].id == "j1"


class TestBackpressure:
    def test_put_raises_at_capacity(self):
        q = JobQueue(maxsize=2)
        q.put(make_job("a"))
        q.put(make_job("b"))
        with pytest.raises(QueueFull) as exc:
            q.put(make_job("c"))
        assert exc.value.retry_after > 0
        assert q.stats.rejected == 1

    def test_force_put_bypasses_bound(self):
        q = JobQueue(maxsize=1)
        q.put(make_job("a"))
        q.put(make_job("retry"), force=True)
        assert len(q) == 2

    def test_capacity_frees_on_get(self):
        q = JobQueue(maxsize=1)
        q.put(make_job("a"))
        assert q.get(0).id == "a"
        q.put(make_job("b"))  # must not raise

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            JobQueue(maxsize=0)


def cancel(q: JobQueue, job: Job) -> bool:
    """Cancel as the scheduler does: flip state, then notify the queue."""
    job.state = JobState.CANCELLED
    return q.cancelled(job)


class TestCancellation:
    def test_cancelled_jobs_skipped(self):
        q = JobQueue(maxsize=4)
        a, b = make_job("a"), make_job("b")
        q.put(a)
        q.put(b)
        assert cancel(q, a)
        assert len(q) == 1
        assert q.get(0).id == "b"
        assert q.get(0.01) is None

    def test_cancelled_frees_capacity(self):
        q = JobQueue(maxsize=1)
        a = make_job("a")
        q.put(a)
        assert cancel(q, a)
        q.put(make_job("b"))  # must not raise

    def test_unnotified_cancel_still_skipped_at_pop(self):
        # Belt and braces: a job whose state flipped without the scheduler
        # notifying the queue is never *returned*, even though the depth
        # counter only learns about it at pop time.
        q = JobQueue(maxsize=4)
        a, b = make_job("a"), make_job("b")
        q.put(a)
        q.put(b)
        a.state = JobState.CANCELLED
        assert q.get(0).id == "b"
        assert q.get(0.01) is None

    def test_cancel_of_popped_job_is_noop(self):
        q = JobQueue(maxsize=4)
        a = make_job("a")
        q.put(a)
        assert q.get(0) is a
        a.state = JobState.CANCELLED
        assert not q.cancelled(a)  # already popped: counters untouched
        assert len(q) == 0

    def test_cancel_storm_compacts_heap(self):
        """10x maxsize enqueued by force, 90% cancelled: the heap must
        compact instead of retaining every dead entry, and the reported
        depth must stay exact."""
        q = JobQueue(maxsize=8)
        jobs = [make_job(f"j{i:03d}") for i in range(80)]
        for j in jobs:
            q.put(j, force=True)
        assert q.heap_size() == 80
        victims, survivors = jobs[:72], jobs[72:]
        for j in victims:
            assert cancel(q, j)
        assert len(q) == len(survivors) == 8
        # Compaction bound: never more than live + the not-yet-compacted
        # tail (at most half the heap, and at most maxsize over the live).
        assert q.heap_size() <= 2 * (len(q) + q.maxsize)
        assert q.stats.compactions >= 1
        assert q.stats.cancelled == 72
        # Survivors drain in FIFO order, none of the victims leak out.
        drained = [q.get(0).id for _ in range(len(survivors))]
        assert drained == [j.id for j in survivors]
        assert q.get(0.01) is None
        assert q.heap_size() == 0

    def test_cancel_heavy_producer_has_bounded_heap(self):
        """Sustained churn: repeated enqueue-then-cancel rounds must not
        grow the heap without bound behind a small reported depth."""
        q = JobQueue(maxsize=4)
        peak = 0
        for rnd in range(50):
            batch = [make_job(f"r{rnd}-{i}") for i in range(8)]
            for j in batch:
                q.put(j, force=True)
            for j in batch:
                assert cancel(q, j)
            peak = max(peak, q.heap_size())
        assert len(q) == 0
        assert peak <= 8 + q.maxsize  # one batch plus the compaction lag
        assert q.heap_size() <= q.maxsize
        assert q.stats.compactions >= 50

    def test_depth_is_counter_not_scan(self):
        # put() must stay O(1): the depth used for admission is a live
        # counter, never a heap scan.
        q = JobQueue(maxsize=4)
        jobs = [make_job(f"j{i}") for i in range(4)]
        for j in jobs:
            q.put(j)
        with pytest.raises(QueueFull):
            q.put(make_job("over"))
        assert cancel(q, jobs[0])
        q.put(make_job("fits"))  # freed capacity visible immediately


class TestStats:
    def test_counters(self):
        q = JobQueue(maxsize=2)
        q.put(make_job("a"))
        q.put(make_job("b"))
        with pytest.raises(QueueFull):
            q.put(make_job("c"))
        stats = q.stats_dict()
        assert stats["enqueued"] == 2
        assert stats["rejected"] == 1
        assert stats["max_depth"] == 2
        assert stats["depth"] == 2
        assert stats["capacity"] == 2
