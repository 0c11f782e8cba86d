"""Bounded priority job queue with backpressure.

The service's admission control lives here, not in the HTTP layer: a
:class:`JobQueue` holds at most ``maxsize`` undispatched jobs, and
:meth:`JobQueue.put` raises :class:`QueueFull` the moment a producer
outruns the workers — the server maps that to ``429 Retry-After`` and the
client backs off.  Bounding the *queue* (rather than, say, dropping jobs
silently or buffering without limit) keeps memory flat under burst load
and gives callers an honest signal they can retry on.

Ordering is ``(priority, arrival)``: lower priority values run sooner,
ties run first-in-first-out (the sequence number makes the heap stable,
and keeps :class:`~repro.serve.jobs.Job` objects out of the comparison).

Cancellation is lazy — cancelled jobs stay in the heap and are skipped at
pop time — but *accounted eagerly*: the scheduler reports each
cancellation through :meth:`JobQueue.cancelled`, which keeps the live
depth an O(1) counter (no heap scan on ``put``) and **compacts** the heap
once cancelled entries outnumber the live ones (or exceed ``maxsize``),
so a cancel-heavy producer cannot grow the heap without bound behind a
small reported depth.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import asdict, dataclass

from repro.errors import StateError
from repro.serve.jobs import Job, JobState
from repro.util.concurrency import guarded_by

__all__ = ["JobQueue", "QueueFull"]


class QueueFull(StateError):
    """Raised by :meth:`JobQueue.put` when the queue is at capacity.

    ``retry_after`` is the server's suggested client backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class QueueStats:
    """Counters for one queue instance."""

    enqueued: int = 0
    rejected: int = 0
    cancelled: int = 0
    compactions: int = 0
    max_depth: int = 0


@guarded_by("_cond", "_heap", "_members", "_cancelled_ids", "stats")
class JobQueue:
    """Thread-safe bounded priority queue of :class:`Job` records."""

    def __init__(self, maxsize: int = 64) -> None:
        if not isinstance(maxsize, int) or maxsize < 1:
            raise ValueError(f"maxsize must be an int >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.stats = QueueStats()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        #: ids of live (not-yet-popped, not-cancelled) entries — the depth.
        self._members: set[str] = set()
        #: ids of cancelled entries still occupying heap slots.
        self._cancelled_ids: set[str] = set()

    # -- producers ---------------------------------------------------------
    def put(self, job: Job, *, force: bool = False) -> None:
        """Enqueue ``job``; raises :class:`QueueFull` at capacity.

        ``force=True`` bypasses the bound — reserved for the scheduler's
        internal re-enqueues (retries), which must never be rejected by
        the same backpressure that protects against *new* work.
        """
        with self._cond:
            depth = len(self._members)
            if not force and depth >= self.maxsize:
                self.stats.rejected += 1
                raise QueueFull(
                    f"job queue full ({depth}/{self.maxsize} pending)",
                    retry_after=1.0,
                )
            heapq.heappush(self._heap, (job.spec.priority, next(self._seq), job))
            self._members.add(job.id)
            self.stats.enqueued += 1
            self.stats.max_depth = max(self.stats.max_depth, depth + 1)
            self._cond.notify()

    def cancelled(self, job: Job) -> bool:
        """Report that a queued job was cancelled; returns whether it was live.

        The entry stays in the heap (lazy removal keeps cancel O(1)), but
        the live counter drops immediately and the heap is compacted once
        dead entries dominate.  A job that is not currently queued — e.g.
        already popped by a racing worker — is a no-op, so the counters
        can never undercount.
        """
        with self._cond:
            if job.id not in self._members:
                return False
            self._members.discard(job.id)
            self._cancelled_ids.add(job.id)
            self.stats.cancelled += 1
            dead = len(self._cancelled_ids)
            if dead > len(self._heap) // 2 or dead > self.maxsize:
                self._compact_locked()
            return True

    def _compact_locked(self) -> None:
        """Drop cancelled entries; (priority, seq) tags keep the order."""
        self._heap = [e for e in self._heap if e[2].id not in self._cancelled_ids]
        heapq.heapify(self._heap)
        self._cancelled_ids.clear()
        self.stats.compactions += 1

    # -- consumers ---------------------------------------------------------
    def get(self, timeout: float | None = None) -> Job | None:
        """Pop the highest-priority live job; ``None`` on timeout.

        Jobs cancelled while queued are discarded here, never returned.
        """
        with self._cond:
            while True:
                job = self._pop_live_locked()
                if job is not None:
                    return job
                if not self._cond.wait(timeout):
                    return self._pop_live_locked()

    def _pop_live_locked(self) -> Job | None:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.id in self._cancelled_ids:
                self._cancelled_ids.discard(job.id)
                continue
            self._members.discard(job.id)
            if job.state is JobState.CANCELLED:
                continue  # cancelled without notification; skip, never return
            return job
        return None

    # -- introspection -----------------------------------------------------
    def _depth_locked(self) -> int:
        return len(self._members)

    def __len__(self) -> int:
        with self._cond:
            return self._depth_locked()

    def heap_size(self) -> int:
        """Physical heap length, counting lazily-cancelled entries."""
        with self._cond:
            return len(self._heap)

    def stats_dict(self) -> dict:
        with self._cond:
            return {
                "depth": self._depth_locked(),
                "capacity": self.maxsize,
                **asdict(self.stats),
            }
