"""Job scheduler: workers, request coalescing, shared cache, stream routing.

The :class:`Scheduler` is the resident core of the compression service.
It owns

* a bounded priority :class:`~repro.serve.queue.JobQueue` (backpressure
  propagates out of :meth:`submit` as
  :class:`~repro.serve.queue.QueueFull`),
* a pool of dispatcher threads that pop jobs and run them through the
  unified request API — each spec's
  :class:`~repro.api.request.CompressionRequest` goes through
  :func:`repro.api.plan` (which applies the scheduler's configured
  ``stream_threshold`` to route in-memory vs. out-of-core) and
  :func:`repro.api.execute` (FRaZ for tunes and in-memory compressions,
  :func:`repro.stream.pipeline.stream_compress` for inputs too large to
  hold, the ``.frz``/``.frzs`` readers for decompressions),
* an **execution backend**: ``executor="thread"`` runs jobs on the
  dispatcher threads themselves (the pre-existing model — fine when jobs
  are tiny or NumPy releases the GIL), while ``executor="process"``
  ships each job's :class:`~repro.serve.jobs.JobSpec` to a resident
  :class:`~repro.parallel.executor.ProcessJobPool` so CPU-bound tune
  jobs scale across cores instead of serialising on the GIL.  The
  default ``"auto"`` picks ``process`` on multi-core hosts,
* one :class:`~repro.cache.EvalCache` shared by *every* job, so probes
  paid by one request answer later requests for free.  Process workers
  receive the parent's entry snapshot with each job and return only the
  delta they probed (:meth:`~repro.cache.EvalCache.drain_new_entries`),
  which the parent folds back in — deterministic regardless of
  completion order because entries are pure functions of their key, and
* a **coalescing registry**: a request whose
  :meth:`~repro.serve.jobs.JobSpec.coalesce_key` matches a job that is
  currently queued or running never enters the queue — it attaches to
  that primary job and receives the same result when it completes.

**Crash recovery** (process backend): a worker process dying mid-job
surfaces as ``BrokenProcessPool`` on every in-flight future.  Each
affected job spends one unit of its retry budget and re-enters the queue
through the bound-exempt path (``force=True``); the pool is rebuilt once
per crash; the failure is visible in ``/stats`` (``executor.worker_crashes``,
``executor.pool_rebuilds``) and on the job record (``crashes``).

**Cancellation**: queued jobs cancel in place (and the queue compacts —
see :meth:`~repro.serve.queue.JobQueue.cancelled`).  Under the process
backend a *running* job can be cancelled too: the pool future is
cancelled if it has not started, otherwise the job is *tombstoned* — the
worker process finishes its computation but the scheduler discards the
result on return (``executor.discarded_results`` counts those).

Oversized inline arrays (``data_b64`` beyond ``spill_threshold``) are
not pickled through the pool pipe: the scheduler spills them to a
temporary ``.npy`` and dispatches the job as a file-input spec, riding
the existing file/stream path.

``pause()``/``resume()`` gate the workers without touching the queue —
operators use it to drain, tests use it to make coalescing windows
deterministic.
"""

from __future__ import annotations

import copy
import itertools
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro import __version__
from repro.api.execute import execute as execute_request
from repro.api.plan import DEFAULT_STREAM_THRESHOLD, plan as plan_request
from repro.api.report import stage_timings
from repro.cache.evalcache import CacheEntry, EvalCache
from repro.errors import (
    JobTimeoutError,
    RequestError,
    SchedulerStoppedError,
    StateError,
    UnknownJobError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanStore, TraceContext, Tracer, current_span
from repro.obs.tracelog import TraceLogger
from repro.parallel.executor import (
    BaseExecutor,
    ProcessJobPool,
    TracedResult,
    WorkerCrashError,
    make_executor,
    resolve_workers,
)
from repro.serve.jobs import Job, JobSpec, JobState
from repro.serve.queue import JobQueue, QueueFull  # noqa: F401  (re-exported)
from repro.util.concurrency import guarded_by

__all__ = [
    "Scheduler",
    "SchedulerStats",
    "DEFAULT_STREAM_THRESHOLD",
    "DEFAULT_SPILL_THRESHOLD",
    "resolve_executor_mode",
]

#: Inline (``data_b64``) arrays whose *decoded* size exceeds this many
#: bytes are spilled to a temporary ``.npy`` before process-pool dispatch
#: instead of being pickled through the pool pipe.
DEFAULT_SPILL_THRESHOLD = 8 * 2**20

_EXECUTOR_MODES = ("auto", "thread", "process")


def resolve_executor_mode(executor: str | None) -> str:
    """Normalise the job-execution backend request to thread/process.

    ``"auto"`` (and ``None``) picks ``"process"`` whenever the host has
    more than one core — that is where thread execution stops scaling,
    because the GIL serialises the CPU-bound parts of the probe loop —
    and ``"thread"`` on single-core hosts, where process dispatch would
    pay pickling for no parallelism.
    """
    if executor is None:
        executor = "auto"
    if executor not in _EXECUTOR_MODES:
        raise RequestError(
            f"executor must be one of {_EXECUTOR_MODES}, got {executor!r}"
        )
    if executor == "auto":
        return "process" if (os.cpu_count() or 1) > 1 else "thread"
    return executor


# ---------------------------------------------------------------------------
# Job execution, shared by the thread backend (dispatcher threads call it
# directly) and the process backend (pool workers call it through the
# module-level trampoline below — module-level so it pickles by name).
# ---------------------------------------------------------------------------

def _execute_spec(
    spec: JobSpec,
    *,
    cache: EvalCache | None,
    executor: BaseExecutor,
    intra_workers: int,
    stream_threshold: int,
    max_memory: int | None,
    seed: int,
) -> tuple[dict, int, int, bool]:
    """Run one spec; returns ``(result, evaluations, compressor_calls,
    streamed)``.  Exceptions propagate to the caller's retry logic.

    The whole body is a call into the unified request API: the spec *is*
    a :class:`~repro.api.request.CompressionRequest` plus scheduling
    fields, :func:`repro.api.plan` applies the scheduler's configured
    stream threshold, and :func:`repro.api.execute` runs the plan with
    the scheduler's shared cache and intra-job executor as fallbacks for
    whatever the request's own resource block leaves unset.
    """
    pl = plan_request(spec.request, stream_threshold=stream_threshold)
    report = execute_request(
        pl,
        cache=cache if cache is not None else False,
        executor=executor,
        workers=intra_workers,
        max_memory=max_memory,
        seed=seed,
    )
    evaluations, compressor_calls = report.counters
    return report.to_dict(), evaluations, compressor_calls, pl.route == "stream"


#: Per-worker-process runtime (cache + intra executor), set up once by the
#: pool initializer and reused across every job the process serves.
_WORKER_RUNTIME: dict | None = None


def _process_worker_init(
    cache_enabled: bool,
    cache_maxsize: int | None,
    intra_kind: str,
    intra_workers: int,
    stream_threshold: int,
    max_memory: int | None,
    seed: int,
) -> None:
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = {
        "cache": EvalCache(maxsize=cache_maxsize) if cache_enabled else None,
        "executor": make_executor(intra_kind, intra_workers),
        "intra_workers": intra_workers,
        "stream_threshold": stream_threshold,
        "max_memory": max_memory,
        "seed": seed,
    }


def _process_execute(
    spec: JobSpec, snapshot: dict[str, CacheEntry] | None
) -> tuple[dict, int, int, bool, dict[str, CacheEntry] | None]:
    """Pool trampoline: run one job inside a resident worker process.

    ``snapshot`` is the parent cache's entry snapshot; it is merged into
    the worker's long-lived cache so this job hits everything any earlier
    job (in any process) already paid for.  Only the *delta* — entries
    this job probed cold — rides back, keeping the return payload small.
    """
    runtime = _WORKER_RUNTIME
    if runtime is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker process used before initialization")
    cache: EvalCache | None = runtime["cache"]
    if cache is not None:
        cache.merge_entries(snapshot)
        cache.drain_new_entries()  # the parent already owns the snapshot
    payload, evals, calls, streamed = _execute_spec(
        spec,
        cache=cache,
        executor=runtime["executor"],
        intra_workers=runtime["intra_workers"],
        stream_threshold=runtime["stream_threshold"],
        max_memory=runtime["max_memory"],
        seed=runtime["seed"],
    )
    delta = cache.drain_new_entries() if cache is not None else None
    return payload, evals, calls, streamed, delta


def _counter(section: str):
    """A counter field listed in the ``/stats`` block named ``section``."""
    return field(default=0, metadata={"section": section})


@dataclass
class SchedulerStats:
    """Service-level counters (jobs and search probes)."""

    submitted: int = _counter("jobs")
    coalesced: int = _counter("jobs")
    completed: int = _counter("jobs")
    failed: int = _counter("jobs")
    retried: int = _counter("jobs")
    cancelled: int = _counter("jobs")
    running: int = _counter("jobs")
    streamed: int = _counter("jobs")
    crashes: int = 0
    discarded: int = 0
    evaluations: int = _counter("search")
    compressor_calls: int = _counter("search")
    cache_hits: int = _counter("search")
    cache_misses: int = _counter("search")

    def section(self, name: str) -> dict:
        """The counters declared for one ``/stats`` block, in declared order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("section") == name}


@guarded_by("_lock", "_jobs", "_inflight", "_futures", "_history", "stats")
class Scheduler:
    """Resident job scheduler over the FRaZ/stream/cache layers.

    Parameters
    ----------
    workers:
        Concurrent jobs; ``None``/``<= 0`` means one per core (see
        :func:`repro.parallel.executor.resolve_workers`).
    queue_size:
        Bound on undispatched jobs; beyond it :meth:`submit` raises
        :class:`~repro.serve.queue.QueueFull` (backpressure).
    executor:
        Job execution backend: ``"thread"`` runs jobs on the dispatcher
        threads (shared memory, no pickling; GIL-bound), ``"process"``
        runs them in a resident process pool (true multi-core; specs and
        results cross a pickle boundary), ``"auto"`` (default) picks
        ``process`` when the host has more than one core.
    cache:
        ``True`` (default) builds one shared :class:`EvalCache`;
        ``False`` disables caching; an instance is used as-is.
    cache_dir:
        Persistent tier for the auto-built cache; written on
        :meth:`close`.
    intra_executor, intra_workers:
        Backend for the fan-out *inside* one job (search regions, chunk
        batches): ``"serial"`` (default — job-level concurrency already
        comes from ``workers``), ``"thread"`` or ``"process"``.
    stream_threshold:
        File inputs larger than this many bytes are compressed out of
        core via :func:`~repro.stream.pipeline.stream_compress`.
    spill_threshold:
        Inline (``data_b64``) arrays whose decoded size exceeds this many
        bytes are written to a temporary ``.npy`` before process-pool
        dispatch instead of being pickled through the pool pipe.
    max_memory:
        Optional per-job working-set cap forwarded to the stream
        pipeline's chunk planner.
    history:
        Finished jobs kept addressable for ``/status``/``/result``;
        older records are dropped to keep the registry bounded.
    paused:
        Start with workers gated; call :meth:`resume` to begin draining.
    metrics:
        ``True`` (default) builds a private
        :class:`~repro.obs.metrics.MetricsRegistry` and instruments the
        scheduler on it; an instance is used as-is (for embedding into a
        larger registry); ``False`` disables the observability layer —
        :meth:`metrics_text` then raises and ``/stats`` omits the
        ``metrics`` section.
    trace_sample:
        Head-based sampling rate in ``[0, 1]`` for traces rooted here
        (incoming ``traceparent`` contexts carry their own decision).
        ``0`` disables span recording on the hot path; failed jobs still
        leave a forced error span behind.
    trace_exemplars:
        How many slowest traces the span store protects from eviction
        (surfaced under ``trace.exemplars`` in ``/stats``).
    logger:
        A :class:`~repro.obs.tracelog.TraceLogger` for job lifecycle
        events stamped with ``trace_id``/``job_id``; ``None`` (default)
        logs nothing, matching the historical quiet scheduler.
    """

    def __init__(
        self,
        workers: int | None = None,
        queue_size: int = 64,
        executor: str = "auto",
        cache: EvalCache | bool = True,
        cache_dir: str | None = None,
        intra_executor: str = "serial",
        intra_workers: int | None = 1,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        max_memory: int | None = None,
        seed: int = 0,
        history: int = 1024,
        paused: bool = False,
        metrics: MetricsRegistry | bool = True,
        trace_sample: float = 1.0,
        trace_exemplars: int = 5,
        logger: TraceLogger | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.executor_mode = resolve_executor_mode(executor)
        self.seed = seed
        self.stream_threshold = int(stream_threshold)
        self.spill_threshold = int(spill_threshold)
        self.max_memory = max_memory
        self.intra_kind = intra_executor
        self.intra_workers = resolve_workers(intra_workers)
        self._intra = make_executor(intra_executor, self.intra_workers)
        if isinstance(cache, EvalCache):
            self._cache: EvalCache | None = cache
        elif cache:
            self._cache = EvalCache(cache_dir=cache_dir)
        else:
            self._cache = None
        self.stats = SchedulerStats()
        self._queue = JobQueue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._futures: dict[str, Future] = {}
        self._history: deque[str] = deque()
        self._history_limit = max(1, int(history))
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._gate = threading.Event()
        if not paused:
            self._gate.set()
        self._threads: list[threading.Thread] = []
        self._pool: ProcessJobPool | None = None
        self._finish_listeners: list = []
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        if isinstance(metrics, MetricsRegistry):
            self.metrics: MetricsRegistry | None = metrics
        else:
            self.metrics = MetricsRegistry() if metrics else None
        # Tracing is always constructed (a Tracer with sample_rate 0 costs
        # one NullSpan per job); the sample rate is the on/off dial.
        self.tracer = Tracer(store=SpanStore(exemplars=trace_exemplars),
                             sample_rate=trace_sample)
        self.logger = logger if logger is not None else TraceLogger(
            "node", enabled=False)
        self._stage_seconds = None
        self._job_seconds = None
        if self.metrics is not None:
            self._build_metrics(self.metrics)

    # -- observability -----------------------------------------------------
    def _build_metrics(self, reg: MetricsRegistry) -> None:
        """Register the service's instrument panel on ``reg``.

        Counters and gauges are *callback-backed*: they read the same
        :class:`SchedulerStats`/queue/cache/pool numbers ``/stats``
        reports, so the two surfaces cannot drift apart and nothing is
        double-booked on the hot path.  Only the latency histograms are
        event-driven (an observation is information a counter cannot
        reconstruct), fed exclusively from monotonic-clock durations.
        """
        # Callback gauges take torn reads by design (monitoring may
        # observe mid-update values; registration happens before the
        # scheduler is shared).
        stats, queue = self.stats, self._queue  # repro: ignore[LOCK001]
        reg.gauge("build_info",
                  "Build metadata carried in labels (value is always 1)",
                  labels=("version",)).labels(version=__version__).set(1)
        reg.gauge("queue_depth", "Live (undispatched, uncancelled) queued jobs",
                  callback=lambda: len(queue))
        reg.gauge("queue_capacity", "Queue bound before 429 backpressure",
                  callback=lambda: queue.maxsize)
        reg.gauge("jobs_running", "Jobs currently executing",
                  callback=lambda: stats.running)
        reg.gauge("paused", "1 while the worker gate is closed",
                  callback=lambda: int(self.paused))
        reg.gauge("uptime_seconds", "Monotonic seconds since scheduler start",
                  callback=lambda: time.monotonic() - self._started_mono)
        for attr, help_text in (
            ("submitted", "Jobs admitted (including coalesced followers)"),
            ("coalesced", "Jobs attached to an identical in-flight computation"),
            ("completed", "Jobs finished successfully"),
            ("failed", "Jobs that exhausted their retry budget"),
            ("retried", "Re-enqueues after a failed attempt"),
            ("cancelled", "Jobs cancelled before completing"),
            ("streamed", "Jobs routed through the out-of-core pipeline"),
        ):
            reg.counter(f"jobs_{attr}_total", help_text,
                        callback=lambda a=attr: getattr(stats, a))
        reg.counter("queue_enqueued_total", "Jobs that entered the queue",
                    callback=lambda: queue.stats.enqueued)  # repro: ignore[SAN101] torn read by design
        reg.counter("queue_rejected_total", "Submissions refused with backpressure",
                    callback=lambda: queue.stats.rejected)  # repro: ignore[SAN101] torn read by design
        reg.counter("worker_crashes_total", "Attempts lost to a dying worker process",
                    callback=lambda: stats.crashes)
        reg.counter("discarded_results_total",
                    "Results thrown away because their job was tombstoned",
                    callback=lambda: stats.discarded)
        reg.counter("pool_rebuilds_total", "Process-pool reconstructions after crashes",
                    callback=lambda: self._pool.rebuilds if self._pool else 0)  # repro: ignore[SAN101] torn read by design
        for attr, name, help_text in (
            ("tasks_submitted", "pool_tasks_submitted_total",
             "Tasks shipped to the process pool"),
            ("tasks_completed", "pool_tasks_completed_total",
             "Pool tasks that ran to completion (or raised)"),
            ("tasks_cancelled", "pool_tasks_cancelled_total",
             "Pool tasks descheduled before starting"),
        ):
            reg.counter(name, help_text,
                        callback=lambda a=attr: getattr(self._pool, a) if self._pool else 0)  # repro: ignore[SAN101] torn read by design
        reg.counter("search_evaluations_total",
                    "Compressor evaluations requested by searches",
                    callback=lambda: stats.evaluations)
        reg.counter("compressor_calls_total",
                    "Compressor evaluations actually paid (cache misses)",
                    callback=lambda: stats.compressor_calls)
        reg.counter("cache_hits_total", "Search probes answered from the shared cache",
                    callback=lambda: stats.cache_hits)
        reg.counter("cache_misses_total", "Search probes that had to compress",
                    callback=lambda: stats.cache_misses)
        reg.gauge("coalesce_ratio", "Fraction of submitted jobs coalesced away",
                  callback=lambda: stats.coalesced / stats.submitted
                  if stats.submitted else 0.0)
        reg.gauge("cache_hit_ratio", "Fraction of search probes answered for free",
                  callback=lambda: stats.cache_hits / (stats.cache_hits + stats.cache_misses)
                  if (stats.cache_hits + stats.cache_misses) else 0.0)
        if self._cache is not None:
            cache = self._cache
            reg.gauge("evalcache_entries", "Entries resident in the shared cache",
                      callback=lambda: len(cache))
            for attr, kind in (("hits", "counter"), ("misses", "counter"),
                               ("stores", "counter"), ("evictions", "counter"),
                               ("seconds_saved", "counter")):
                register = reg.counter if kind == "counter" else reg.gauge
                register(f"evalcache_{attr}_total",
                         f"Shared-cache {attr.replace('_', ' ')} (parent-process view)",
                         callback=lambda a=attr: getattr(cache.stats, a))  # repro: ignore[SAN101] torn read by design
        self._stage_seconds = reg.histogram(
            "stage_seconds",
            "Per-stage latency: queue_wait/run from the scheduler's monotonic "
            "clock, train/search/encode/decode from report wall times",
            labels=("stage",),
        )
        self._job_seconds = reg.histogram(
            "job_seconds",
            "Client-visible submit-to-finish latency per request kind",
            labels=("kind",),
        )

    def _observe_stage(self, stage: str, seconds: float | None) -> None:
        if self._stage_seconds is not None and seconds is not None:
            self._stage_seconds.labels(stage=stage).observe(seconds)

    def _observe_job(self, job: Job) -> None:
        if self._job_seconds is not None and job.total_seconds is not None:
            self._job_seconds.labels(kind=job.spec.request.kind).observe(job.total_seconds)

    def metrics_text(self) -> str:
        """The Prometheus text exposition (the ``GET /metrics`` body)."""
        if self.metrics is None:
            raise StateError("scheduler was built with metrics disabled")
        return self.metrics.render()

    # -- lifecycle ---------------------------------------------------------
    @property
    def cache(self) -> EvalCache | None:
        """The shared evaluation cache (``None`` when disabled)."""
        return self._cache

    @property
    def paused(self) -> bool:
        return not self._gate.is_set()

    def start(self) -> "Scheduler":
        """Spawn the worker threads and (process mode) the pool (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        if self.executor_mode == "process" and self._pool is None:
            self._pool = ProcessJobPool(
                self.workers,
                initializer=_process_worker_init,
                preload=(__name__,),  # fork workers with repro+numpy loaded
                initargs=(
                    self._cache is not None,
                    self._cache.maxsize if self._cache is not None else None,
                    self.intra_kind,
                    self.intra_workers,
                    self.stream_threshold,
                    self.max_memory,
                    self.seed,
                ),
            )
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def pause(self) -> None:
        """Gate the workers; queued jobs wait, running jobs finish."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the workers; jobs still queued stay queued (unfinished)."""
        self._stop.set()
        self._gate.set()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def close(self) -> None:
        """Stop and persist the cache's disk tier, if it has one."""
        self.stop()
        if self._cache is not None and self._cache.cache_dir is not None:
            self._cache.save()

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------
    def submit(self, spec: JobSpec | dict,
               trace_context: TraceContext | None = None) -> Job:
        """Admit one job: coalesce, or enqueue (raising on backpressure).

        Returns the tracked :class:`Job`.  A coalesced job reports the
        primary's id in ``coalesced_into`` and finishes when it does.

        ``trace_context`` continues an incoming trace (the extracted
        ``traceparent`` header); without one the tracer starts a fresh
        trace and makes the head sampling decision here.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        key = spec.coalesce_key()
        with self._lock:
            if self._stop.is_set() and not self._threads:
                raise SchedulerStoppedError
            job_id = f"j{next(self._ids):06d}"
            primary = self._inflight.get(key)
            if primary is not None and not primary.finished:
                job = Job(id=job_id, spec=spec, coalesced_into=primary.id)
                self._start_job_trace(job, trace_context)
                primary.followers.append(job)
                self._jobs[job_id] = job
                self.stats.submitted += 1
                self.stats.coalesced += 1
                self.logger.event("job_coalesced", trace_id=job.trace_id,
                                  job_id=job.id, primary=primary.id)
                return job
            job = Job(id=job_id, spec=spec)
            self._queue.put(job)  # raises QueueFull before any registration
            self._start_job_trace(job, trace_context)
            self._inflight[key] = job
            self._jobs[job_id] = job
            self.stats.submitted += 1
            self.logger.event("job_submitted", trace_id=job.trace_id,
                              job_id=job.id, kind=spec.request.kind)
            return job

    def _start_job_trace(self, job: Job, context: TraceContext | None) -> None:
        """Open the job's root span (one per job, followers included)."""
        root = self.tracer.start_trace(
            "job", context=context,
            attrs={"job_id": job.id, "kind": job.spec.request.kind})
        if root.is_recording and job.coalesced_into is not None:
            root.set_attr("coalesced_into", job.coalesced_into)
        job.trace_root = root
        job.trace_id = root.trace_id

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Snapshot of every job record the scheduler still remembers."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` finishes; returns the job record."""
        job = self.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        if not job.wait(timeout):
            raise JobTimeoutError(
                f"job {job_id} still {job.state.value} after {timeout}s")
        return job

    def drain(self, timeout: float = 60.0, poll: float = 0.01) -> None:
        """Block until the queue is empty and no job is running."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                idle = len(self._queue) == 0 and self.stats.running == 0
            if idle:
                return
            time.sleep(poll)
        raise JobTimeoutError(f"jobs still pending after {timeout}s")

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job — or, on the process backend, a running one.

        Queued jobs are cancelled in place (the queue entry is skipped and
        eventually compacted).  A *running* job can only be cancelled when
        it executes in a worker process: the pool future is cancelled if
        it has not started yet, otherwise the job is tombstoned — the
        worker finishes its computation but the result is discarded on
        return.  Thread-backend running jobs cannot be stopped.

        Cancelling a primary also cancels its coalesced followers (they
        were waiting on exactly the work being cancelled).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return False
            if job.coalesced_into is not None:
                primary = self._jobs.get(job.coalesced_into)
                if primary is not None and job in primary.followers:
                    primary.followers.remove(job)
                self._cancel_one_locked(job)
                return True
            if job.state is JobState.RUNNING:
                if self._pool is None:
                    return False  # thread backend: a running job must finish
                future = self._futures.get(job_id)
                if future is not None:
                    future.cancel()  # no-op if a worker already picked it up
                # No future yet means the dispatcher is between marking the
                # job RUNNING and submitting to the pool; the tombstone set
                # below makes _dispatch refuse the submission.
            for follower in job.followers[:]:
                self._cancel_one_locked(follower)
            job.followers.clear()
            self._drop_inflight_locked(job)
            was_queued = job.state is JobState.QUEUED
            self._cancel_one_locked(job)
            if was_queued:
                self._queue.cancelled(job)
            return True

    def _cancel_one_locked(self, job: Job) -> None:
        job._finish(JobState.CANCELLED)
        self.stats.cancelled += 1
        self._remember_locked(job)
        self._finish_job_trace(job)
        self._notify_finished([job])

    # -- worker side -------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if not self._gate.wait(timeout=0.05):
                continue
            job = self._queue.get(timeout=0.1)
            if job is None:
                continue
            if self.paused and not self._stop.is_set():
                # Raced a pause: put it back rather than running gated work.
                self._queue.put(job, force=True)
                time.sleep(0.01)
                continue
            self._run(job)

    def _run(self, job: Job) -> None:
        with self._lock:
            if job.state is JobState.CANCELLED:
                return
            job.state = JobState.RUNNING
            job.attempts += 1
            if job.started_at is None:
                job.started_at = time.time()
            if job.started_mono is None:
                job.started_mono = time.monotonic()
                self._observe_stage("queue_wait", job.queue_wait_seconds)
            self.stats.running += 1
        root = job.trace_root
        run_span = None
        if root is not None and root.is_recording:
            # queue_wait already happened — record it retroactively so
            # the trace shows the wait without a span having been open.
            self.tracer.record_span(
                "queue_wait", trace_id=root.trace_id, parent_id=root.span_id,
                start=job.submitted_at, duration=job.queue_wait_seconds)
            run_span = self.tracer.start_span(
                "run", root, attrs={"attempt": job.attempts,
                                    "backend": self.executor_mode})
        self.logger.event("job_started", trace_id=job.trace_id, job_id=job.id,
                          attempt=job.attempts)
        try:
            if run_span is not None:
                with self.tracer.activate(run_span):
                    result, evals, calls, streamed = self._dispatch(job)
            else:
                result, evals, calls, streamed = self._dispatch(job)
        except CancelledError:
            # cancel() descheduled the pool future before it started; the
            # job record was already finished as cancelled there.
            if run_span is not None:
                run_span.record_error("cancelled")
                self.tracer.finish_span(run_span)
            with self._lock:
                self.stats.running -= 1
            return
        except Exception as exc:  # noqa: BLE001 — jobs must not kill workers
            crashed = isinstance(exc, WorkerCrashError)
            if run_span is not None:
                run_span.record_error(exc)
                if crashed:
                    run_span.set_attr("worker_crash", True)
                self.tracer.finish_span(run_span)
            with self._lock:
                self.stats.running -= 1
                if crashed:
                    self.stats.crashes += 1
                    job.crashes += 1
                if job.state is JobState.CANCELLED:
                    # Tombstoned while running: stay cancelled, don't retry.
                    self.stats.discarded += 1
                    return
                if job.attempts <= job.spec.max_retries and not self._stop.is_set():
                    self.stats.retried += 1
                    self.logger.event("job_retried", level="warn",
                                      trace_id=job.trace_id, job_id=job.id,
                                      attempt=job.attempts,
                                      error=f"{type(exc).__name__}: {exc}")
                    job.state = JobState.QUEUED
                    self._queue.put(job, force=True)
                    return
            self._finish(job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            return
        if run_span is not None:
            self.tracer.finish_span(run_span)
        with self._lock:
            self.stats.running -= 1
            if job.state is JobState.CANCELLED:
                # Tombstoned mid-flight: the computation finished anyway;
                # its result is discarded (the cache keeps what it probed —
                # entries are pure, so keeping them is free reuse).
                self.stats.discarded += 1
                return
            self.stats.evaluations += evals
            self.stats.compressor_calls += calls
            self.stats.cache_hits += evals - calls
            self.stats.cache_misses += calls
            if streamed:
                self.stats.streamed += 1
        self._finish(job, JobState.DONE, result=result)

    def add_finish_listener(self, listener) -> None:
        """Call ``listener(job)`` after every terminal transition.

        The hook fires for primaries *and* their coalesced followers
        (each follower is a tracked job with its own id).  The node
        agent uses it to report finished jobs to a gateway (see
        ``repro/serve/agent.py``); listeners must not raise and must not
        block — they run on the worker thread that finished the job,
        sometimes under the scheduler lock (cancellations).
        """
        self._finish_listeners.append(listener)

    def _notify_finished(self, jobs: list[Job]) -> None:
        for listener in self._finish_listeners:
            for job in jobs:
                try:
                    listener(job)
                except Exception as exc:  # noqa: BLE001 - listeners never kill workers
                    self.logger.event(
                        "finish_listener_failed", level="warning",
                        trace_id=job.trace_id, job_id=job.id,
                        error=f"{type(exc).__name__}: {exc}")

    def _finish(self, job: Job, state: JobState, *, result: dict | None = None,
                error: str | None = None) -> None:
        with self._lock:
            self._drop_inflight_locked(job)
            followers = job.followers[:]
            job.followers.clear()
            job._finish(state, result=result, error=error)
            self._remember_locked(job)
            done = state is JobState.DONE
            self.stats.completed += 1 if done else 0
            self.stats.failed += 0 if done else 1
            self._observe_stage("run", job.run_seconds)
            self._observe_job(job)
            if done and result is not None:
                # Stage breakdown rides in the typed report's wire dict, so
                # it survives the process-pool pickle boundary for free.
                for stage, seconds in stage_timings(result).items():
                    self._observe_stage(stage, seconds)
            for follower in followers:
                follower.started_at = job.started_at
                follower.started_mono = job.started_mono
                follower._finish(state, result=result, error=error)
                self._remember_locked(follower)
                # Followers share the primary's computation (stage timings
                # counted once, above) but each felt its own latency.
                self._observe_job(follower)
                self.stats.completed += 1 if done else 0
                self.stats.failed += 0 if done else 1
        for finished in (job, *followers):
            self._finish_job_trace(finished)
        self._notify_finished([job, *followers])

    def _finish_job_trace(self, job: Job) -> None:
        """Close a job's root span; errors force a span even when unsampled."""
        root = job.trace_root
        if root is None:
            return
        failed = job.state is JobState.FAILED
        if root.is_recording:
            if failed:
                root.record_error(job.error or "failed")
            elif job.state is JobState.CANCELLED:
                root.record_error("cancelled")
            self.tracer.finish_span(root)
        elif failed and root.trace_id is not None:
            # Always-sample-on-error: the head decision skipped this
            # trace, but a failure must leave at least its root behind.
            self.tracer.record_span(
                "job", trace_id=root.trace_id, start=job.submitted_at,
                duration=job.total_seconds, status="error", error=job.error,
                attrs={"job_id": job.id, "kind": job.spec.request.kind,
                       "forced_sample": True})
        if job.trace_id is not None:
            self.tracer.store.finish_trace(job.trace_id, job.total_seconds,
                                           job.id)
        self.logger.event(
            "job_failed" if failed else "job_finished",
            level="error" if failed else "info",
            trace_id=job.trace_id, job_id=job.id, state=job.state.value,
            seconds=round(job.total_seconds or 0.0, 6))

    def _drop_inflight_locked(self, job: Job) -> None:
        key = job.spec.coalesce_key()
        if self._inflight.get(key) is job:
            del self._inflight[key]

    def _remember_locked(self, job: Job) -> None:
        """Bound the finished-job registry to the history limit."""
        self._history.append(job.id)
        while len(self._history) > self._history_limit:
            old = self._history.popleft()
            stale = self._jobs.get(old)
            if stale is not None and stale.finished:
                del self._jobs[old]

    # -- execution ---------------------------------------------------------
    def _dispatch(self, job: Job) -> tuple[dict, int, int, bool]:
        """Run one job on the configured backend."""
        if self._pool is None:
            with self.tracer.span("executor_dispatch",
                                  attrs={"backend": "thread"}):
                return self._execute(job)
        spec, spill = self._spill_inline(job.spec)
        snapshot = self._cache.export_entries() if self._cache is not None else None
        generation = None
        # Ship the dispatch span's context across the pickle boundary so
        # the worker's stage/iteration spans re-parent onto this trace.
        # Unsampled jobs ship nothing: the worker then runs untraced.
        dispatch_cm = self.tracer.span("executor_dispatch",
                                       attrs={"backend": "process"})
        try:
            with dispatch_cm as dispatch_span:
                trace_context = (dispatch_span.context.to_dict()
                                 if dispatch_span.is_recording else None)
                with self._lock:
                    if job.state is JobState.CANCELLED:
                        # Tombstoned between the RUNNING transition and this
                        # point: never reaches the pool.
                        raise CancelledError()
                    future, generation = self._pool.submit(
                        _process_execute, spec, snapshot,
                        trace_context=trace_context)
                    self._futures[job.id] = future
                payload = future.result()
                if isinstance(payload, TracedResult):
                    self.tracer.store.add_many(payload.spans)
                    payload = payload.value
                result, evals, calls, streamed, delta = payload
        except BrokenProcessPool as exc:
            self._pool.crashed(generation)
            raise WorkerCrashError(f"worker process died mid-job: {exc}") from exc
        finally:
            with self._lock:
                self._futures.pop(job.id, None)
            if spill is not None:
                try:
                    os.unlink(spill)
                except OSError:  # repro: ignore[EXC002] temp may already be gone
                    pass
        if self._cache is not None:
            self._cache.merge_entries(delta)
        if spill is not None:
            # The spill path is scheduler-internal — never leak it to the
            # client (it is already unlinked).  Compress payloads nest the
            # tuning record, which repeats the input field.
            for section in (result, result.get("tuning")):
                if isinstance(section, dict) and section.get("input") == spill:
                    section["input"] = None
        return result, evals, calls, streamed

    def _spill_inline(self, spec: JobSpec) -> tuple[JobSpec, str | None]:
        """Swap an oversized inline array for a temp-file input.

        Returns ``(dispatchable spec, spill path or None)``; the caller
        unlinks the spill once the job leaves the pool.  Keeping big
        arrays out of the job pickle bounds the pool pipe traffic, and a
        file input also becomes eligible for the out-of-core stream route.
        """
        request = spec.request
        if request.data_b64 is None:
            return spec, None
        # The threshold is documented in decoded (array) bytes; base64 is
        # 4/3 the size of what it encodes.
        if len(request.data_b64) * 3 // 4 <= self.spill_threshold:
            return spec, None
        data = request.load_array()
        fd, path = tempfile.mkstemp(prefix="repro-serve-spill-", suffix=".npy")
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, data, allow_pickle=False)
        spilled = replace(request, data_b64=None, input=path)
        return replace(spec, request=spilled), path

    def _execute(self, job: Job) -> tuple[dict, int, int, bool]:
        """Thread backend: run the job on this dispatcher thread."""
        return _execute_spec(
            job.spec,
            cache=self._cache,
            executor=self._intra,
            intra_workers=self.intra_workers,
            stream_threshold=self.stream_threshold,
            max_memory=self.max_memory,
            seed=self.seed,
        )

    # -- introspection -----------------------------------------------------
    def trace_payload(self, ref: str) -> dict | None:
        """Spans for one trace, addressed by job id *or* raw trace id.

        The ``GET /trace/<ref>`` body; ``None`` when the reference is
        unknown or the trace was never sampled/already evicted.
        """
        job = self.get(ref)
        if job is not None:
            trace_id = job.trace_id
        else:
            trace_id = ref if len(ref) == 32 else None
        if trace_id is None:
            return None
        spans = self.tracer.store.get(trace_id)
        if spans is None:
            return None
        return {
            "trace_id": trace_id,
            "job_id": job.id if job is not None else None,
            "complete": job.finished if job is not None else None,
            "spans": spans,
        }

    def stats_snapshot(self) -> "SchedulerStats":
        """A point-in-time copy of the counters, taken under the lock.

        Heartbeat agents and other out-of-process readers use this
        instead of the live ``stats`` field (which the scheduler lock
        guards).
        """
        with self._lock:
            return copy.copy(self.stats)

    def stats_payload(self) -> dict:
        """JSON-ready service statistics (the ``/stats`` body).

        The ``executor`` section: ``mode`` is the job-level backend
        (``"thread"``/``"process"``), ``intra`` the fan-out backend
        inside one job; ``worker_crashes`` counts attempts lost to a
        dying worker process, ``pool_rebuilds`` the pool reconstructions
        those crashes forced, ``discarded_results`` results that
        completed after their job was cancelled (tombstoned).  The
        process backend adds its pool's lifetime task-flow block
        (:meth:`~repro.parallel.executor.ProcessJobPool.task_counts`).
        """
        with self._lock:
            executor = {
                "mode": self.executor_mode,
                "intra": self.intra_kind,
                "worker_crashes": self.stats.crashes,
                "pool_rebuilds": 0,
                "discarded_results": self.stats.discarded,
            }
            if self._pool is not None:
                executor["pool_rebuilds"] = self._pool.rebuild_count()
                executor.update(self._pool.task_counts())
            payload = {
                "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
                "workers": self.workers,
                "paused": self.paused,
                "executor": executor,
                "queue": self._queue.stats_dict(),
                "jobs": self.stats.section("jobs"),
                "search": self.stats.section("search"),
                "cache": None,
                "metrics": None,
                "trace": self.tracer.stats_dict(),
            }
            if self._cache is not None:
                payload["cache"] = self._cache.stats_dict()
        # Snapshot outside the scheduler lock: the registry has its own
        # lock, and callback gauges re-enter queue/pool locks.
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
        return payload
