"""Typed job records for the compression service.

A :class:`JobSpec` is the *request*: the shared
:class:`~repro.api.request.CompressionRequest` plus the two scheduling
fields only the service cares about (``priority`` and ``max_retries``).
All semantic validation lives in the request type, and the wire dict is
the request's own with the scheduling fields appended, so a request
submitted via the Python facade, the CLI, or HTTP JSON is the *same
object* by the time the scheduler sees it.  Legacy flat JSON
(pre-``options``/``resources``) is still accepted: the new fields simply
default.

A :class:`Job` is the *lifecycle record* the scheduler tracks for it:
state transitions, attempt counts against the retry budget, timestamps,
and the eventual result or error.

Requests are deduplicated by :meth:`JobSpec.coalesce_key` — the same
``(data, compressor, bound-or-target)`` identity the
:class:`~repro.cache.EvalCache` keys individual probes by, lifted to
whole requests: two specs with equal keys describe byte-identical work,
so the scheduler computes one and fans the result to both (see
``repro/serve/scheduler.py``).

Lifecycle::

    queued ──> running ──> done
      │           │  └───> failed      (after the retry budget is spent)
      │           └──────> queued      (retry: attempt < max_retries + 1)
      └──────────────────> cancelled   (only before running)

A job submitted while an identical one is queued/running never enters
the queue: it records ``coalesced_into`` and finishes when its primary
does.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.api.request import CompressionRequest, Resources, encode_array
from repro.errors import RequestError

__all__ = [
    "JobState",
    "JobSpec",
    "Job",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "PRIORITY_NAMES",
]

#: Lower numbers run sooner.  Named levels accepted in JSON requests.
PRIORITY_HIGH = -10
PRIORITY_NORMAL = 0
PRIORITY_LOW = 10

#: Wire names for the levels — the one mapping the CLI and the JSON
#: protocol both resolve through.
PRIORITY_NAMES = {
    "high": PRIORITY_HIGH,
    "normal": PRIORITY_NORMAL,
    "low": PRIORITY_LOW,
}

#: Wire keys that belong to the scheduler, not to the request.
_SCHEDULING_FIELDS = ("priority", "max_retries")


class JobState(str, enum.Enum):
    """Where a job is in its lifecycle (values are the wire strings)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in _FINISHED


_FINISHED = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED})


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work: a validated request plus scheduling.

    ``request`` carries everything that defines the work and owns its
    validation.  ``priority`` orders the queue (lower runs sooner; see
    :data:`PRIORITY_HIGH`/:data:`PRIORITY_NORMAL`/:data:`PRIORITY_LOW`).
    ``max_retries`` is the number of *additional* attempts the scheduler
    may make after a failure.
    """

    request: CompressionRequest
    priority: int = PRIORITY_NORMAL
    max_retries: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise RequestError(f"priority must be an int, got {self.priority!r}")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise RequestError(f"max_retries must be an int >= 0, got {self.max_retries!r}")

    # -- data access ------------------------------------------------------
    def load_array(self) -> np.ndarray:
        """Materialise the job's data (inline bytes or ``.npy`` path)."""
        return self.request.load_array()

    @staticmethod
    def encode_array(data: np.ndarray) -> str:
        """Base64-``.npy`` encoding for the ``data_b64`` field."""
        return encode_array(data)

    # -- identity ----------------------------------------------------------
    def data_token(self) -> str:
        """Cheap, stable identity of the job's data for coalescing.

        Inline data hashes its exact bytes (the same digest family
        :func:`repro.cache.keys.fingerprint_array` uses).  Path inputs use
        ``(realpath, size, mtime_ns)`` so a rewritten file stops matching
        without the server having to read it at submit time.
        """
        request = self.request
        if request.data_b64 is not None:
            return hashlib.blake2b(request.data_b64.encode("ascii"), digest_size=16).hexdigest()
        path = os.path.realpath(request.input)
        try:
            st = os.stat(path)
            return f"{path}:{st.st_size}:{st.st_mtime_ns}"
        except OSError:
            return path

    def coalesce_key(self) -> str:
        """Request-level dedup key: equal keys describe identical work.

        Everything that changes the computed bytes participates — data
        identity, compressor and its options, targets, tolerances, the
        output path, stream routing and chunking, the memory cap that
        sizes chunks — while scheduling hints (priority, retry budget,
        worker counts) do not: a high- and a low-priority request for
        the same work coalesce.
        """
        request = self.request
        parts = (
            request.kind,
            request.compressor,
            repr(sorted(request.options.items())),
            repr(request.target_ratio),
            repr(request.error_bound),
            repr(request.tolerance),
            repr(request.max_error_bound),
            repr(request.stream),
            repr(sorted(request.stream_options.items())),
            repr(request.resources.max_memory),
            request.output or "",
            self.data_token(),
        )
        return hashlib.blake2b("|".join(parts).encode(), digest_size=16).hexdigest()

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict: the request serialization + scheduling fields."""
        return {**self.request.to_dict(), "priority": self.priority,
                "max_retries": self.max_retries}

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Build a spec from a JSON request body, rejecting unknown keys.

        Accepts both the legacy flat format (no ``options``/
        ``stream_options``/``resources`` keys — they default) and a full
        :meth:`CompressionRequest.to_dict` body with optional scheduling
        fields on top.
        """
        if not isinstance(payload, dict):
            raise RequestError(f"job spec must be a JSON object, got {type(payload).__name__}")
        request_fields = {f.name for f in fields(CompressionRequest)}
        known = request_fields | set(_SCHEDULING_FIELDS)
        unknown = set(payload) - known
        if unknown:
            raise RequestError(f"unknown job spec fields: {sorted(unknown)}")
        data = dict(payload)
        prio = data.get("priority")
        if isinstance(prio, str):
            try:
                data["priority"] = PRIORITY_NAMES[prio.lower()]
            except KeyError:
                raise RequestError(
                    f"priority must be an int or one of {sorted(PRIORITY_NAMES)}, "
                    f"got {prio!r}"
                ) from None
        if "kind" not in data:
            raise RequestError(
                "job spec requires a kind ('tune', 'compress', 'decompress' or 'stream')"
            )
        scheduling = {k: data.pop(k) for k in _SCHEDULING_FIELDS if k in data}
        return cls(CompressionRequest.from_dict(data), **scheduling)


@dataclass
class Job:
    """Scheduler-side lifecycle record for one submitted spec.

    Timestamps come in two families.  The ``*_at`` fields are wall-clock
    (``time.time()``) and exist for *display* — operators correlating a
    job with logs need civil time.  The ``*_mono`` fields are their
    ``time.monotonic()`` twins and are the only inputs to *duration*
    arithmetic (queue wait, run time, the latency histograms): wall
    clocks step under NTP corrections and DST, and a duration computed
    across a step is garbage — negative, or hours long for a job that
    ran in milliseconds.
    """

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    submitted_mono: float = field(default_factory=time.monotonic, repr=False)
    started_mono: float | None = field(default=None, repr=False)
    finished_mono: float | None = field(default=None, repr=False)
    attempts: int = 0
    #: Attempts lost to a dying worker *process* (vs. exceptions the job
    #: itself raised); only the process execution backend increments this.
    crashes: int = 0
    result: dict | None = None
    error: str | None = None
    #: Set on followers: the id of the primary job this one coalesced onto.
    coalesced_into: str | None = None
    #: Set on primaries: followers to fan the result out to on completion.
    followers: list["Job"] = field(default_factory=list, repr=False)
    #: Trace identity (set at submit when the scheduler traces): the id
    #: clients correlate logs/spans with, and the root span record.
    trace_id: str | None = None
    trace_root: object = field(default=None, repr=False)
    _finished_event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.state.finished

    @property
    def queue_wait_seconds(self) -> float | None:
        """Monotonic submit→start wait (``None`` until dispatched)."""
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.submitted_mono)

    @property
    def run_seconds(self) -> float | None:
        """Monotonic start→finish duration (``None`` until finished)."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return max(0.0, self.finished_mono - self.started_mono)

    @property
    def total_seconds(self) -> float | None:
        """Monotonic submit→finish latency — what a waiting client felt."""
        if self.finished_mono is None:
            return None
        return max(0.0, self.finished_mono - self.submitted_mono)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished_event.wait(timeout)

    def _finish(self, state: JobState, *, result: dict | None = None,
                error: str | None = None) -> None:
        """Terminal transition (scheduler-internal; fires the event)."""
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self._finished_event.set()

    def status_dict(self) -> dict:
        """JSON-ready status record (``/status/<id>`` body)."""
        return {
            "job_id": self.id,
            "kind": self.spec.request.kind,
            "state": self.state.value,
            "priority": self.spec.priority,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "max_retries": self.spec.max_retries,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": _round6(self.queue_wait_seconds),
            "run_seconds": _round6(self.run_seconds),
            "total_seconds": _round6(self.total_seconds),
            "coalesced_into": self.coalesced_into,
            "trace_id": self.trace_id,
            "error": self.error,
        }


def _round6(value: float | None) -> float | None:
    return round(value, 6) if value is not None else None
