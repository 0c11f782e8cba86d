"""Dependency-free distributed tracing: spans, context propagation, storage.

PR 6's metrics answer "how is the fleet doing on aggregate"; this module
answers "where did *this* job spend its time".  A :class:`Span` is one
timed operation; spans link into a tree by parent id; every span in one
request's tree shares a ``trace_id`` that travels across process and
host boundaries in a W3C-``traceparent``-style HTTP header
(:meth:`TraceContext.to_traceparent`).  For the FRaZ workload the tree
bottoms out in one span **per search iteration**, tagged with the probed
bound and observed ratio — a trace of a tune job reads as the paper's
convergence log (Fig. 6) for that exact request.

Clock discipline mirrors :mod:`repro.serve.jobs`: span *start* times are
wall clock (``time.time()`` — the only clock that aligns across
processes and hosts), span *durations* are ``time.perf_counter()``
deltas measured inside one process (wall clocks step under NTP; a
duration must never cross a step).  Waterfall offsets computed from wall
starts are therefore honest to NTP skew, while widths are exact.

Three pieces:

* :class:`Tracer` — creates spans, owns the head-based sampling decision
  (made once at trace start; an unsampled trace costs one
  :class:`NullSpan` allocation and nothing else), and records finished
  spans into its store.  The *ambient* API (:func:`span`,
  :func:`current_span`, :meth:`Tracer.activate`) uses ``contextvars`` so
  deep code — the ratio closure, the stage executors — can open child
  spans without threading a tracer through every signature.
* :class:`SpanStore` — bounded in-memory per-trace assembly, with
  slowest-N *exemplar* retention: the worst traces are protected from
  eviction and surfaced in ``/stats`` so a latency regression always
  comes with a trace to read.
* :func:`collect_spans` / :func:`install_collector` — the process-pool
  boundary: a worker process installs a private collecting tracer from a
  pickled :class:`TraceContext`, runs the job, and ships the finished
  span dicts back with the result (see
  :class:`repro.parallel.executor.ProcessJobPool`).

Everything here is stdlib-only on purpose: :mod:`repro.pressio.closures`
sits at the bottom of the dependency graph and must be able to import
the ambient helpers without dragging in the service stack.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.util.concurrency import guarded_by

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "Span",
    "NullSpan",
    "SpanStore",
    "Tracer",
    "span",
    "current_span",
    "current_context",
    "install_collector",
    "collect_spans",
    "render_waterfall",
]

#: The HTTP header spans ride in (W3C Trace Context wire format:
#: ``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``).
TRACEPARENT_HEADER = "traceparent"

_FLAG_SAMPLED = 0x01


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return _new_id(16)


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return _new_id(8)


def _is_hex(s: str, length: int) -> bool:
    if len(s) != length:
        return False
    try:
        int(s, 16)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class TraceContext:
    """What crosses a boundary: trace identity + the sampling decision."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        """Serialise to the ``traceparent`` header value."""
        flags = _FLAG_SAMPLED if self.sampled else 0
        return f"00-{self.trace_id}-{self.span_id}-{flags:02x}"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` on anything malformed.

        Tolerant by design: a bad header from a foreign client must
        degrade to "start a fresh trace", never to a 500.
        """
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if not (_is_hex(version, 2) and _is_hex(trace_id, 32)
                and _is_hex(span_id, 16) and _is_hex(flags, 2)):
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   sampled=bool(int(flags, 16) & _FLAG_SAMPLED))

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_dict(cls, payload: dict | None) -> "TraceContext | None":
        if not isinstance(payload, dict) or "trace_id" not in payload:
            return None
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=str(payload.get("span_id") or new_span_id()),
                   sampled=bool(payload.get("sampled", True)))


class Span:
    """One timed operation in a trace tree.

    Start is wall clock, duration is a ``perf_counter`` delta — see the
    module docstring for why the two clocks split.  Spans are not
    thread-safe; one span belongs to the thread (or worker process) that
    opened it.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start",
                 "duration", "attrs", "status", "error", "node_id", "_t0")

    is_recording = True

    def __init__(self, name: str, trace_id: str, parent_id: str | None = None,
                 attrs: dict | None = None, node_id: str | None = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self.duration: float | None = None
        self.attrs: dict = dict(attrs) if attrs else {}
        self.status = "ok"
        self.error: str | None = None
        self.node_id = node_id
        self._t0 = time.perf_counter()

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, sampled=True)

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def record_error(self, error: BaseException | str) -> None:
        self.status = "error"
        if isinstance(error, BaseException):
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.error = str(error)

    def end(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6) if self.duration is not None else None,
            "status": self.status,
        }
        if self.attrs:
            # Shared, not copied: RatioFunction.tag_last_probe sets
            # ``stop_reason`` after the span has ended and been stored.
            out["attrs"] = self.attrs
        if self.error is not None:
            out["error"] = self.error
        if self.node_id is not None:
            out["node_id"] = self.node_id
        return out


class NullSpan:
    """The no-op stand-in for an unsampled trace.

    Carries the (unsampled) :class:`TraceContext` so propagation still
    works — downstream hops must *also* decide not to record — but every
    mutation is a no-op, which is what makes ``--trace-sample 0``
    indistinguishable from tracing-not-built on the hot path.
    """

    __slots__ = ("_context",)

    is_recording = False
    status = "ok"
    error = None
    duration = None
    attrs: dict = {}

    def __init__(self, context: TraceContext | None = None) -> None:
        self._context = context

    @property
    def context(self) -> TraceContext:
        if self._context is None:
            return TraceContext(new_trace_id(), new_span_id(), sampled=False)
        return self._context

    @property
    def trace_id(self) -> str | None:
        return self._context.trace_id if self._context is not None else None

    @property
    def span_id(self) -> str | None:
        return self._context.span_id if self._context is not None else None

    def set_attr(self, key: str, value) -> None:
        pass

    def record_error(self, error) -> None:
        pass

    def end(self) -> None:
        pass

    def to_dict(self) -> dict:  # pragma: no cover - never stored
        return {}


@guarded_by("_lock", "_traces", "_exemplars", "_dropped")
class SpanStore:
    """Bounded per-trace span assembly with slow-trace exemplar retention.

    Traces evict oldest-first once ``max_traces`` is exceeded — except
    the current slowest-``exemplars`` traces, which are pinned until a
    slower trace displaces them.  That way ``/trace/<id>`` keeps
    answering for exactly the jobs an operator most wants to read.
    """

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 2048,
                 exemplars: int = 5) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.exemplar_limit = max(0, int(exemplars))
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        #: trace_id -> {"trace_id", "job_id", "seconds"} for the slowest N.
        self._exemplars: dict[str, dict] = {}
        self._dropped = 0
        self._lock = threading.Lock()

    def add(self, span_dict: dict) -> None:
        """Record one finished span (idempotent per span id)."""
        trace_id = span_dict.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
            if len(spans) >= self.max_spans_per_trace:
                self._dropped += 1
                return
            spans.append(span_dict)
            self._evict_locked()

    def add_many(self, span_dicts) -> None:
        for span_dict in span_dicts or []:
            self.add(span_dict)

    def get(self, trace_id: str) -> list[dict] | None:
        """Every recorded span of a trace (insertion order), or ``None``."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return list(spans) if spans is not None else None

    def finish_trace(self, trace_id: str, seconds: float | None,
                     job_id: str | None = None) -> None:
        """Mark a trace complete and enter it in the exemplar contest."""
        if seconds is None or self.exemplar_limit == 0:
            return
        with self._lock:
            if trace_id not in self._traces:
                return
            current = self._exemplars.get(trace_id)
            if current is not None:
                if seconds > current["seconds"]:
                    current["seconds"] = round(seconds, 6)
                return
            if len(self._exemplars) < self.exemplar_limit:
                self._exemplars[trace_id] = {
                    "trace_id": trace_id, "job_id": job_id,
                    "seconds": round(seconds, 6)}
                return
            slowest_floor = min(self._exemplars.values(),
                                key=lambda e: e["seconds"])
            if seconds > slowest_floor["seconds"]:
                del self._exemplars[slowest_floor["trace_id"]]
                self._exemplars[trace_id] = {
                    "trace_id": trace_id, "job_id": job_id,
                    "seconds": round(seconds, 6)}
            self._evict_locked()

    def exemplars(self) -> list[dict]:
        """Slowest retained traces, slowest first (the ``/stats`` block)."""
        with self._lock:
            return sorted((dict(e) for e in self._exemplars.values()),
                          key=lambda e: -e["seconds"])

    def _evict_locked(self) -> None:
        while len(self._traces) > self.max_traces:
            for trace_id in self._traces:
                if trace_id not in self._exemplars:
                    del self._traces[trace_id]
                    self._dropped += 1
                    break
            else:
                # Everything left is an exemplar: allow the overflow
                # rather than evicting the traces we promised to keep.
                return

    def stats_dict(self) -> dict:
        with self._lock:
            return {
                "traces": len(self._traces),
                "max_traces": self.max_traces,
                "dropped_spans": self._dropped,
                "exemplars": sorted(
                    (dict(e) for e in self._exemplars.values()),
                    key=lambda e: -e["seconds"]),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ---------------------------------------------------------------------------
# Ambient context: one contextvar shared by every tracer in the process.
# contextvars are per-thread (and copied into tasks), so dispatcher
# threads trace concurrently without seeing each other's spans.
# ---------------------------------------------------------------------------

_CURRENT: contextvars.ContextVar[tuple["Tracer", Span | NullSpan] | None] = (
    contextvars.ContextVar("repro_trace_current", default=None))


def current_span() -> Span | NullSpan | None:
    """The ambient span of this thread/context, if a tracer is active."""
    state = _CURRENT.get()
    return state[1] if state is not None else None


def current_context() -> TraceContext | None:
    """The ambient span's propagation context, if any."""
    sp = current_span()
    return sp.context if sp is not None else None


class _AmbientSpan:
    """Context manager for :func:`span` — no-op when nothing is active."""

    __slots__ = ("name", "attrs", "_span", "_token")

    def __init__(self, name: str, attrs: dict | None) -> None:
        self.name = name
        self.attrs = attrs
        self._span: Span | NullSpan | None = None
        self._token = None

    def __enter__(self) -> Span | NullSpan:
        state = _CURRENT.get()
        if state is None:
            self._span = NullSpan()
            return self._span
        tracer, parent = state
        self._span = tracer.start_span(self.name, parent=parent, attrs=self.attrs)
        self._token = _CURRENT.set((tracer, self._span))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
        sp = self._span
        if sp is None or not sp.is_recording:
            return
        if exc is not None:
            sp.record_error(exc)
        state = _CURRENT.get()
        tracer = state[0] if state is not None else None
        if tracer is not None:
            tracer.finish_span(sp)


def span(name: str, attrs: dict | None = None) -> _AmbientSpan:
    """Open a child of the ambient span (no-op without an active tracer).

    This is the hook deep code uses::

        with span("search_iteration") as sp:
            ratio = probe(bound)
            sp.set_attr("bound", bound)
            sp.set_attr("ratio", ratio)
    """
    return _AmbientSpan(name, attrs)


class _Activation:
    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", sp: Span | NullSpan) -> None:
        self._tracer = tracer
        self._span = sp
        self._token = None

    def __enter__(self) -> Span | NullSpan:
        self._token = _CURRENT.set((self._tracer, self._span))
        return self._span

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)


class Tracer:
    """Creates spans, owns sampling, records finished spans into a store.

    ``sample_rate`` drives the *head-based* decision: made exactly once,
    when a trace starts with no incoming context.  A trace arriving with
    a ``traceparent`` header inherits the caller's decision — the whole
    point of propagating the flag is that a tree is recorded everywhere
    or nowhere.
    """

    def __init__(self, store: SpanStore | None = None, sample_rate: float = 1.0,
                 node_id: str | None = None, seed: int | None = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate!r}")
        self.store = store if store is not None else SpanStore()
        self.sample_rate = float(sample_rate)
        self.node_id = node_id
        self._rng = random.Random(seed)
        self.started = 0
        self.sampled = 0

    # -- sampling ----------------------------------------------------------
    def _decide(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    # -- span lifecycle ----------------------------------------------------
    def start_trace(self, name: str, context: TraceContext | None = None,
                    attrs: dict | None = None) -> Span | NullSpan:
        """Open a trace-root span (locally rooted, or continuing ``context``).

        With an incoming context the new span becomes a *child* of the
        remote span and follows its sampling flag; without one, this
        tracer makes the head decision.
        """
        self.started += 1
        if context is not None:
            sampled = context.sampled
            trace_id, parent_id = context.trace_id, context.span_id
        else:
            sampled = self._decide()
            trace_id, parent_id = new_trace_id(), None
        if not sampled:
            return NullSpan(TraceContext(trace_id, parent_id or new_span_id(),
                                         sampled=False))
        self.sampled += 1
        return Span(name, trace_id, parent_id=parent_id, attrs=attrs,
                    node_id=self.node_id)

    def start_span(self, name: str, parent: Span | NullSpan,
                   attrs: dict | None = None) -> Span | NullSpan:
        """Open a child span (a :class:`NullSpan` parent begets null children)."""
        if not parent.is_recording:
            return parent if isinstance(parent, NullSpan) else NullSpan()
        return Span(name, parent.trace_id, parent_id=parent.span_id,
                    attrs=attrs, node_id=self.node_id)

    def finish_span(self, sp: Span | NullSpan) -> None:
        """End a span and record it (no-op for null spans)."""
        if not sp.is_recording:
            return
        sp.end()
        self.store.add(sp.to_dict())

    def record_span(self, name: str, *, trace_id: str,
                    parent_id: str | None = None, start: float | None = None,
                    duration: float | None = None, attrs: dict | None = None,
                    status: str = "ok", error: str | None = None) -> dict:
        """Record an already-measured span (retro-spans: queue waits,
        durations measured by other clocks, forced error exemplars).

        Bypasses sampling deliberately — this is how *always sample on
        error* works: the caller records a minimal span for a trace the
        head decision skipped.
        """
        span_dict = {
            "trace_id": trace_id,
            "span_id": new_span_id(),
            "parent_id": parent_id,
            "name": name,
            "start": round(start if start is not None else time.time(), 6),
            "duration": round(duration, 6) if duration is not None else None,
            "status": status,
        }
        if attrs:
            span_dict["attrs"] = attrs
        if error is not None:
            span_dict["error"] = error
        if self.node_id is not None:
            span_dict["node_id"] = self.node_id
        self.store.add(span_dict)
        return span_dict

    # -- ambient installation ----------------------------------------------
    def activate(self, sp: Span | NullSpan) -> _Activation:
        """Make ``sp`` the ambient span for a ``with`` block (this thread)."""
        return _Activation(self, sp)

    def span(self, name: str, parent: Span | NullSpan | None = None,
             attrs: dict | None = None) -> "_TracerSpan":
        """Context manager: open/close a child of ``parent`` (or of the
        ambient span).  With neither, the span is a no-op — roots are
        only ever created deliberately via :meth:`start_trace`."""
        return _TracerSpan(self, name, parent, attrs)

    def stats_dict(self) -> dict:
        return {"started": self.started, "sampled": self.sampled,
                "sample_rate": self.sample_rate, **self.store.stats_dict()}


class _TracerSpan:
    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span", "_token")

    def __init__(self, tracer: Tracer, name: str,
                 parent: Span | NullSpan | None, attrs: dict | None) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Span | NullSpan | None = None
        self._token = None

    def __enter__(self) -> Span | NullSpan:
        parent = self._parent if self._parent is not None else current_span()
        if parent is None:
            self._span = NullSpan()
        else:
            self._span = self._tracer.start_span(self._name, parent,
                                                 attrs=self._attrs)
        self._token = _CURRENT.set((self._tracer, self._span))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
        if self._span is not None:
            if exc is not None and self._span.is_recording:
                self._span.record_error(exc)
            self._tracer.finish_span(self._span)


# ---------------------------------------------------------------------------
# Process-pool boundary helpers
# ---------------------------------------------------------------------------

def install_collector(context_dict: dict | None) -> tuple[Tracer, Span | NullSpan,
                                                          contextvars.Token]:
    """Install an ambient collecting tracer in a worker process.

    ``context_dict`` is a pickled :meth:`TraceContext.to_dict`.  Returns
    ``(tracer, root span, reset token)``; pair with :func:`collect_spans`.
    """
    ctx = TraceContext.from_dict(context_dict)
    tracer = Tracer(store=SpanStore(max_traces=4))
    root = tracer.start_trace("worker", context=ctx)
    token = _CURRENT.set((tracer, root))
    return tracer, root, token


def collect_spans(tracer: Tracer, root: Span | NullSpan,
                  token: contextvars.Token,
                  error: BaseException | None = None) -> list[dict]:
    """Finish the collector's root span and return every recorded span."""
    _CURRENT.reset(token)
    if error is not None and root.is_recording:
        root.record_error(error)
    tracer.finish_span(root)
    if root.trace_id is None:
        return []
    return tracer.store.get(root.trace_id) or []


# ---------------------------------------------------------------------------
# Waterfall rendering (the `repro trace` CLI body)
# ---------------------------------------------------------------------------

def render_waterfall(spans: list[dict], width: int = 32) -> str:
    """Render a span list as an indented waterfall tree with self-times.

    Offsets come from wall-clock starts (the only cross-process axis),
    widths from measured durations.  *Self* time is a span's duration
    minus its direct children's — the classic "where did the time
    actually go" column.
    """
    if not spans:
        return "(no spans)"
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (e.g. remote parent not stitched in)
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("start") or 0.0)

    t0 = min(s.get("start") or 0.0 for s in spans)
    horizon = max((s.get("start") or 0.0) + (s.get("duration") or 0.0)
                  for s in spans)
    total = max(horizon - t0, 1e-9)

    lines = [f"trace {spans[0].get('trace_id', '?')} "
             f"({len(spans)} spans, {total * 1000:.1f} ms)"]

    def emit(s: dict, depth: int) -> None:
        start = (s.get("start") or 0.0) - t0
        duration = s.get("duration") or 0.0
        kids = children.get(s["span_id"], [])
        self_time = max(0.0, duration - sum(k.get("duration") or 0.0
                                            for k in kids))
        lo = min(width - 1, int(width * start / total))
        hi = min(width, max(lo + 1, int(width * (start + duration) / total)))
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        name = "  " * depth + s.get("name", "?")
        node = f" @{s['node_id']}" if s.get("node_id") else ""
        status = " !" + (s.get("error") or "error") if s.get("status") == "error" else ""
        attrs = s.get("attrs") or {}
        tag = ""
        if attrs:
            inner = ", ".join(f"{k}={_fmt_attr(v)}" for k, v in sorted(attrs.items()))
            tag = f" [{inner}]"
        lines.append(f"  |{bar}| {duration * 1000:8.1f} ms "
                     f"(self {self_time * 1000:7.1f} ms)  {name}{node}{tag}{status}")
        for kid in kids:
            emit(kid, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


def _fmt_attr(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
