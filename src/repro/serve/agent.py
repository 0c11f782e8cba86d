"""Node-side gateway agent: registration, heartbeats, and job acks.

A :class:`NodeAgent` rides inside a ``repro serve`` process started with
``--register <gateway-url>``.  It owns the node's half of the gateway
protocol (see :mod:`repro.gateway.server`):

* **register** — ``POST /register`` with the node's id and advertised
  URL, retried until the gateway answers (nodes and gateway can start in
  any order).  The response carries the fleet-wide heartbeat interval.
* **heartbeat** — ``POST /heartbeat/<node>`` every interval.  The body
  lists locally-finished job ids the gateway has not acknowledged yet
  (the *job-ack protocol*: the gateway fetches each result, caches it,
  and acks; un-acked jobs are exactly what failover requeues if this
  node dies) plus a small stats summary for the gateway's fleet view.
* **drain awareness** — the heartbeat response carries the node's state
  as the gateway sees it; when an operator drains the node the agent
  flips :attr:`draining`, which ``/stats`` (``shard`` section) and the
  ``repro_node_draining`` gauge surface, so both sides of the
  transition are observable.
* **unregister** — a clean shutdown tells the gateway, which requeues
  anything still owed instead of waiting out the death timer.

The agent is deliberately dumb about failures: any error talking to the
gateway just means "try again next interval" (and a 404 on heartbeat
means "the gateway forgot me — re-register").  The gateway's reaper owns
the authoritative liveness decision; the agent's only job is to keep the
evidence flowing.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.serve.client import ProtocolError, ServiceClient, ServiceError
from repro.serve.scheduler import Scheduler
from repro.util.concurrency import guarded_by

__all__ = ["NodeAgent", "DEFAULT_HEARTBEAT_INTERVAL"]

DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Finished-but-unacked ids kept for the gateway; beyond this the oldest
#: are dropped (a gateway gone for thousands of jobs will requeue them).
MAX_PENDING_ACKS = 4096


@guarded_by("_lock", "_pending", "_pending_set")
class NodeAgent:
    """One node's registration + heartbeat client against a gateway."""

    def __init__(
        self,
        scheduler: Scheduler,
        gateway_url: str,
        node_id: str,
        advertise_url: str,
        heartbeat_interval: float | None = None,
        timeout: float = 5.0,
    ) -> None:
        if not node_id or "/" in node_id:
            raise ValueError(f"invalid node id {node_id!r}")
        self.scheduler = scheduler
        self.gateway_url = gateway_url.rstrip("/")
        self.node_id = node_id
        self.advertise_url = advertise_url.rstrip("/")
        #: ``None`` defers to the gateway's registration response.
        self.heartbeat_interval = heartbeat_interval
        self._client = ServiceClient(self.gateway_url, timeout=timeout)
        self.registered = False
        self.draining = False
        self.heartbeats_sent = 0
        self.acked_jobs = 0
        self.register_failures = 0
        #: Gateway responses that broke the protocol (a body that is not
        #: a JSON object, bad field types); the agent retries or falls
        #: back to safe defaults but keeps count.
        self.protocol_errors = 0
        self._pending: deque[str] = deque()
        self._pending_set: set[str] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # The agent is where a scheduler learns which shard it is —
        # stamp the identity onto its spans and log lines so a stitched
        # gateway trace attributes every span to the node that ran it.
        scheduler.tracer.node_id = node_id
        scheduler.logger.node_id = node_id
        scheduler.add_finish_listener(self._on_job_finished)
        if scheduler.metrics is not None:
            reg = scheduler.metrics
            reg.gauge("node_registered", "1 once the gateway accepted registration",
                      callback=lambda: int(self.registered))
            reg.gauge("node_draining",
                      "1 while the gateway has this node draining "
                      "(in-flight jobs finish, no new ones arrive)",
                      callback=lambda: int(self.draining))
            reg.counter("node_heartbeats_total", "Heartbeats delivered to the gateway",
                        callback=lambda: self.heartbeats_sent)
            reg.counter("node_acked_jobs_total",
                        "Finished jobs the gateway has fetched and acknowledged",
                        callback=lambda: self.acked_jobs)
            reg.gauge("node_pending_acks", "Finished jobs awaiting gateway ack",
                      callback=lambda: len(self._pending_set))  # repro: ignore[SAN101] torn read by design

    # -- scheduler hook ----------------------------------------------------
    def _on_job_finished(self, job) -> None:
        with self._lock:
            if job.id in self._pending_set:
                return
            self._pending.append(job.id)
            self._pending_set.add(job.id)
            while len(self._pending) > MAX_PENDING_ACKS:
                stale = self._pending.popleft()
                self._pending_set.discard(stale)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "NodeAgent":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name=f"repro-node-agent-{self.node_id}",
                daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop heartbeating and (best effort) unregister cleanly."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self.registered:
            try:
                self._post(f"/unregister/{self.node_id}", {})
            except ServiceError:  # repro: ignore[EXC002]
                pass  # the death timer handles it
            self.registered = False

    # -- the loop ----------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.registered:
                interval = self._try_register()
            else:
                interval = self._try_heartbeat()
            self._stop.wait(interval)

    def _interval(self) -> float:
        return self.heartbeat_interval or DEFAULT_HEARTBEAT_INTERVAL

    def _try_register(self) -> float:
        try:
            status, body = self._post(
                "/register", {"node_id": self.node_id, "url": self.advertise_url})
        except ServiceError:
            self.register_failures += 1
            return min(1.0, self._interval())
        if status != 200:
            self.register_failures += 1
            return min(1.0, self._interval())
        self.registered = True
        if self.heartbeat_interval is None:
            try:
                self.heartbeat_interval = self._parse_interval(body)
            except ProtocolError:
                # A gateway that mangles the interval still accepted us;
                # heartbeat at the default rate rather than crash the loop.
                self.protocol_errors += 1
                self.heartbeat_interval = DEFAULT_HEARTBEAT_INTERVAL
        # Heartbeat immediately: registration already proved liveness,
        # but the first report/ack cycle should not wait a full interval.
        return 0.0

    def _try_heartbeat(self) -> float:
        with self._lock:
            finished = list(self._pending)
        try:
            status, body = self._post(
                f"/heartbeat/{self.node_id}",
                {"finished": finished, "stats": self._report()})
        except ServiceError:
            return self._interval()  # unreachable or garbled: keep trying
        if status == 404:
            # The gateway restarted (or reaped us as dead and we then
            # unregistered): start over with a fresh registration.
            self.registered = False
            return 0.0
        if status != 200:
            return self._interval()
        self.heartbeats_sent += 1
        self.draining = body.get("state") == "draining"
        try:
            acked = self._parse_acked(body)
        except ProtocolError:
            self.protocol_errors += 1
            acked = []  # treat as "nothing acked"; ids stay pending
        if acked:
            with self._lock:
                for job_id in acked:
                    if job_id in self._pending_set:
                        self._pending_set.discard(job_id)
                        self.acked_jobs += 1
                self._pending = deque(
                    j for j in self._pending if j in self._pending_set)
        return self._interval()

    @staticmethod
    def _parse_interval(body: dict) -> float:
        """``heartbeat_interval`` from a register response, type-checked.

        Raises :class:`~repro.serve.client.ProtocolError` (not
        ``TypeError``/``ValueError`` mid-``float()``) when the gateway
        sends garbage, so callers can distinguish a broken gateway from
        an agent bug.
        """
        value = body.get("heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value <= 0:
            raise ProtocolError(
                "register response: field 'heartbeat_interval' must be a "
                f"positive number, got {value!r}", body=body)
        return float(value)

    @staticmethod
    def _parse_acked(body: dict) -> list[str]:
        """``acked`` from a heartbeat response: a list of job-id strings."""
        acked = body.get("acked") or []
        if not isinstance(acked, list) \
                or not all(isinstance(j, str) for j in acked):
            raise ProtocolError(
                "heartbeat response: field 'acked' must be a list of job "
                "ids", body=body)
        return acked

    def _report(self) -> dict:
        """The small self-description that rides in each heartbeat."""
        stats = self.scheduler.stats_snapshot()
        return {
            "running": stats.running,
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            "queue_depth": len(self.scheduler._queue),
            "workers": self.scheduler.workers,
            "executor": self.scheduler.executor_mode,
        }

    # -- transport ---------------------------------------------------------
    def _post(self, path: str, body: dict) -> tuple[int, dict]:
        try:
            return self._client._request("POST", path, body)
        except ProtocolError:
            self.protocol_errors += 1
            raise

    # -- introspection -----------------------------------------------------
    def status_dict(self) -> dict:
        """The ``/stats`` ``shard`` section of a registered node."""
        with self._lock:
            pending = len(self._pending_set)
        return {
            "node_id": self.node_id,
            "gateway": self.gateway_url,
            "advertise_url": self.advertise_url,
            "registered": self.registered,
            "state": "draining" if self.draining else
                     ("active" if self.registered else "unregistered"),
            "heartbeat_interval": self._interval(),
            "heartbeats_sent": self.heartbeats_sent,
            "acked_jobs": self.acked_jobs,
            "pending_acks": pending,
            "register_failures": self.register_failures,
            "protocol_errors": self.protocol_errors,
        }
