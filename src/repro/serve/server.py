"""JSON/HTTP front-end for the scheduler.

The socket plumbing, route dispatch and listener lifecycle live in
:mod:`repro.serve.http`; this module is the node's ``ROUTES`` table plus
one short method per node-specific route (handlers only ever touch
thread-safe scheduler methods).

Endpoints
---------
``POST /submit``        body: a :class:`~repro.serve.jobs.JobSpec` dict —
                        i.e. a serialized
                        :class:`~repro.api.request.CompressionRequest`
                        (any kind: tune/compress/decompress/stream) plus
                        optional ``priority``/``max_retries``; legacy
                        flat bodies still parse →
                        ``202 {"job_id", "state", "coalesced_into"}``;
                        ``400`` on an invalid spec; ``429`` +
                        ``Retry-After`` when the queue is full.
``POST /cancel/<id>``   cancel a queued job (process backend: also a
                        running one — see the scheduler's tombstone
                        semantics); ``200 {"job_id", "cancelled",
                        "state"}``; ``404`` for unknown ids.
``GET /status/<id>``    job lifecycle record; ``404`` for unknown ids.
``GET /result/<id>``    ``200`` with the result/error once finished,
                        ``202`` with the current state while pending.
``GET /stats``          scheduler, queue, search, cache and trace
                        counters, plus a ``metrics`` snapshot of the
                        registry.
``GET /metrics``        Prometheus text exposition (version 0.0.4) of
                        the scheduler's metrics registry; ``404`` when
                        the scheduler was built with ``metrics=False``.
``GET /trace/<ref>``    span tree for a job id (or raw 32-hex trace id);
                        ``404`` when unknown, unsampled, or evicted.
``GET /health``         liveness probe (includes the package version).

Submits may carry a W3C ``traceparent`` header; the extracted context
makes the job's spans part of the caller's trace (and the 202 ticket
reports the ``trace_id`` either way).
"""

from __future__ import annotations

from repro import __version__
from repro.serve.http import HttpService, JsonHandler, result_body, ticket_body
from repro.serve.jobs import JobSpec
from repro.serve.queue import QueueFull
from repro.serve.scheduler import Scheduler

__all__ = ["ServiceServer", "DEFAULT_PORT"]

DEFAULT_PORT = 8077


class _Handler(JsonHandler):
    server_version = "repro-serve/1"

    ROUTES = {
        **JsonHandler.ROUTES,
        ("POST", "/submit"): "post_submit",
        ("POST", "/cancel/"): "post_cancel",
        ("GET", "/status/"): "get_status",
        ("GET", "/result/"): "get_result",
        ("GET", "/health"): "get_health",
    }

    backend: Scheduler
    agent = None  # NodeAgent when this node registered with a gateway

    def post_submit(self) -> None:
        spec = JobSpec.from_dict(self.json_body())
        try:
            job = self.backend.submit(spec, trace_context=self.trace_context())
        except QueueFull as exc:
            self.send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        self.send_json(202, ticket_body(
            job.id, job.state.value, job.coalesced_into, job.trace_id))

    def post_cancel(self, job_id: str) -> None:
        job = self.backend.get(job_id)
        if job is None:
            self.send_json(404, {"error": "unknown job id"})
            return
        cancelled = self.backend.cancel(job_id)
        self.send_json(200, {
            "job_id": job_id,
            "cancelled": cancelled,
            "state": job.state.value,
        })

    def get_status(self, job_id: str) -> None:
        job = self.backend.get(job_id)
        self.send_found(None if job is None else job.status_dict(),
                        "unknown job id")

    def get_result(self, job_id: str) -> None:
        job = self.backend.get(job_id)
        if job is None:
            self.send_json(404, {"error": "unknown job id"})
        elif not job.finished:
            self.send_json(202, {"job_id": job.id, "state": job.state.value})
        else:
            self.send_json(200, result_body(
                job.id, job.state.value, job.coalesced_into, job.result,
                job.error))

    def get_stats(self) -> None:
        payload = self.backend.stats_payload()
        if self.agent is not None:
            payload["shard"] = self.agent.status_dict()
        self.send_json(200, payload)

    def get_health(self) -> None:
        self.send_json(200, {"status": "ok", "paused": self.backend.paused,
                             "version": __version__})


class ServiceServer(HttpService):
    """Owns one scheduler plus the HTTP listener bound to it.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`) — tests and the CI smoke job rely on that.

    Usage::

        with ServiceServer(port=0, workers=2) as server:
            client = ServiceClient(server.url)
            ...
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
        register: str | None = None,
        node_id: str | None = None,
        advertise_url: str | None = None,
        heartbeat_interval: float | None = None,
        **scheduler_kwargs,
    ) -> None:
        if scheduler is not None and scheduler_kwargs:
            raise ValueError("pass scheduler kwargs or an instance, not both")
        self.scheduler = scheduler or Scheduler(**scheduler_kwargs)
        super().__init__(_Handler, self.scheduler, host, port, verbose)
        self.agent = None
        if register is not None:
            # The listener is already bound, so the real port is known
            # even when the caller asked for an ephemeral one.
            from repro.serve.agent import NodeAgent

            self.agent = NodeAgent(
                self.scheduler, register,
                node_id=node_id or f"node-{self.host}-{self.port}",
                advertise_url=advertise_url or self.url,
                heartbeat_interval=heartbeat_interval,
            )
            self._httpd.RequestHandlerClass.agent = self.agent

    def _start_backend(self) -> None:
        self.scheduler.start()
        if self.agent is not None:
            self.agent.start()

    def _stop_backend(self) -> None:
        """Stop the workers and persist the cache tier."""
        self.scheduler.close()

    def shutdown(self) -> None:
        # The agent goes first, while the listener still answers: a
        # heartbeat in flight makes the gateway fetch results from here.
        if self.agent is not None:
            self.agent.stop()
        super().shutdown()
