"""Resident compression service: queue, scheduler, HTTP server, client.

Turns the one-shot FRaZ tooling into a long-lived process::

    from repro.serve import ServiceServer, ServiceClient

    with ServiceServer(port=0, workers=2) as server:
        client = ServiceClient(server.url)
        ticket = client.submit_array(data, kind="tune", target_ratio=10.0)
        result = client.result(ticket["job_id"])

Submitted jobs flow through a bounded priority queue (backpressure),
identical concurrent requests are coalesced onto one computation, all
jobs share one :class:`~repro.cache.EvalCache`, and oversized file
inputs are routed through the out-of-core ``repro.stream`` pipeline.
A :class:`JobSpec` is the unified
:class:`~repro.api.request.CompressionRequest` plus scheduling fields,
so the same request object also drives :func:`repro.api.execute` and the
CLI.  The node server and the gateway share one wire layer,
:mod:`repro.serve.http` (body reader, JSON writer, dispatch through each
tier's declared ``ROUTES`` table, listener lifecycle), and the client
and the node agent one transport.  See ``docs/SERVICE.md`` for the full
protocol.
"""

from repro.serve.agent import NodeAgent
from repro.serve.client import (
    BackpressureError,
    JobFailedError,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)
from repro.serve.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Job,
    JobSpec,
    JobState,
)
from repro.serve.queue import JobQueue, QueueFull
from repro.serve.scheduler import (
    DEFAULT_SPILL_THRESHOLD,
    DEFAULT_STREAM_THRESHOLD,
    Scheduler,
    SchedulerStats,
    resolve_executor_mode,
)
from repro.serve.server import DEFAULT_PORT, ServiceServer

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "JobQueue",
    "QueueFull",
    "Scheduler",
    "SchedulerStats",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "BackpressureError",
    "NodeAgent",
    "JobFailedError",
    "ProtocolError",
    "DEFAULT_PORT",
    "DEFAULT_STREAM_THRESHOLD",
    "DEFAULT_SPILL_THRESHOLD",
    "resolve_executor_mode",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
