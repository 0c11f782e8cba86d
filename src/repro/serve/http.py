"""The one wire layer under the node service and the gateway.

Both tiers are a stdlib :class:`http.server.ThreadingHTTPServer` (no web
framework: thread-per-connection composes with the scheduler's and the
router's own locking, and keeps the service dependency-free).  This
module owns every byte that touches the socket, so the two tiers cannot
drift apart on the wire:

* :class:`JsonHandler` — one response writer, one bounded request-body
  reader, and one ``do_GET``/``do_POST`` that dispatches through the
  class-level ``ROUTES`` table.  A key is ``(method, route)``; a route
  ending in ``/`` is a prefix route whose handler receives the final
  path segment (``("GET", "/status/")`` serves ``/status/<id>``).  The
  value names the handler method.  Subclasses spread the base table into
  their own (``{**JsonHandler.ROUTES, ...}``); the ``WIRE001`` checker
  reads these literals, so a route exists exactly when it is declared.
* :func:`ticket_body` / :func:`result_body` — the ``202`` submit ticket
  and the terminal ``/result`` record, each built here and nowhere else,
  so a client reads the same keys off a node and off the gateway.
* :class:`HttpService` — the listener lifecycle (bind, background or
  blocking serve, shutdown, context manager) that ``ServiceServer`` and
  ``GatewayServer`` subclass with only their backend start/stop hooks.

Shared endpoints (served identically by both tiers; the backend is a
``Scheduler`` or a ``Router``, which expose the same four methods)
-----------------------------------------------------------------------
``GET /stats``          ``backend.stats_payload()``.
``GET /metrics``        Prometheus text exposition (version 0.0.4);
                        ``404`` when the backend has metrics disabled.
``GET /trace/<ref>``    span tree for a job id (or raw 32-hex trace id);
                        ``404`` when unknown, unsampled, or evicted.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import RequestError
from repro.obs.exposition import CONTENT_TYPE
from repro.obs.trace import TRACEPARENT_HEADER, TraceContext

__all__ = ["JsonHandler", "HttpService", "MAX_BODY_BYTES", "ticket_body",
           "result_body"]

#: Largest accepted request body (inline arrays ride in submits).
MAX_BODY_BYTES = 256 * 2**20


def ticket_body(job_id: str, state: str, coalesced_into: str | None,
                trace_id: str | None, **placement) -> dict:
    """The ``202`` body of an accepted submit.

    ``placement`` is what only a gateway knows (``node=<owning shard>``);
    it travels between ``state`` and ``coalesced_into``.
    """
    return {"job_id": job_id, "state": state, **placement,
            "coalesced_into": coalesced_into, "trace_id": trace_id}


def result_body(job_id: str, state: str, coalesced_into: str | None,
                result: dict | None, error: str | None) -> dict:
    """The ``200`` body of ``GET /result/<id>`` once the job is terminal."""
    return {"job_id": job_id, "state": state, "coalesced_into": coalesced_into,
            "result": result, "error": error}


class JsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    ROUTES = {
        ("GET", "/stats"): "get_stats",
        ("GET", "/metrics"): "get_metrics",
        ("GET", "/trace/"): "get_trace",
    }

    # Bound per listener by HttpService.
    backend = None  # Scheduler or Router
    verbose: bool = False
    #: What the tier calls itself in error text.
    tier = "service"

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.verbose:  # pragma: no cover - log formatting
            super().log_message(fmt, *args)

    # -- writers -----------------------------------------------------------
    def send_body(self, code: int, data: bytes, content_type: str,
                  headers: dict | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def send_json(self, code: int, payload: dict, headers: dict | None = None) -> None:
        self.send_body(code, json.dumps(payload).encode("utf-8"),
                       "application/json", headers)

    def send_found(self, payload: dict | None, missing: str) -> None:
        """``200 payload``, or ``404`` with ``missing`` when there is none."""
        if payload is None:
            self.send_json(404, {"error": missing})
        else:
            self.send_json(200, payload)

    # -- readers -----------------------------------------------------------
    def _read_body(self) -> bytes:
        """The request body, its declared length validated *before* reading.

        A negative, non-numeric or oversized ``Content-Length`` is
        rejected unread (``rfile.read(-1)`` would block until the peer
        hangs up), so the socket is not reused afterwards.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestError(
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}], "
                f"got {declared!r}")
        return self.rfile.read(length)

    def json_body(self) -> dict:
        """The request body as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    def trace_context(self) -> TraceContext | None:
        """The caller's W3C ``traceparent``, when the request carries one."""
        return TraceContext.from_traceparent(self.headers.get(TRACEPARENT_HEADER))

    # -- dispatch ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        head, _, tail = self.path.rpartition("/")
        name = self.ROUTES.get((method, self.path)) if tail else None
        args = ()
        if name is None:
            name = self.ROUTES.get((method, head + "/"))
            args = (tail,)
        if name is None:
            # A declared body stays unread; a keep-alive peer would see
            # its bytes parsed as the next request line.
            if "Content-Length" in self.headers:
                self.close_connection = True
            self.send_json(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        try:
            # Read even for routes that take no body (a keep-alive client
            # may send one anyway, e.g. curl -d '{}'), so it is consumed.
            self.body = self._read_body()
            getattr(self, name)(*args)
        except ValueError as exc:
            # RequestError is-a ValueError; validation below the wire
            # layer (job specs, node registration) reports bad input so.
            self.send_json(400, {"error": str(exc)})

    # -- routes both tiers serve identically ---------------------------------
    def get_stats(self) -> None:
        self.send_json(200, self.backend.stats_payload())

    def get_metrics(self) -> None:
        if self.backend.metrics is None:
            self.send_json(404, {"error": f"metrics are disabled on this {self.tier}"})
            return
        self.send_body(200, self.backend.metrics_text().encode("utf-8"), CONTENT_TYPE)

    def get_trace(self, ref: str) -> None:
        self.send_found(self.backend.trace_payload(ref),
                        "unknown job/trace id (unsampled or evicted traces 404)")


class HttpService:
    """One backend plus the HTTP listener bound to it.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`) — tests and the CI smoke jobs rely on that.
    Subclasses supply the ``_start_backend()``/``_stop_backend()`` hooks.
    """

    def __init__(self, handler: type[JsonHandler], backend, host: str,
                 port: int, verbose: bool) -> None:
        bound = type("_BoundHandler", (handler,),
                     {"backend": backend, "verbose": verbose})
        self._httpd = ThreadingHTTPServer((host, port), bound)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Start the backend and the HTTP listener thread."""
        self._start_backend()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name=f"repro-{self._httpd.RequestHandlerClass.tier}-http")
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI (Ctrl-C to stop)."""
        self._start_backend()
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the listener, then the backend."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self._stop_backend()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
