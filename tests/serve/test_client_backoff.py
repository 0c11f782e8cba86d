"""Deterministic 429/Retry-After behaviour of :class:`ServiceClient`.

A scripted stdlib HTTP server returns a pre-programmed response sequence,
so the tests pin down exactly what the client does under backpressure
without any real scheduler (or timing luck) involved: suggested delays
are honoured, the ``backpressure_wait`` deadline expires promptly instead
of hanging, and a terminal error after retries surfaces as the right
exception type.

The companion distinction — the regression the gateway depends on — is
between *backpressure* (429: the service is up, wait as told) and
*unavailability* (connection refused: the host is down, never wait):
see :class:`TestUnavailable`.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import (
    BackpressureError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)


class _ScriptedServer:
    """HTTP server answering POST /submit from a fixed response script.

    Script entries are ``(status, payload)`` or ``(status, payload,
    headers)`` — the third element sends extra response headers, which is
    how the Retry-After-header-only cases are scripted.  A ``bytes``
    payload is sent verbatim (for bodies that are not JSON at all).
    """

    def __init__(self, script: list[tuple]) -> None:
        self.script = list(script)
        self.requests: list[float] = []  # monotonic arrival times
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # noqa: A003
                pass

            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                outer.requests.append(time.monotonic())
                entry = (outer.script.pop(0) if outer.script
                         else (500, {"error": "script exhausted"}))
                status, payload = entry[0], entry[1]
                headers = dict(entry[2]) if len(entry) > 2 else {}
                body = (payload if isinstance(payload, bytes)
                        else json.dumps(payload).encode())
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if (status == 429 and "retry_after" in payload
                        and "Retry-After" not in headers):
                    headers["Retry-After"] = str(payload["retry_after"])
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "_ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


_BODY = {"kind": "tune", "input": "/tmp/x.npy", "target_ratio": 8.0}


class TestBackoff:
    def test_retry_after_delays_are_honoured(self):
        script = [
            (429, {"error": "queue full", "retry_after": 0.05}),
            (429, {"error": "queue full", "retry_after": 0.05}),
            (202, {"job_id": "j000001", "state": "queued",
                   "coalesced_into": None}),
        ]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=5.0)
            t0 = time.monotonic()
            ticket = client.submit(_BODY)
            elapsed = time.monotonic() - t0
            assert ticket["job_id"] == "j000001"
            assert len(server.requests) == 3
            # Two suggested 50 ms delays must both have been slept.
            assert elapsed >= 0.1
            gaps = [b - a for a, b in zip(server.requests, server.requests[1:])]
            assert all(gap >= 0.045 for gap in gaps)

    def test_deadline_expires_instead_of_hanging(self):
        # The server suggests a delay far beyond the client's budget: the
        # client must fail fast (before the suggested delay), not sleep it.
        script = [(429, {"error": "queue full", "retry_after": 30.0})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=0.2)
            t0 = time.monotonic()
            with pytest.raises(BackpressureError) as exc:
                client.submit(_BODY)
            elapsed = time.monotonic() - t0
            assert elapsed < 2.0
            assert exc.value.status == 429
            assert len(server.requests) == 1

    def test_zero_budget_rejects_on_first_429(self):
        script = [(429, {"error": "queue full", "retry_after": 0.01})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=0.0)
            with pytest.raises(BackpressureError):
                client.submit(_BODY)
            assert len(server.requests) == 1

    def test_terminal_error_after_retries_surfaces(self):
        # Backpressure first, then a hard 400: the client must raise the
        # protocol error (with its status), not keep retrying or hang.
        script = [
            (429, {"error": "queue full", "retry_after": 0.01}),
            (400, {"error": "unknown job spec fields: ['bogus']"}),
        ]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=5.0)
            with pytest.raises(ServiceError) as exc:
                client.submit(_BODY)
            assert not isinstance(exc.value, BackpressureError)
            assert exc.value.status == 400
            assert "bogus" in str(exc.value)
            assert len(server.requests) == 2

    def test_success_needs_no_retries(self):
        script = [(202, {"job_id": "j000009", "state": "queued",
                         "coalesced_into": None})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url)
            assert client.submit(_BODY)["job_id"] == "j000009"
            assert len(server.requests) == 1


class TestRetryAfterSurfacing:
    """Every raised error carries the server's suggested backoff uniformly.

    Regression tests for the ``retry_after`` attribute: the JSON
    ``retry_after`` field and the HTTP ``Retry-After`` header must both
    surface (field preferred when present), on 429, 503, and generic
    protocol errors alike — so a caller backing off after *any* failure
    never has to re-parse headers itself.
    """

    def test_backpressure_error_carries_json_field(self):
        script = [(429, {"error": "queue full", "retry_after": 7.5})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=0.0)
            with pytest.raises(BackpressureError) as exc:
                client.submit(_BODY)
            assert exc.value.retry_after == 7.5

    def test_header_only_429_still_surfaces_and_is_honoured(self):
        # No JSON field at all: the Retry-After header alone must drive
        # both the retry sleep and the surfaced attribute.
        script = [
            (429, {"error": "queue full"}, {"Retry-After": "0.05"}),
            (202, {"job_id": "j000001", "state": "queued",
                   "coalesced_into": None}),
        ]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=5.0)
            t0 = time.monotonic()
            ticket = client.submit(_BODY)
            assert ticket["job_id"] == "j000001"
            assert time.monotonic() - t0 >= 0.045
            assert len(server.requests) == 2

    def test_json_field_wins_over_header(self):
        script = [(429, {"error": "queue full", "retry_after": 3.0},
                   {"Retry-After": "60"})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=0.0)
            with pytest.raises(BackpressureError) as exc:
                client.submit(_BODY)
            assert exc.value.retry_after == 3.0

    def test_503_maps_to_unavailable_with_retry_after(self):
        # A gateway with no routable shard answers 503 + Retry-After:
        # that's "try me later", not backpressure — and not a sleep.
        script = [(503, {"error": "no routable worker node"},
                   {"Retry-After": "1"})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=30.0)
            t0 = time.monotonic()
            with pytest.raises(ServiceUnavailableError) as exc:
                client.submit(_BODY)
            assert time.monotonic() - t0 < 2.0  # budget NOT spent on a 503
            assert exc.value.status == 503
            assert exc.value.retry_after == 1.0
            assert len(server.requests) == 1

    def test_503_without_hint_has_none(self):
        script = [(503, {"error": "unavailable"})]
        with _ScriptedServer(script) as server:
            with pytest.raises(ServiceUnavailableError) as exc:
                ServiceClient(server.url).submit(_BODY)
            assert exc.value.retry_after is None

    def test_generic_error_carries_retry_after_too(self):
        script = [(500, {"error": "briefly broken", "retry_after": 2.0})]
        with _ScriptedServer(script) as server:
            with pytest.raises(ServiceError) as exc:
                ServiceClient(server.url).submit(_BODY)
            assert exc.value.status == 500
            assert exc.value.retry_after == 2.0

    def test_malformed_header_degrades_to_none(self):
        # An HTTP-date Retry-After (or garbage) must not crash the client.
        script = [(503, {"error": "unavailable"},
                   {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"})]
        with _ScriptedServer(script) as server:
            with pytest.raises(ServiceUnavailableError) as exc:
                ServiceClient(server.url).submit(_BODY)
            assert exc.value.retry_after is None


def _refused_url() -> str:
    """A URL that deterministically refuses connections (nothing bound)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestUnavailable:
    """Connection refused is *not* backpressure — the node is down.

    Regression tests for the gateway's routing contract: a refused
    connection must raise :class:`ServiceUnavailableError` immediately
    (the gateway re-routes to another shard), never sleep a Retry-After
    that no live server suggested, and never masquerade as the 429 path.
    """

    def test_refused_connection_raises_immediately(self):
        client = ServiceClient(_refused_url(), backpressure_wait=30.0)
        t0 = time.monotonic()
        with pytest.raises(ServiceUnavailableError):
            client.submit(_BODY)
        # A large backpressure budget must NOT be spent on a dead host.
        assert time.monotonic() - t0 < 2.0

    def test_unavailable_is_a_service_error_but_not_backpressure(self):
        # Callers that catch ServiceError still see the failure; callers
        # that branch on the two subtypes can tell down from overloaded.
        with pytest.raises(ServiceError):
            ServiceClient(_refused_url()).submit(_BODY)
        with pytest.raises(ServiceUnavailableError) as exc:
            ServiceClient(_refused_url()).submit(_BODY)
        assert not isinstance(exc.value, BackpressureError)

    def test_429_still_takes_the_backpressure_path(self):
        # The flip side: a live-but-full server must keep raising
        # BackpressureError, not ServiceUnavailableError.
        script = [(429, {"error": "queue full", "retry_after": 0.01})]
        with _ScriptedServer(script) as server:
            client = ServiceClient(server.url, backpressure_wait=0.0)
            with pytest.raises(BackpressureError) as exc:
                client.submit(_BODY)
            assert not isinstance(exc.value, ServiceUnavailableError)

    def test_server_death_between_requests_is_unavailable(self):
        # First request succeeds; then the server goes away; the next
        # call must surface unavailability, not a protocol error.
        script = [(202, {"job_id": "j000001", "state": "queued",
                         "coalesced_into": None})]
        server = _ScriptedServer(script)
        with server:
            client = ServiceClient(server.url)
            client.submit(_BODY)
        with pytest.raises(ServiceUnavailableError):
            client.submit(_BODY)

    def test_other_endpoints_raise_unavailable_too(self):
        client = ServiceClient(_refused_url())
        with pytest.raises(ServiceUnavailableError):
            client.stats()
        with pytest.raises(ServiceUnavailableError):
            client.metrics_text()
        with pytest.raises(ServiceUnavailableError):
            client.poll_result("j000001")
