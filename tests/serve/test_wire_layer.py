"""The shared wire layer (``repro.serve.http``), checked on both tiers.

Three things are pinned here, each against a node *and* a gateway:

* hostile ``Content-Length`` values are answered ``400`` +
  ``Connection: close`` without reading (raw sockets, 2 s per probe —
  ``-1`` used to park a handler thread until the peer hung up);
* the client-facing surface is wire-identical: one table of requests
  with the status, JSON key set and response headers both tiers owe;
* every route in a tier's ``ROUTES`` table is documented in its server
  module's endpoint docstring, and vice versa.
"""

from __future__ import annotations

import http.client
import json
import re
import socket

import pytest

from repro.gateway import GatewayServer
from repro.gateway import server as gateway_server
from repro.serve import ServiceServer
from repro.serve import server as node_server
from repro.serve.http import MAX_BODY_BYTES

TIERS = ("node", "gateway")
PROBE_DEADLINE = 2.0


def _make(tier: str, **kwargs):
    if tier == "node":
        return ServiceServer(port=0, workers=1, executor="thread", **kwargs)
    return GatewayServer(port=0, **kwargs)


@pytest.fixture(scope="module")
def servers():
    started = {tier: _make(tier).start() for tier in TIERS}
    yield started
    for server in started.values():
        server.shutdown()


# -- hostile Content-Length ---------------------------------------------------
def _probe(server, request: bytes) -> bytes:
    """Send raw bytes; return everything the server says before it closes."""
    with socket.create_connection((server.host, server.port),
                                  timeout=PROBE_DEADLINE) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)  # socket.timeout past the deadline
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize("length", ["-1", "abc", str(MAX_BODY_BYTES + 1)])
@pytest.mark.parametrize("tier,path", [
    ("node", "/submit"),
    ("node", "/cancel/j-000001"),      # a route that takes no body
    ("gateway", "/submit"),
    ("gateway", "/unregister/n0"),     # likewise
])
def test_hostile_content_length_is_rejected_unread(servers, tier, path, length):
    reply = _probe(servers[tier], (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n").encode("latin-1"))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
    assert b"connection: close" in head.lower()
    assert set(json.loads(body)) == {"error"}


# -- wire parity --------------------------------------------------------------
JSON_HEADERS = {"Content-Type": "application/json"}
ERROR = {"error"}

#: (method, path, request headers, body) -> (status, JSON keys the body
#: must carry, response headers it must carry).  Error bodies carry
#: exactly ``{"error"}``; ``None`` keys means the body is not JSON.
PARITY = [
    (("POST", "/submit", JSON_HEADERS, b'{"kind": "frobnicate"}'), (400, ERROR, {})),
    (("POST", "/submit", JSON_HEADERS, b"[1, 2]"), (400, ERROR, {})),
    (("POST", "/submit", JSON_HEADERS, b"{nope"), (400, ERROR, {})),
    (("POST", "/submit", JSON_HEADERS, b""), (400, ERROR, {})),
    (("GET", "/nope", {}, None), (404, ERROR, {})),
    (("POST", "/nope", JSON_HEADERS, b"{}"), (404, ERROR, {"Connection": "close"})),
    (("GET", "/status/unknown", {}, None), (404, ERROR, {})),
    (("GET", "/result/unknown", {}, None), (404, ERROR, {})),
    (("GET", "/trace/unknown", {}, None), (404, ERROR, {})),
    (("GET", "/health", {}, None), (200, {"status", "version"}, {})),
    (("GET", "/metrics", {"Connection": "close"}, None),
     (200, None, {"Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                  "Connection": "close"})),
]


def _exchange(server, method, path, headers, body):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _check(server, request, expected):
    status, keys, headers = expected
    got_status, got_headers, raw = _exchange(server, *request)
    assert got_status == status
    for name, value in headers.items():
        assert got_headers.get(name) == value, (name, got_headers)
    if keys is not None:
        assert got_headers["Content-Type"] == "application/json"
        got_keys = set(json.loads(raw))
        if keys is ERROR:
            assert got_keys == ERROR
        else:
            assert keys <= got_keys


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("request_,expected", PARITY,
                         ids=[f"{r[0]} {r[1]} {r[3]!r}" for r, _ in PARITY])
def test_client_surface_is_wire_identical(servers, tier, request_, expected):
    _check(servers[tier], request_, expected)


@pytest.mark.parametrize("tier", TIERS)
def test_metrics_disabled_is_404(tier):
    with _make(tier, metrics=False) as server:
        _check(server, ("GET", "/metrics", {}, None), (404, ERROR, {}))


# -- ROUTES <-> endpoint docstring ---------------------------------------------
_DOCUMENTED = re.compile(r"``(GET|POST) (/[^`\s]*)``")


@pytest.mark.parametrize("module", [node_server, gateway_server],
                         ids=["node", "gateway"])
def test_routes_table_matches_endpoint_docstring(module):
    handler = module._Handler
    documented = {(method, re.sub(r"<[^>]*>$", "", path))
                  for method, path in _DOCUMENTED.findall(module.__doc__)}
    assert documented == set(handler.ROUTES)
    for name in handler.ROUTES.values():
        assert callable(getattr(handler, name))
