"""HTTP front-end for the gateway tier.

Built on the same :mod:`repro.serve.http` wire layer as the node-side
service — the gateway speaks the *same client protocol* (``/submit``,
``/status``, ``/result``, ``/trace``, ``/stats``, ``/metrics``,
``/health``), so a :class:`~repro.serve.client.ServiceClient` pointed at
a gateway works unchanged, plus the fleet-facing control plane.  This
module is the gateway's ``ROUTES`` table and one short method per
gateway-specific route.

Client-facing endpoints
-----------------------
``POST /submit``          validate, route by coalesce key, forward to the
                          owning shard → ``202 {"job_id", "state",
                          "node", "coalesced_into"}``; ``400`` invalid
                          spec; ``429`` + ``Retry-After`` when the owning
                          shard is backpressured; ``503`` when no node is
                          routable.
``GET /status/<id>``      gateway routing record (+ live node view).
``GET /result/<id>``      cached/proxied result; ``202`` while pending
                          (including mid-failover).
``GET /trace/<id>``       stitched span tree: gateway spans merged with
                          the owning shard's (``404`` when unknown,
                          unsampled, or evicted).
``GET /stats``            fleet membership, routing counters, metrics.
``GET /metrics``          Prometheus text (``repro_gateway_*``).
``GET /health``           liveness probe (includes the package version).

Submits may carry a W3C ``traceparent`` header; the extracted context
ties the whole routed journey into the caller's trace, and the 202
ticket reports the ``trace_id`` either way.

Fleet-facing endpoints (worker nodes + operators)
-------------------------------------------------
``POST /register``            body ``{"node_id", "url"}`` — join the fleet.
``POST /unregister/<node>``   clean departure (owed jobs requeue).
``POST /heartbeat/<node>``    body ``{"finished": [...], "stats": {...}}``
                              → ``{"acked", "state", ...}``; ``404`` for
                              unknown nodes (the agent re-registers).
``POST /admin/drain/<node>``  stop routing new work to the node.
``POST /admin/undrain/<node>`` resume routing to a draining node.
"""

from __future__ import annotations

from repro import __version__
from repro.gateway.router import NoCapacityError, Router
from repro.serve.client import BackpressureError
from repro.serve.http import HttpService, JsonHandler

__all__ = ["GatewayServer", "DEFAULT_GATEWAY_PORT"]

DEFAULT_GATEWAY_PORT = 8076


class _Handler(JsonHandler):
    server_version = "repro-gateway/1"
    tier = "gateway"

    ROUTES = {
        **JsonHandler.ROUTES,
        ("POST", "/submit"): "post_submit",
        ("GET", "/status/"): "get_status",
        ("GET", "/result/"): "get_result",
        ("GET", "/health"): "get_health",
        ("POST", "/register"): "post_register",
        ("POST", "/unregister/"): "post_unregister",
        ("POST", "/heartbeat/"): "post_heartbeat",
        ("POST", "/admin/drain/"): "post_drain",
        ("POST", "/admin/undrain/"): "post_undrain",
    }

    backend: Router

    # -- client-facing -----------------------------------------------------
    def post_submit(self) -> None:
        try:
            _, ticket = self.backend.submit(
                self.json_body(), trace_context=self.trace_context())
        except BackpressureError as exc:
            retry_after = float(exc.body.get("retry_after", 1.0))
            self.send_json(429, {"error": str(exc), "retry_after": retry_after},
                           headers={"Retry-After": f"{retry_after:g}"})
            return
        except NoCapacityError as exc:
            self.send_json(503, {"error": str(exc), "retry_after": 1.0},
                           headers={"Retry-After": "1"})
            return
        self.send_json(202, ticket)

    def get_status(self, job_id: str) -> None:
        self.send_found(self.backend.job_status(job_id), "unknown job id")

    def get_result(self, job_id: str) -> None:
        answer = self.backend.job_result(job_id)
        if answer is None:
            self.send_json(404, {"error": "unknown job id"})
        else:
            self.send_json(*answer)

    def get_health(self) -> None:
        counts = self.backend.registry.counts()
        self.send_json(200, {"status": "ok", "nodes_active": counts["active"],
                             "version": __version__})

    # -- fleet-facing ------------------------------------------------------
    def post_register(self) -> None:
        body = self.json_body()
        self.send_json(200, self.backend.register_node(
            str(body.get("node_id", "")), str(body.get("url", ""))))

    def post_heartbeat(self, node_id: str) -> None:
        body = self.json_body()
        finished = body.get("finished") or []
        if not isinstance(finished, list):
            self.send_json(400, {"error": "finished must be a list of job ids"})
            return
        payload = self.backend.node_heartbeat(
            node_id, finished=[str(j) for j in finished],
            reported=body.get("stats") if isinstance(body.get("stats"), dict) else None,
        )
        self.send_found(payload, f"unknown node {node_id!r}; re-register")

    def post_unregister(self, node_id: str) -> None:
        self.send_found(self.backend.unregister_node(node_id),
                        f"unknown node {node_id!r}")

    def post_drain(self, node_id: str) -> None:
        self.send_found(self.backend.drain(node_id), f"unknown node {node_id!r}")

    def post_undrain(self, node_id: str) -> None:
        self.send_found(self.backend.undrain(node_id), f"unknown node {node_id!r}")


class GatewayServer(HttpService):
    """Owns one :class:`Router` plus the HTTP listener bound to it.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`).

    Usage::

        with GatewayServer(port=0, dead_after=2.0) as gw:
            # point `repro serve --register <gw.url>` nodes at it
            client = ServiceClient(gw.url)
            ...
    """

    def __init__(
        self,
        router: Router | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        verbose: bool = False,
        **router_kwargs,
    ) -> None:
        if router is not None and router_kwargs:
            raise ValueError("pass router kwargs or an instance, not both")
        self.router = router or Router(**router_kwargs)
        super().__init__(_Handler, self.router, host, port, verbose)

    def _start_backend(self) -> None:
        self.router.start()

    def _stop_backend(self) -> None:
        self.router.stop()
