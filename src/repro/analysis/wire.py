"""Wire-protocol drift checker.

Three sides of the HTTP protocol exist by design — the node server
(``serve/server.py``), the gateway (``gateway/server.py``), and the
consumers (``serve/client.py``, ``serve/agent.py``).  This checker
extracts each side's routes from the AST and fails when they disagree.
(Payload *fields* need no lint: report and job wire dicts are derived
from their dataclass fields, and both tiers build the ticket and
``/result`` bodies with the one function each in ``serve/http.py``.)

``WIRE001`` — route drift, against the ``ROUTES`` tables the two server
    modules declare on top of the shared one in ``serve/http.py``:
    * every path literal the client requests must be declared by the
      node server;
    * every path the node agent posts must be declared by the gateway;
    * the gateway mirrors the node's query surface (``GET`` route
      parity) and both accept ``POST /submit`` — a ``ServiceClient``
      pointed at a gateway must work unchanged.

Checks that need a role file silently skip when the project under
analysis does not contain it — fixture trees exercise one role pair at
a time.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ParsedFile, Project, checker

RULES = {
    "WIRE001": "endpoint route drift between handler, proxy, and client",
}

NODE_SERVER = "serve/server.py"
GATEWAY_SERVER = "gateway/server.py"
HTTP_BASE = "serve/http.py"
CLIENT = "serve/client.py"
AGENT = "serve/agent.py"


def _norm(route: str) -> str:
    return route.rstrip("/") or "/"


def _is_route_literal(value: str) -> bool:
    return (len(value) > 1 and value.startswith("/")
            and all(c.isalnum() or c in "_-/" for c in value[1:]))


# ---------------------------------------------------------------------------
# route extraction


def _declared_routes(pf: ParsedFile, base: ParsedFile | None = None,
                     ) -> dict[str, dict[str, ast.AST]]:
    """Routes a server module declares: method -> {route: node}.

    Read off its ``ROUTES = {(method, route): "handler"}`` literals; a
    ``**JsonHandler.ROUTES`` spread pulls in the table of ``base`` (the
    shared ``serve/http.py``).
    """
    out: dict[str, dict[str, ast.AST]] = {"GET": {}, "POST": {}}
    for stmt in ast.walk(pf.tree):
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "ROUTES"
                        for t in stmt.targets)):
            continue
        for key in stmt.value.keys:
            if key is None and base is not None:
                for method, routes in _declared_routes(base).items():
                    out[method].update(routes)
            elif (isinstance(key, ast.Tuple) and len(key.elts) == 2
                  and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                          for e in key.elts)):
                method, route = (e.value for e in key.elts)
                if method in out and _is_route_literal(route):
                    out[method][route] = key
    return out


def _requested_routes(pf: ParsedFile) -> dict[str, ast.AST]:
    """Path literals a client-side module requests: route -> AST node.

    Catches plain string arguments (``"/submit"``) and f-strings whose
    literal head is the route prefix (``f"/status/{job_id}"``).
    """
    out: dict[str, ast.AST] = {}
    for node in ast.walk(pf.tree):
        if not isinstance(node, ast.Call):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and _is_route_literal(arg.value)):
                out.setdefault(arg.value, arg)
            elif isinstance(arg, ast.JoinedStr) and arg.values:
                head = arg.values[0]
                if (isinstance(head, ast.Constant)
                        and isinstance(head.value, str)
                        and _is_route_literal(head.value)):
                    out.setdefault(head.value, arg)
    return out


# ---------------------------------------------------------------------------
# the checker


EXAMPLES = {
    "WIRE001": ('# client.py\nself._request("GET", f"/stat/{job_id}")  # server routes /status/',
                '# client.py\nself._request("GET", f"/status/{job_id}")'),
}


@checker("wire-protocol", scope="project", rules=RULES, examples=EXAMPLES)
def check_wire(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    node_pf = project.find(NODE_SERVER)
    gateway_pf = project.find(GATEWAY_SERVER)
    client_pf = project.find(CLIENT)
    agent_pf = project.find(AGENT)

    base_pf = project.find(HTTP_BASE)
    node_routes = _declared_routes(node_pf, base_pf) if node_pf else None
    gateway_routes = _declared_routes(gateway_pf, base_pf) if gateway_pf else None

    def handled(routes: dict[str, dict[str, ast.AST]]) -> set[str]:
        return {_norm(r) for method in routes.values() for r in method}

    if client_pf is not None and node_routes is not None:
        served = handled(node_routes)
        for route, node in sorted(_requested_routes(client_pf).items()):
            if _norm(route) not in served:
                findings.append(client_pf.finding(
                    "WIRE001", node,
                    f"client requests {route!r} but {NODE_SERVER} has no "
                    f"handler for it"))

    if agent_pf is not None and gateway_routes is not None:
        served = handled(gateway_routes)
        for route, node in sorted(_requested_routes(agent_pf).items()):
            if _norm(route) not in served:
                findings.append(agent_pf.finding(
                    "WIRE001", node,
                    f"agent requests {route!r} but {GATEWAY_SERVER} has no "
                    f"handler for it"))

    if node_routes is not None and gateway_routes is not None:
        # The gateway speaks the same client query protocol as a node.
        node_get = {_norm(r) for r in node_routes["GET"]}
        gw_get = {_norm(r) for r in gateway_routes["GET"]}
        for route in sorted(node_get - gw_get):
            findings.append(gateway_pf.finding(
                "WIRE001", None,
                f"gateway is missing node query route {route!r} "
                f"(GET surfaces must match so ServiceClient works unchanged)"))
        for route in sorted(gw_get - node_get):
            findings.append(node_pf.finding(
                "WIRE001", None,
                f"node server is missing gateway query route {route!r} "
                f"(GET surfaces must match so ServiceClient works unchanged)"))
        for pf, routes, who in ((node_pf, node_routes, "node server"),
                                (gateway_pf, gateway_routes, "gateway")):
            if "/submit" not in {_norm(r) for r in routes["POST"]}:
                findings.append(pf.finding(
                    "WIRE001", None, f"{who} does not accept POST /submit"))
    return findings
