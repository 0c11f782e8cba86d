"""Wire-protocol drift checker.

Three sides of the HTTP protocol exist by design — the node server
(``serve/server.py``), the gateway (``gateway/server.py`` +
``gateway/router.py``), and the consumers (``serve/client.py``,
``serve/agent.py``, the CLI) — plus the report schema in
``api/report.py`` that every ``/result`` body carries.  This checker
extracts each side from the AST and fails when they disagree.

``WIRE001`` — route drift, against the ``ROUTES`` tables the two server
    modules declare on top of the shared one in ``serve/http.py``:
    * every path literal the client requests must be declared by the
      node server;
    * every path the node agent posts must be declared by the gateway;
    * the gateway mirrors the node's query surface (``GET`` route
      parity) and both accept ``POST /submit`` — a ``ServiceClient``
      pointed at a gateway must work unchanged.
``WIRE002`` — payload field drift:
    * every key consumers subscript off a submit ticket
      (``ticket["..."]``) must be present in every 202 ticket producer
      (node handler and gateway router);
    * all terminal ``/result`` payload producers must agree on the
      exact key set.
``WIRE003`` — report schema drift: each ``api/report.py`` dataclass's
    ``to_dict`` keys must equal its field names plus the
    ``kind``/``streamed`` envelope (``from_stream`` travels as
    ``streamed``).

Checks that need a role file silently skip when the project under
analysis does not contain it — fixture trees exercise one role pair at
a time.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ParsedFile, Project, checker

RULES = {
    "WIRE001": "endpoint route drift between handler, proxy, and client",
    "WIRE002": "JSON payload field drift between producer and consumer",
    "WIRE003": "report to_dict keys drift from dataclass fields",
}

NODE_SERVER = "serve/server.py"
GATEWAY_SERVER = "gateway/server.py"
GATEWAY_ROUTER = "gateway/router.py"
HTTP_BASE = "serve/http.py"
CLIENT = "serve/client.py"
AGENT = "serve/agent.py"
REPORT = "api/report.py"

#: Wrapper keys ``to_dict`` may add beyond the dataclass fields.
ENVELOPE_KEYS = {"kind", "streamed"}
#: Field -> wire-key renames the report schema deliberately keeps.
FIELD_ALIASES = {"from_stream": "streamed"}


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
# payload extraction


def _dict_keys(node: ast.Dict) -> set[str] | None:
    """Constant string keys of a dict literal (None if any key is dynamic)."""
    keys: set[str] = set()
    for key in node.keys:
        if key is None:  # **spread — can't reason statically
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _send_202_dicts(pf: ParsedFile) -> list[tuple[ast.Dict, set[str]]]:
    """Ticket/pending payload literals: 202 responses and ``ticket = {...}``."""
    out = []
    for node in ast.walk(pf.tree):
        dict_node = None
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send_json" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 202
                and isinstance(node.args[1], ast.Dict)):
            dict_node = node.args[1]
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id == "ticket"
                      for t in node.targets)):
            dict_node = node.value
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Constant)
              and node.elts[0].value == 202
              and isinstance(node.elts[1], ast.Dict)):
            dict_node = node.elts[1]
        if dict_node is not None:
            keys = _dict_keys(dict_node)
            if keys is not None:
                out.append((dict_node, keys))
    return out


def _result_payload_dicts(pf: ParsedFile) -> list[tuple[ast.Dict, set[str]]]:
    """Terminal ``/result`` payload literals: dicts carrying a "result" key."""
    out = []
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.Dict):
            keys = _dict_keys(node)
            if keys is not None and "result" in keys and "state" in keys:
                out.append((node, keys))
    return out


def _ticket_subscripts(project: Project) -> dict[str, tuple[ParsedFile, ast.AST]]:
    """Keys subscripted off a name called ``ticket`` anywhere in the tree."""
    out: dict[str, tuple[ParsedFile, ast.AST]] = {}
    for pf in project.files:
        for node in ast.walk(pf.tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "ticket"
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                out.setdefault(node.slice.value, (pf, node))
    return out


# ---------------------------------------------------------------------------
# the checker


def _check_routes(project: Project) -> list[Finding]:
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


def _check_payloads(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    producers: list[tuple[ParsedFile, ast.Dict, set[str]]] = []
    for suffix in (NODE_SERVER, GATEWAY_ROUTER):
        pf = project.find(suffix)
        if pf is None:
            continue
        for node, keys in _send_202_dicts(pf):
            producers.append((pf, node, keys))
    required = _ticket_subscripts(project)
    if producers and required:
        for key, (consumer_pf, consumer_node) in sorted(required.items()):
            for producer_pf, producer_node, keys in producers:
                if key not in keys:
                    findings.append(consumer_pf.finding(
                        "WIRE002", consumer_node,
                        f'ticket["{key}"] is consumed here but the 202 '
                        f"producer at {producer_pf.path}:{producer_node.lineno} "
                        f"does not emit it"))

    result_producers: list[tuple[ParsedFile, ast.Dict, set[str]]] = []
    for suffix in (NODE_SERVER, GATEWAY_ROUTER):
        pf = project.find(suffix)
        if pf is None:
            continue
        for node, keys in _result_payload_dicts(pf):
            result_producers.append((pf, node, keys))
    if len(result_producers) > 1:
        ref_pf, ref_node, ref_keys = result_producers[0]
        for pf, node, keys in result_producers[1:]:
            if keys != ref_keys:
                drift = sorted(keys.symmetric_difference(ref_keys))
                findings.append(pf.finding(
                    "WIRE002", node,
                    f"/result payload keys drift from "
                    f"{ref_pf.path}:{ref_node.lineno}: differing keys {drift}"))
    return findings


def _check_reports(project: Project) -> list[Finding]:
    pf = project.find(REPORT)
    if pf is None:
        return []
    findings: list[Finding] = []
    for cls in ast.walk(pf.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            or (isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr == "dataclass")
            for d in cls.decorator_list)
        if not is_dataclass:
            continue
        fields = []
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.dump(stmt.annotation)):
                fields.append(stmt.target.id)
        to_dict = next((m for m in cls.body
                        if isinstance(m, ast.FunctionDef) and m.name == "to_dict"),
                       None)
        if to_dict is None or not fields:
            continue
        returned = next((s.value for s in ast.walk(to_dict)
                         if isinstance(s, ast.Return)
                         and isinstance(s.value, ast.Dict)), None)
        if returned is None:
            continue
        keys = _dict_keys(returned)
        if keys is None:
            continue
        for field in fields:
            wire_key = FIELD_ALIASES.get(field, field)
            if wire_key not in keys:
                findings.append(pf.finding(
                    "WIRE003", returned,
                    f"{cls.name}.{field} never reaches the wire: "
                    f"to_dict() omits key {wire_key!r}"))
        allowed = set(fields) | ENVELOPE_KEYS | {
            FIELD_ALIASES.get(f, f) for f in fields}
        for key in sorted(keys - allowed):
            findings.append(pf.finding(
                "WIRE003", returned,
                f"{cls.name}.to_dict() emits unknown key {key!r} "
                f"(no matching dataclass field)"))
    return findings


EXAMPLES = {
    "WIRE001": ('# client.py\nself._request("GET", f"/stat/{job_id}")  # server routes /status/',
                '# client.py\nself._request("GET", f"/status/{job_id}")'),
    "WIRE002": ('payload["jobid"]  # producer writes "job_id"',
                'payload["job_id"]'),
    "WIRE003": ('def to_dict(self):\n    return {"ratio": self.ratio}  # dataclass also has "seconds"',
                'def to_dict(self):\n    return {"ratio": self.ratio, "seconds": self.seconds}'),
}


@checker("wire-protocol", scope="project", rules=RULES, examples=EXAMPLES)
def check_wire(project: Project) -> list[Finding]:
    return _check_routes(project) + _check_payloads(project) + _check_reports(project)
