"""The real source tree passes its own static analysis.

This is the acceptance gate CI enforces (`repro check`): every guarded
class obeys its declared lock, no wall-clock duration math, the route
tables of node, gateway and clients agree, and the lock graph is acyclic.
"""

from __future__ import annotations

from analysis_helpers import REPO_ROOT, SRC, check_paths


def test_repo_tree_is_clean(tmp_path, monkeypatch):
    # Pin the sanitizer report to a path that does not exist, so a stale
    # local .repro_sanitize_report.json (e.g. from a sanitize run that
    # exercised the fixture packages) cannot skew the SAN001 diff here.
    monkeypatch.setenv("REPRO_SANITIZE_REPORT", str(tmp_path / "absent.json"))
    report = check_paths(SRC)
    assert report.findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in report.findings)
    assert report.files_checked > 100  # the whole package was actually walked


def test_lock_graph_sees_the_real_cross_class_edges():
    """Guard against the checker passing vacuously: the scheduler really
    does take the queue/pool locks inside its own, and that must show up
    as graph edges (just not as a cycle)."""
    from repro.analysis import locks
    from repro.analysis.engine import ParsedFile, Project, discover_files

    files = [ParsedFile(str(REPO_ROOT), p)
             for p in discover_files([str(SRC)])]
    project = Project(str(REPO_ROOT), files)
    classes = {info.name
               for pf in files for info in locks._collect_guarded_classes(pf)}
    assert {"Scheduler", "JobQueue", "Router", "NodeRegistry", "EvalCache",
            "NodeAgent", "SpanStore", "TraceLogger", "ProcessJobPool",
            "Counter", "Gauge", "Histogram", "MetricFamily",
            "MetricsRegistry"} <= classes
    edges = locks.collect_lock_edges(project)
    edge_set = {(e.src, e.dst) for e in edges}
    assert ("Scheduler._lock", "JobQueue._cond") in edge_set
    assert ("Scheduler._lock", "ProcessJobPool._lock") in edge_set
    assert locks._find_cycles(edges) == []


def test_wire_checker_reads_the_real_route_tables():
    """Guard against WIRE001 passing vacuously: a renamed or reshaped
    ``ROUTES`` table would extract nothing and flag nothing."""
    from repro.analysis import wire
    from repro.analysis.engine import ParsedFile

    def parsed(suffix):
        return ParsedFile(str(REPO_ROOT), str(SRC / suffix))

    base = parsed(wire.HTTP_BASE)
    node = wire._declared_routes(parsed(wire.NODE_SERVER), base)
    gateway = wire._declared_routes(parsed(wire.GATEWAY_SERVER), base)
    assert sum(len(routes) for routes in node.values()) >= 8
    assert sum(len(routes) for routes in gateway.values()) >= 12
    # The shared table reaches both through the ``**JsonHandler.ROUTES`` spread.
    assert {"/stats", "/metrics", "/trace/"} <= set(node["GET"]) & set(gateway["GET"])
    assert "/heartbeat/" in gateway["POST"] and "/cancel/" in node["POST"]
