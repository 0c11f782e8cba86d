"""WIRE001: route drift between the servers' tables and their clients."""

from __future__ import annotations

from analysis_helpers import FIXTURES, check_paths, findings_for, line_of

WIREDRIFT = FIXTURES / "wiredrift"
DRIFT_CLIENT = WIREDRIFT / "serve" / "client.py"


def test_drifted_route_flagged_at_client_call_site():
    report = check_paths(WIREDRIFT)
    findings = findings_for("WIRE001", report)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "tests/analysis/fixtures/wiredrift/serve/client.py"
    assert finding.line == line_of(DRIFT_CLIENT, "SEEDED: route-drift")
    assert "/resultz/" in finding.message


def test_handled_route_not_flagged():
    # /submit exists on both sides: no finding may mention it.
    report = check_paths(WIREDRIFT)
    assert not any("'/submit'" in f.message
                   for f in findings_for("WIRE001", report))
