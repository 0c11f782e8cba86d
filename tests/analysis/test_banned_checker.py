"""BAN001-BAN004: banned patterns."""

from __future__ import annotations

from analysis_helpers import FIXTURES, check_paths, findings_for, line_of

BANNED = FIXTURES / "bannedviol.py"


def test_bare_except_flagged():
    report = check_paths(BANNED)
    findings = findings_for("BAN001", report)
    assert len(findings) == 1
    assert findings[0].line == line_of(BANNED, "SEEDED: bare-except")


def test_pickle_loads_flagged_outside_executor():
    report = check_paths(BANNED)
    findings = findings_for("BAN002", report)
    assert len(findings) == 1
    assert findings[0].line == line_of(BANNED, "SEEDED: pickle-loads")
    assert "parallel/executor.py" in findings[0].message


def test_mutable_default_flagged():
    report = check_paths(BANNED)
    findings = findings_for("BAN003", report)
    assert len(findings) == 1
    assert findings[0].line == line_of(BANNED, "SEEDED: mutable-default")
    assert "collect" in findings[0].message


def test_pickle_allowed_in_executor_module():
    from analysis_helpers import SRC

    report = check_paths(SRC / "parallel" / "executor.py")
    assert findings_for("BAN002", report) == []


def test_second_transport_flagged_outside_client():
    report = check_paths(BANNED)
    findings = findings_for("BAN004", report)
    assert len(findings) == 1
    assert findings[0].line == line_of(BANNED, "SEEDED: second-transport")
    assert "serve/client.py" in findings[0].message


def test_transport_and_listener_allowed_in_their_one_module():
    from analysis_helpers import SRC

    report = check_paths(SRC / "serve" / "client.py", SRC / "serve" / "http.py")
    assert findings_for("BAN004", report) == []
