"""Engine mechanics: registration, suppressions, ``--explain``, CLI exit codes."""

from __future__ import annotations

import json

import pytest
from analysis_helpers import FIXTURES, REPO_ROOT

from repro.analysis import engine
from repro.analysis.engine import (
    CheckReport,
    main,
    registered_checkers,
    rule_catalogue,
    run_checks,
)

LOCKVIOL = FIXTURES / "lockviol.py"


def test_builtin_suite_registers_all_checkers():
    names = set(registered_checkers())
    assert {"lock-discipline", "lock-order", "monotonic-clock",
            "wire-protocol", "banned-patterns"} <= names
    rules = rule_catalogue()
    for rule in ("LOCK001", "LOCK002", "MONO001", "MONO002", "WIRE001",
                 "BAN001", "BAN002", "BAN003", "BAN004"):
        assert rule in rules
    assert len(rules) == 16


def test_same_line_suppression_removes_the_finding(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import time\n\ndef f(t0):\n    return time.time() - t0\n")
    report = run_checks([str(src)], root=str(tmp_path))
    assert [f.rule for f in report.findings] == ["MONO001"]

    src.write_text("import time\n\ndef f(t0):\n"
                   "    return time.time() - t0  # repro: ignore[MONO001]\n")
    assert run_checks([str(src)], root=str(tmp_path)).findings == []


def test_syntax_error_reported_not_crashed(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def f(:\n")
    report = run_checks([str(src)], root=str(tmp_path))
    assert [f.rule for f in report.findings] == ["PARSE001"]


def test_cli_exit_codes_and_json_output(tmp_path, capsys):
    argv = [str(LOCKVIOL), "--root", str(REPO_ROOT)]
    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_rule"]["LOCK001"] == 2

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean), "--root", str(tmp_path)]) == 0


@pytest.mark.parametrize("flag", ["--strict", "--no-cache", "--baseline",
                                  "--write-baseline", "--update-baseline"])
def test_removed_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(LOCKVIOL), flag])
    assert exc.value.code == 2
    capsys.readouterr()


def test_human_output_has_source_excerpt(capsys):
    assert main([str(LOCKVIOL), "--root", str(REPO_ROOT)]) == 1
    out = capsys.readouterr().out
    assert "tests/analysis/fixtures/lockviol.py:" in out
    assert "LOCK001" in out
    assert "| " in out and "^" in out  # diff-style gutter + caret


def test_check_report_shape_is_stable():
    report = run_checks([str(LOCKVIOL)], root=str(REPO_ROOT))
    assert isinstance(report, CheckReport)
    assert set(report.to_dict()) == {"findings", "files_checked",
                                     "counts_by_rule"}


def test_run_leaves_no_file_behind(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    run_checks([str(src)], root=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mod.py"]


def test_explain_known_rule_prints_examples_and_exits_zero(capsys):
    assert main(["--explain", "RES001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RES001  ")
    assert "violates:" in out and "clean:" in out


def test_explain_unknown_rule_lists_catalogue_and_exits_one(capsys):
    assert main(["--explain", "NOPE999"]) == 1
    out = capsys.readouterr().out
    assert "unknown rule 'NOPE999'" in out
    assert "LOCK001" in out  # the catalogue is offered as a hint


def test_every_rule_has_an_explain_example():
    missing = [rule for rule in engine.rule_catalogue()
               if rule not in engine.rule_examples()]
    assert missing == []
