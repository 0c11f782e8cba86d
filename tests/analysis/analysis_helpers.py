"""Shared plumbing for the static-analysis tests."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import run_checks

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = REPO_ROOT / "src" / "repro"


def check_paths(*paths):
    """Run every checker over ``paths``."""
    return run_checks([str(p) for p in paths], root=str(REPO_ROOT))


def findings_for(rule, report):
    return [f for f in report.findings if f.rule == rule]


def line_of(path: Path, marker: str) -> int:
    """1-based line of the seeded-violation marker comment in a fixture."""
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        if marker in text:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in {path}")
