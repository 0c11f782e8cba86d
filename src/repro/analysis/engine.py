"""``repro check`` — dependency-free, ``ast``-based static analysis.

The service tier's correctness rests on three hand-maintained
conventions: lock discipline in the threaded modules, the monotonic
clock convention (``*_mono``), and the route tables the node server, the
gateway and their clients must agree on.  This engine makes those
conventions machine-checked at lint time.

Architecture
------------
* **Checkers** register themselves via :func:`checker` with a *scope*:

  - ``"file"`` checkers see one :class:`ParsedFile` at a time;
  - ``"project"`` checkers see the whole :class:`Project` (cross-file
    facts: lock-acquisition graph, wire-protocol agreement).

* **Suppressions**: a ``# repro: ignore[RULE]`` comment on the flagged
  line silences that rule there (``# repro: ignore`` silences all).  It
  is the one way to accept a finding; any finding left fails the run.

Importing :mod:`repro.analysis.checkers` registers the built-in suite;
see ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and how to add a
checker.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from typing import Callable

__all__ = [
    "Finding",
    "ParsedFile",
    "Project",
    "CheckReport",
    "checker",
    "registered_checkers",
    "rule_catalogue",
    "run_checks",
    "main",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


# ---------------------------------------------------------------------------
# findings


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violated at a location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# parsed files / project


class ParsedFile:
    """One source file: text, AST, and suppression map."""

    def __init__(self, root: str, abspath: str) -> None:
        self.abspath = abspath
        rel = os.path.relpath(abspath, root)
        self.path = rel.replace(os.sep, "/")
        with open(abspath, "r", encoding="utf-8") as fh:
            self.source = fh.read()
        self.lines = self.source.splitlines()
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree: ast.Module = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            self.syntax_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        #: line -> None (ignore all rules) or a set of rule ids.
        self.suppressions: dict[int, set[str] | None] = {}
        for lineno, text in enumerate(self.lines, start=1):
            if "#" not in text:
                continue
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self.suppressions[lineno] = None
            else:
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                self.suppressions[lineno] = ids

    def suppressed(self, finding: Finding) -> bool:
        if finding.line not in self.suppressions:
            return False
        rules = self.suppressions[finding.line]
        return rules is None or finding.rule in rules

    def finding(self, rule: str, node: ast.AST | None, message: str,
                line: int | None = None, col: int | None = None) -> Finding:
        """Build a finding anchored at ``node`` (or explicit line/col)."""
        if node is not None:
            line = getattr(node, "lineno", line or 1)
            col = getattr(node, "col_offset", col or 0)
        return Finding(rule=rule, path=self.path, line=line or 1,
                       col=col or 0, message=message)


class Project:
    """All files under check, with suffix lookup for role-based checkers."""

    def __init__(self, root: str, files: list[ParsedFile]) -> None:
        self.root = root
        self.files = files
        self._by_path = {pf.path: pf for pf in files}

    def find(self, suffix: str) -> ParsedFile | None:
        """The unique file whose repo-relative path ends with ``suffix``."""
        matches = [pf for pf in self.files if pf.path.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def get(self, path: str) -> ParsedFile | None:
        return self._by_path.get(path)


# ---------------------------------------------------------------------------
# checker registry


@dataclass(frozen=True)
class Checker:
    name: str
    scope: str  # "file" | "project"
    rules: dict  # rule id -> one-line description
    fn: Callable
    examples: dict  # rule id -> (violating snippet, clean snippet)


_CHECKERS: dict[str, Checker] = {}


def checker(name: str, *, scope: str, rules: dict,
            examples: dict | None = None):
    """Register a checker.

    ``scope="file"``: ``fn(pf: ParsedFile) -> list[Finding]``.
    ``scope="project"``: ``fn(project: Project) -> list[Finding]``.
    ``examples`` maps each rule id to a ``(violating, clean)`` snippet
    pair shown by ``repro check --explain RULE``.
    """
    if scope not in ("file", "project"):
        raise ValueError(f"scope must be 'file' or 'project', got {scope!r}")

    def register(fn):
        _CHECKERS[name] = Checker(name=name, scope=scope, rules=dict(rules),
                                  fn=fn, examples=dict(examples or {}))
        return fn

    return register


def registered_checkers() -> dict[str, Checker]:
    _load_builtin_checkers()
    return dict(_CHECKERS)


def rule_catalogue() -> dict[str, str]:
    """rule id -> description, across every registered checker."""
    out: dict[str, str] = {}
    for chk in registered_checkers().values():
        out.update(chk.rules)
    return dict(sorted(out.items()))


def rule_examples() -> dict[str, tuple[str, str]]:
    """rule id -> (violating, clean) snippet pair, where provided."""
    out: dict[str, tuple[str, str]] = {}
    for chk in registered_checkers().values():
        for rule, pair in chk.examples.items():
            out[rule] = (str(pair[0]), str(pair[1]))
    return dict(sorted(out.items()))


def _load_builtin_checkers() -> None:
    # Import for side effect: each module registers via @checker.
    from repro.analysis import (  # noqa: F401
        banned,
        clocks,
        exceptions,
        exports,
        locks,
        resources,
        wire,
    )
    from repro.analysis.sanitizer import check  # noqa: F401


# ---------------------------------------------------------------------------
# runner


@dataclass
class CheckReport:
    """Outcome of one ``run_checks`` invocation."""

    findings: list[Finding]
    files_checked: int

    @property
    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "files_checked": self.files_checked,
            "counts_by_rule": self.counts_by_rule,
        }


def default_root() -> str:
    """The repo root: ``src/repro/analysis/engine.py`` -> three levels up."""
    here = os.path.abspath(__file__)
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(here))))


def discover_files(paths: list[str]) -> list[str]:
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(set(out))


def run_checks(paths: list[str] | None = None, *,
               root: str | None = None) -> CheckReport:
    """Run every registered checker over ``paths`` (default: src/repro)."""
    root = os.path.abspath(root or default_root())
    if paths is None:
        paths = [os.path.join(root, "src", "repro")]
    checkers = registered_checkers()
    file_checkers = [c for c in checkers.values() if c.scope == "file"]
    project_checkers = [c for c in checkers.values() if c.scope == "project"]

    files = [ParsedFile(root, p) for p in discover_files(paths)]
    project = Project(root, files)

    findings: list[Finding] = []
    for pf in files:
        if pf.syntax_error is not None:
            exc = pf.syntax_error
            findings.append(Finding(
                rule="PARSE001", path=pf.path, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, message=f"syntax error: {exc.msg}"))
            continue
        for chk in file_checkers:
            findings.extend(chk.fn(pf))
    for chk in project_checkers:
        findings.extend(chk.fn(project))

    kept: list[Finding] = []
    for f in findings:
        pf = project.get(f.path)
        if pf is not None and pf.suppressed(f):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CheckReport(findings=kept, files_checked=len(files))


# ---------------------------------------------------------------------------
# output


def format_human(report: CheckReport, project_root: str) -> str:
    out: list[str] = []
    for f in report.findings:
        out.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}")
        src = _source_line(project_root, f)
        if src is not None:
            out.append(f"  {f.line:>5} | {src.rstrip()}")
            out.append(f"  {'':>5} | {' ' * f.col}^")
    status = ("clean" if not report.findings
              else f"{len(report.findings)} finding(s)")
    out.append(f"repro check: {status} — {report.files_checked} file(s)")
    return "\n".join(out)


def _source_line(root: str, f: Finding) -> str | None:
    try:
        with open(os.path.join(root, f.path), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return lines[f.line - 1]
    except (OSError, IndexError):
        return None


# ---------------------------------------------------------------------------
# CLI


def build_check_parser(parser: argparse.ArgumentParser | None = None,
                       ) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro check",
            description="Static analysis: lock discipline, clock convention, "
                        "wire-protocol drift, banned patterns.")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to check (default: src/repro)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="output format (default: human)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's catalogue entry plus a minimal "
                             "violating and clean example, then exit")
    return parser


def explain_rule(rule: str) -> tuple[str, int]:
    """The ``--explain RULE`` text and exit code."""
    catalogue = rule_catalogue()
    if rule not in catalogue:
        known = ", ".join(catalogue)
        return f"unknown rule {rule!r}; known rules: {known}", 1
    out = [f"{rule}  {catalogue[rule]}"]
    pair = rule_examples().get(rule)
    if pair is not None:
        bad, good = pair
        out.append("")
        out.append("violates:")
        out.extend(f"    {line}" for line in bad.strip("\n").splitlines())
        out.append("clean:")
        out.extend(f"    {line}" for line in good.strip("\n").splitlines())
    return "\n".join(out), 0


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, description in rule_catalogue().items():
            print(f"{rule}  {description}")
        return 0
    if args.explain is not None:
        text, code = explain_rule(args.explain)
        print(text)
        return code
    root = os.path.abspath(args.root or default_root())
    paths = [os.path.abspath(p) for p in args.paths] or None
    report = run_checks(paths, root=root)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_human(report, root))
    return 1 if report.findings else 0


def main(argv: list[str] | None = None) -> int:
    args = build_check_parser().parse_args(argv if argv is not None else sys.argv[1:])
    return run_from_args(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
