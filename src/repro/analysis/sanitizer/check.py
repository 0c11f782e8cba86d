"""``SAN001`` — observed lock-order graph must be a subset of static.

The runtime sanitizer (this package's ``runtime`` module) emits a JSON
report of every cross-thread lock-order edge actually observed while
the threaded test shard ran.  This project-scope checker diffs those
observed edges against the static ``LOCK002`` graph: an edge the
runtime saw but the static model cannot derive means the static
approximation has drifted from reality (a callback, a dynamic dispatch,
or an attribute the type inference cannot see) — exactly the silent rot
the sanitizer exists to catch.  Missing report -> no findings, so plain
lint runs are unaffected; CI's sanitizer job produces the report and
the strict static-analysis run consumes it.
"""

from __future__ import annotations

import json
import os

from repro.analysis.engine import Finding, Project, checker
from repro.analysis.locks import collect_lock_edges
from repro.analysis.sanitizer import runtime
from repro.analysis.sanitizer.runtime import DEFAULT_REPORT, REPORT_ENV

__all__ = ["load_observed_edges"]

RULES = {
    "SAN001": "runtime-observed lock-order edge missing from the static "
              "LOCK002 graph",
}

#: Runtime-only rules (emitted by the sanitizer while tests run, never by
#: this checker) — registered here so ``--list-rules``/``--explain`` cover
#: the whole SAN family in one catalogue.
RUNTIME_RULES = dict(runtime.RULES)


def load_observed_edges(root: str) -> list[dict]:
    """Observed edges from the sanitizer report, or [] when absent."""
    path = os.environ.get(REPORT_ENV) or os.path.join(root, DEFAULT_REPORT)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return []
    edges = payload.get("edges") if isinstance(payload, dict) else None
    if not isinstance(edges, list):
        return []
    return [e for e in edges
            if isinstance(e, dict) and "src" in e and "dst" in e]


def _site_anchor(project: Project, edge: dict) -> tuple[str, int]:
    """Anchor a finding at the edge's first recorded acquisition site."""
    for site in edge.get("sites", []):
        path, _, line = str(site).rpartition(":")
        if project.get(path) is not None and line.isdigit():
            return path, int(line)
    return DEFAULT_REPORT, 1  # no resolvable site: anchor at the report itself


EXAMPLES = {
    "SAN001": ("# runtime report: EvalCache._lock -> Histogram._lock\n"
               "# static LOCK002 graph: (no such edge)",
               "# teach locks.py the attribute type the edge flows through,\n"
               "# or restructure so the nested acquisition goes away"),
}


EXAMPLES.update({
    "SAN101": ('@guarded_by("_lock", "_count")\nclass C:\n    def bump(self):\n        self._count += 1  # no lock held',
               '@guarded_by("_lock", "_count")\nclass C:\n    def bump(self):\n        with self._lock:\n            self._count += 1'),
    "SAN102": ("# thread 1 acquired A._lock then B._lock;\n# thread 2 acquired B._lock then A._lock",
               "# pick one global order for A._lock and B._lock and use it\n# on every code path"),
})


@checker("sanitizer-diff", scope="project", rules={**RULES, **RUNTIME_RULES},
         examples=EXAMPLES)
def check_sanitizer_diff(project: Project) -> list[Finding]:
    observed = load_observed_edges(project.root)
    if not observed:
        return []
    static = {(e.src, e.dst) for e in collect_lock_edges(project)}
    findings: list[Finding] = []
    for edge in observed:
        key = (str(edge["src"]), str(edge["dst"]))
        if key in static:
            continue
        path, line = _site_anchor(project, edge)
        sites = ", ".join(str(s) for s in edge.get("sites", [])[:3]) or "?"
        findings.append(Finding(
            rule="SAN001", path=path, line=line, col=0,
            message=f"observed lock-order edge {key[0]} -> {key[1]} "
                    f"(seen {edge.get('count', '?')}x at {sites}) is missing "
                    f"from the static LOCK002 graph"))
    return findings
