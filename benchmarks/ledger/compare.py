#!/usr/bin/env python3
"""Compare two sets of ledger runs against the bounds of ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py A.json B.json

``A.json`` and ``B.json`` are result files written by ``run.py --out`` (use
``--runs N`` for a set).  One row per (workload, end-to-end metric): the two
medians, by how much B is worse than A, the metric's bound, and each set's
own spread (inter-quartile distance over the median).  A row whose spread
exceeds the bound is *unresolved*, not unchanged; a row where B is worse than
A by more than the bound is a *breach*, and any breach makes the exit status
non-zero.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            in_a = [run[workload]["end_to_end"][name] for run in a["runs"] if workload in run]
            in_b = [run[workload]["end_to_end"][name] for run in b["runs"] if workload in run]
            if not in_a or not in_b:
                continue
            row = {
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": statistics.median(in_a), "b": statistics.median(in_b),
                "bound": metric["bound"],
                "spread_a": spread(in_a), "spread_b": spread(in_b),
            }
            row["worse_by"] = worse_by(row["a"], row["b"], metric["better"])
            if max(row["spread_a"], row["spread_b"]) > metric["bound"]:
                row["status"] = "unresolved"
            elif row["worse_by"] > metric["bound"]:
                row["status"] = "BREACH"
            else:
                row["status"] = "ok"
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b, spec)
    print(f"A: {argv[0]} ({len(a['runs'])} runs, {a['environment']['git_sha'][:12]})")
    print(f"B: {argv[1]} ({len(b['runs'])} runs, {b['environment']['git_sha'][:12]})")
    print(f"{'workload':<15} {'metric':<18} {'unit':<6} {'A median':>12} {'B median':>12} "
          f"{'B worse':>8} {'bound':>6} {'sprd A':>7} {'sprd B':>7}  status")
    for r in rows:
        print(f"{r['workload']:<15} {r['metric']:<18} {r['unit']:<6} {r['a']:>12.6g} "
              f"{r['b']:>12.6g} {r['worse_by']:>+8.1%} {r['bound']:>6.0%} "
              f"{r['spread_a']:>7.1%} {r['spread_b']:>7.1%}  {r['status']}")
    breaches = sum(r["status"] == "BREACH" for r in rows)
    unresolved = sum(r["status"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows: {breaches} breach(es), {unresolved} unresolved")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
