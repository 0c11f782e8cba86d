"""Tier-1 smoke test of the ledger benchmark (`--scale smoke`, a handful of ops).

Guards what a later PR may not notice it broke: that every metric declared in
``BENCHMARK.json`` is emitted under a contract-conformant name, that
``BENCHMARK.json``, ``run.py`` and the README agree, and that every target of
the span table still resolves (``bench.spans_missing == 0``).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
README = (HERE / "README.md").read_text()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Every workload once, untraced: the single command of the README."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    record = json.loads(out.read_text())
    record["stdout"] = done.stdout
    return record


@pytest.fixture(scope="module")
def traced() -> dict:
    """One workload traced, as the driver calls it.  Installing the wrappers
    resolves the whole span table, whatever the workload."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fixed_bound", "--scale", "smoke",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_emitted(smoke):
    (run,) = smoke["runs"]
    assert sorted(run) == sorted(WORKLOAD_NAMES)
    for name in WORKLOAD_NAMES:
        workload = run[name]
        assert workload["failed"] == 0, (name, workload["check_failures"], workload["op_errors"])
        assert workload["attempted"] >= 1 and workload["checks"] >= 1
        assert sorted(workload["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        for metric, value in workload["end_to_end"].items():
            assert value > 0 and value == value, (name, metric, value)
            assert f"  {metric} " in smoke["stdout"], f"{metric} is not printed by name"


def test_every_per_layer_metric_is_emitted_and_the_span_table_resolves(traced):
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 1
    assert set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    assert values["bench.spans_missing"] == 0
    # fixed_bound: the kernels work, the search, cache and service layers do not
    assert values["pressio.compress_calls"] > 0 and values["codecs.huffman_msym"] > 0
    for name, value in values.items():
        if name.split(".")[0] in ("core", "cache", "optimize", "stream", "serve", "gateway"):
            assert value == 0, (name, value)


def test_result_file_records_its_environment(smoke):
    assert set(smoke["environment"]) >= {
        "git_sha", "nproc", "cpu_model", "python", "numpy", "seed", "load1_at_start"}


def test_benchmark_json_run_py_and_readme_agree():
    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(HERE))
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert SPEC["paths"] == [str(HERE.relative_to(ROOT))]
    assert SPEC["command"][-1] == f"{SPEC['paths'][0]}/run.py"
    assert f'paths: ["{SPEC["paths"][0]}"]' in README
    for workload in SPEC["workloads"]:
        assert f"| `{workload['name']}` |" in README and workload["why"] in README
    for metric in SPEC["end_to_end"]:
        row = (f"| `{metric['name']}` | {metric['unit']} | {metric['better']} "
               f"| {metric['bound']:g} |")
        assert row in README, row
    for metric in SPEC["per_layer"]:
        row = f"| `{metric['name']}` | {metric['unit']} | {metric['better']} |"
        assert row in README, row
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOAD_NAMES
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)


def test_compare_reports_a_breach(smoke, tmp_path):
    base = {"environment": smoke["environment"], "runs": smoke["runs"]}
    slower = copy.deepcopy(base)
    for run in slower["runs"]:
        run["fixed_bound"]["end_to_end"]["compress_mb_s"] *= 0.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slower))
    same = subprocess.run([sys.executable, str(HERE / "compare.py"), str(a), str(a)],
                          capture_output=True, text=True, check=False)
    assert same.returncode == 0, same.stdout + same.stderr
    worse = subprocess.run([sys.executable, str(HERE / "compare.py"), str(a), str(b)],
                           capture_output=True, text=True, check=False)
    assert worse.returncode == 1 and "BREACH" in worse.stdout, worse.stdout + worse.stderr
