#!/usr/bin/env python3
"""The ledger benchmark: six workloads, end-to-end and per-layer metrics.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/ledger/run.py --seed 0``
    every workload, untraced; add ``--traced`` to repeat each with the timing
    wrappers of ``spans.py`` installed, ``--runs N`` for a set of runs and
    ``--out FILE`` to keep the result (what ``compare.py`` reads).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, as the driver of ``BENCHMARK.json`` calls it; the last line
    of standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``.

This file is the parent: per workload it has the inputs generated from the
seed, then starts one fresh child process, which gets only the generated files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / "_work"           # generated inputs and outputs; removed after each run
SETUPS = 3                      # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    load1 = os.getloadavg()[0]
    if load1 > 1.0:
        print(f"warning: 1-min load average is {load1:.2f} (> 1.0); timings will be noisy",
              file=sys.stderr)
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "load1_at_start": load1}


def run_workload(name: str, seed: int, size: str, scale: float, trace: bool) -> dict:
    """Generate, start the child, return its result plus ``setup_seconds``.

    A set-up is generation + child start + warm-up.  Generation runs in a
    process of its own (its cost then does not depend on what this process
    did before), once per run.  An untraced run starts ``SETUPS`` children on
    the generated files (all but the last stop after warm-up) so that
    ``setup_s`` is a median; a traced run, which does not report it, one.
    """
    workdir = WORK / f"w{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    # Keep the program's temporary files (the process pool's socket) inside the
    # checkout, unless that would push a socket path past the 108-byte limit.
    if len(str(workdir)) <= 70:
        env["TMPDIR"] = str(workdir)

    def child(*flags: str) -> float:
        """Run ``workloads.py`` on ``workdir``; returns when it was started."""
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name,
             "--dir", str(workdir), *flags],
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
            check=False)
        if done.returncode != 0:
            raise RuntimeError(f"{name}: workloads.py {' '.join(flags)} exited "
                               f"{done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-4000:]}")
        return t0

    setups = 1 if trace or size == "smoke" else SETUPS
    setup_seconds = []
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = child("--generate", str(seed), size, str(scale))
        generate_s = time.time() - t0
        for k in range(setups):
            t0 = child("--trace", str(int(trace)), *(["--setup-only"] if k < setups - 1 else []))
            result = json.loads((workdir / "result.json").read_text())
            setup_seconds.append(generate_s + result["ready_at"] - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    result["setup_seconds"] = setup_seconds
    return result


def measure(name: str, seed: int, size: str, scale: float, trace: bool) -> dict:
    """One workload's metrics and counts, ready to print or store."""
    import metrics

    result = run_workload(name, seed, size, scale, trace)
    attempted, failed = metrics.failed_ops(result)
    out = {
        "attempted": attempted, "failed": failed,
        "compress_ops": len(result["compress_ops"]),
        "decompress_ops": len(result["decompress_ops"]),
        "checks": result["checks"], "check_failures": result["check_failures"][:20],
        "op_errors": [op["error"] for op in result["compress_ops"] + result["decompress_ops"]
                      if op["error"]][:20],
        "rank_violations": [] if size == "smoke" else metrics.rank_violations(result),
        "phase_wall_s": result["compress_wall_s"] + result["decompress_wall_s"],
    }
    if trace:
        out["per_layer"] = metrics.per_layer(result)
        out["span_records"] = result["spans"]["records"]
        out["spans_missing"] = result["spans"]["missing"]
    else:
        out["end_to_end"] = metrics.end_to_end(result, statistics.median(result["setup_seconds"]))
        out["setup_seconds"] = result["setup_seconds"]
    return out


def problems(out: dict) -> list[str]:
    """Everything a reader must see before trusting the numbers of ``out``."""
    return out["check_failures"] + out["op_errors"] + out["rank_violations"]


def print_metrics(title: str, values: dict, declared: list[dict]) -> None:
    print(f"== {title}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def contract_mode(args, spec: dict) -> int:
    trace = bool(args.trace)
    scale = args.seconds / spec["run_seconds"]
    out = measure(args.workload, args.seed, args.scale, scale, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = out["per_layer"] if trace else out["end_to_end"]
    print_metrics(f"{args.workload} ({'traced' if trace else 'untraced'}, seed {args.seed}, "
                  f"{out['compress_ops']}+{out['decompress_ops']} ops)", values, declared)
    for line in problems(out):
        print(f"  ! {line}", file=sys.stderr)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def ledger_mode(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    record = {"environment": environment(args.seed), "scale": args.scale, "runs": []}
    spans: dict[str, list] = {}
    bad = 0
    for run in range(args.runs):
        workloads: dict[str, dict] = {}
        for name in names:
            plain = measure(name, args.seed, args.scale, 1.0, trace=False)
            print_metrics(f"{name}  run {run + 1}/{args.runs}  "
                          f"({plain['compress_ops']}+{plain['decompress_ops']} ops, "
                          f"{plain['failed']} failed of {plain['attempted']})",
                          plain["end_to_end"], spec["end_to_end"])
            if args.traced:
                traced = measure(name, args.seed, args.scale, 1.0, trace=True)
                spans[name] = traced.pop("span_records")
                layer = traced["per_layer"]
                layer["bench.trace_overhead_frac"] = (
                    traced["phase_wall_s"] / plain["phase_wall_s"] - 1.0)
                plain["traced"] = traced
            for line in problems(plain):
                print(f"  ! {line}")
            bad += plain["failed"] + len(plain["rank_violations"])
            workloads[name] = plain
        if args.traced:
            # the gateway tax needs both service workloads of the same run
            tax = (workloads["gateway_closed"]["end_to_end"]["op_p50_s"]
                   - workloads["serve_closed"]["end_to_end"]["op_p50_s"])
            for name in names:
                layer = workloads[name]["traced"]["per_layer"]
                layer["gateway.tax_p50_s"] = tax if name == "gateway_closed" else 0.0
                print_metrics(f"{name}  per layer", layer, spec["per_layer"])
        record["runs"].append(workloads)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        if args.traced:  # the last run's span records, beside the summary
            out.with_suffix(".spans.json").write_text(json.dumps(spans))
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="with --workload: scales the op plan "
                        "(the plan is sized for run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics instead")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a handful of ops per workload (the Tier-1 test)")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also run every workload traced")
    parser.add_argument("--runs", type=int, default=1, help="without --workload: runs in the set")
    parser.add_argument("--out", help="without --workload: write the result file here")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    spec = load_spec()
    if args.workload is None:
        return ledger_mode(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return contract_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
