#!/usr/bin/env python3
"""Smoke self-test of the benchmark (about a minute on 2 cores).

    python3 bench/smoke.py

Runs every workload once at minimal length (--seconds 0: one campaign, two
when traced), untraced and traced, with the reference seed 0.  It asserts
that each run exits 0, that every metric BENCHMARK.json names appears with
its unit, that error_rate is 0, and that the exact counts of the reference
configs hold.  Last, it checks that the benchmark fails without printing a
result in a directory holding only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# counts that repeat exactly for seed 0
EXPECTED = {
    "extinction_1d": {"solver.steps": 68400, "extinction.decay_samples_calls": 3},
    "harnack_2d": {
        "harnack.checks": 90,
        "solver.steps": 29760,
        "harnack.cube_integral_calls": 10926,
    },
    "periodic_3d": {"solver.steps": 1400, "harnack.not_applicable": 2},
}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split()
        printed[name] = (float(value), unit)
    assert printed["error_rate"][0] == 0.0, printed["error_rate"]
    assert "host.ref_loop_s.before" in printed and "host.ref_loop_s.after" in printed
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}, sorted(result["metrics"])
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert printed[m["name"]] == (got["value"], m["unit"]), m["name"]
        if not trace:
            assert got["value"] > 0.0, m["name"]
    if trace:
        for name, value in EXPECTED[workload].items():
            assert result["metrics"][name]["value"] == value, (name, result["metrics"][name])
    print(f"ok {workload} trace={trace} campaigns={result['attempted']}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = os.path.join(BENCH_DIR, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "extinction_1d", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok bare directory fails without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in sorted(w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
