#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Runs every workload of BENCHMARK.json once at a tiny size, untraced and
traced, and checks the result line: its keys, that every op passed its
gate, and that every metric BENCHMARK.json names is present with its
unit. It also checks that the benchmark fails without printing a result
when the package sources are missing. Run from the repository root:

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_run(spec, workload, trace):
    """Problems with one tiny run, as a list of strings."""
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.01",
                             "--trace", str(trace), "--tiny"]
    done = run(cmd, ROOT)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: gates did not all pass: {result}\n{done.stderr}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} reads {got}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_without_sources(spec):
    """The benchmark must fail, printing no result, beside no sources."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        done = run(spec["command"] + ["--workload", workload, "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit code {done.returncode}, stdout {done.stdout!r}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
            print(f"ran {workload['name']} --trace {trace}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
