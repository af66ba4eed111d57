#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py        # from the root of a checkout

Runs every workload at the tiny size on a second seed, untraced and traced,
and asserts that the last line holds exactly the result keys and the metrics
BENCHMARK.json declares for the mode, each with its unit, that the
per-workload report names are printed with a unit, and that no op of the
default-range slices failed.
Last, it runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SEED = 2
SECONDS = "1"

#: Report lines every workload prints, besides its class's REPORTS.
COMMON_REPORTS = ("failed_frac", "wrong_frac", "setup_runs", "op_p50_ms", "ops_per_s",
                  "host_factor")
STIFF_REPORTS = ("stiff.pairs", "stiff.refused", "stiff.wrong")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def check_workload(root: Path, spec: dict, workload: str) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = run(root, workload, trace)
        assert done.returncode == 0, (
            f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}, final.keys()
        assert final["correct"] is True and final["failed"] == 0, (workload, trace, final)
        assert isinstance(final["attempted"], int) and final["attempted"] >= 1
        assert set(final["metrics"]) == {entry["name"] for entry in declared}, (
            workload, trace, sorted(final["metrics"]))
        for entry in declared:
            got = final["metrics"][entry["name"]]
            assert got["unit"] == entry["unit"], (workload, entry["name"], got)
            assert isinstance(got["value"], (int, float)), (workload, entry["name"], got)
        report = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "#" and parts[1] != "metric":
                report[parts[1]] = (float(parts[2]), parts[3])
        if trace == 0:
            names = wl.CLASSES[workload].REPORTS + COMMON_REPORTS
            for name in names + (STIFF_REPORTS if workload == "pairs-small" else ()):
                assert name in report, f"{workload}: report line {name} missing"
            assert report["failed_frac"][0] == 0.0, (workload, report["failed_frac"])
            if workload == "pairs-small":
                assert report["stiff.pairs"][0] >= 1
        else:
            assert report["trace.sum_check"][0] == 1, f"{workload}: span sums do not add up"
        print(f"smoke {workload} trace={trace}: ok ({final['attempted']} ops)")


def check_bare(root: Path) -> None:
    bare = root / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "pairs-small", 0)
        assert done.returncode != 0, "benchmark succeeded without src/"
        assert '"metrics"' not in done.stdout, "benchmark printed a result without src/"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke bare directory: exits non-zero without a result")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        check_workload(root, spec, entry["name"])
    check_bare(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
