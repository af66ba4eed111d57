#!/usr/bin/env python3
"""gaussfid benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout, so the same benchmark code measures any commit.  Each
workload runs in a fresh worker process (worker.py) with one BLAS thread;
``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones.  While the worker pauses between rounds, this script runs its probes:
fresh set-up-only workers for ``setup_s``, or fresh interpreter and import
start-ups for the traced run, so that probes and ops sample the same
stretch of time.  Report lines (``# name value unit``) come first, the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/NOTES.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Wall-clock limit of the worker process beyond --seconds, and of a probe.
WORKER_SLACK = 150.0
PROBE_TIMEOUT = 30.0

OUT_DIR = ".perfbench_out"


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("GAUSSFID_TOL_PURE", None)  # the CLI reads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


class Worker:
    """A worker process whose set-up time is measured from spawn to READY."""

    def __init__(self, argv, env, root, timeout):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.start()

    def wait_ready(self) -> float:
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.t0
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker exited during set-up (code {self.proc.returncode})")
        return setup

    def finish(self, probe=None) -> str:
        """Run ``probe`` at each of the worker's pauses until it exits; return
        the rest of its output.  The worker is killed if anything fails."""
        lines = []
        try:
            for line in self.proc.stdout:
                if line.strip() == "PAUSE":
                    probe()
                    self.proc.stdin.write("GO\n")
                    self.proc.stdin.flush()
                else:
                    lines.append(line)
            self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc.stdin.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker failed with code {self.proc.returncode}")
        return "".join(lines)


def start_up_ms(code: str, env, root) -> float:
    """Wall time of a fresh `python -c <code>` process, spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                   timeout=PROBE_TIMEOUT)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussfid benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for perfbench/smoke.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gaussfid" / "__init__.py").is_file():
        print("run.py: no src/gaussfid here; run from the root of a gaussfid checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--size", args.size, "--out", str(out)]

    # Fill the bytecode cache so that no measured start-up compiles the package.
    subprocess.run([sys.executable, "-c", "import gaussfid"], cwd=root, env=env, check=True,
                   timeout=PROBE_TIMEOUT)
    setups = []
    probes = {"cli.interpreter_ms": [], "cli.import_ms": []}

    def probe():
        if args.trace:
            probes["cli.interpreter_ms"].append(start_up_ms("pass", env, root))
            probes["cli.import_ms"].append(start_up_ms("import gaussfid", env, root))
        else:
            fresh = Worker([*worker_argv, "--seconds", "0", "--setup-only"], env, root,
                           PROBE_TIMEOUT)
            setups.append(fresh.wait_ready())
            fresh.finish()

    worker = Worker([*worker_argv, "--seconds", repr(args.seconds),
                     "--trace", str(args.trace)], env, root, args.seconds + WORKER_SLACK)
    setups.append(worker.wait_ready())
    lines = worker.finish(probe).strip().splitlines()
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        for name, values in probes.items():
            metrics[name] = {"value": statistics.median(values), "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["report"].append(("setup_runs", len(setups), "count"))
    for name, value, unit in result["report"]:
        print(f"# {name} {value} {unit}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name in sorted(metrics):
        print(f"# metric {name} {metrics[name]['value']} {metrics[name]['unit']}")
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**final, "report": result["report"], "env": result["env"]}, indent=1))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
