"""One benchmark workload in a fresh process: set up, run the closed loop, check.

run.py starts this script with PYTHONPATH set to the checkout's ``src/``.
The script prints ``READY`` once set-up (import, inputs, warm-up) is done;
with ``--setup-only`` it exits there.  Otherwise it runs the workload as a
closed loop with one client for ``--seconds``, checks every output outside
the timed region and prints one JSON line with the measurements.  The
untraced loop also times the yardstick (yardstick.py) between ops, which
gauges the host's speed for the scaled end-to-end timings.  Between
rounds it prints ``PAUSE`` a few times and waits for ``GO`` on its standard
input, while run.py runs its probes (set-up, start-up) in the same stretch
of time as the ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import stats
import tracing
import workloads as wl
from yardstick import Yardstick

SIZES = {
    "full": {
        "pairs-small": {"modes": (1, 2, 3, 4), "per_mode": 6, "stiff_states": 4},
        "pairs-large": {"modes": (64,), "per_mode": 4, "large": True},
        "metrology": {"points_per_family": 8},
        "tooling": {},
    },
    "tiny": {
        "pairs-small": {"modes": (1, 2), "per_mode": 3, "stiff_states": 2},
        "pairs-large": {"modes": (64,), "per_mode": 2, "large": True},
        "metrology": {"points_per_family": 1},
        "tooling": {},
    },
}

#: Tail percentile per workload: the highest in stats.PERCENTILES with at
#: least ten samples beyond it in a run of the length BENCHMARK.json sets,
#: fixed so that a run with a few more or fewer samples reports the same
#: percentile.  ``stats.tail`` falls back to a lower one for shorter runs.
TAIL_PERCENTILE = {"pairs-small": 99.9, "pairs-large": 95.0, "metrology": 99.0, "tooling": 50.0}

# (self-time layer, unit) reported per op by the traced run
SELF_LAYERS = (
    ("core.physicality", "us"), ("core.omega", "us"), ("core.reorder", "us"),
    ("fidelity.aux_solve", "us"), ("fidelity.spectrum", "us"),
    ("fidelity.invariants", "us"), ("fidelity.logdet_disp", "us"),
    ("metrology.moment_derivs", "us"), ("metrology.metric_delta", "us"),
    ("metrology.fd_fidelity", "us"), ("states.build", "us"),
    ("fock.gate_exp", "ms"), ("fock.conjugation", "ms"), ("fock.sqrt", "ms"),
    ("fock.moments", "ms"),
)
CALL_LAYERS = ("core.physicality", "core.omega", "fidelity.invariants", "states.build",
               "fock.gate_exp")
SCALE = {"us": 1e3, "ms": 1e6}

#: Pauses for run.py's probes, spread over the run.
PAUSES = 6


class Run:
    """Latencies and outputs of the rounds of one phase."""

    def __init__(self):
        self.lat_ns = []
        self.results = []
        self.round_ns = []  # wall time of each round

    @property
    def rounds(self) -> int:
        return len(self.round_ns)

    @property
    def wall(self) -> float:
        return sum(self.round_ns) / 1e9


def run_round(ops, run: Run, tracer=None, yardstick=None) -> None:
    """Run each op once, in order, and record its latency and output.  The
    yardstick, if given, is timed between ops when it is due; its time is
    left out of the round's."""
    start = perf_counter_ns()
    aside = 0
    for index, (kind, thunk) in enumerate(ops):
        if tracer is not None:
            thunk = (lambda thunk=thunk: tracer.run_op(thunk))
        t0 = perf_counter_ns()
        try:
            value, err = thunk(), None
        except Exception as exc:  # an op that raises is recorded as failed
            value, err = None, exc
        run.lat_ns.append(perf_counter_ns() - t0)
        run.results.append((index, kind, value, err))
        if yardstick is not None:
            aside += yardstick.measure_if_due()
    run.round_ns.append(perf_counter_ns() - start - aside)


def closed_loop(workload, seconds, pause, tracer=None, yardstick=None) -> tuple[Run, Run]:
    """Run whole rounds of ops until the rounds add up to ``seconds``;
    return the untraced and the traced rounds.

    With a tracer, rounds alternate in pairs whose order switches from pair
    to pair (untraced-traced, traced-untraced, ...), so that every traced
    round has an untraced neighbour under the same host conditions.
    ``pause`` is called PAUSES times between rounds (pairs of rounds),
    spread over the run, and the rest after it; time spent there is not
    counted.  The yardstick is timed in untraced rounds only.

    Objects alive before the loop (modules, inputs) are frozen out of the
    garbage collector, and op outputs are tuples of atoms or arrays, which
    it does not track: otherwise full collections over the harness's own
    objects would land in the op latencies as millisecond pauses.
    """
    ops = workload.ops()
    untraced, traced = Run(), Run()
    step = 1 if tracer is None else 2
    checkpoints = [seconds * 1e9 * (k + 1) / (PAUSES + 1) for k in range(PAUSES)]
    elapsed = 0
    gc.collect()
    gc.freeze()
    r = 0
    while True:
        if tracer is not None and r % 2 != (r // 2) % 2:
            tracer.install()
            try:
                run_round(ops, traced, tracer)
            finally:
                tracer.uninstall()
            elapsed += traced.round_ns[-1]
        else:
            run_round(ops, untraced, yardstick=yardstick)
            elapsed += untraced.round_ns[-1]
        r += 1
        if r % step:
            continue
        while checkpoints and elapsed >= checkpoints[0]:
            checkpoints.pop(0)
            pause()
        if elapsed >= seconds * 1e9:
            break
    for _ in checkpoints:
        pause()
    return untraced, traced


def pause() -> None:
    """Leave the machine to run.py for one probe; wait until it is done."""
    print("PAUSE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        raise RuntimeError("run.py did not resume the worker")


class Outcome:
    """Counts of the ops of a phase that were good, raised or wrong."""

    def __init__(self, workload, run: Run):
        self.good = self.raised = self.wrong = 0
        first_error = None
        for index, kind, value, err in run.results:
            if err is not None:
                self.raised += 1
                first_error = first_error or err
            elif workload.check(index, kind, value):
                self.good += 1
            else:
                self.wrong += 1
        if first_error is not None:
            traceback.print_exception(first_error, file=sys.stderr)


def environment(root: Path) -> dict:
    import numpy
    import scipy
    import gaussfid
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "gaussfid": getattr(gaussfid, "__version__", "?"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "machine": platform.machine(),
    }


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        # at most one CLI child runs at a time, next to this process
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def end_to_end(name, workload, run, outcome, yardstick, report):
    """Contract metrics of an untraced run: the timings scaled by the run's
    host factor (see yardstick.py), their raw values as report lines; the
    workload adds its own named metrics (pairs_per_s, cli_call_p50_ms, ...)
    to ``report``."""
    n = len(run.lat_ns)
    lat_ms = [x / 1e6 for x in run.lat_ns]
    p_tail, v_tail = stats.tail(lat_ms, TAIL_PERCENTILE[name])
    report += [("ops", n, "count"), ("op_tail_ms", v_tail, "ms"),
               ("op_tail_percentile", p_tail, "%")]
    workload.report(run, outcome.good, report, TAIL_PERCENTILE[name])
    report += [("failed_frac", (outcome.raised + outcome.wrong) / n, "ratio"),
               ("wrong_frac", outcome.wrong / n, "ratio")]
    keys = None
    if getattr(workload, "REPEATS_SHARE_KIND", False):
        keys = [kind for kind, _ in workload.ops()]
    lowest_ms = op_lowest_ms(run, keys)
    op_p50_ms = float(np.median(lowest_ms))
    ops_per_s = outcome.good / n / (float(np.mean(lowest_ms)) / 1e3)
    factor = yardstick.host_factor()
    report += [("op_median_ms", statistics.median(lat_ms), "ms"),
               ("rounds", run.rounds, "count"),
               ("op_p50_ms", op_p50_ms, "ms"), ("ops_per_s", ops_per_s, "1/s"),
               ("host_factor", factor, "ratio"), ("yardstick.samples", yardstick.samples, "count")]
    report += [(f"yardstick.{part}_ms", ms, "ms") for part, ms in yardstick.lowest_ms().items()]
    return {
        "scaled_ops_per_s": metric(ops_per_s / factor, "1/s"),
        "scaled_op_p50_ms": metric(op_p50_ms * factor, "ms"),
    }


def op_lowest_ms(run: Run, keys=None):
    """Lowest latency of each distinct op over all rounds of the run.

    Every round runs the same ops on the same inputs, so each op is timed
    once per round, and its lowest time is the one least disturbed by the
    host (timeit's best of several repeats, per input).  Ops of a round that
    share a key (``keys``, one per op of a round) are one op timed several
    times per round; by default every op of a round is distinct.
    """
    lowest = np.array(run.lat_ns).reshape(run.rounds, -1).min(axis=0) / 1e6
    if keys is None:
        return lowest
    by_key = {}
    for key, ms in zip(keys, lowest):
        by_key[key] = min(by_key.get(key, ms), ms)
    return np.array(list(by_key.values()))


def per_layer(tracer, untraced: Run, traced: Run):
    main = tracer.sections["main"]
    metrics = {}
    for layer, unit in SELF_LAYERS:
        metrics[f"{layer}.self_{unit}"] = metric(main.self_per_op(layer, SCALE[unit]), unit)
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = metric(main.calls_per_op(layer), "count")
    refused = sum(agg.errors[layer] for agg in tracer.sections.values()
                  for layer in tracing.FIDELITY_LAYERS)
    metrics["fidelity.refused"] = metric(refused, "count")
    for name in tracing.LINALG:
        metrics[f"linalg.{name}.calls"] = metric(main.linalg_calls[name] / max(main.ops, 1),
                                                 "count")
    metrics["linalg.self_share"] = metric(main.linalg_ns / max(main.op_ns, 1), "ratio")
    cli = tracer.sections.get("cli")
    parse = handler = emit = 0.0
    if cli is not None and cli.ops:
        parse = cli.incl_ns["cli.parse"] / cli.ops / 1e6
        handler = cli.incl_ns["cli.handler"] / cli.ops / 1e6 - parse
        emit = cli.incl_ns["cli.emit"] / cli.ops / 1e6
    metrics["cli.parse_ms"] = metric(parse, "ms")
    metrics["cli.handler_ms"] = metric(handler, "ms")
    metrics["cli.emit_ms"] = metric(emit, "ms")
    ratios = [t / u for u, t in zip(untraced.round_ns, traced.round_ns)]
    metrics["trace.overhead_frac"] = metric(statistics.median(ratios) - 1.0, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def build(name, seed, size, workdir, mods):
    params = SIZES[size][name]
    if name.startswith("pairs"):
        return wl.Pairs(mods, seed, **params)
    if name == "metrology":
        return wl.Metrology(mods, seed, **params)
    return wl.Tooling(mods, seed, workdir, dict(os.environ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for this run's files")
    args = parser.parse_args(argv)

    root = Path.cwd()
    out = Path(args.out)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        mods = wl.Modules()
        workload = build(args.workload, args.seed, args.size, workdir, mods)
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(args, root, out, workload, mods)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, out, workload, mods, report):
    """Alternating untraced and traced rounds; returns (runs, per-layer
    metrics, spans consistent, stiff-slice counts or None)."""
    tracer = tracing.Tracer(mods.errors.GaussfidError)
    untraced, traced_run = closed_loop(workload, args.seconds, pause, tracer)
    stiff = None
    tracer.install()
    try:
        if args.workload == "tooling":
            workload.in_process_cli(tracer)
        if getattr(workload, "stiff", None):
            tracer.section("stiff")
            stiff = tracer.run_op(workload.stiff_probe)
    finally:
        tracer.uninstall()
    spans_ok, checked = tracer.check_spans()
    report += [("trace.sum_check", int(spans_ok), "bool"),
               ("trace.ops_checked", checked, "count"),
               ("trace.round_pairs", traced_run.rounds, "count")]
    (out / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["op", "span", "parent", "layer", "t0_ns", "t1_ns", "raised"],
         "spans": tracer.spans}))
    return (untraced, traced_run), per_layer(tracer, untraced, traced_run), spans_ok, stiff


def measure(args, root, out, workload, mods) -> int:
    report = []
    if args.trace:
        runs, metrics, spans_ok, stiff = traced(args, out, workload, mods, report)
        outcomes = [Outcome(workload, r) for r in runs]
    else:
        yardstick = Yardstick()
        run, _ = closed_loop(workload, args.seconds, pause, yardstick=yardstick)
        rss = peak_rss_mb(children=args.workload == "tooling")
        stiff = workload.stiff_probe() if getattr(workload, "stiff", None) else None
        runs, spans_ok = (run,), True
        outcomes = [Outcome(workload, run)]
        metrics = end_to_end(args.workload, workload, run, outcomes[0], yardstick, report)
        metrics["peak_rss_mb"] = metric(rss, "MB")
    if stiff is not None:
        pairs, refused, wrong = stiff
        report += [("stiff.pairs", pairs, "count"), ("stiff.refused", refused, "count"),
                   ("stiff.wrong", wrong, "count")]
    failed = sum(o.raised + o.wrong for o in outcomes)
    print(json.dumps({
        "correct": failed == 0 and spans_ok,
        "attempted": sum(len(r.results) for r in runs),
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "env": environment(root),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
