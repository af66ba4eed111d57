"""The four benchmark workloads: their inputs, ops and output checks.

A workload is built from the seed alone, so the same seed gives the same
inputs.  ``ops`` is one round: a fixed list of (kind, thunk) pairs that the
closed loop runs in order, round after round.  Thunks look functions up on
their module at call time, so the traced run sees the spans it installs.
Checks run after the timed loop, against references the benchmark computes
itself (see reference.py); a reference is computed once per distinct input.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import reference
import stats

#: |F - F_ref| above this is a wrong value on n <= 4 pairs and diagonal pairs.
PAIR_TOL = 1e-9
#: At n = 64, relative distance from F(b,a) and from the float64 reference
#: above this is a wrong value.
LARGE_RTOL = 1e-6
#: Analytic QFI against its closed form (relative).
QFI_ANALYTIC_RTOL = 1e-9
#: Finite-difference QFI at the package's default step against its closed
#: form (relative); thermal-nbar at theta = 0.3 is off by 2.1e-3.
QFI_FD_RTOL = 5e-3
#: qfi_matrix against the benchmark's direct solve (relative to its norm).
QFI_MATRIX_RTOL = 1e-6
#: Engine against Fock oracle, as the CLI's ORACLE_CHECK_THRESHOLD.
ORACLE_TOL = 1e-6
#: In-process against CLI JSON values.
CLI_TOL = 1e-12

COPIES = (1, 10, 100)


class Modules:
    """The package's modules, resolved by name (``gaussfid.fidelity`` the
    package attribute is the function, which shadows the module)."""

    def __init__(self):
        for name in ("core", "states", "fidelity", "metrology", "fock", "cli", "errors"):
            setattr(self, name, importlib.import_module("gaussfid." + name))


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _relerr(value, expected):
    return abs(value - expected) / max(abs(expected), 1e-300)


# ---------------------------------------------------------------------------
# pairs-small and pairs-large: one fidelity() call per op
# ---------------------------------------------------------------------------

#: random_state variants mixed into each ensemble, in the default ranges.
STATE_KINDS = ({}, {"pure": True}, {"max_disp": 0.0}, {"pure": True, "max_disp": 0.0})


class Pairs:
    """All unordered pairs, diagonal included, of a seeded ensemble per mode count."""

    REPORTS = ("pairs_per_s", "pair_p50_us", "pair_tail_us")

    def __init__(self, mods, seed, modes, per_mode, stiff_states=0, large=False):
        self.mods = mods
        self.large = large
        rng = np.random.default_rng(seed)
        self.pairs = []
        for n in modes:
            states = [mods.states.random_state(n, s, **STATE_KINDS[i % len(STATE_KINDS)])
                      for i, s in enumerate(_seeds(rng, per_mode))]
            self.pairs += [(f"n{n}", states[i], states[j])
                           for i in range(per_mode) for j in range(i, per_mode)]
        rng.shuffle(self.pairs)
        # The stiff slice (n = 3, max_squeeze = 4) is a known engine defect:
        # about a third of its pairs raise and a third return wrong values.
        # It is evaluated once per run, outside the timed loop, and reported
        # on its own so that the defect stays visible.
        stiff = [mods.states.random_state(3, s, max_squeeze=4.0)
                 for s in _seeds(rng, stiff_states)]
        self.stiff = [(stiff[i], stiff[j]) for i in range(len(stiff))
                      for j in range(i, len(stiff))]
        self._ref = {}

    def ops(self):
        def op(a, b):
            return lambda: self.mods.fidelity.fidelity(a, b).F
        return [(kind, op(a, b)) for kind, a, b in self.pairs]

    def warm_up(self):
        for _, thunk in self.ops():
            thunk()

    def check(self, index, kind, value):
        _, a, b = self.pairs[index]
        if index not in self._ref:
            if a is b:
                self._ref[index] = (1.0,)
            elif self.large:
                self._ref[index] = (reference.fidelity_np(a.u, a.V, b.u, b.V),
                                    self.mods.fidelity.fidelity(b, a).F)
            else:
                self._ref[index] = (reference.fidelity_mp(a.u, a.V, b.u, b.V),)
        expected = self._ref[index]
        if len(expected) == 2:
            return all(_relerr(value, e) <= LARGE_RTOL for e in expected)
        return abs(value - expected[0]) <= PAIR_TOL

    def report(self, run, good, lines, tail_pct):
        lat_us = [t / 1e3 for t in run.lat_ns]
        p, v = stats.tail(lat_us, tail_pct)
        lines += [("pairs_per_s", good / run.wall, "1/s"),
                  ("pair_p50_us", statistics.median(lat_us), "us"),
                  ("pair_tail_us", v, "us")]
        per_n = stats.median_by((r[1], t) for r, t in zip(run.results, lat_us))
        lines += [(f"{kind}.p50_us", m, "us") for kind, m in per_n.items()]

    def stiff_probe(self):
        """(pairs, refused, wrong) on the stiff slice, outside the timed loop."""
        refused = wrong = 0
        typed = self.mods.errors.GaussfidError
        for a, b in self.stiff:
            try:
                value = self.mods.fidelity.fidelity(a, b).F
            except typed:
                refused += 1
                continue
            expected = 1.0 if a is b else reference.fidelity_mp(a.u, a.V, b.u, b.V)
            wrong += abs(value - expected) > PAIR_TOL
        return len(self.stiff), refused, wrong


# ---------------------------------------------------------------------------
# metrology: one scan step per op
# ---------------------------------------------------------------------------

#: theta range per named family, inside the package's documented domains.
THETA_RANGES = {
    "coherent-displacement": (-1.0, 1.0),
    "thermal-nbar": (0.3, 2.0),
    "squeeze-r": (0.0, 1.0),
    "phase-theta": (0.0, 2.0 * math.pi),
}
MULTI = "tms-displace"


class Metrology:
    """Scan steps over the four named 1-mode families and a two-parameter
    family on 2-4 modes defined here (see reference.multi_family_moments).

    One op is one scan step: the scan point of each of the five families at
    its k-th theta.  A point costs 0.8-2.3 ms depending on the family, so
    single points would put the median between two families; a step has
    one cost.  Points are timed one by one inside the step for the report.
    """

    REPORTS = ("qfi_points_per_s", "qfi_point_p50_us", "qfi_point_tail_us")

    def __init__(self, mods, seed, points_per_family):
        self.mods = mods
        rng = np.random.default_rng(seed)
        thetas = {name: rng.uniform(lo, hi, points_per_family)
                  for name, (lo, hi) in THETA_RANGES.items()}
        self.steps = [[(name, float(thetas[name][k])) for name in THETA_RANGES]
                      for k in range(points_per_family)]
        # n cycles through 2, 3, 4 so that every seed has the same mix of costs
        for k, s in enumerate(_seeds(rng, points_per_family)):
            base = mods.states.random_state(2 + k % 3, s, max_squeeze=0.5)
            theta = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 0.6)))
            self.steps[k].append((MULTI, (base, theta)))
        self.fd_step = getattr(mods.metrology, "DEFAULT_FD_STEP", 1e-3)
        self._ref = {}

    def _multi_family(self, base):
        st = self.mods.states

        def family(theta):
            S = st.embed_symplectic(st.two_mode_squeeze_block(theta[1]), [0, 1], base.n)
            shift = np.zeros(2 * base.n)
            shift[0] = theta[0]
            return st.displace(st.apply_symplectic(base, S), shift)
        return family

    def _point(self, name, arg):
        met = self.mods.metrology
        if name == MULTI:
            family = self._multi_family(arg[0])
            return lambda: met.qfi_matrix(family, arg[1]).H

        def point():
            family = met.get_family(name)
            analytic = met.qfi_scalar(family, arg)
            fd = met.qfi_scalar(family, arg, mode="finite_difference")
            f = 1.0 - fd * self.fd_step ** 2 / 8.0
            bounds = [met.error_bounds(f, N) for N in COPIES]
            return (analytic, fd, f, *(b.lower for b in bounds), *(b.upper for b in bounds))
        return point

    def ops(self):
        def step(points):
            thunks = [self._point(name, arg) for name, arg in points]

            def run():
                out, times = [], []
                for thunk in thunks:
                    t0 = perf_counter_ns()
                    out.append(thunk())
                    times.append(perf_counter_ns() - t0)
                return tuple(out), tuple(times)
            return run
        return [("scan-step", step(points)) for points in self.steps]

    def warm_up(self):
        for _, thunk in self.ops():
            thunk()

    def check(self, index, kind, value):
        return all(self._check_point(index, j, result)
                   for j, result in enumerate(value[0]))

    def _check_point(self, index, j, value):
        name, arg = self.steps[index][j]
        if name == MULTI:
            if (index, j) not in self._ref:
                base, theta = arg
                _, V, dus, dVs = reference.multi_family_moments(base.u, base.V, theta)
                self._ref[index, j] = reference.qfi_matrix_reference(V, dus, dVs)
            expected = self._ref[index, j]
            return (np.max(np.abs(value - expected))
                    <= QFI_MATRIX_RTOL * max(1.0, np.max(np.abs(expected))))
        analytic, fd, f = value[:3]
        lowers, uppers = value[3:3 + len(COPIES)], value[3 + len(COPIES):]
        exact = reference.CLOSED_FORM_QFI[name](arg)
        ok = _relerr(analytic, exact) <= QFI_ANALYTIC_RTOL and _relerr(fd, exact) <= QFI_FD_RTOL
        for N, lower, upper in zip(COPIES, lowers, uppers):
            ref_lower, ref_upper = reference.error_bounds_reference(f, N)
            ok = ok and abs(lower - ref_lower) <= 1e-12 and _relerr(upper, ref_upper) <= 1e-12
        return ok

    def report(self, run, good, lines, tail_pct):
        points = [(self.steps[index][j][0], t / 1e3)
                  for index, _, value, err in run.results if err is None
                  for j, t in enumerate(value[1])]
        p, v = stats.tail([t for _, t in points], tail_pct)
        lines += [("qfi_points_per_s", good * len(self.steps[0]) / run.wall, "1/s"),
                  ("qfi_point_p50_us", statistics.median(t for _, t in points), "us"),
                  ("qfi_point_tail_us", v, "us"), ("qfi_point_tail_percentile", p, "%")]
        lines += [(f"{name}.p50_us", m, "us") for name, m in stats.median_by(points).items()]


# ---------------------------------------------------------------------------
# tooling: fresh-process CLI calls and in-process Fock-oracle cross-checks
# ---------------------------------------------------------------------------

ORACLE_CUTOFFS = {1: 40, 2: 25}
#: Oracle cross-checks per round, each on its own seeded pair of circuits.
ORACLE_CHECKS = {1: 2, 2: 1}
#: Each CLI command runs this often per round, so that the lowest time of a
#: command in a run rests on six calls rather than two.
CLI_REPEATS = 3


class Tooling:
    """One round: each of seven ``python -m gaussfid <cmd> --json`` calls
    CLI_REPEATS times, then two 1-mode and one 2-mode oracle cross-check.  Every round
    runs the same inputs."""

    REPORTS = ("cli_call_p50_ms", "cli_call_tail_ms", "oracle1_check_ms", "oracle2_check_s")
    #: The repeats of a CLI command in a round are one op (same kind, same inputs).
    REPEATS_SHARE_KIND = True

    def __init__(self, mods, seed, workdir: Path, env: dict):
        self.mods = mods
        self.env = env
        self.root = Path.cwd()
        rng = np.random.default_rng(seed)
        sa, sb = (mods.states.random_state(2, s, **kind)
                  for s, kind in zip(_seeds(rng, 2), STATE_KINDS[::2]))
        self.states = {"a": sa, "b": sb}
        paths = {}
        for key, state in self.states.items():
            paths[key] = workdir / f"state_{key}.json"
            paths[key].write_text(json.dumps({
                "modes": state.n, "ordering": "xxpp",
                "mean": state.u.tolist(), "cov": state.V.tolist()}), encoding="utf-8")
        a, b = str(paths["a"]), str(paths["b"])
        family = str(rng.choice(list(THETA_RANGES)))
        lo, hi = THETA_RANGES[family]
        self.qfi = (family, float(rng.uniform(lo, hi)))
        self.bounds_f = float(rng.uniform(0.05, 0.95))
        cli_seed = _seeds(rng, 1)[0]
        self.commands = {
            "fidelity": ["fidelity", a, b],
            "bures": ["bures", a, b],
            "invariants": ["invariants", a, b],
            "williamson": ["williamson", a],
            "qfi": ["qfi", "--family", family, "--theta", repr(self.qfi[1])],
            "bounds": ["bounds", "--fidelity", repr(self.bounds_f), "--copies", "8"],
            "oracle-check": ["oracle-check", "--modes", "1", "--seed", str(cli_seed)],
        }
        self.oracle_seeds = {m: _seeds(rng, count) for m, count in ORACLE_CHECKS.items()}

    def run_cli(self, argv, timeout=60):
        done = subprocess.run([sys.executable, "-m", "gaussfid", *argv, "--json"],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        return done.returncode, done.stdout

    def oracle_check(self, modes, seed):
        fock = self.mods.fock
        rng = np.random.default_rng(seed)
        circuits = (fock.random_circuit(modes, rng), fock.random_circuit(modes, rng))
        built = [fock.build_circuit_state(c, ORACLE_CUTOFFS[modes]) for c in circuits]
        f_oracle = fock.uhlmann_fidelity_matrix(built[0].fock, built[1].fock)
        moments = fock.moments_from_fock(built[0].fock)
        f_engine = self.mods.fidelity.fidelity(built[0].gaussian, built[1].gaussian).F
        exact = built[0].gaussian
        return (f_engine, f_oracle, float(np.max(np.abs(moments.u - exact.u))),
                float(np.max(np.abs(moments.V - exact.V))))

    def ops(self):
        ops = [(f"cli:{name}", (lambda argv=argv: self.run_cli(argv)))
               for _ in range(CLI_REPEATS) for name, argv in self.commands.items()]
        ops += [(f"oracle{modes}:{seed}", (lambda m=modes, s=seed: self.oracle_check(m, s)))
                for modes, seeds in self.oracle_seeds.items() for seed in seeds]
        return ops

    def warm_up(self):
        self.oracle_check(1, self.oracle_seeds[1][0])

    def in_process_cli(self, tracer):
        """Each command once through ``cli.main(argv)`` in this process, so the
        trace can time argument parsing, state-file parsing, handler and output."""
        import contextlib
        import io
        tracer.section("cli")
        for argv in self.commands.values():
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.run_op(lambda argv=argv: self.mods.cli.main([*argv, "--json"]))

    def report(self, run, good, lines, tail_pct):
        ms = [(r[1], t / 1e6) for r, t in zip(run.results, run.lat_ns)]
        cli = [t for kind, t in ms if kind.startswith("cli:")]
        p, v = stats.tail(cli, tail_pct)
        lines += [("cli_call_p50_ms", statistics.median(cli), "ms"),
                  ("cli_call_tail_ms", v, "ms"), ("cli_call_tail_percentile", p, "%"),
                  ("cli_calls", len(cli), "count")]
        by_group = stats.median_by((kind.split(":")[0], t) for kind, t in ms)
        lines += [("oracle1_check_ms", by_group["oracle1"], "ms"),
                  ("oracle2_check_s", by_group["oracle2"] / 1e3, "s")]
        lines += [(f"{kind[4:]}.p50_ms", m, "ms")
                  for kind, m in stats.median_by(ms).items() if kind.startswith("cli:")]
        # The fock module documents moment errors well below 1e-6 at the
        # default cutoffs, but some 1-mode circuits in its sampling ranges
        # miss that (1.2e-6 in the covariance).  The error is reported, not
        # failed, so that the op check stays the engine-against-oracle F.
        moment_err = [max(r[2][2:]) for r in run.results
                      if r[1].startswith("oracle") and r[3] is None]
        lines += [("oracle.moment_err_max", max(moment_err), "abs"),
                  ("oracle.moment_over_tol", sum(e >= ORACLE_TOL for e in moment_err), "count")]

    def check(self, index, kind, value):
        if kind.startswith("oracle"):
            f_engine, f_oracle = value[:2]
            return abs(f_engine - f_oracle) < ORACLE_TOL
        code, out = value
        if code != 0:
            return False
        try:
            return self._check_report(kind[len("cli:"):], json.loads(out))
        except (json.JSONDecodeError, KeyError, TypeError):
            return False

    def _check_report(self, name, report):
        sa, sb = self.states["a"], self.states["b"]
        if name in ("fidelity", "bures"):
            f = self._f_ab
            if f is None:
                return False
            ok = abs(report["F"] - f) <= CLI_TOL
            if name == "bures":
                ok = ok and abs(report["bures_distance"] - 2.0 * (1.0 - f)) <= CLI_TOL
            return ok
        if name == "invariants":
            return _relerr(report["Delta"], float(np.linalg.det(sa.V + sb.V))) <= 1e-9
        if name == "williamson":
            nu = np.asarray(report["nu"])
            return (np.max(np.abs(nu - reference.symplectic_spectrum(sa.V))) <= 1e-9
                    and report["residual_reconstruction"] <= 1e-8)
        if name == "qfi":
            family, theta = self.qfi
            return _relerr(report["qfi"], reference.CLOSED_FORM_QFI[family](theta)) \
                <= QFI_ANALYTIC_RTOL
        if name == "bounds":
            lower, upper = reference.error_bounds_reference(self.bounds_f, 8)
            return (abs(report["lower"] - lower) <= CLI_TOL
                    and abs(report["upper"] - upper) <= CLI_TOL)
        if name == "oracle-check":
            return report["passed"] is True and report["abs_diff"] < ORACLE_TOL
        return False

    @functools.cached_property
    def _f_ab(self):
        """The in-process engine value, itself checked against the reference."""
        sa, sb = self.states["a"], self.states["b"]
        f = self.mods.fidelity.fidelity(sa, sb).F
        return f if abs(f - reference.fidelity_mp(sa.u, sa.V, sb.u, sb.V)) <= PAIR_TOL else None


#: The workloads by name, and the class that builds each.
CLASSES = {"pairs-small": Pairs, "pairs-large": Pairs, "metrology": Metrology, "tooling": Tooling}
WORKLOADS = tuple(CLASSES)
