"""Command-line interface.

State files are UTF-8 JSON objects with the schema

    {"modes": n, "ordering": "xxpp" | "xpxp",
     "mean": [2n reals], "cov": [[2n x 2n reals, row-major]]}

The ordering field is mandatory so that xxpp/xpxp mix-ups fail loudly.
Numbers are serialized with full double precision (shortest round-trip
decimals, up to 17 significant digits).

Exit codes: 0 success, 2 input or physicality error, 3 numerical failure,
64 unknown command.  ``--json`` emits a machine-readable report with a fixed
field set per command; the default output is aligned plain text.  A report
holding a NaN or infinite number is refused (exit 3) in either mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import DEFAULT_PHYS_TOL, GaussianState, require_physical, williamson
from .errors import (
    GaussfidError,
    InvalidParameter,
    InvalidState,
    NumericalError,
    StateFileError,
)
from .fidelity import DEFAULT_PURE_TOL, fidelity
from .metrology import (
    DEFAULT_METRIC_TOL,
    FAMILIES,
    bures_metric,
    error_bounds,
    get_family,
    qfi_scalar,
)
from .states import random_state

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

ORACLE_CHECK_THRESHOLD = 1e-6

#: The fixed tolerances every report echoes.
TOLERANCES = {"phys": DEFAULT_PHYS_TOL, "pure": DEFAULT_PURE_TOL, "metric": DEFAULT_METRIC_TOL}


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

def parse_state_file(path: str | Path) -> GaussianState:
    """Load a state file, converting to the canonical xxpp layout, and refuse
    it as :func:`require_physical` does."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateFileError(f"{path}: top-level value must be an object")
    for key in ("modes", "ordering", "mean", "cov"):
        if key not in payload:
            raise StateFileError(f"{path}: missing required field {key!r}")
    try:
        n = int(payload["modes"])
        mean = np.asarray(payload["mean"], dtype=float)
        cov = np.asarray(payload["cov"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    ordering = payload["ordering"]
    if ordering not in ("xxpp", "xpxp"):
        raise StateFileError(f"{path}: ordering must be 'xxpp' or 'xpxp', got {ordering!r}")
    if mean.shape != (2 * n,) or cov.shape != (2 * n, 2 * n):
        raise StateFileError(
            f"{path}: mean/cov shapes {mean.shape}/{cov.shape} do not match modes={n}")
    if ordering == "xpxp":
        state = GaussianState.from_xpxp(mean, cov)
    else:
        state = GaussianState(n, mean, cov)
    try:
        require_physical(state)
    except InvalidState as exc:
        raise InvalidState(f"{path}: {exc}") from None
    return state


def write_state_file(path: str | Path, state: GaussianState) -> None:
    payload = {
        "modes": state.n,
        "ordering": "xxpp",
        "mean": state.u.tolist(),
        "cov": state.V.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _digest(path: str | Path) -> str:
    import hashlib  # loads OpenSSL, which only the commands that read state files need

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _input_entry(path: str | Path) -> dict:
    return {"path": str(path), "sha256": _digest(path)}


def _parse_array_arg(value: str, what: str) -> np.ndarray:
    """Accept an inline JSON array or a path to a JSON file holding one."""
    candidate = Path(value)
    try:
        if candidate.exists():
            payload = json.loads(candidate.read_text(encoding="utf-8"))
        else:
            payload = json.loads(value)
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot parse {what}: {exc}") from exc
    try:
        return np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{what} is not a numeric array: {exc}") from exc


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(value, name=None):
    """``value`` in plain Python types; a NaN or infinite number, which strict
    JSON cannot hold, is refused, naming the report field ``name`` it is in."""
    if isinstance(value, (np.ndarray, np.floating, float)) and not np.isfinite(value).all():
        raise NumericalError(f"report field {name} is not finite, which JSON cannot hold")
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v, k if name is None else f"{name}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, name) for v in value]
    return value


def _emit(report: dict, as_json: bool) -> None:
    report = _jsonable(report)
    if as_json:
        print(json.dumps(report, indent=1, allow_nan=False))
        return
    width = max((len(k) for k in report), default=0)
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            rendered = json.dumps(value, allow_nan=False)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        print(f"{key.ljust(width)}  {rendered}")


def _fidelity_warnings(rep) -> list:
    warnings = []
    if rep.discarded_pairs:
        warnings.append(
            f"discarded {rep.discarded_pairs} unit eigenvalue pair(s) of W_aux "
            "(pure-mode reduction)")
    if rep.clamped:
        warnings.append(f"fidelity clamped to 1 from raw value {rep.F_raw!r}")
    return warnings


def _invariant_fields(inv) -> dict:
    return {"I2k": inv.i2k, "Gamma": inv.gamma, "Lambda": inv.lam, "Delta": inv.delta,
            "char_coeffs": inv.char_coeffs}


def _fidelity_fields(rep) -> dict:
    return {
        "F": rep.F,
        "F0": rep.F0,
        "Ftot": rep.Ftot,
        "det_v1_plus_v2": rep.det_v_sum,
        "disp_exponent": rep.disp_exponent,
        "waux_spectrum": rep.waux_spectrum,
        "discarded_pairs": rep.discarded_pairs,
        "invariants": _invariant_fields(rep.invariants),
    }


# ---------------------------------------------------------------------------
# command handlers; each returns (its own fields, warnings, exit code), and
# main adds the command name before and TOLERANCES and the warnings after
# ---------------------------------------------------------------------------

def _cmd_fidelity(args):
    s1 = parse_state_file(args.state_a)
    s2 = parse_state_file(args.state_b)
    rep = fidelity(s1, s2)
    fields = {
        "inputs": {"a": _input_entry(args.state_a), "b": _input_entry(args.state_b)},
        **_fidelity_fields(rep),
    }
    return fields, _fidelity_warnings(rep), EXIT_OK


def _cmd_invariants(args):
    s1 = parse_state_file(args.state_a)
    s2 = parse_state_file(args.state_b)
    inv = fidelity(s1, s2).invariants
    n = inv.n
    fields = {
        "inputs": {"a": _input_entry(args.state_a), "b": _input_entry(args.state_b)},
        "modes": n,
        **_invariant_fields(inv),
        "chi0": inv.chi(0.0),
        "chi1": inv.chi(1.0),
        "chi0_identity_residual": inv.chi(0.0) * (-1.0) ** n * inv.delta - inv.gamma,
        "chi1_identity_residual": inv.chi(1.0) * (-1.0) ** n * inv.delta - inv.lam,
    }
    return fields, [], EXIT_OK


def _cmd_bures(args):
    s1 = parse_state_file(args.state_a)
    s2 = parse_state_file(args.state_b)
    rep = fidelity(s1, s2)
    fields = {
        "inputs": {"a": _input_entry(args.state_a), "b": _input_entry(args.state_b)},
        "bures_distance": 2.0 * (1.0 - rep.F),
        "F": rep.F,
        "convention": "D_B = 2(1 - F); squared-distance normalization",
    }
    return fields, _fidelity_warnings(rep), EXIT_OK


def _cmd_metric(args):
    s = parse_state_file(args.state_a)
    du = _parse_array_arg(args.du, "--du")
    dV = _parse_array_arg(args.dv, "--dv")
    ev = bures_metric(s, du, dV)
    warnings = []
    if ev.skipped_terms:
        warnings.append(
            f"skipped {ev.skipped_terms} metric term(s) with w_i w_j = 1 (pseudo-inverse rule)")
    fields = {
        "inputs": {"a": _input_entry(args.state_a)},
        "ds2": ev.ds2,
        "mean_part": ev.mean_part,
        "cov_part": ev.cov_part,
        "skipped_terms": ev.skipped_terms,
    }
    return fields, warnings, EXIT_OK


def _cmd_qfi(args):
    family = get_family(args.family)
    value = qfi_scalar(family, args.theta, mode=args.mode, h=args.h)
    fields = {
        "family": args.family,
        "theta": args.theta,
        "mode": args.mode,
        "h": args.h,
        "qfi": value,
    }
    return fields, [], EXIT_OK


def _cmd_bounds(args):
    b = error_bounds(args.fidelity, args.copies)
    fields = {
        "fidelity_used": b.fidelity_used,
        "copies": b.copies,
        "lower": b.lower,
        "upper": b.upper,
    }
    return fields, [], EXIT_OK


def _cmd_oracle_check(args):
    from . import fock  # the oracle stays off the import path of every other command

    if args.seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    circuit_a = fock.random_circuit(args.modes, rng)
    circuit_b = fock.random_circuit(args.modes, rng)
    built_a = fock.build_circuit_state(circuit_a, args.cutoff)
    built_b = fock.build_circuit_state(circuit_b, args.cutoff)
    f_engine = fidelity(built_a.gaussian, built_b.gaussian).F
    f_oracle = fock.uhlmann_fidelity_matrix(built_a.fock, built_b.fock)
    diff = abs(f_engine - f_oracle)
    passed = diff < ORACLE_CHECK_THRESHOLD
    warnings = []
    for name, built in (("a", built_a), ("b", built_b)):
        if built.fock.trace_deficit > fock.TRACE_DEFICIT_ROUNDOFF:
            warnings.append(
                f"state {name}: truncation trace deficit {built.fock.trace_deficit:.3e}")
    fields = {
        "seed": args.seed,
        "modes": args.modes,
        "cutoff": args.cutoff or fock.DEFAULT_CUTOFFS[args.modes],
        "F_engine": f_engine,
        "F_oracle": f_oracle,
        "abs_diff": diff,
        "threshold": ORACLE_CHECK_THRESHOLD,
        "passed": passed,
    }
    return fields, warnings, EXIT_OK if passed else EXIT_NUMERICAL


def _cmd_williamson(args):
    s = parse_state_file(args.state_a)
    dec = williamson(s.V)
    fields = {
        "inputs": {"a": _input_entry(args.state_a)},
        "nu": dec.nu,
        "S": dec.S,
        "residual_symplectic": dec.residual_symplectic,
        "residual_reconstruction": dec.residual_reconstruction,
    }
    return fields, [], EXIT_OK


def _cmd_random(args):
    state = random_state(args.modes, args.seed, max_squeeze=args.max_squeeze,
                         max_thermal=args.max_thermal, max_disp=args.max_disp)
    write_state_file(args.output, state)
    fields = {
        "modes": args.modes,
        "seed": args.seed,
        "output": str(args.output),
        "sha256": _digest(args.output),
    }
    return fields, [], EXIT_OK


HANDLERS = {
    "fidelity": _cmd_fidelity,
    "invariants": _cmd_invariants,
    "bures": _cmd_bures,
    "metric": _cmd_metric,
    "qfi": _cmd_qfi,
    "bounds": _cmd_bounds,
    "oracle-check": _cmd_oracle_check,
    "williamson": _cmd_williamson,
    "random": _cmd_random,
}

COMMANDS = tuple(HANDLERS)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="gaussfid",
        description="Fidelity and derived quantities for multimode Gaussian states.")
    parser.add_argument("--version", action="version", version=f"gaussfid {__version__}")
    sub = parser.add_subparsers(dest="command")

    two_state = {"fidelity": "Uhlmann fidelity between two state files",
                 "invariants": "symplectic invariants of a state pair",
                 "bures": "Bures distance (2(1-F) convention)"}
    for name, help_text in two_state.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("state_a")
        p.add_argument("state_b")

    p = sub.add_parser("metric", parents=[common],
                       help="Bures metric element for a perturbation (du, dV)")
    p.add_argument("state_a")
    p.add_argument("--du", required=True, help="JSON array (inline or file path)")
    p.add_argument("--dv", required=True, help="JSON 2n x 2n array (inline or file path)")

    p = sub.add_parser("qfi", parents=[common],
                       help="quantum Fisher information of a built-in family")
    p.add_argument("--family", required=True, help="one of: " + ", ".join(FAMILIES))
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--mode", choices=["analytic", "finite_difference"], default="analytic")
    p.add_argument("--h", type=float, default=None, help="step size override")

    p = sub.add_parser("bounds", parents=[common],
                       help="discrimination error-probability bounds from a fidelity")
    p.add_argument("--fidelity", type=float, required=True)
    p.add_argument("--copies", type=int, required=True)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="cross-check the engine against the Fock-space oracle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--modes", type=int, choices=[1, 2], required=True)
    p.add_argument("--cutoff", type=int, default=None)

    p = sub.add_parser("williamson", parents=[common],
                       help="Williamson decomposition of a state file")
    p.add_argument("state_a")

    p = sub.add_parser("random", parents=[common], help="write a random state file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-squeeze", type=float, default=1.0)
    p.add_argument("--max-thermal", type=float, default=2.0)
    p.add_argument("--max-disp", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    if argv[0] not in COMMANDS and argv[0] not in ("-h", "--help", "--version"):
        print(f"gaussfid: unknown command {argv[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    try:
        # every non-finite number is refused below, as an invalid parameter or
        # as a non-finite report, so numpy's warnings would only precede that
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fields, warnings, code = HANDLERS[args.command](args)
        # a report with a non-finite number is refused before any of it is printed
        _emit({"command": args.command, **fields, "tolerances": TOLERANCES,
               "warnings": warnings}, args.json)
    except (StateFileError, InvalidState, InvalidParameter) as exc:
        print(f"gaussfid: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GaussfidError as exc:
        print(f"gaussfid: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    raise SystemExit(main())
