"""Command-line interface: state files, reports, exit codes, schema stability."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussfid import (
    StateFileError,
    build_circuit_state,
    random_circuit,
    random_state,
    williamson,
)
from gaussfid.cli import main, parse_state_file, write_state_file
from gaussfid.core import DEFAULT_PHYS_TOL
from gaussfid.fidelity import DEFAULT_PURE_TOL
from gaussfid.fock import TRACE_DEFICIT_ROUNDOFF
from gaussfid.metrology import DEFAULT_METRIC_TOL, FAMILIES

DATA = Path(__file__).parent / "data"


def make_state_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def vacuum_file(tmp_path):
    return make_state_file(tmp_path, "vac.json", {
        "modes": 1, "ordering": "xxpp",
        "mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]],
    })


@pytest.fixture
def coherent_file(tmp_path):
    return make_state_file(tmp_path, "coh.json", {
        "modes": 1, "ordering": "xxpp",
        "mean": [2.0 ** 0.5, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]],
    })


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_json(capsys, argv):
    # strict JSON, for every command's report: the parse refuses NaN,
    # Infinity and -Infinity
    code, out, err = run(capsys, argv + ["--json"])
    return code, (json.loads(out, parse_constant=_refuse_constant) if out else None), err


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

class TestStateFiles:
    def test_parse_vacuum(self, vacuum_file):
        s = parse_state_file(vacuum_file)
        np.testing.assert_array_equal(s.V, 0.5 * np.eye(2))

    def test_xpxp_is_canonicalized(self, tmp_path):
        path = make_state_file(tmp_path, "x.json", {
            "modes": 2, "ordering": "xpxp",
            "mean": [1.0, 2.0, 3.0, 4.0],
            "cov": np.diag([0.5, 0.5, 1.5, 1.5]).tolist(),
        })
        s = parse_state_file(path)
        np.testing.assert_array_equal(s.u, [1.0, 3.0, 2.0, 4.0])
        np.testing.assert_array_equal(s.V, np.diag([0.5, 1.5, 0.5, 1.5]))

    def test_xpxp_file_matches_its_xxpp_twin(self, tmp_path, capsys):
        a, b = random_state(3, 131), random_state(3, 132, pure=True)
        order = [0, 3, 1, 4, 2, 5]  # (x1, p1, x2, p2, x3, p3)
        xpxp = make_state_file(tmp_path, "a_xpxp.json", {
            "modes": 3, "ordering": "xpxp", "mean": a.u[order].tolist(),
            "cov": a.V[np.ix_(order, order)].tolist()})
        xxpp = make_state_file(tmp_path, "a_xxpp.json", {
            "modes": 3, "ordering": "xxpp", "mean": a.u.tolist(), "cov": a.V.tolist()})
        other = tmp_path / "b.json"
        write_state_file(other, b)
        outputs = []
        for path in (xpxp, xxpp):
            code, out, _ = run(capsys, ["fidelity", path, str(other), "--json"])
            assert code == 0
            outputs.append([line for line in out.splitlines()
                            if '"path"' not in line and '"sha256"' not in line])
        assert outputs[0] == outputs[1]

    def test_unphysical_cov_names_the_eigenvalue(self, tmp_path, capsys):
        path = make_state_file(tmp_path, "bad.json", {
            "modes": 1, "ordering": "xxpp",
            "mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]],
        })
        code, out, err = run(capsys, ["fidelity", path, path])
        assert code == 2
        assert "min_eig_shifted" in err

    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, vacuum_file, field):
        payload = {"modes": 1, "ordering": "xxpp",
                   "mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]}
        if field == "mean":
            payload["mean"][1] = float("nan")
        else:
            payload["cov"][0][0] = float("nan")
        path = make_state_file(tmp_path, "nan.json", payload)
        assert "NaN" in Path(path).read_text()
        code, report, err = run_json(capsys, ["fidelity", path, vacuum_file])
        assert code == 2
        assert report is None
        assert "non-finite" in err and "NaN" not in err

    @pytest.mark.parametrize("command", ["fidelity", "bures", "invariants", "metric",
                                         "williamson"])
    def test_every_command_checks_at_tol_phys(self, tmp_path, capsys, vacuum_file, command):
        # min eig of V + i Omega/2 is -2.5e-9: unphysical at DEFAULT_PHYS_TOL = 1e-9
        path = make_state_file(tmp_path, "edge.json", {
            "modes": 1, "ordering": "xxpp",
            "mean": [0.0, 0.0], "cov": [[0.5 - 5e-9, 0.0], [0.0, 0.5]],
        })
        argv = {"fidelity": [path, vacuum_file], "bures": [vacuum_file, path],
                "invariants": [path, vacuum_file], "williamson": [path],
                "metric": [path, "--du", "[0, 0]", "--dv", "[[0, 0], [0, 0]]"]}[command]
        code, out, err = run(capsys, [command, *argv])
        assert code == 2, err
        assert err.startswith(f"gaussfid: {path}: ") and "min_eig_shifted" in err

    def test_missing_ordering_rejected(self, tmp_path):
        path = make_state_file(tmp_path, "no_ord.json", {
            "modes": 1, "mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]],
        })
        with pytest.raises(StateFileError):
            parse_state_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            parse_state_file(str(path))

    def test_shape_mismatch(self, tmp_path):
        path = make_state_file(tmp_path, "shape.json", {
            "modes": 2, "ordering": "xxpp",
            "mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]],
        })
        with pytest.raises(StateFileError):
            parse_state_file(path)

    def test_write_read_round_trip_exact(self, tmp_path):
        s = random_state(3, 123)
        path = tmp_path / "state.json"
        write_state_file(path, s)
        back = parse_state_file(path)
        np.testing.assert_array_equal(back.u, s.u)
        np.testing.assert_array_equal(back.V, s.V)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class TestCommands:
    def test_fidelity_vacuum_coherent(self, capsys, vacuum_file, coherent_file):
        code, report, _ = run_json(capsys, ["fidelity", vacuum_file, coherent_file])
        assert code == 0
        assert report["F"] == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert report["discarded_pairs"] == 1
        assert any("discarded" in w for w in report["warnings"])
        for key, path in (("a", vacuum_file), ("b", coherent_file)):
            assert report["inputs"][key] == {
                "path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}

    def test_bures(self, capsys, vacuum_file, coherent_file):
        code, report, _ = run_json(capsys, ["bures", vacuum_file, coherent_file])
        assert code == 0
        assert report["bures_distance"] == pytest.approx(2 * (1 - np.exp(-0.5)), abs=1e-9)

    def test_invariants(self, capsys, vacuum_file):
        code, report, _ = run_json(capsys, ["invariants", vacuum_file, vacuum_file])
        assert code == 0
        assert report["Delta"] == pytest.approx(1.0)
        assert report["Gamma"] == pytest.approx(1.0)
        assert report["Lambda"] == pytest.approx(0.0, abs=1e-12)
        assert report["chi0_identity_residual"] == pytest.approx(0.0, abs=1e-10)

    def test_invariants_identities_at_scale(self, tmp_path, capsys):
        # the identities within the bounds FidelityReport.invariants documents
        paths = []
        for seed in (11, 12):
            paths.append(str(tmp_path / f"s{seed}.json"))
            write_state_file(paths[-1], random_state(32, seed))
        code, report, _ = run_json(capsys, ["invariants", *paths])
        assert code == 0
        assert abs(report["chi0_identity_residual"]) <= 1e-10 * abs(report["Gamma"])
        assert abs(report["chi1_identity_residual"]) <= 1e-8 * max(
            abs(report["Lambda"]), 1e-6 * abs(report["Gamma"]))

    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_finite_report_refused(self, tmp_path, capsys, as_json):
        # det(V1 + V2) of this n = 64 pair overflows: exit 3 and no report
        # rather than a bare Infinity
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_state_file(a, random_state(64, 9740))
        write_state_file(b, random_state(64, 9743, pure=True, max_squeeze=8.0))
        code, out, err = run(capsys, ["fidelity", a, b] + ["--json"] * as_json)
        assert code == 3 and out == ""
        assert err == ("gaussfid: report field det_v1_plus_v2 is not finite, "
                       "which JSON cannot hold\n")

    def test_metric_inline_arrays(self, capsys, vacuum_file):
        code, report, _ = run_json(capsys, [
            "metric", vacuum_file, "--du", "[1.0, 0.0]",
            "--dv", "[[0.0, 0.0], [0.0, 0.0]]"])
        assert code == 0
        assert report["ds2"] == pytest.approx(0.5, rel=1e-12)

    def test_metric_file_arrays(self, capsys, vacuum_file, tmp_path):
        du = tmp_path / "du.json"
        du.write_text("[0.0, 1.0]")
        code, report, _ = run_json(capsys, [
            "metric", vacuum_file, "--du", str(du), "--dv", "[[0,0],[0,0]]"])
        assert code == 0
        assert report["ds2"] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("du, dv", [("[NaN, 0]", "[[0, 0], [0, 0]]"),
                                        ("[0, 0]", "[[Infinity, 0], [0, 0]]")])
    def test_metric_non_finite_perturbation_refused(self, capsys, vacuum_file, du, dv):
        # a NaN in --du exited 0 and printed '"ds2": NaN', which is not JSON
        code, out, err = run(capsys, ["metric", vacuum_file, "--du", du, "--dv", dv, "--json"])
        assert (code, out) == (2, "")
        assert "non-finite entry" in err

    def test_qfi_stencil_outside_the_domain(self, capsys):
        # exited 2 naming only "[-0.0001]", a point the caller never gave
        code, out, err = run(capsys, ["qfi", "--family", "thermal-nbar", "--theta", "1e-4"])
        assert (code, out) == (2, "")
        assert "theta0 = 0.0001 with step h = 0.0001 reaches -0.0001 to 0.0003" in err

    def test_qfi(self, capsys):
        code, report, _ = run_json(capsys, [
            "qfi", "--family", "coherent-displacement", "--theta", "0.0"])
        assert code == 0
        assert report["qfi"] == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("h", ["0", "-1e-3", "nan", "inf"])
    def test_qfi_step_must_be_finite_and_positive(self, capsys, mode, h):
        # h = 0 was a ZeroDivisionError traceback (finite differences) or
        # '"qfi": NaN', which is not JSON, with exit 0 (analytic)
        code, out, err = run(capsys, ["qfi", "--family", "squeeze-r", "--theta", "0.3",
                                      "--mode", mode, f"--h={h}", "--json"])
        assert (code, out) == (2, "")
        assert "finite and > 0" in err

    def test_qfi_help_lists_every_family(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "500")  # no line breaks inside a name
        with pytest.raises(SystemExit) as exit_info:
            main(["qfi", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in FAMILIES)

    def test_bounds(self, capsys):
        code, report, _ = run_json(capsys, ["bounds", "--fidelity", "0.5", "--copies", "1"])
        assert code == 0
        assert report["lower"] == pytest.approx(0.0669872981077807, abs=1e-12)
        assert report["upper"] == 0.25

    def test_bounds_golden_file(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--fidelity", "0.5", "--copies", "1", "--json"])
        assert code == 0
        assert out == (DATA / "bounds_golden.json").read_text()

    def test_williamson(self, capsys, vacuum_file):
        code, report, _ = run_json(capsys, ["williamson", vacuum_file])
        assert code == 0
        np.testing.assert_allclose(report["nu"], [0.5], atol=1e-12)
        assert report["residual_symplectic"] < 1e-10

    def test_williamson_residuals_are_the_accept_checks(self, capsys, tmp_path):
        state = random_state(3, 141)
        path = tmp_path / "state.json"
        write_state_file(path, state)
        code, report, _ = run_json(capsys, ["williamson", str(path)])
        assert code == 0
        dec = williamson(state.V)
        assert report["residual_symplectic"] == dec.residual_symplectic
        assert report["residual_reconstruction"] == dec.residual_reconstruction
        assert max(dec.residual_symplectic, dec.residual_reconstruction) <= 1e-8

    def test_random_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "rand.json"
        code, report, _ = run_json(capsys, [
            "random", "--modes", "2", "--seed", "11", "-o", str(out_path)])
        assert code == 0
        expected = random_state(2, 11)
        loaded = parse_state_file(out_path)
        np.testing.assert_array_equal(loaded.u, expected.u)
        np.testing.assert_array_equal(loaded.V, expected.V)

    def test_random_file_is_the_product_chains_byte_for_byte(self, capsys, tmp_path):
        # the row-wise sampler writes the file of the embedded product chain
        from test_states import _product_random_state

        code, report, _ = run_json(capsys, [
            "random", "--modes", "64", "--seed", "7", "-o", str(tmp_path / "rand.json")])
        assert code == 0
        write_state_file(tmp_path / "product.json", _product_random_state(64, 7))
        digest = hashlib.sha256((tmp_path / "product.json").read_bytes()).hexdigest()
        assert report["sha256"] == digest

    def test_oracle_check_passes(self, capsys):
        code, report, _ = run_json(capsys, ["oracle-check", "--seed", "7", "--modes", "1"])
        assert code == 0
        assert report["passed"] is True
        assert report["abs_diff"] < 1e-6

    def test_oracle_check_roundoff_deficit_does_not_warn(self, capsys):
        rng = np.random.default_rng(3)
        deficits = [build_circuit_state(random_circuit(1, rng)).fock.trace_deficit
                    for _ in range(2)]
        assert 0.0 < max(deficits) <= TRACE_DEFICIT_ROUNDOFF
        code, report, _ = run_json(capsys, ["oracle-check", "--seed", "3", "--modes", "1"])
        assert code == 0
        assert report["warnings"] == []

    def test_oracle_check_truncation_deficit_warns(self, capsys):
        # at cutoff 16 state b loses ~4e-11 of its trace to the truncation
        code, report, _ = run_json(capsys, ["oracle-check", "--seed", "3", "--modes", "1",
                                            "--cutoff", "16"])
        assert code == 0
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("state b: truncation trace deficit")

    def test_numerical_failure_exits_3(self, capsys):
        # cutoff far too small: the truncation budget trips
        code, out, err = run(capsys, ["oracle-check", "--seed", "7", "--modes", "1",
                                      "--cutoff", "5"])
        assert code == 3
        assert "cutoff" in err

    @pytest.mark.parametrize("command", ["fidelity", "bures", "invariants"])
    def test_singular_v_sum_exits_3(self, tmp_path, capsys, command):
        # V1 + V2 of this strongly squeezed pure state is singular to
        # working precision: a typed refusal, not a traceback
        path = tmp_path / "s.json"
        write_state_file(path, random_state(1, 9113, pure=True, max_squeeze=8.0))
        code, report, err = run_json(capsys, [command, str(path), str(path)])
        assert code == 3
        assert report is None
        assert "V1 + V2 is singular" in err

    def test_singular_covariance_metric_exits_3(self, tmp_path, capsys):
        # the metric's solve of V raised numpy's LinAlgError, a traceback
        path = tmp_path / "s.json"
        write_state_file(path, random_state(1, 9113, pure=True, max_squeeze=8.0))
        code, out, err = run(capsys, ["metric", str(path), "--du", "[0.3, 0]",
                                      "--dv", "[[1, 0], [0, 1]]", "--json"])
        assert (code, out) == (3, "")
        assert "V is singular to working precision" in err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 64

    def test_no_command(self, capsys):
        assert main([]) == 64

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["fidelity", str(tmp_path / "nope.json"),
                                    str(tmp_path / "nope.json")])
        assert code == 2


#: Refused inputs, "{tmp}" standing for a temporary directory.  The first six
#: escaped as numpy's ValueError or OverflowError, or as a ZeroDivisionError.
#: Of the last two, one escaped as numpy's OverflowError, and one wrote an
#: overflowing state file and exited 0.
REFUSED_ARGV = [
    "oracle-check --modes 1 --seed -1",
    "random --modes 2 --seed -1 -o {tmp}/x.json",
    "random --modes 2 --seed 1 --max-disp inf -o {tmp}/x.json",
    "random --modes 2 --seed 1 --max-squeeze nan -o {tmp}/x.json",
    "qfi --family thermal-nbar --theta 1 --mode finite_difference --h 1e-170",
    "qfi --family thermal-nbar --theta 1 --mode finite_difference --h 1e160",
    "random --modes 2 --seed 1 --max-thermal -1 -o {tmp}/x.json",
    "random --modes 0 --seed 1 -o {tmp}/x.json",
    "qfi --family squeeze-r --theta 0.3 --h 0",
    "qfi --family squeeze-r --theta 0.3 --mode finite_difference --h nan",
    "qfi --family thermal-nbar --theta 1e-4",
    "qfi --family nope --theta 1",
    "bounds --fidelity 1.5 --copies 8",
    "oracle-check --modes 1 --seed 7 --cutoff 2",
    "oracle-check --modes 1 --seed 7 --cutoff 5",
    "fidelity {tmp}/nope.json {tmp}/nope.json",
    "random --modes 2 --seed 1 --max-disp 1e308 -o {tmp}/x.json",
    "random --modes 2 --seed 1 --max-squeeze 400 -o {tmp}/x.json",
]


@pytest.mark.parametrize("as_json", [True, False])
@pytest.mark.parametrize("argv", REFUSED_ARGV)
def test_refusal_is_a_message_not_a_traceback(capsys, tmp_path, argv, as_json):
    # an exception escaping main() is what prints a traceback
    code, out, err = run(capsys, argv.format(tmp=tmp_path).split() + ["--json"] * as_json)
    assert code in (2, 3) and out == ""
    assert any(line.startswith("gaussfid: ") for line in err.splitlines()), err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# schema stability and tolerance plumbing
# ---------------------------------------------------------------------------

FIDELITY_KEYS = ["command", "inputs", "F", "F0", "Ftot", "det_v1_plus_v2",
                 "disp_exponent", "waux_spectrum", "discarded_pairs",
                 "invariants", "tolerances", "warnings"]
BOUNDS_KEYS = ["command", "fidelity_used", "copies", "lower", "upper",
               "tolerances", "warnings"]
METRIC_KEYS = ["command", "inputs", "ds2", "mean_part", "cov_part",
               "skipped_terms", "tolerances", "warnings"]
QFI_KEYS = ["command", "family", "theta", "mode", "h", "qfi", "tolerances", "warnings"]


class TestSchemaStability:
    def test_fidelity_field_set(self, capsys, vacuum_file, coherent_file):
        _, report, _ = run_json(capsys, ["fidelity", vacuum_file, coherent_file])
        assert list(report) == FIDELITY_KEYS

    def test_bounds_field_set(self, capsys):
        _, report, _ = run_json(capsys, ["bounds", "--fidelity", "0.9", "--copies", "3"])
        assert list(report) == BOUNDS_KEYS

    def test_metric_field_set(self, capsys, vacuum_file):
        _, report, _ = run_json(capsys, [
            "metric", vacuum_file, "--du", "[0,0]", "--dv", "[[0,0],[0,0]]"])
        assert list(report) == METRIC_KEYS

    def test_qfi_field_set(self, capsys):
        _, report, _ = run_json(capsys, ["qfi", "--family", "squeeze-r", "--theta", "0.1"])
        assert list(report) == QFI_KEYS

    def test_tolerance_flags_echoed(self, capsys, vacuum_file):
        # the report echoes the fixed tolerances; no flag overrides them
        _, report, _ = run_json(capsys, ["fidelity", vacuum_file, vacuum_file])
        assert report["tolerances"] == {
            "phys": DEFAULT_PHYS_TOL, "pure": DEFAULT_PURE_TOL, "metric": DEFAULT_METRIC_TOL}
        for flag in ("--tol-phys", "--tol-pure", "--tol-metric"):
            with pytest.raises(SystemExit) as info:
                main(["fidelity", vacuum_file, vacuum_file, flag, "1e-7"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} 1e-7" in capsys.readouterr().err

    def test_environment_does_not_set_the_pure_tolerance(self, capsys, vacuum_file,
                                                          coherent_file, monkeypatch):
        commands = (["fidelity", vacuum_file, coherent_file, "--json"],
                    ["bounds", "--fidelity", "0.5", "--copies", "2", "--json"])
        monkeypatch.delenv("GAUSSFID_TOL_PURE", raising=False)
        expected = [run(capsys, argv)[:2] for argv in commands]
        assert expected[0][0] == expected[1][0] == 0
        for value in ("1e-6", "abc"):
            monkeypatch.setenv("GAUSSFID_TOL_PURE", value)
            assert [run(capsys, argv)[:2] for argv in commands] == expected


def _fresh_run(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter on this gaussfid, with the
    test-side modules importable and numpy's warnings shown as by default."""
    import gaussfid
    src = str(Path(gaussfid.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, tests, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by :func:`_fresh_run`."""
    return _fresh_run("-c", code).stdout.strip()


def test_refusal_is_the_only_line_on_stderr(tmp_path):
    # building this state overflows in numpy; the RuntimeWarning and its
    # source line used to be printed before the refusal
    done = _fresh_run("-m", "gaussfid", "random", "--modes", "2", "--seed", "1",
                      "--max-squeeze", "400", "-o", str(tmp_path / "x.json"), check=False)
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("gaussfid: "), \
        done.stderr


def test_import_does_not_load_scipy():
    # scipy serves only one test-side cross-check route; keeping it off the
    # import path keeps every CLI call about 200 ms faster
    assert _fresh_python("import sys, gaussfid; print('scipy' in sys.modules)") == "False"


def test_cli_import_leaves_hashlib_and_fock_unloaded():
    # hashlib loads OpenSSL (~3.5 MB of resident memory) for the input digests
    # alone, and the Fock oracle serves oracle-check alone; both are imported
    # where they are used
    assert _fresh_python(
        "import sys, gaussfid.cli; "
        "print('hashlib' in sys.modules, 'gaussfid.fock' in sys.modules)") == "False False"


def test_reference_algebra_runs_without_scipy():
    # the Gibbs/W-operator algebra needs numpy only; alt_ftot_v12 imports
    # scipy when it is called
    assert _fresh_python(
        "import sys, numpy as np\n"
        "import reference_routes as r\n"
        "V = np.diag([1.0, 2.0, 1.5, 1.0])\n"
        "r.cov_from_gibbs(r.gibbs_from_cov(V).G); r.partition_function(V); r.purity(V)\n"
        "W = r.w_matrix(r.square_root_cov(V))\n"
        "r.cov_from_w(r.product_w(W, W))\n"
        "r.singular_reduction(0.5 * np.eye(4), V)\n"
        "print('scipy' in sys.modules)\n") == "False"


PUBLIC_NAMES = (
    # errors
    "GaussfidError", "InvalidParameter", "InvalidState", "NumericalError",
    "StateFileError", "TruncationError",
    # core
    "GaussianState", "PhysicalityReport", "WilliamsonDecomposition",
    "make_symplectic_form", "symplectic_eigenvalues", "validate_state", "williamson",
    # states
    "apply_symplectic", "coherent", "displace", "random_state", "random_symplectic",
    "squeezed", "tensor", "thermal", "two_mode_squeezed", "vacuum",
    # fidelity
    "FidelityReport", "InvariantSet", "closed_form_fidelity", "fidelity",
    # metrology
    "ErrorBounds", "MetricEvaluation", "QfiMatrix", "bures_distance", "bures_metric",
    "bures_metric_delta", "error_bounds", "get_family", "qfi_matrix", "qfi_scalar",
    # fock
    "CircuitSpec", "FockDensityMatrix", "build_circuit_state", "moments_from_fock",
    "random_circuit", "uhlmann_fidelity_matrix",
)


def test_public_names():
    import gaussfid
    assert len(PUBLIC_NAMES) == 43
    assert sorted(gaussfid.__all__) == sorted(PUBLIC_NAMES)
    for name in gaussfid.__all__:
        assert getattr(gaussfid, name) is not None
    # the Fock oracle's names resolve on first use, and through a star import
    star = {}
    exec("from gaussfid import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert gaussfid.random_circuit is importlib.import_module("gaussfid.fock").random_circuit
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gaussfid.no_such_name
