"""Command-line interface: state files, reports, exit codes, schema stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussfid import (
    InvalidState,
    StateFileError,
    build_circuit_state,
    random_circuit,
    random_state,
)
from gaussfid.cli import main, parse_state_file, write_state_file
from gaussfid.fock import TRACE_DEFICIT_ROUNDOFF

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


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, (json.loads(out) if out else None), err


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
        assert s.ordering.value == "xxpp"
        np.testing.assert_allclose(s.u, [1.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(np.diag(s.V), [0.5, 1.5, 0.5, 1.5])

    def test_unphysical_cov_names_the_eigenvalue(self, tmp_path, capsys):
        path = make_state_file(tmp_path, "bad.json", {
            "modes": 1, "ordering": "xxpp",
            "mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]],
        })
        code, out, err = run(capsys, ["fidelity", path, path])
        assert code == 2
        assert "min_eig_shifted" in err

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

    def test_qfi(self, capsys):
        code, report, _ = run_json(capsys, [
            "qfi", "--family", "coherent-displacement", "--theta", "0.0"])
        assert code == 0
        assert report["qfi"] == pytest.approx(2.0, abs=1e-7)

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

    def test_random_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "rand.json"
        code, report, _ = run_json(capsys, [
            "random", "--modes", "2", "--seed", "11", "-o", str(out_path)])
        assert code == 0
        expected = random_state(2, 11)
        loaded = parse_state_file(out_path)
        np.testing.assert_array_equal(loaded.u, expected.u)
        np.testing.assert_array_equal(loaded.V, expected.V)

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

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 64

    def test_no_command(self, capsys):
        assert main([]) == 64

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["fidelity", str(tmp_path / "nope.json"),
                                    str(tmp_path / "nope.json")])
        assert code == 2


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
        _, report, _ = run_json(capsys, [
            "fidelity", vacuum_file, vacuum_file, "--tol-pure", "1e-7"])
        assert report["tolerances"]["pure"] == 1e-7

    def test_env_override_for_pure_tolerance(self, capsys, vacuum_file, monkeypatch):
        monkeypatch.setenv("GAUSSFID_TOL_PURE", "1e-6")
        _, report, _ = run_json(capsys, ["fidelity", vacuum_file, vacuum_file])
        assert report["tolerances"]["pure"] == 1e-6

    def test_flag_beats_env(self, capsys, vacuum_file, monkeypatch):
        monkeypatch.setenv("GAUSSFID_TOL_PURE", "1e-6")
        _, report, _ = run_json(capsys, [
            "fidelity", vacuum_file, vacuum_file, "--tol-pure", "1e-8"])
        assert report["tolerances"]["pure"] == 1e-8


def test_import_does_not_load_scipy():
    # scipy serves only the cross-check routes in gaussfid.reference; keeping
    # it off the import path keeps every CLI call about 200 ms faster
    import gaussfid
    src = str(Path(gaussfid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, gaussfid; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
