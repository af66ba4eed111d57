"""Bures distance/metric, quantum Fisher information, discrimination bounds."""

import math

import numpy as np
import pytest

from gaussfid import (
    GaussianState,
    InvalidParameter,
    NumericalError,
    apply_symplectic,
    bures_distance,
    bures_metric,
    bures_metric_delta,
    coherent,
    displace,
    error_bounds,
    fidelity,
    get_family,
    make_symplectic_form,
    qfi_matrix,
    qfi_scalar,
    random_state,
    thermal,
    vacuum,
)
from gaussfid import metrology, states
from gaussfid.metrology import FAMILIES
from gaussfid.states import embed_symplectic, two_mode_squeeze_block

from conftest import COMPLEX, REAL, count_linalg_calls, record_calls
from reference_routes import bures_metric_delta_superop, w_matrix


# ---------------------------------------------------------------------------
# Bures distance
# ---------------------------------------------------------------------------

class TestBuresDistance:
    def test_identical_states(self):
        s = random_state(2, 1)
        assert bures_distance(s, s) == pytest.approx(0.0, abs=1e-10)

    def test_vacuum_vs_coherent(self):
        expected = 2.0 * (1.0 - np.exp(-0.5))
        assert bures_distance(vacuum(1), coherent([1.0])) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_limit(self):
        far = displace(vacuum(1), [20.0, 0.0])
        assert bures_distance(vacuum(1), far) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Bures metric
# ---------------------------------------------------------------------------

class TestBuresMetricDelta:
    def test_zero_perturbation(self):
        delta, skipped = bures_metric_delta(np.eye(2), np.zeros((2, 2)))
        assert delta == 0.0

    def test_single_mode_thermal(self):
        # dV = dv * I gives delta = 8 dv^2 / (4 v^2 - 1)
        v, dv = 1.0, 1.0
        delta, skipped = bures_metric_delta(v * np.eye(2), dv * np.eye(2))
        assert delta == pytest.approx(8.0 * dv * dv / (4.0 * v * v - 1.0), rel=1e-12)
        assert skipped == 0

    def test_pure_state_squeeze_direction(self):
        # for pure states delta = Tr[W^{-1} dW W^{-1} dW] / 2
        V = 0.5 * np.eye(2)
        dV = np.diag([1.0, -1.0])
        delta, skipped = bures_metric_delta(V, dV)
        W = w_matrix(V)
        dW = w_matrix(dV)
        reference = 0.5 * np.trace(np.linalg.inv(W) @ dW @ np.linalg.inv(W) @ dW)
        assert abs(reference.imag) < 1e-12
        assert delta == pytest.approx(reference.real, rel=1e-9)
        assert skipped > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_state_trace_formula(self, seed):
        # physical tangent at a pure state: dV = A V + V A^T with A = Omega H
        s = random_state(2, 3000 + seed, pure=True)
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((4, 4))
        A = make_symplectic_form(2) @ (H + H.T)
        dV = A @ s.V + s.V @ A.T
        delta, _ = bures_metric_delta(s.V, dV)
        W = w_matrix(s.V)
        inv_w_dw = np.linalg.inv(W) @ w_matrix(dV)
        reference = 0.5 * np.trace(inv_w_dw @ inv_w_dw)
        assert abs(reference.imag) < 1e-9
        assert delta == pytest.approx(reference.real, rel=1e-9, abs=1e-9)
        assert delta == pytest.approx(bures_metric_delta_superop(s.V, dV),
                                      rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_superoperator_pseudoinverse(self, seed):
        # independent route: delta = 4 Tr[dV (4 L_V + L_Omega)^{-1} dV]
        n = seed % 2 + 1
        s = random_state(n, 3100 + seed)
        rng = np.random.default_rng(seed)
        dV = rng.standard_normal((2 * n, 2 * n))
        dV = 0.5 * (dV + dV.T)
        delta, _ = bures_metric_delta(s.V, dV)
        assert delta == pytest.approx(bures_metric_delta_superop(s.V, dV), rel=1e-8)

    def test_asymmetric_dv_rejected(self):
        with pytest.raises(InvalidParameter):
            bures_metric_delta(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_dv_rejected(self, bad, entry):
        # a NaN passed the symmetry test and came back as delta = NaN
        dV = np.zeros((2, 2))
        dV[entry] = dV[entry[::-1]] = bad
        with pytest.raises(InvalidParameter, match="dV has a non-finite entry"):
            bures_metric_delta(np.eye(2), dV)


class TestNegativeDeltaRefused:
    """A diagonal delta below -k eps sum|terms| is refused, not returned."""

    _V = random_state(1, 521, pure=True, max_squeeze=4.0).V
    _DV = np.array([[1.0, 0.3], [0.3, -0.5]])

    def test_off_manifold_squeezed_pure_state(self):
        # this delta came back as -9.66e15, with its terms summing to 9.66e15
        # in absolute value
        with pytest.raises(NumericalError, match="metric delta -9.66.e\\+15 is negative"):
            bures_metric_delta(self._V, self._DV)

    def test_qfi_matrix_diagonal(self):
        def family(theta):
            return GaussianState(1, np.zeros(2), self._V + theta[0] * self._DV)
        with pytest.raises(NumericalError, match="metric delta .* is negative"):
            qfi_matrix(family, [0.0])

    def test_negative_off_diagonal_kept(self):
        # n = theta_0 - theta_1 of a thermal state: H = [[1, -1], [-1, 1]] / (n (n + 1))
        H = qfi_matrix(lambda theta: thermal([theta[0] - theta[1]]), [1.0, 0.5]).H
        np.testing.assert_allclose(H, np.array([[1.0, -1.0], [-1.0, 1.0]]) / 0.75, rtol=1e-8)


class TestBuresMetric:
    def test_coherent_mean_only(self):
        ev = bures_metric(vacuum(1), np.array([1.0, 0.0]), np.zeros((2, 2)))
        assert ev.ds2 == pytest.approx(0.5, rel=1e-12)
        assert ev.cov_part == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_du_rejected(self, bad):
        # bures_metric(vacuum(1), [nan, 0], 0) returned ds2 = NaN
        with pytest.raises(InvalidParameter, match="du has a non-finite entry"):
            bures_metric(vacuum(1), np.array([bad, 0.0]), np.zeros((2, 2)))

    def test_singular_covariance_refused(self):
        # V of this strongly squeezed pure state is not positive definite to
        # working precision; the frame's LinAlgError is refused as a
        # NumericalError
        s = random_state(1, 9113, pure=True, max_squeeze=8.0)
        with pytest.raises(NumericalError, match="not positive definite") as exc:
            bures_metric(s, [0.3, 0.0], np.eye(2))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_one_frame_and_no_solve(self, monkeypatch):
        # V = L L^T and the one Hermitian eigh of its symplectic frame; the
        # mean part is |L^{-1} du|^2 / 4 from the same frame, with no solve
        s = random_state(2, 32)
        du = np.array([0.3, -0.2, 0.1, 0.4])
        expected = 0.25 * du @ np.linalg.solve(s.V, du)
        calls = {name: count_linalg_calls(monkeypatch, name)
                 for name in ("cholesky", "eigh", "eigvalsh", "solve")}
        ev = bures_metric(s, du, np.eye(4))
        assert calls == {"cholesky": [((4, 4), REAL)], "eigh": [((4, 4), COMPLEX)],
                         "eigvalsh": [], "solve": []}
        assert ev.mean_part == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("entry", ["bures_metric", "bures_metric_delta", "qfi_matrix"])
    def test_kernel_takes_one_inverse(self, entry, monkeypatch):
        # the metric's kernel takes L^{-1} once per call, whatever the entry point
        s = random_state(2, 33)
        call = {"bures_metric": lambda: bures_metric(s, [0.3, -0.2, 0.1, 0.4], np.eye(4)),
                "bures_metric_delta": lambda: bures_metric_delta(s.V, np.eye(4)),
                "qfi_matrix": lambda: qfi_matrix(
                    lambda t: displace(s, [t[0], 0.0, t[1], 0.0]), [0.1, 0.2])}[entry]
        calls = {name: count_linalg_calls(monkeypatch, name)
                 for name in ("cholesky", "eigh", "inv", "solve")}
        call()
        assert calls == {"cholesky": [((4, 4), REAL)], "eigh": [((4, 4), COMPLEX)],
                         "inv": [((4, 4), REAL)], "solve": []}

    def test_thermal_family(self):
        v = 1.0
        ev = bures_metric(thermal([v - 0.5]), np.zeros(2), np.eye(2))
        assert ev.ds2 == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_consistency_with_fidelity_expansion(self, h):
        # 2 [1 - F(s, s + h ds)] / h^2 -> ds^2 as h -> 0
        v = 1.2
        base = thermal([v - 0.5])
        stepped = thermal([v - 0.5 + h])
        ev = bures_metric(base, np.zeros(2), np.eye(2))
        fd = 2.0 * (1.0 - fidelity(base, stepped).F) / h ** 2
        assert fd == pytest.approx(ev.ds2, rel=20 * h)

    def test_error_shrinks_superlinearly(self):
        base = thermal([0.7])
        ev = bures_metric(base, np.zeros(2), np.eye(2))
        errors = []
        for h in (1e-2, 1e-3):
            fd = 2.0 * (1.0 - fidelity(base, thermal([0.7 + h])).F) / h ** 2
            errors.append(abs(fd - ev.ds2))
        assert errors[0] / errors[1] >= 4.0


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

class TestQfiScalar:
    def test_coherent_displacement(self):
        family = get_family("coherent-displacement")
        assert qfi_scalar(family, 0.3) == pytest.approx(2.0, abs=1e-8)
        fd = qfi_scalar(family, 0.3, mode="finite_difference", h=1e-3)
        assert fd == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("nbar", [0.5, 1.0])
    def test_thermal_occupation(self, nbar):
        family = get_family("thermal-nbar")
        expected = 1.0 / (nbar * (nbar + 1.0))
        assert qfi_scalar(family, nbar) == pytest.approx(expected, abs=1e-6)

    def test_squeeze_family_constant(self):
        family = get_family("squeeze-r")
        for theta in (0.0, 0.4):
            assert qfi_scalar(family, theta) == pytest.approx(2.0, abs=1e-6)

    def test_constant_family(self):
        assert qfi_scalar(lambda theta: thermal([0.5]), 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_modes_agree(self):
        family = get_family("thermal-nbar")
        analytic = qfi_scalar(family, 0.8)
        fd = qfi_scalar(family, 0.8, mode="finite_difference", h=1e-4)
        assert fd == pytest.approx(analytic, rel=1e-3)

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameter):
            qfi_scalar(get_family("thermal-nbar"), 0.5, mode="magic")

    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            get_family("nope")

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("h", [0.0, -0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_step_must_be_finite_and_positive(self, mode, h):
        # h = 0 divided by zero (finite differences) or returned NaN (analytic)
        with pytest.raises(InvalidParameter, match="finite and > 0"):
            qfi_scalar(get_family("squeeze-r"), 0.3, mode=mode, h=h)

    #: closed-form QFI and a grid over each named family's domain
    CLOSED_FORMS = {
        "coherent-displacement": (lambda t: 2.0, np.linspace(-10.0, 10.0, 21)),
        "thermal-nbar": (lambda t: 1.0 / (t * (t + 1.0)), [0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]),
        "squeeze-r": (lambda t: 2.0, np.linspace(0.0, 12.0, 25)),
        "phase-theta": (lambda t: 2.0 * np.sinh(2.0) ** 2, np.linspace(0.0, 2.0 * np.pi, 17)),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_analytic_matches_closed_form_over_the_domain(self, name):
        # squeeze-r was off by 220% at theta = 10 while squeeze_block
        # cancelled cosh r - sinh r
        closed_form, thetas = self.CLOSED_FORMS[name]
        for theta in thetas:
            expected = closed_form(theta)
            assert qfi_scalar(FAMILIES[name], theta) == pytest.approx(expected, rel=1e-9), theta

    def test_stencil_outside_the_domain_names_the_reach(self):
        # the stencil reaches theta0 - 2h = -1e-4, which thermal([.]) refused
        # under its own message alone, naming a point the caller never gave;
        # a plain callable, as the named family has exact derivatives
        with pytest.raises(InvalidParameter) as info:
            qfi_scalar(lambda t: thermal([t]), 1e-4)
        message = str(info.value)
        assert "theta0 = 0.0001 with step h = 0.0001 reaches -0.0001 to 0.0003" in message
        assert isinstance(info.value.__cause__, InvalidParameter)

    def test_theta0_outside_the_domain_names_theta0(self):
        # theta0 itself is refused under the family's own message, as in
        # qfi_matrix, not blamed on the stencil's reach
        with pytest.raises(InvalidParameter, match=r"got \[-1\.\]$"):
            qfi_scalar(get_family("thermal-nbar"), -1.0)

    def test_phase_family_runs(self):
        value = qfi_scalar(get_family("phase-theta"), 0.2)
        fd = qfi_scalar(get_family("phase-theta"), 0.2, mode="finite_difference", h=1e-4)
        assert value > 0
        assert fd == pytest.approx(value, rel=1e-3)


class TestExactDerivatives:
    """The named families' analytic QFI from exact moment derivatives."""

    CLOSED_FORMS = {
        "coherent-displacement": lambda t: 2.0,
        "thermal-nbar": lambda t: 1.0 / (t * (t + 1.0)),
        "squeeze-r": lambda t: 2.0,
        "phase-theta": lambda t: 2.0 * math.sinh(2.0) ** 2,
    }
    THETAS = np.geomspace(1e-3, 12.0, 40)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_closed_form(self, name):
        # the 4-point stencil was off by up to 1.7e-11 here
        thetas = self.THETAS
        if name == "coherent-displacement":
            thetas = np.concatenate([-thetas, thetas])
        for theta in thetas:
            expected = self.CLOSED_FORMS[name](theta)
            assert qfi_scalar(FAMILIES[name], theta) == pytest.approx(expected, rel=5e-13), theta

    @pytest.mark.parametrize("nbar", [1e-4, 1e-5, 1e-6])
    def test_thermal_near_zero_answers(self, nbar):
        # the stencil reached below nbar = 0 here and was refused
        value = qfi_scalar(get_family("thermal-nbar"), nbar)
        assert value == pytest.approx(1.0 / (nbar * (nbar + 1.0)), rel=1e-9)

    @pytest.mark.parametrize("nbar", [1e-10, 1e-12])
    def test_thermal_within_the_skip_tolerance_refused(self, nbar):
        # w^2 - 1 = 4 nbar falls in the skip band, which dropped the whole
        # term: 1e-43 of the exact QFI at nbar = 1e-10
        with pytest.raises(NumericalError, match="which the metric skips"):
            qfi_scalar(get_family("thermal-nbar"), nbar)

    BUILDERS = {"coherent-displacement": "displace", "thermal-nbar": "thermal",
                "squeeze-r": "squeezed", "phase-theta": "apply_symplectic"}

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_one_state_and_no_stencil(self, name, monkeypatch):
        builds = record_calls(monkeypatch, states, self.BUILDERS[name])
        stencils = record_calls(monkeypatch, metrology, "_moment_derivatives")
        qfi_scalar(FAMILIES[name], 0.4, h=1e-3)
        assert (len(builds), stencils) == (1, [])

    def test_plain_callable_takes_the_stencil(self, monkeypatch):
        stencils = record_calls(monkeypatch, metrology, "_moment_derivatives")
        qfi_scalar(lambda t: thermal([t]), 0.4)
        assert len(stencils) == 1

    def test_unhashable_callable_family(self):
        # a callable that cannot be a dict key is a plain family, not an error
        class Family:
            __hash__ = None

            def __call__(self, theta):
                return thermal([theta])
        assert qfi_scalar(Family(), 0.4) == qfi_scalar(lambda t: thermal([t]), 0.4)

    def test_table_covers_exactly_the_named_families(self):
        table = metrology._EXACT_DERIVATIVES
        assert len(table) == len(FAMILIES)
        assert all(family in table for family in FAMILIES.values())


class TestSkippedTermGuard:
    """A skipped pair of the metric that carries a term is refused."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("max_squeeze", [0.0, 2.0, 4.0, 8.0])
    def test_pure_state_tangents_pass(self, n, max_squeeze):
        # dV = A V + V A^T, A = Omega H: the skipped products are roundoff
        for seed in range(100):
            s = random_state(n, seed, pure=True, max_squeeze=max_squeeze)
            rng = np.random.default_rng(seed)
            H = rng.standard_normal((2 * n, 2 * n))
            A = make_symplectic_form(n) @ (H + H.T)
            try:
                bures_metric_delta(s.V, A @ s.V + s.V @ A.T)
            except NumericalError as exc:  # the frame's or the sum's own refusals
                assert "which the metric skips" not in str(exc), seed

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("max_squeeze", [0.0, 1.0, 2.0])
    def test_pure_state_scaling_refused(self, n, max_squeeze):
        # dV = V leaves the pure manifold, where the metric diverges; 599 of
        # these 900 returned a finite delta.  From max_squeeze ~4 the roundoff
        # of w_i w_j - 1 can move pairs out of the skip band, and some pass
        # both checks
        for seed in range(100):
            V = random_state(n, seed, pure=True, max_squeeze=max_squeeze).V
            with pytest.raises(NumericalError):
                bures_metric_delta(V, V)


class TestQfiMatrix:
    def test_singular_covariance_refused(self):
        s = random_state(1, 9113, pure=True, max_squeeze=8.0)
        with pytest.raises(NumericalError, match="not positive definite") as exc:
            qfi_matrix(lambda theta: displace(s, [theta[0], 0.0]), [0.0])
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_two_parameter_displacement(self):
        def family(theta):
            return displace(vacuum(1), [theta[0], theta[1]])
        result = qfi_matrix(family, [0.0, 0.0], labels=["x", "p"])
        np.testing.assert_allclose(result.H, 2.0 * np.eye(2), atol=1e-8)
        assert result.labels == ("x", "p")

    def test_duplicated_parameter_is_rank_deficient(self):
        def family(theta):
            return thermal([0.5 + theta[0] + theta[1]])
        result = qfi_matrix(family, [0.0, 0.0])
        eigs = np.linalg.eigvalsh(result.H)
        assert eigs[0] == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_matches_scalar(self):
        def family(theta):
            return displace(thermal([theta[1]]), [theta[0], 0.0])
        result = qfi_matrix(family, [0.2, 0.6])
        h00 = qfi_scalar(lambda t: family([t, 0.6]), 0.2)
        h11 = qfi_scalar(lambda t: family([0.2, t]), 0.6)
        assert result.H[0, 0] == pytest.approx(h00, abs=1e-8)
        assert result.H[1, 1] == pytest.approx(h11, abs=1e-8)

    def test_symmetry_and_psd(self):
        def family(theta):
            s = thermal([0.4 + theta[1] ** 2])
            return displace(s, [theta[0], -0.5 * theta[1]])
        result = qfi_matrix(family, [0.1, 0.3])
        assert np.max(np.abs(result.H - result.H.T)) < 1e-10
        eigs = np.linalg.eigvalsh(result.H)
        assert eigs[0] >= -1e-8 * max(np.abs(eigs).max(), 1.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_frame_and_4m_plus_1_family_calls(self, m, monkeypatch):
        base = random_state(2, 31, max_squeeze=0.5)
        evaluations = []

        def family(theta):
            evaluations.append(tuple(theta))
            S = embed_symplectic(two_mode_squeeze_block(theta[1]), [0, 1], 2)
            shift = np.zeros(4)
            shift[0] = theta[0]
            shift[3] = theta[2] if m == 3 else 0.0
            return displace(apply_symplectic(base, S), shift)

        calls = {name: count_linalg_calls(monkeypatch, name)
                 for name in ("cholesky", "eigh", "eigvalsh", "solve")}
        qfi_matrix(family, [0.1, 0.2, -0.3][:m])
        # V = L L^T and the one Hermitian eigh of its symplectic frame
        # i L^T Omega L; no real eigh of V, and no solve: the mean part is
        # read off the frame's L^{-1}
        assert calls == {"cholesky": [((4, 4), REAL)], "eigh": [((4, 4), COMPLEX)],
                         "eigvalsh": [], "solve": []}
        assert len(evaluations) == 4 * m + 1

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("theta", [0.2, 0.7, 1.5])
    def test_scalar_is_the_one_parameter_case(self, name, theta):
        # a plain callable takes the stencil in both, to the last bit
        family = FAMILIES[name]
        H = qfi_matrix(lambda t: family(t[0]), [theta]).H
        assert H.shape == (1, 1)
        assert H[0, 0] == qfi_scalar(lambda t: family(t), theta)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_named_family_exact_agrees_with_the_stencil(self, name):
        # the named family's exact derivatives against qfi_matrix's stencil
        H = qfi_matrix(lambda t: FAMILIES[name](t[0]), [0.7]).H
        assert qfi_scalar(FAMILIES[name], 0.7) == pytest.approx(H[0, 0], rel=1e-10)

    @pytest.mark.parametrize("theta0", [[], 0.3, [[0.1, 0.2]]])
    def test_theta0_must_be_a_non_empty_vector(self, theta0):
        with pytest.raises(InvalidParameter, match="non-empty 1-D"):
            qfi_matrix(lambda t: displace(thermal([0.4]), [t[0], 0.0]), theta0)

    @pytest.mark.parametrize("labels", [["x"], ["x", "p", "q"], []])
    def test_one_label_per_parameter(self, labels):
        with pytest.raises(InvalidParameter, match="labels"):
            qfi_matrix(lambda t: displace(vacuum(1), [t[0], t[1]]), [0.0, 0.0], labels=labels)

    @pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, h):
        # h = 0 used to give an H full of NaN
        with pytest.raises(InvalidParameter, match="finite and > 0"):
            qfi_matrix(lambda t: displace(thermal([0.4]), [t[0], t[1]]), [0.1, 0.2], h=h)

    def test_stencil_outside_the_domain_names_the_reach(self):
        with pytest.raises(InvalidParameter) as info:
            qfi_matrix(lambda t: thermal([t[0], t[1]]), [1.0, 1e-4])
        assert "theta0 = [1.e+00 1.e-04] with step h = 0.0001 reaches" in str(info.value)

    def test_off_diagonal_matches_polarization(self):
        # g(e_i + e_j) = g_ii + 2 g_ij + g_jj for the bilinear form
        def family(theta):
            s = thermal([0.4 + theta[1] ** 2])
            return displace(s, [theta[0] + theta[1], -0.5 * theta[1]])
        H = qfi_matrix(family, [0.1, 0.3]).H
        along = qfi_scalar(lambda t: family([0.1 + t, 0.3 + t]), 0.0)
        assert along == pytest.approx(H[0, 0] + 2.0 * H[0, 1] + H[1, 1], rel=1e-8)


# ---------------------------------------------------------------------------
# discrimination bounds
# ---------------------------------------------------------------------------

class TestErrorBounds:
    def test_indistinguishable(self):
        b = error_bounds(1.0, 5)
        assert b.lower == 0.5
        assert b.upper == 0.5

    def test_orthogonal(self):
        b = error_bounds(0.0, 3)
        assert b.lower == 0.0
        assert b.upper == 0.0

    def test_half_fidelity_single_copy(self):
        b = error_bounds(0.5, 1)
        assert b.lower == pytest.approx(0.0669872981077807, abs=1e-12)
        assert b.upper == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("F", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("N", [1, 2, 5, 10, 40])
    def test_ordering_and_range(self, F, N):
        b = error_bounds(F, N)
        assert 0.0 <= b.lower <= b.upper <= 0.5

    @pytest.mark.parametrize("F", [0.3, 0.8])
    def test_monotone_in_copies(self, F):
        previous = error_bounds(F, 1)
        for N in range(2, 12):
            current = error_bounds(F, N)
            assert current.lower <= previous.lower + 1e-15
            assert current.upper <= previous.upper + 1e-15
            previous = current

    def test_rejects_bad_fidelity(self):
        with pytest.raises(InvalidParameter):
            error_bounds(1.5, 1)
        with pytest.raises(InvalidParameter):
            error_bounds(0.5, 0)

    @pytest.mark.parametrize("N, message", [
        (math.nan, "copy count must be a positive integer"),
        (math.inf, "copy count must be a positive integer"),
        (-math.inf, "copy count must be a positive integer"),
        (10 ** 400, "copy count exceeds the float range"),
        (2 ** 1024, "copy count exceeds the float range"),
    ], ids=["nan", "inf", "-inf", "10**400", "2**1024"])
    def test_rejects_copy_counts_without_a_float_power(self, N, message):
        # NaN and inf raised ValueError and OverflowError from int(N), and an
        # integer past the float range OverflowError from F^N
        with pytest.raises(InvalidParameter) as info:
            error_bounds(0.5, N)
        assert info.type is InvalidParameter and str(info.value) == message

    @pytest.mark.parametrize("N", [1, 3.0, True, np.int64(7), 10 ** 300, 1e300,
                                   2 ** 1024 - 2 ** 970 - 1],
                             ids=["1", "3.0", "True", "int64", "10**300", "1e300", "near-max"])
    def test_copy_counts_within_the_float_range_accepted(self, N):
        b = error_bounds(0.5, N)
        fn = 0.5 ** float(N)
        assert (b.lower, b.upper, b.copies) == (
            0.5 * (1.0 - np.sqrt(max(1.0 - fn * fn, 0.0))), 0.5 * fn, int(N))


class TestFamilies:
    def test_registry_contents(self):
        assert set(FAMILIES) == {"coherent-displacement", "thermal-nbar",
                                 "squeeze-r", "phase-theta"}

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_produce_physical_states(self, name):
        from gaussfid import validate_state
        state = FAMILIES[name](0.4)
        assert validate_state(state).physical
