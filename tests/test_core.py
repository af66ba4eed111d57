"""Core symplectic machinery (forms, Williamson) and the Gibbs/W-operator
algebra of the test-side :mod:`reference_routes` (Gibbs conversions, products)."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from gaussfid import (
    GaussianState,
    InvalidParameter,
    InvalidState,
    NumericalError,
    bures_metric_delta,
    fidelity,
    make_symplectic_form,
    random_state,
    symplectic_eigenvalues,
    thermal,
    vacuum,
    validate_state,
    williamson,
)
from gaussfid.core import (
    DEFAULT_PHYS_TOL,
    _half_i_omega,
    require_physical,
    symplectic_frame,
    xxpp_to_xpxp_indices,
)
from gaussfid.states import random_symplectic

from conftest import (
    COMPLEX,
    REAL,
    count_linalg_calls,
    mixed_pair,
    symplectic_spectrum_mp,
    via_xpxp,
)
from reference_routes import (
    ODD_KERNELS,
    PureStateError,
    cov_from_gibbs,
    cov_from_w,
    gibbs_from_cov,
    gibbs_kernel,
    partition_function,
    product_w,
    purity,
    square_root_cov,
    symplectic_action_odd,
    w_matrix,
)

LN3 = 1.0986122886681098  # 2 arccoth(2)


# ---------------------------------------------------------------------------
# symplectic form
# ---------------------------------------------------------------------------

def _interleaved_form(n):
    """Omega in the xpxp layout, permuted from the xxpp form as
    reference_routes.singular_reduction builds it."""
    p = xxpp_to_xpxp_indices(n)
    return make_symplectic_form(n)[np.ix_(p, p)]


class TestSymplecticForm:
    def test_single_mode(self):
        omega = make_symplectic_form(1)
        np.testing.assert_array_equal(omega, [[0.0, 1.0], [-1.0, 0.0]])

    def test_xxpp_kronecker_structure(self):
        omega = make_symplectic_form(2)
        eye = np.eye(2)
        np.testing.assert_array_equal(omega[:2, 2:], eye)
        np.testing.assert_array_equal(omega[2:, :2], -eye)

    def test_xpxp_block_diagonal(self):
        omega = _interleaved_form(2)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(omega[:2, :2], block)
        np.testing.assert_array_equal(omega[2:, 2:], block)
        assert np.all(omega[:2, 2:] == 0)

    @pytest.mark.parametrize("layout", ["xxpp", "xpxp"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_identities(self, n, layout):
        omega = make_symplectic_form(n) if layout == "xxpp" else _interleaved_form(n)
        np.testing.assert_allclose(omega @ omega, -np.eye(2 * n), atol=1e-15)
        np.testing.assert_allclose(omega.T, -omega, atol=1e-15)

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidParameter):
            make_symplectic_form(0)

    def test_cached_and_read_only(self):
        omega = make_symplectic_form(3)
        assert make_symplectic_form(3) is omega
        before = omega.copy()
        with pytest.raises(ValueError):
            omega[0, 1] = 2.0
        with pytest.raises(ValueError):
            omega *= 2.0
        np.testing.assert_array_equal(make_symplectic_form(3), before)

    @pytest.mark.parametrize("n", [1, 3])
    def test_half_i_omega_cached_and_read_only(self, n):
        half = _half_i_omega(n)
        assert _half_i_omega(n) is half
        assert half.dtype == complex
        np.testing.assert_array_equal(half, 0.5j * make_symplectic_form(n))
        with pytest.raises(ValueError):
            half[0, n] = 0.0
        with pytest.raises(ValueError):
            half *= 2.0
        with pytest.raises(ValueError):
            half.setflags(write=True)
        np.testing.assert_array_equal(_half_i_omega(n), 0.5j * make_symplectic_form(n))

    def test_writes_cannot_be_reenabled(self):
        omega = make_symplectic_form(1)
        with pytest.raises(ValueError):
            omega.setflags(write=True)
        assert not omega.flags.writeable
        # the shared cache is intact: a corrupted one made every later
        # random_state and fidelity call raise
        np.testing.assert_array_equal(make_symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])
        random_state(1, 3)


class TestFrozenState:
    def test_arrays_are_copied_and_read_only(self):
        u, V = np.array([0.1, -0.2]), np.diag([0.7, 0.9])
        state = GaussianState(1, u, V)
        u[0], V[0, 0] = 5.0, 5.0
        assert state.u[0] == 0.1 and state.V[0, 0] == 0.7
        for a in (state.u, state.V):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_writes_cannot_be_reenabled(self):
        state = random_state(2, 7)
        for a in (state.u, state.V):
            with pytest.raises(ValueError):
                a.setflags(write=True)
            assert not a.flags.writeable

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, copier):
        state = random_state(2, 3)
        fidelity(state, state)  # fills the cached Lambda factor
        twin = copier(state)
        assert twin is not state and twin == state and hash(twin) == hash(state)
        for a in (twin.u, twin.V):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.setflags(write=True)
        assert "_lambda_factor" not in vars(twin)

    def test_zero_modes_rejected(self):
        # a 0-mode state used to build, and fidelity() then failed in numpy
        with pytest.raises(InvalidParameter, match="mode count must be >= 1, got 0"):
            GaussianState(0, np.zeros(0), np.zeros((0, 0)))
        with pytest.raises(InvalidParameter, match="mode count must be >= 1, got 0"):
            thermal([])


class TestStateEquality:
    def test_equal_states_compare_and_hash_equal(self):
        assert vacuum(1) == vacuum(1)
        assert hash(vacuum(1)) == hash(vacuum(1))
        a, b = random_state(3, 41), random_state(3, 41)
        assert a is not b and a == b and hash(a) == hash(b)

    def test_signed_zeros_are_equal(self):
        a = GaussianState(1, np.array([0.0, -0.0]), np.diag([0.5, 0.5]))
        b = GaussianState(1, np.zeros(2), np.diag([0.5, 0.5]))
        assert a == b and hash(a) == hash(b)

    def test_differing_states_compare_unequal(self):
        base = random_state(2, 42)
        V = base.V.copy()
        V[0, 0] += 1e-12
        assert base != GaussianState(2, base.u, V)
        assert base != random_state(2, 43)
        assert vacuum(1) != vacuum(2)
        assert vacuum(1) != "vacuum"

    def test_cached_lambda_factor_is_invisible(self):
        # the factor and the hash live in the instance dict, outside the
        # dataclass fields
        state, fresh = random_state(3, 44), random_state(3, 44)
        fidelity(state, state)
        hash(state)
        assert {"_lambda_factor", "_hash"} <= set(vars(state))
        assert not {"_lambda_factor", "_hash"} & set(vars(fresh))
        assert repr(state) == repr(fresh)
        assert state == fresh and hash(state) == hash(fresh)
        assert [f.name for f in dataclasses.fields(state)] == ["n", "u", "V"]

    def test_hashed_states_differ_without_comparing_arrays(self, monkeypatch):
        # equal means, unequal covariances: once both are hashed, the hashes
        # alone decide, where two np.array_equal calls did before
        a, b = random_state(2, 3, max_disp=0.0), random_state(2, 4, max_disp=0.0)
        np.testing.assert_array_equal(a.u, b.u)
        hash(a), hash(b)
        calls = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *args: calls.append(args) or array_equal(*args))
        assert a != b and not a == b
        assert calls == []
        assert a == random_state(2, 3, max_disp=0.0) and len(calls) == 2

    def test_nan_state_is_unequal_to_itself(self):
        state = GaussianState(1, np.array([np.nan, 0.0]), np.diag([0.5, 0.5]))
        assert hash(state) == hash(state)
        assert state != state and state != GaussianState(1, state.u, state.V)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_drop_the_cached_hash(self, copier):
        state = random_state(2, 46)
        hash(state)
        twin = copier(state)
        assert "_hash" in vars(state) and "_hash" not in vars(twin)
        assert hash(twin) == hash(state) and twin == state

    def test_set_members_and_dict_keys(self):
        states = {vacuum(1), vacuum(1), thermal([0.5]), random_state(2, 45), random_state(2, 45)}
        assert len(states) == 3
        assert thermal([0.5]) in states
        labels = {vacuum(1): "vac", random_state(2, 45): "rand"}
        assert labels[vacuum(1)] == "vac"
        assert labels[random_state(2, 45)] == "rand"


# ---------------------------------------------------------------------------
# physicality
# ---------------------------------------------------------------------------

class TestValidateState:
    def test_vacuum_saturates_bound(self):
        report = validate_state(vacuum(1))
        assert report.physical
        assert report.symmetric
        assert abs(report.min_eig_shifted) < 1e-12

    def test_below_vacuum_rejected(self):
        bad = GaussianState(1, np.zeros(2), 0.25 * np.eye(2))
        report = validate_state(bad)
        assert not report.physical
        assert report.min_eig_shifted < -0.1

    def test_squeezed_thermal_is_physical(self):
        r = 0.5
        V = np.diag([np.exp(2 * r), np.exp(-2 * r)])  # sqrt(det V) = 1 >= 1/2
        assert validate_state(GaussianState(1, np.zeros(2), V)).physical

    def test_asymmetric_rejected(self):
        V = 0.5 * np.eye(2)
        V = V + np.array([[0.0, 1e-3], [0.0, 0.0]])
        assert not validate_state(GaussianState(1, np.zeros(2), V)).symmetric


def _shifted_eigh(V):
    omega = make_symplectic_form(V.shape[0] // 2)
    return np.linalg.eigh(V + 0.5j * omega)


def _pushed(state, k, tol=DEFAULT_PHYS_TOL):
    """``state`` with V moved until the smallest eigenvalue of V + i*Omega/2
    is k * tol * scale: first along its eigenvector, then by a multiple of I."""
    lam, psi = _shifted_eigh(state.V)
    direction = np.real(np.outer(psi[:, 0], psi[:, 0].conj()))
    V = state.V + 2.0 * (k * tol * max(1.0, np.max(np.abs(state.V))) - lam[0]) * direction
    V = 0.5 * (V + V.T)
    target = k * tol * max(1.0, np.max(np.abs(V)))
    V = V + (target - _shifted_eigh(V)[0][0]) * np.eye(len(V))
    return GaussianState(state.n, state.u, V)


def _refusal(check, state):
    """The exception type ``check`` raises on ``state``, or None."""
    try:
        check(state)
    except Exception as exc:  # the route's refusals are compared by type
        return type(exc)
    return None


def _validate_or_raise(state):
    if not validate_state(state).physical:
        raise InvalidState("unphysical")


def _sweep_states(n, kind):
    seeds = range(3) if n < 64 else range(1)
    if kind == "mixed":
        return [random_state(n, 4900 + 10 * n + s) for s in seeds]
    if kind == "pure":
        return [random_state(n, 5000 + 10 * n + s, pure=True) for s in seeds]
    if kind == "squeezed":
        return [random_state(n, 5100 + 10 * n + s, max_squeeze=4) for s in seeds]
    return [via_xpxp(random_state(n, 5200 + 10 * n + s, pure=bool(s % 2))) for s in seeds]


PUSHES = (None, 0.0, -0.25, -0.5, -0.75, -1.0, -2.0, -1000.0)


class TestRequirePhysical:
    """The Cholesky accept test refuses exactly what validate_state refuses."""

    @pytest.mark.parametrize("kind", ["mixed", "pure", "squeezed", "xpxp"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 64])
    def test_decisions_match_validate_state(self, n, kind):
        verdicts = set()
        for state in _sweep_states(n, kind):
            for k in PUSHES:
                s = state if k is None else _pushed(state, k)
                expected = _refusal(_validate_or_raise, s)
                assert _refusal(require_physical, s) is expected, (k, expected)
                verdicts.add(expected)
        assert verdicts == {None, InvalidState}

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_asymmetric_covariances(self, n):
        state = random_state(n, 5300 + n)
        scale = max(1.0, np.max(np.abs(state.V)))
        for skew in (1e-3, 2.0 * DEFAULT_PHYS_TOL, 0.5 * DEFAULT_PHYS_TOL):
            V = state.V.copy()
            V[0, -1] += skew * scale
            s = GaussianState(n, state.u, V)
            expected = _refusal(_validate_or_raise, s)
            assert _refusal(require_physical, s) is expected
            assert (expected is None) == (skew < DEFAULT_PHYS_TOL)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, value):
        for index in [(0, 0), (0, 1), (1, 0), (3, 2), (2, 2)]:
            V = random_state(2, 5400).V.copy()
            V[index] = value
            s = GaussianState(2, np.zeros(4), V)
            with np.errstate(invalid="ignore"):
                assert _refusal(require_physical, s) is _refusal(_validate_or_raise, s)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fidelity_refuses_non_finite_input(self, value, monkeypatch):
        good = random_state(2, 5400)
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        bad_states = []
        for index in range(4):
            u = np.zeros(4)
            u[index] = value
            bad_states.append(GaussianState(2, u, good.V))
        for index in [(0, 0), (0, 1), (1, 0), (3, 2), (2, 2)]:
            V = good.V.copy()
            V[index] = value
            bad_states.append(GaussianState(2, np.zeros(4), V))
            assert not validate_state(bad_states[-1]).physical
        for bad in bad_states:
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(InvalidState, match="non-finite entry"):
                    fidelity(a, b)
        assert calls == []

    @pytest.mark.parametrize("kind", ["mixed", "pure", "squeezed", "xpxp"])
    def test_eigvalsh_decides_only_below_half_the_tolerance(self, kind, monkeypatch):
        # Cholesky with a shift of tol*scale/2 accepts down to about
        # -tol*scale/2; between that and -tol*scale eigvalsh accepts
        cases = [(s, k) for n in (1, 2, 3, 4, 8) for s in _sweep_states(n, kind)
                 for k in (None, -0.25, -0.75, -2.0)]
        pushed = [(state if k is None else _pushed(state, k), k) for state, k in cases]
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        for s, k in pushed:
            del calls[:]
            if k == -2.0:
                with pytest.raises(InvalidState, match="min_eig_shifted"):
                    require_physical(s)
            else:
                require_physical(s)
            assert len(calls) == (1 if k in (-0.75, -2.0) else 0), k

    def test_fidelity_makes_no_eigvalsh_call_on_physical_pairs(self, monkeypatch):
        pairs = []
        for n in (1, 2, 3, 4, 8, 64):
            a, b = mixed_pair(n, 5500 + n)
            p = random_state(n, 5600 + n, pure=True)
            pairs += [(a, b), (a, a), (p, b), (p, p)]
        pairs.append((via_xpxp(pairs[0][0]), pairs[0][1]))
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        for a, b in pairs:
            assert 0.0 <= fidelity(a, b).F <= 1.0
        assert calls == []

    def test_unphysical_input_makes_one_eigvalsh_call(self, monkeypatch):
        good = random_state(2, 5700)
        bad = GaussianState(2, np.zeros(4), 0.25 * np.eye(4))
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        for a, b in ((bad, good), (good, bad)):
            del calls[:]
            with pytest.raises(InvalidState, match="min_eig_shifted=-2.500e-01"):
                fidelity(a, b)
            assert calls == [((4, 4), COMPLEX)]

    def test_refusal_message_names_min_eig_shifted(self):
        state = _pushed(random_state(3, 5800), -2.0)
        report = validate_state(state)
        with pytest.raises(InvalidState) as info:
            require_physical(state)
        assert str(info.value) == (
            "state is not physical: symmetric=True, min_eig_shifted=%.3e"
            % report.min_eig_shifted)


# ---------------------------------------------------------------------------
# Williamson decomposition
# ---------------------------------------------------------------------------

class TestWilliamson:
    def test_vacuum_any_modes(self):
        for n in (1, 2, 3):
            dec = williamson(0.5 * np.eye(2 * n))
            np.testing.assert_allclose(dec.nu, 0.5, atol=1e-12)
            # orthogonal symplectic point: S S^T = I
            np.testing.assert_allclose(dec.S @ dec.S.T, np.eye(2 * n), atol=1e-10)

    def test_already_diagonal(self):
        dec = williamson(np.diag([1.3, 1.3]))
        np.testing.assert_allclose(dec.nu, [1.3], atol=1e-12)

    def test_single_mode_eigenvalue_is_sqrt_det(self):
        r = 0.7
        V = np.diag([np.exp(2 * r), np.exp(-2 * r)])
        dec = williamson(V)
        np.testing.assert_allclose(dec.nu, [1.0], atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defining_identities(self, n, seed):
        V = random_state(n, seed).V
        omega = make_symplectic_form(n)
        dec = williamson(V)
        scale = max(1.0, np.max(np.abs(V)))
        assert np.max(np.abs(dec.S @ omega @ dec.S.T - omega)) < 1e-10 * scale
        D = np.diag(np.concatenate([dec.nu, dec.nu]))
        assert np.max(np.abs(dec.S @ D @ dec.S.T - V)) < 1e-9 * scale
        assert np.all(np.diff(dec.nu) <= 1e-12)  # descending

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nu_matches_hermitian_route(self, n):
        # independent route: positive eigenvalues of i V^{1/2} Omega V^{1/2}
        V = random_state(n, 55 + n).V
        w, U = np.linalg.eigh(V)
        root = (U * np.sqrt(w)) @ U.T
        herm = 1j * root @ make_symplectic_form(n) @ root
        reference = np.sort(np.linalg.eigvalsh(herm))[n:]
        np.testing.assert_allclose(np.sort(williamson(V).nu), reference, atol=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NumericalError):
            williamson(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("V", [np.diag([1.0, -0.5]), -np.eye(2), np.diag([1.0, 0.0])])
    def test_non_positive_definite_raises_without_eigvalsh(self, V, monkeypatch):
        # the positive-definite test is the Cholesky factorisation of V;
        # no eigvalsh call is made
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        with pytest.raises(NumericalError):
            williamson(V)
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_one_cholesky_and_one_hermitian_eigendecomposition(self, n, monkeypatch):
        V = random_state(n, 80 + n).V
        calls = {name: count_linalg_calls(monkeypatch, name)
                 for name in ("cholesky", "eigh", "eigvalsh", "inv")}
        williamson(V)
        # V = L L^T and the Hermitian i L^T Omega L; no real eigh of V, no L^{-1}
        m = (2 * n, 2 * n)
        assert calls == {"cholesky": [(m, REAL)], "eigh": [(m, COMPLEX)], "eigvalsh": [],
                         "inv": []}


class TestSymplecticFrame:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_identities(self, n):
        V = random_state(n, 90 + n).V
        low, inv_low, mu, psi = symplectic_frame(V)
        # L is V's lower-triangular Cholesky factor
        np.testing.assert_array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ low.T, V, atol=1e-10)
        np.testing.assert_allclose(low @ inv_low, np.eye(2 * n), atol=1e-10)
        herm = 1j * low.T @ make_symplectic_form(n) @ low
        np.testing.assert_allclose((psi * mu) @ psi.conj().T, herm, atol=1e-10)
        # mu ascending, the pairs -nu_k and +nu_k
        np.testing.assert_allclose(mu[n:], symplectic_eigenvalues(V)[::-1], atol=1e-10)
        np.testing.assert_allclose(mu[:n], -mu[n:][::-1], atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_williamson_reads_the_frame(self, n):
        # nu is the frame's positive half, descending, to the last bit
        V = random_state(n, 70 + n).V
        mu = symplectic_frame(V)[2]
        np.testing.assert_array_equal(williamson(V).nu, mu[n:][::-1])

    @pytest.mark.parametrize("V", [np.diag([1.0, -0.5]), -np.eye(2), np.diag([1.0, 0.0])])
    def test_refuses_a_matrix_that_is_not_positive_definite(self, V):
        with pytest.raises(NumericalError):
            symplectic_frame(V)


# ---------------------------------------------------------------------------
# the one factorisation V = L L^T: refusals and accuracy
# ---------------------------------------------------------------------------

_FACTORED_ENTRY_POINTS = {
    "symplectic_eigenvalues": symplectic_eigenvalues,
    "symplectic_frame": symplectic_frame,
    "williamson": williamson,
    "bures_metric_delta": lambda V: bures_metric_delta(V, np.zeros(np.shape(V))),
}


class TestFactorisationRefusals:
    @pytest.mark.parametrize("entry", sorted(_FACTORED_ENTRY_POINTS))
    @pytest.mark.parametrize("V, message", [
        (np.ones((2, 3)), "square matrix of even dimension"),
        (np.eye(3), "square matrix of even dimension"),
        (np.ones(4), "square matrix of even dimension"),
        (np.zeros((0, 0)), "square matrix of even dimension"),
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
        # the factorisation reads the lower triangle; the check reads all of V
        ([[1.0, np.inf], [0.0, 1.0]], "non-finite"),
        (np.diag([0.5, 0.5, 0.5, -np.inf]), "non-finite"),
    ])
    def test_malformed_matrix_is_invalid(self, entry, V, message):
        # a NaN V must not pass as bures_metric_delta's delta = 0.0 or williamson's nu = [nan]
        with pytest.raises(InvalidParameter, match=message):
            _FACTORED_ENTRY_POINTS[entry](V)

    @pytest.mark.parametrize("entry", sorted(_FACTORED_ENTRY_POINTS))
    @pytest.mark.parametrize("V", [np.diag([1.0, -0.5]), -np.eye(2), np.diag([1.0, 0.0])])
    def test_not_positive_definite_carries_the_cholesky_error(self, entry, V):
        with pytest.raises(NumericalError, match="not positive definite") as info:
            _FACTORED_ENTRY_POINTS[entry](V)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_nan_residual_fails_the_williamson_checks(self, monkeypatch):
        def nan_eigh(a):
            return np.ones(a.shape[0]), np.full(a.shape, np.nan, dtype=complex)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(NumericalError, match="S Omega S"):
            williamson(random_state(2, 5).V)


class TestSpectrumAgainst60Digits:
    # worst relative error of nu over these 48 states, measured: 5.2e-15 at
    # max_squeeze 1 and 2.2e-6 at max_squeeze 4, where V's condition number
    # reaches ~1e13.  The bounds refuse a route through an eigh square root
    # of V, which errs by 5.9e-14 and 1.3e-5 here
    @pytest.mark.parametrize("max_squeeze, rel", [(1.0, 1e-14), (4.0, 5e-6)])
    @pytest.mark.parametrize("pure", [False, True])
    def test_symplectic_eigenvalues_and_williamson(self, max_squeeze, rel, pure):
        for n in (1, 2, 3, 4):
            for seed in range(3):
                V = random_state(n, 6100 + 10 * n + seed, pure=pure,
                                 max_squeeze=max_squeeze).V
                reference = np.array([float(x) for x in symplectic_spectrum_mp(V)])[::-1]
                np.testing.assert_allclose(symplectic_eigenvalues(V), reference,
                                           rtol=rel, atol=0.0)
                np.testing.assert_allclose(williamson(V).nu, reference, rtol=rel, atol=0.0)


# ---------------------------------------------------------------------------
# symplectic action of odd functions
# ---------------------------------------------------------------------------

class TestSymplecticAction:
    def test_identity_kernel(self):
        V = random_state(2, 3).V
        np.testing.assert_allclose(symplectic_action_odd(lambda v: v, V), V, atol=1e-10)

    def test_gibbs_kernel_on_unit_thermal(self):
        out = symplectic_action_odd(gibbs_kernel, np.eye(2))
        np.testing.assert_allclose(out, LN3 * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("kernel", ["gibbs", "cov", "sqrt", "partition"])
    def test_equals_direct_matrix_function(self, kernel):
        # the odd action coincides with f(V i Omega) i Omega evaluated directly
        f = ODD_KERNELS[kernel]
        V = random_state(2, 11, max_thermal=1.5).V
        if kernel == "cov":
            V = -make_symplectic_form(2) @ gibbs_from_cov(V).G @ make_symplectic_form(2)
        omega = make_symplectic_form(2)
        eigvals, P = np.linalg.eig(V @ (1j * omega))
        direct = (P * f(eigvals.real)) @ np.linalg.inv(P) @ (1j * omega)
        assert np.max(np.abs(direct.imag)) < 1e-9
        np.testing.assert_allclose(symplectic_action_odd(f, V), direct.real, atol=1e-9)

    @pytest.mark.parametrize("kernel", ["gibbs", "cov", "sqrt", "partition", "identity"])
    def test_covariance_under_symplectic_conjugation(self, kernel):
        f = ODD_KERNELS[kernel]
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(1, 4))
            V = random_state(n, 1000 + trial, max_thermal=1.5).V + 0.1 * np.eye(2 * n)
            S = random_symplectic(n, rng, max_squeeze=0.8)
            lhs = symplectic_action_odd(f, S @ V @ S.T)
            rhs = S @ symplectic_action_odd(f, V) @ S.T
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_undefined_kernel_rejected(self):
        def undefined(v):
            with np.errstate(invalid="ignore"):
                return np.log(np.asarray(v) - 2.0)  # nan on nu < 2
        with pytest.raises(NumericalError):
            symplectic_action_odd(undefined, 0.5 * np.eye(2))


# ---------------------------------------------------------------------------
# Gibbs representation
# ---------------------------------------------------------------------------

class TestGibbs:
    def test_unit_thermal(self):
        rep = gibbs_from_cov(np.eye(2))
        np.testing.assert_allclose(rep.G, LN3 * np.eye(2), atol=1e-12)
        assert rep.Z == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)

    def test_pure_limit_raises(self):
        with pytest.raises(PureStateError):
            gibbs_from_cov(0.5 * np.eye(2))

    def test_round_trip_three_modes(self):
        V = random_state(3, 9).V
        if symplectic_eigenvalues(V).min() < 0.6:  # keep comfortably mixed
            V = V + 0.2 * np.eye(6)
        back = cov_from_gibbs(gibbs_from_cov(V).G)
        assert np.max(np.abs(back - V)) < 1e-10 * max(1.0, np.max(np.abs(V)))

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_random_mixed(self, seed):
        n = seed % 3 + 1
        V = random_state(n, 100 + seed).V + 0.15 * np.eye(2 * n)
        back = cov_from_gibbs(gibbs_from_cov(V).G)
        assert np.max(np.abs(back - V)) < 1e-10 * max(1.0, np.max(np.abs(V)))

    def test_exponent_spectrum_is_mapped_covariance_spectrum(self):
        V = random_state(2, 31).V + 0.2 * np.eye(4)
        g_spectrum = symplectic_eigenvalues(gibbs_from_cov(V).G)
        expected = np.sort(gibbs_kernel(symplectic_eigenvalues(V)))[::-1]
        np.testing.assert_allclose(g_spectrum, expected, atol=1e-10)
        assert np.all(g_spectrum > 0)


# ---------------------------------------------------------------------------
# partition function and purity
# ---------------------------------------------------------------------------

class TestPartitionPurity:
    def test_vacuum(self):
        V = 0.5 * np.eye(4)
        assert partition_function(V) == 0.0
        assert purity(V) == pytest.approx(1.0, abs=1e-12)

    def test_unit_thermal(self):
        assert partition_function(np.eye(2)) == pytest.approx(0.8660254037844386, abs=1e-12)
        assert purity(np.eye(2)) == pytest.approx(0.5, abs=1e-12)

    def test_two_mode_thermal(self):
        V = thermal([0.5, 1.5]).V  # nu = (1, 2)
        assert purity(V) == pytest.approx(1.0 / 8.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_z_equals_complex_determinant(self, seed):
        # det(V + i Omega/2)^{1/2} evaluated directly
        n = seed % 2 + 1
        V = random_state(n, 40 + seed).V
        omega = make_symplectic_form(n)
        det = np.linalg.det(V + 0.5j * omega)
        assert abs(det.imag) < 1e-10 * max(1.0, abs(det))
        np.testing.assert_allclose(partition_function(V),
                                   np.sqrt(max(det.real, 0.0)), atol=1e-10)

    def test_unphysical_rejected(self):
        with pytest.raises(InvalidParameter):
            partition_function(0.25 * np.eye(2))


# ---------------------------------------------------------------------------
# square root of a state
# ---------------------------------------------------------------------------

class TestSquareRootCov:
    def test_pure_fixed_point(self):
        np.testing.assert_allclose(square_root_cov(0.5 * np.eye(2)), 0.5 * np.eye(2),
                                   atol=1e-12)

    def test_unit_thermal_value(self):
        expected = (1.0 + np.sqrt(3.0) / 2.0) * np.eye(2)
        np.testing.assert_allclose(square_root_cov(np.eye(2)), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_w_reconstruction(self, seed):
        # W of the state equals (W_sq + W_sq^{-1})/2
        n = seed % 2 + 1
        V = random_state(n, 60 + seed).V
        W = w_matrix(V)
        Wsq = w_matrix(square_root_cov(V))
        recon = 0.5 * (Wsq + np.linalg.inv(Wsq))
        assert np.max(np.abs(recon - W)) < 1e-10 * max(1.0, np.max(np.abs(W)))


# ---------------------------------------------------------------------------
# products of Gaussian operators
# ---------------------------------------------------------------------------

class TestProductW:
    def test_square_of_unit_thermal(self):
        W = w_matrix(np.eye(2))  # eigenvalues +-2
        Wsq = product_w(W, W)
        eigs = np.sort(np.linalg.eigvals(Wsq).real)
        np.testing.assert_allclose(eigs, [-1.25, 1.25], atol=1e-12)

    def test_singular_sum_raises(self):
        W = w_matrix(np.eye(2))
        with pytest.raises(NumericalError):
            product_w(W, -W)

    @pytest.mark.parametrize("seed", range(3))
    def test_square_matches_closed_form(self, seed):
        # rho^2 has V2 = (V - Omega V^{-1} Omega / 4) / 2
        V = random_state(1, 70 + seed).V
        omega = make_symplectic_form(1)
        expected = 0.5 * (V - omega @ np.linalg.inv(V) @ omega / 4.0)
        Wsq = product_w(w_matrix(V), w_matrix(V))
        got = cov_from_w(Wsq)
        assert np.max(np.abs(got.imag)) < 1e-10
        np.testing.assert_allclose(got.real, expected, atol=1e-10)
