"""Truncated Fock-space oracle: operators, circuits, moments, fidelity."""

import numpy as np
import pytest

from gaussfid import (
    CircuitSpec,
    InvalidParameter,
    TruncationError,
    build_circuit_state,
    fidelity,
    moments_from_fock,
    random_circuit,
    thermal,
    uhlmann_fidelity_matrix,
)
from gaussfid.fidelity import ftot_from_spectrum
from gaussfid.fock import (
    DEFAULT_CUTOFFS,
    TRACE_DEFICIT_BUDGET,
    FockDensityMatrix,
    _unitary_from_generator,
    destroy,
    fidelity_of_matrices,
    thermal_fock,
)

from conftest import count_linalg_calls
from reference_routes import (
    aux_matrix,
    aux_spectrum,
    cov_from_w,
    mode_operators,
    product_w,
    quadrature_operators,
    square_root_cov,
    w_matrix,
)


def one_mode_circuit(nbar=0.0, r=0.0, phi=0.0, alpha=0.0):
    ops = []
    if r:
        ops.append(("squeeze", 0, r, phi))
    if alpha:
        ops.append(("displace", 0, alpha))
    return CircuitSpec(n_modes=1, thermal_nbar=(nbar,), ops=tuple(ops))


class TestOperators:
    def test_destroy_action(self):
        a = destroy(5)
        ket2 = np.zeros(5)
        ket2[2] = 1.0
        np.testing.assert_allclose(a @ ket2, np.sqrt(2.0) * np.eye(5)[1])

    def test_commutator(self):
        a = destroy(30)
        comm = a @ a.conj().T - a.conj().T @ a
        # canonical except at the truncation corner
        np.testing.assert_allclose(comm[:-1, :-1], np.eye(29), atol=1e-12)

    def test_thermal_distribution(self):
        nbar = 0.5
        rho = thermal_fock(nbar, 40)
        k = np.arange(40)
        np.testing.assert_allclose(np.diag(rho).real,
                                   nbar ** k / (1 + nbar) ** (k + 1), atol=1e-15)


class TestBuildCircuitState:
    def test_empty_circuit_is_vacuum(self):
        built = build_circuit_state(CircuitSpec(1, (0.0,), ()), cutoff=10)
        np.testing.assert_allclose(built.fock.rho[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(built.gaussian.V, 0.5 * np.eye(2), atol=1e-15)
        assert built.fock.trace_deficit == 0.0

    def test_thermal_input(self):
        built = build_circuit_state(one_mode_circuit(nbar=0.5), cutoff=40)
        built.fock.validate()
        np.testing.assert_allclose(built.gaussian.V, np.eye(2), atol=1e-15)
        nbar = 0.5
        k = np.arange(40)
        np.testing.assert_allclose(np.diag(built.fock.rho).real,
                                   nbar ** k / (1 + nbar) ** (k + 1), atol=1e-15)

    def test_displacement_first_moment(self):
        built = build_circuit_state(one_mode_circuit(alpha=1.0), cutoff=40)
        measured = moments_from_fock(built.fock)
        assert measured.u[0] == pytest.approx(np.sqrt(2.0), abs=1e-7)
        np.testing.assert_allclose(measured.u, built.gaussian.u, atol=1e-7)

    def test_parameter_limits_enforced(self):
        with pytest.raises(InvalidParameter):
            build_circuit_state(one_mode_circuit(alpha=2.0))
        with pytest.raises(InvalidParameter):
            build_circuit_state(one_mode_circuit(r=1.0))
        with pytest.raises(InvalidParameter):
            build_circuit_state(CircuitSpec(1, (2.0,), ()))

    def test_three_modes_rejected(self):
        with pytest.raises(InvalidParameter):
            build_circuit_state(CircuitSpec(3, (0.0,) * 3, ()))

    def test_truncation_budget(self):
        with pytest.raises(TruncationError):
            build_circuit_state(one_mode_circuit(nbar=1.5), cutoff=8)


class TestMomentsFromFock:
    def test_vacuum(self):
        built = build_circuit_state(CircuitSpec(1, (0.0,), ()), cutoff=12)
        state = moments_from_fock(built.fock)
        np.testing.assert_allclose(state.u, 0.0, atol=1e-12)
        np.testing.assert_allclose(state.V, 0.5 * np.eye(2), atol=1e-10)

    def test_squeezed_vacuum_matches_tracker(self):
        built = build_circuit_state(one_mode_circuit(r=0.5), cutoff=40)
        state = moments_from_fock(built.fock)
        np.testing.assert_allclose(np.diag(state.V),
                                   [0.5 * np.exp(-1.0), 0.5 * np.exp(1.0)], atol=1e-8)
        np.testing.assert_allclose(state.V, built.gaussian.V, atol=1e-8)

    def test_thermal_second_moment(self):
        built = build_circuit_state(one_mode_circuit(nbar=0.5), cutoff=40)
        state = moments_from_fock(built.fock)
        np.testing.assert_allclose(state.V, np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("seed", range(40))
    def test_representation_consistency_one_mode(self, seed):
        rng = np.random.default_rng(4000 + seed)
        built = build_circuit_state(random_circuit(1, rng))
        measured = moments_from_fock(built.fock)
        tol = max(1e-6, 10.0 * built.fock.trace_deficit)
        np.testing.assert_allclose(measured.u, built.gaussian.u, atol=tol)
        np.testing.assert_allclose(measured.V, built.gaussian.V, atol=tol)

    @pytest.mark.parametrize("seed", range(10))
    def test_representation_consistency_two_modes(self, seed):
        rng = np.random.default_rng(4100 + seed)
        built = build_circuit_state(random_circuit(2, rng))
        measured = moments_from_fock(built.fock)
        tol = max(1e-6, 10.0 * built.fock.trace_deficit)
        np.testing.assert_allclose(measured.u, built.gaussian.u, atol=tol)
        np.testing.assert_allclose(measured.V, built.gaussian.V, atol=tol)


class TestDefaultCutoffBound:
    def test_one_mode_moments_well_below_1e6(self):
        # the module documents moment errors well below 1e-6 at the default
        # cutoff for every circuit random_circuit samples
        worst, worst_seed = 0.0, None
        for seed in range(1000):
            built = build_circuit_state(random_circuit(1, np.random.default_rng(seed)))
            measured = moments_from_fock(built.fock)
            err = max(np.max(np.abs(measured.u - built.gaussian.u)),
                      np.max(np.abs(measured.V - built.gaussian.V)))
            if err > worst:
                worst, worst_seed = err, seed
        assert worst < 1e-6, f"seed {worst_seed}: moment error {worst:.3e}"


def _dense_unitary(op, a_ops):
    """Full-space exponential of a primitive's truncated generator."""
    kind = op[0]
    if kind == "displace":
        _, mode, alpha = op
        a = a_ops[mode]
        return _unitary_from_generator(alpha * a.conj().T - np.conj(alpha) * a)
    if kind == "squeeze":
        _, mode, r, phi = op
        a = a_ops[mode]
        xi = r * np.exp(1j * phi)
        return _unitary_from_generator(
            0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T))
    if kind == "phase":
        _, mode, phi = op
        a = a_ops[mode]
        return _unitary_from_generator(-1j * phi * a.conj().T @ a)
    _, modes, theta, phi = op
    aj, ak = a_ops[modes[0]], a_ops[modes[1]]
    return _unitary_from_generator(
        theta * (np.exp(1j * phi) * aj.conj().T @ ak - np.exp(-1j * phi) * aj @ ak.conj().T))


def _dense_state(circuit, cutoff):
    """rho from full-space unitaries and dense matrix products."""
    a_ops = mode_operators((cutoff,) * circuit.n_modes)
    rho = thermal_fock(circuit.thermal_nbar[0], cutoff)
    for nb in circuit.thermal_nbar[1:]:
        rho = np.kron(rho, thermal_fock(nb, cutoff))
    for op in circuit.ops:
        U = _dense_unitary(op, a_ops)
        rho = U @ rho @ U.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def _dense_moments(rho, cutoffs):
    """Moments from full-space quadrature operators."""
    Q = quadrature_operators(cutoffs)
    rho = rho / np.trace(rho)
    u = np.array([np.trace(rho @ q).real for q in Q])
    M = np.array([[np.trace(rho @ qi @ qj).real for qj in Q] for qi in Q])
    return u, 0.5 * (M + M.T) - np.outer(u, u)


LAYOUT_CIRCUITS = (
    [random_circuit(1, np.random.default_rng(4500 + s)) for s in range(3)]
    + [random_circuit(2, np.random.default_rng(4600 + s)) for s in range(3)]
    + [CircuitSpec(2, (0.2, 0.1), (("squeeze", 0, 0.3, 0.4), ("displace", 1, 0.4 - 0.2j),
                                   ("beamsplitter", (1, 0), 0.7, 1.1),
                                   ("phase", 1, 0.5))),
       # a two-mode gate first: sigma is a Kronecker product from the start
       CircuitSpec(2, (0.3, 0.05), (("beamsplitter", (0, 1), 0.4, 0.2),
                                    ("squeeze", 1, 0.2, 0.3), ("displace", 0, 0.3j))),
       # no two-mode gate: the per-mode factors are joined at the end
       CircuitSpec(2, (0.1, 0.2), (("squeeze", 0, 0.3, 0.4), ("phase", 1, 0.5),
                                   ("displace", 1, -0.2 + 0.1j)))]
)


class TestTensorLayout:
    """Gates and moments on tensor legs against full-space dense operators."""

    @pytest.mark.parametrize("index", range(len(LAYOUT_CIRCUITS)))
    def test_state_and_moments_match_dense_reference(self, index):
        circuit = LAYOUT_CIRCUITS[index]
        # small 2-mode cutoff keeps the dense reference cheap; the layout
        # does not depend on it, so the trace budget is lifted
        cutoff = DEFAULT_CUTOFFS[1] if circuit.n_modes == 1 else 12
        built = build_circuit_state(circuit, cutoff, deficit_budget=1.0)
        rho = _dense_state(circuit, cutoff)
        assert np.max(np.abs(built.fock.rho - rho)) < 1e-13
        # the tracked square root: Hermitian, positive and squaring to rho
        root = built.fock.root
        assert np.array_equal(root, root.conj().T)
        assert np.linalg.eigvalsh(root)[0] > -1e-13
        assert np.max(np.abs(root @ root - built.fock.rho)) < 1e-13
        assert np.max(np.abs(root @ root - rho)) < 1e-13
        u, V = _dense_moments(built.fock.rho, built.fock.cutoffs)
        measured = moments_from_fock(built.fock)
        np.testing.assert_allclose(measured.u, u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(measured.V, V, rtol=0, atol=1e-13)


class TestUhlmannFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(1)
        built = build_circuit_state(random_circuit(1, rng))
        assert uhlmann_fidelity_matrix(built.fock, built.fock) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_vs_coherent(self):
        vac = build_circuit_state(CircuitSpec(1, (0.0,), ()), cutoff=40)
        coh = build_circuit_state(one_mode_circuit(alpha=1.0), cutoff=40)
        f = uhlmann_fidelity_matrix(vac.fock, coh.fock)
        assert f == pytest.approx(np.exp(-0.5), abs=1e-7)

    def test_two_thermal_states_match_engine(self):
        a = build_circuit_state(one_mode_circuit(nbar=0.3), cutoff=40)
        b = build_circuit_state(one_mode_circuit(nbar=0.7), cutoff=40)
        f_oracle = uhlmann_fidelity_matrix(a.fock, b.fock)
        f_engine = fidelity(thermal([0.3]), thermal([0.7])).F
        assert f_oracle == pytest.approx(f_engine, abs=1e-6)

    def test_dimension_mismatch(self):
        a = build_circuit_state(CircuitSpec(1, (0.0,), ()), cutoff=10)
        b = build_circuit_state(CircuitSpec(1, (0.0,), ()), cutoff=12)
        with pytest.raises(InvalidParameter):
            uhlmann_fidelity_matrix(a.fock, b.fock)

    @pytest.mark.parametrize("seed", range(5))
    def test_engine_agreement_one_mode(self, seed):
        rng = np.random.default_rng(4200 + seed)
        a = build_circuit_state(random_circuit(1, rng))
        b = build_circuit_state(random_circuit(1, rng))
        f_oracle = uhlmann_fidelity_matrix(a.fock, b.fock)
        f_engine = fidelity(a.gaussian, b.gaussian).F
        assert abs(f_engine - f_oracle) < 1e-6

    def test_multiplicativity_under_tensoring(self):
        # parameters small enough for the cutoff-15 trace budget
        a1 = build_circuit_state(one_mode_circuit(nbar=0.2, r=0.2), cutoff=15)
        b1 = build_circuit_state(one_mode_circuit(nbar=0.1, alpha=0.5), cutoff=15)
        a2 = build_circuit_state(one_mode_circuit(r=-0.3, alpha=0.3j), cutoff=15)
        b2 = build_circuit_state(one_mode_circuit(nbar=0.25), cutoff=15)
        f1 = fidelity_of_matrices(a1.fock.rho, b1.fock.rho)
        f2 = fidelity_of_matrices(a2.fock.rho, b2.fock.rho)
        f_joint = fidelity_of_matrices(np.kron(a1.fock.rho, a2.fock.rho),
                                       np.kron(b1.fock.rho, b2.fock.rho))
        assert f_joint == pytest.approx(f1 * f2, abs=1e-6)


def _eigh_route_fidelity(rho1, rho2):
    """The Uhlmann fidelity with sqrt(rho1) from a Hermitian eigendecomposition,
    step by step as fidelity_of_matrices takes it when no root is given."""
    herm1 = rho1 / np.trace(rho1)
    herm1 = (herm1 + herm1.conj().T) * 0.5
    w1, U1 = np.linalg.eigh(herm1)
    root1 = (U1 * np.sqrt(np.clip(w1, 0.0, None))) @ U1.conj().T
    inner = root1 @ (rho2 / np.trace(rho2)) @ root1
    inner = (inner + inner.conj().T) * 0.5
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))).real)


@pytest.fixture(scope="module")
def two_mode_pairs():
    # one pair at the default cutoff and a cheaper one at cutoff 15, where the
    # trace budget is lifted: the square-root routes do not depend on it
    pairs = []
    for seed, cutoff, budget in ((4800, None, TRACE_DEFICIT_BUDGET), (4801, 15, 1.0)):
        rng = np.random.default_rng(seed)
        pairs.append([build_circuit_state(random_circuit(2, rng), cutoff, budget).fock
                      for _ in range(2)])
    return pairs


class TestTrackedRoot:
    """Uhlmann fidelity through the square root carried by the build."""

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_eigh_root_one_mode(self, seed):
        rng = np.random.default_rng(4700 + seed)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        f_root = uhlmann_fidelity_matrix(a, b)
        f_eigh = fidelity_of_matrices(a.rho, b.rho)
        assert abs(f_root - f_eigh) < 1e-8

    def test_agrees_with_eigh_root_two_modes(self, two_mode_pairs):
        for a, b in two_mode_pairs:
            f_root = uhlmann_fidelity_matrix(a, b)
            f_eigh = fidelity_of_matrices(a.rho, b.rho)
            assert abs(f_root - f_eigh) < 1e-8

    def test_root_is_trace_normalised(self):
        rng = np.random.default_rng(4760)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        f = fidelity_of_matrices(a.rho, b.rho, a.root)
        assert fidelity_of_matrices(4.0 * a.rho, b.rho, 2.0 * a.root) == pytest.approx(f, abs=1e-14)

    def test_no_full_space_eigh(self, two_mode_pairs, monkeypatch):
        # the square root of rho1 comes from the build, not from diagonalising
        calls = count_linalg_calls(monkeypatch, "eigh")
        for a, b in two_mode_pairs:
            assert a.root is not None
            uhlmann_fidelity_matrix(a, b)
        assert calls == []

    def test_hand_made_state_takes_eigh_route(self, monkeypatch):
        rng = np.random.default_rng(4750)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        bare = FockDensityMatrix(a.n_modes, a.cutoffs, a.rho, a.trace_deficit)
        assert bare.root is None
        assert "root" not in repr(bare)
        calls = count_linalg_calls(monkeypatch, "eigh")
        f = uhlmann_fidelity_matrix(bare, b)
        assert calls == [(bare.rho.shape, bare.rho.dtype)]
        assert f == _eigh_route_fidelity(a.rho, b.rho)


class TestDensityMatrixEquality:
    def test_value_equality_without_root(self):
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4770))).fock
        bare = FockDensityMatrix(a.n_modes, a.cutoffs, a.rho.copy(), a.trace_deficit,
                                 a.top_level_population)
        assert a.root is not None and bare.root is None
        assert a == bare

    def test_differing_fields_compare_unequal(self):
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4771))).fock
        rho = a.rho.copy()
        rho[0, 0] += 1e-15
        fields = (a.n_modes, a.cutoffs, a.rho, a.trace_deficit, a.top_level_population)
        assert a != FockDensityMatrix(*fields[:2], rho, *fields[3:])
        assert a != FockDensityMatrix(*fields[:3], a.trace_deficit + 1e-12, fields[4])
        assert a != "rho"

    def test_not_hashable(self):
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4772))).fock
        with pytest.raises(TypeError):
            hash(a)


class TestOperatorComposition:
    """sqrt(rho1) rho2 sqrt(rho1) in Fock space against the W-matrix calculus."""

    @pytest.mark.parametrize("seed", range(3))
    def test_total_state_moments(self, seed):
        # zero-mean circuits so the composition stays quadratic
        rng = np.random.default_rng(4300 + seed)
        r1, r2 = rng.uniform(-0.4, 0.4, 2)
        nb1, nb2 = rng.uniform(0.1, 0.6, 2)
        a = build_circuit_state(one_mode_circuit(nbar=nb1, r=r1), cutoff=40)
        b = build_circuit_state(
            CircuitSpec(1, (nb2,), (("squeeze", 0, r2, rng.uniform(0, np.pi)),)),
            cutoff=40)

        # Fock side
        w1, U1 = np.linalg.eigh(a.fock.rho)
        root1 = (U1 * np.sqrt(np.clip(w1, 0, None))) @ U1.conj().T
        rho_tot = root1 @ b.fock.rho @ root1
        from gaussfid.fock import FockDensityMatrix
        tot = FockDensityMatrix(1, (40,), rho_tot / np.trace(rho_tot).real, 0.0)
        measured = moments_from_fock(tot)

        # moment side: compose W matrices of sqrt(rho1), rho2, sqrt(rho1)
        w_sq1 = w_matrix(square_root_cov(a.gaussian.V))
        w_mid = product_w(w_sq1, w_matrix(b.gaussian.V))
        w_tot = product_w(w_mid, w_sq1)
        v_tot = cov_from_w(w_tot)
        assert np.max(np.abs(v_tot.imag)) < 1e-9
        np.testing.assert_allclose(measured.V, v_tot.real, atol=1e-6)

        # Hermitian product: eigenvalues of W_tot come in real +- pairs
        eigs = np.linalg.eigvals(w_tot)
        assert np.max(np.abs(eigs.imag)) < 1e-9 * np.max(np.abs(eigs))
        np.testing.assert_allclose(np.sort(eigs.real), np.sort(-eigs.real), atol=1e-9)

        # the composed spectrum reproduces Ftot of the eigenvalue route
        delta = np.linalg.det(a.gaussian.V + b.gaussian.V)
        f_oracle = fidelity_of_matrices(a.fock.rho, b.fock.rho)
        spec = aux_spectrum(aux_matrix(a.gaussian.V, b.gaussian.V))
        assert f_oracle * delta ** 0.25 == pytest.approx(
            ftot_from_spectrum(spec.retained), abs=1e-6)


class TestRandomCircuit:
    def test_deterministic_and_buildable(self):
        a = random_circuit(1, np.random.default_rng(123))
        b = random_circuit(1, np.random.default_rng(123))
        assert a == b
        built = build_circuit_state(a)
        built.fock.validate()

    def test_rejects_three_modes(self):
        with pytest.raises(InvalidParameter):
            random_circuit(3, np.random.default_rng(0))
