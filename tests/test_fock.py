"""Truncated Fock-space oracle: operators, circuits, moments, fidelity."""

import tracemalloc

import numpy as np
import pytest

from gaussfid import (
    CircuitSpec,
    InvalidParameter,
    NumericalError,
    TruncationError,
    build_circuit_state,
    fidelity,
    moments_from_fock,
    random_circuit,
    thermal,
    uhlmann_fidelity_matrix,
)
from gaussfid.fidelity import ftot_from_spectrum
from gaussfid import fock
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


# (mode count, op, message) of every gate the oracle refuses
REFUSED_GATES = {
    "unknown primitive": (1, ("rotate", 0, 0.3), "unknown primitive 'rotate'"),
    "mode above range": (1, ("phase", 1, 0.3), "mode index 1 out of range"),
    "negative mode": (2, ("displace", -1, 0.2), "mode index -1 out of range"),
    # a float index raised TypeError from the list of cutoffs
    "non-integer mode": (1, ("phase", 0.0, 0.3), "mode index 0.0 is not an integer"),
    "non-integer beam splitter leg": (2, ("beamsplitter", (0.0, 1), 0.3, 0.2),
                                      "beamsplitter modes (0.0, 1) are not integers"),
    "beam splitter on one mode": (2, ("beamsplitter", (1, 1), 0.3, 0.2),
                                  "beamsplitter needs two distinct in-range modes"),
    "beam splitter leg out of range": (2, ("beamsplitter", (0, 2), 0.3, 0.2),
                                       "beamsplitter needs two distinct in-range modes"),
    "alpha": (1, ("displace", 0, 1.2 + 1.0j), "|alpha| = 1.5620499351813308 exceeds 1.5"),
    "squeeze": (2, ("squeeze", 1, -0.81, 0.4), "|r| = 0.81 exceeds 0.8"),
}
# a valid gate of each mode count; on 2 modes it joins the per-mode factors
VALID_GATE = {1: ("squeeze", 0, 0.2, 0.1), 2: ("beamsplitter", (0, 1), 0.3, 0.2)}

REFUSED_CIRCUITS = {
    "nbar above range": (CircuitSpec(1, (1.6,), ()), "thermal occupation 1.6 outside [0, 1.5]"),
    "negative nbar": (CircuitSpec(2, (0.1, -0.1), ()),
                      "thermal occupation -0.1 outside [0, 1.5]"),
    "thermal_nbar length": (CircuitSpec(2, (0.1,), (VALID_GATE[2],)),
                            "thermal_nbar length must match the mode count"),
    "three modes": (CircuitSpec(3, (0.0,) * 3, (("phase", 0, 0.1),)),
                    "the oracle supports 1 or 2 modes only"),
}


class TestCircuitRefusals:
    """Every refusal of build_circuit_state, pinned by type and message."""

    @staticmethod
    def _refused(circuit, message):
        with pytest.raises(InvalidParameter) as info:
            build_circuit_state(circuit)
        assert info.type is InvalidParameter
        assert str(info.value) == message

    @pytest.mark.parametrize("after_valid_gate", [False, True])
    @pytest.mark.parametrize("case", sorted(REFUSED_GATES))
    def test_gate(self, case, after_valid_gate):
        n, op, message = REFUSED_GATES[case]
        ops = (VALID_GATE[n], op) if after_valid_gate else (op,)
        self._refused(CircuitSpec(n, (0.1,) * n, ops), message)

    @pytest.mark.parametrize("case", sorted(REFUSED_CIRCUITS))
    def test_circuit(self, case):
        self._refused(*REFUSED_CIRCUITS[case])

    def test_circuit_checks_precede_the_gates(self):
        # an unphysical thermal input is refused before a bad gate is looked at
        self._refused(CircuitSpec(1, (2.0,), (("rotate", 0, 0.3),)),
                      "thermal occupation 2.0 outside [0, 1.5]")


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
       # a two-mode gate first: the factor is a Kronecker product from the start
       CircuitSpec(2, (0.3, 0.05), (("beamsplitter", (0, 1), 0.4, 0.2),
                                    ("squeeze", 1, 0.2, 0.3), ("displace", 0, 0.3j))),
       # no two-mode gate: the per-mode factors are joined at the end
       CircuitSpec(2, (0.1, 0.2), (("squeeze", 0, 0.3, 0.4), ("phase", 1, 0.5),
                                   ("displace", 1, -0.2 + 0.1j)))]
)


class TestTensorLayout:
    """Gates and moments on tensor legs against full-space dense operators."""

    @pytest.mark.parametrize("index", range(len(LAYOUT_CIRCUITS)))
    def test_state_and_moments_match_dense_reference(self, index, monkeypatch):
        circuit = LAYOUT_CIRCUITS[index]
        # small 2-mode cutoff keeps the dense reference cheap; the layout
        # does not depend on it, so the trace budget is lifted
        cutoff = DEFAULT_CUTOFFS[1] if circuit.n_modes == 1 else 12
        monkeypatch.setattr(fock, "TRACE_DEFICIT_BUDGET", 1.0)
        built = build_circuit_state(circuit, cutoff)
        rho = _dense_state(circuit, cutoff)
        # the factor route's moments, deficit and top-level population,
        # read before rho is formed
        measured = moments_from_fock(built.fock)
        u, V = _dense_moments(rho, built.fock.cutoffs)
        np.testing.assert_allclose(measured.u, u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(measured.V, V, rtol=0, atol=1e-13)
        assert abs(built.fock.trace_deficit - max(1.0 - np.trace(rho).real, 0.0)) < 1e-13
        populations = np.diag(rho).real.reshape(built.fock.cutoffs)
        inner = populations[tuple(slice(cutoff - 1) for _ in built.fock.cutoffs)]
        top = populations.sum() - inner.sum()
        assert abs(built.fock.top_level_population - top) < 1e-13
        # a bare rho takes the same moments route through its eigh factor
        bare = FockDensityMatrix(circuit.n_modes, built.fock.cutoffs, rho.copy(), 0.0)
        measured = moments_from_fock(bare)
        np.testing.assert_allclose(measured.u, u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(measured.V, V, rtol=0, atol=1e-13)
        assert np.max(np.abs(built.fock.rho - rho)) < 1e-13
        # the tracked factor reproduces the dense rho
        factor = built.fock.factor
        assert np.max(np.abs(factor @ factor.conj().T - rho)) < 1e-13


class TestFactorOnly:
    """The build, F and the moments work on the factors alone: rho, which
    has cutoff^(2n) entries, is formed only for a caller that reads it."""

    def test_two_mode_check_never_forms_rho(self, monkeypatch):
        rng = np.random.default_rng(4242)
        circuits = [random_circuit(2, rng) for _ in range(2)]
        monkeypatch.setattr(FockDensityMatrix, "rho", property(
            lambda self: pytest.fail("rho was formed")))
        tracemalloc.start()
        try:
            a, b = (build_circuit_state(c, 25).fock for c in circuits)
            uhlmann_fidelity_matrix(a, b)
            moments_from_fock(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor_bytes = a.factor.nbytes + b.factor.nbytes
        # 2.0x here; forming rho and the full Kronecker product reads 4.1x
        assert peak <= 3 * factor_bytes, f"peak {peak / factor_bytes:.2f}x the factors' bytes"

    def test_rho_is_formed_once_on_read(self):
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4752))).fock
        assert "rho" not in vars(a)
        assert a.rho is a.rho
        np.testing.assert_array_equal(a.rho, a.rho.conj().T)

    def test_needs_rho_or_factor(self):
        with pytest.raises(InvalidParameter, match="rho or a factor"):
            FockDensityMatrix(1, (4,), None, 0.0)


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


def _eigh_route_fidelity(rho1, r2):
    """The Uhlmann fidelity with the factor of rho1 from a Hermitian
    eigendecomposition, step by step as fidelity_of_matrices takes it when
    no factor is given, against r2's own factor (a built state, whose trace
    is the sum of its factor's squared row norms)."""
    herm1 = rho1 / np.trace(rho1)
    herm1 = (herm1 + herm1.conj().T) * 0.5
    w1, U1 = np.linalg.eigh(herm1)
    a1 = U1 * np.sqrt(np.clip(w1, 0.0, None))
    a2 = r2.factor
    trace2 = (np.einsum("ij,ij->i", a2.real, a2.real)
              + np.einsum("ij,ij->i", a2.imag, a2.imag)).sum()
    return float(np.sum(np.linalg.svd(a1.conj().T @ a2, compute_uv=False)) / np.sqrt(trace2))


@pytest.fixture(scope="module")
def two_mode_pairs():
    # one pair at the default cutoff and a cheaper one at cutoff 15, where the
    # trace budget is lifted: the factor routes do not depend on it
    pairs = []
    for seed, cutoff, budget in ((4800, None, TRACE_DEFICIT_BUDGET), (4801, 15, 1.0)):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "TRACE_DEFICIT_BUDGET", budget)
            pairs.append([build_circuit_state(random_circuit(2, rng), cutoff).fock
                          for _ in range(2)])
    return pairs


class TestTrackedRoot:
    """Uhlmann fidelity through the factors rho = A A^dagger carried by the
    build, against factors from a Hermitian eigendecomposition of rho."""

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_eigh_root_one_mode(self, seed):
        rng = np.random.default_rng(4700 + seed)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        f_factor = uhlmann_fidelity_matrix(a, b)
        f_eigh = fidelity_of_matrices(a.rho, b.rho)
        assert abs(f_factor - f_eigh) < 1e-9

    def test_agrees_with_eigh_root_two_modes(self, two_mode_pairs):
        for a, b in two_mode_pairs:
            f_factor = uhlmann_fidelity_matrix(a, b)
            f_eigh = fidelity_of_matrices(a.rho, b.rho)
            assert abs(f_factor - f_eigh) < 1e-9

    def test_root_is_trace_normalised(self):
        rng = np.random.default_rng(4760)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        f = fidelity_of_matrices(a.rho, b.rho, a.factor, b.factor)
        assert fidelity_of_matrices(4.0 * a.rho, b.rho, 2.0 * a.factor,
                                    b.factor) == pytest.approx(f, abs=1e-14)

    def test_no_full_space_eigh(self, two_mode_pairs, monkeypatch):
        # both factors come from the build, so nothing is diagonalised
        calls = (count_linalg_calls(monkeypatch, "eigh")
                 + count_linalg_calls(monkeypatch, "eigvalsh"))
        for a, b in two_mode_pairs:
            assert a.factor is not None and b.factor is not None
            uhlmann_fidelity_matrix(a, b)
        assert calls == []

    def test_hand_made_state_takes_eigh_route(self, monkeypatch):
        rng = np.random.default_rng(4750)
        a, b = (build_circuit_state(random_circuit(1, rng)).fock for _ in range(2))
        bare = FockDensityMatrix(a.n_modes, a.cutoffs, a.rho, a.trace_deficit)
        assert bare.factor is None
        assert "factor" not in repr(bare)
        calls = count_linalg_calls(monkeypatch, "eigh")
        f = uhlmann_fidelity_matrix(bare, b)
        assert calls == [(bare.rho.shape, bare.rho.dtype)]
        assert f == _eigh_route_fidelity(bare.rho, b)
        # a factor from rho carries rho's own roundoff into F, up to 1.5e-10
        # over 200 one-mode pairs (median 3.5e-13)
        assert abs(f - uhlmann_fidelity_matrix(a, b)) < 1e-9

    def test_refusals(self):
        rho = np.diag([0.6, 0.5, -0.1]).astype(complex)
        with pytest.raises(NumericalError, match="eigenvalue"):
            fidelity_of_matrices(rho, np.eye(3) / 3)
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4751))).fock
        # a factor that does not belong to rho can push F above 1
        wrong = FockDensityMatrix(a.n_modes, a.cutoffs, a.rho, a.trace_deficit,
                                  factor=1.1 * a.factor)
        with pytest.raises(NumericalError, match="exceeds 1"):
            uhlmann_fidelity_matrix(wrong, a)


def _oracle_pair(modes, seed, cutoff=None):
    """The two states of ``gaussfid oracle-check --modes modes --seed seed``."""
    rng = np.random.default_rng(seed)
    return [build_circuit_state(random_circuit(modes, rng), cutoff) for _ in range(2)]


@pytest.fixture(scope="module")
def accuracy_pairs():
    return {seed: _oracle_pair(2, seed, 25) for seed in (700, 701, 702)}


class TestOracleAccuracy:
    """The oracle agrees with the engine to far better than its 1e-6 check."""

    def test_two_modes(self, accuracy_pairs):
        for seed, (a, b) in accuracy_pairs.items():
            gap = abs(fidelity(a.gaussian, b.gaussian).F
                      - uhlmann_fidelity_matrix(a.fock, b.fock))
            assert gap <= 1e-10, f"seed {seed}: gap {gap:.3e}"

    def test_one_mode(self):
        for seed in range(50):
            a, b = _oracle_pair(1, seed)
            gap = abs(fidelity(a.gaussian, b.gaussian).F
                      - uhlmann_fidelity_matrix(a.fock, b.fock))
            assert gap <= 1e-10, f"seed {seed}: gap {gap:.3e}"


class TestInputWeightFloor:
    """Input levels of weight at most INPUT_WEIGHT_FLOOR leave the factor."""

    def test_dropped_levels_do_not_move_f_or_moments(self, accuracy_pairs, monkeypatch):
        monkeypatch.setattr(fock, "INPUT_WEIGHT_FLOOR", 0.0)
        for seed, pair in accuracy_pairs.items():
            full = _oracle_pair(2, seed, 25)
            for kept, every in zip(pair, full):
                assert every.fock.factor.shape[1] == 625
                assert kept.fock.factor.shape[1] < 625
                m_kept, m_every = moments_from_fock(kept.fock), moments_from_fock(every.fock)
                assert np.max(np.abs(m_kept.u - m_every.u)) <= 1e-10
                assert np.max(np.abs(m_kept.V - m_every.V)) <= 1e-10
            f_kept = uhlmann_fidelity_matrix(pair[0].fock, pair[1].fock)
            f_every = uhlmann_fidelity_matrix(full[0].fock, full[1].fock)
            assert abs(f_kept - f_every) <= 1e-10, f"seed {seed}"

    @pytest.mark.parametrize("modes", [1, 2])
    def test_vacuum_input_is_a_state_vector(self, modes):
        circuit = random_circuit(modes, np.random.default_rng(4790))
        circuit = CircuitSpec(modes, (0.0,) * modes, circuit.ops)
        factor = build_circuit_state(circuit).fock.factor
        assert factor.shape == (DEFAULT_CUTOFFS[modes] ** modes, 1)


class TestDensityMatrixEquality:
    def test_value_equality_without_root(self):
        a = build_circuit_state(random_circuit(1, np.random.default_rng(4770))).fock
        bare = FockDensityMatrix(a.n_modes, a.cutoffs, a.rho.copy(), a.trace_deficit,
                                 a.top_level_population)
        assert a.factor is not None and bare.factor is None
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
