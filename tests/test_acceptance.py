"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and prints
a pass line (visible with ``pytest -s`` or ``-rP``); the assertions are the
gate.  Criteria are property- and oracle-based: the truncated Fock-space
brute force is the external ground truth.
"""

import time

import numpy as np

from gaussfid import (
    CircuitSpec,
    build_circuit_state,
    closed_form_fidelity,
    displace,
    error_bounds,
    fidelity,
    get_family,
    qfi_scalar,
    random_circuit,
    random_state,
    tensor,
    thermal,
    uhlmann_fidelity_matrix,
    vacuum,
)
from gaussfid.core import GaussianState
from gaussfid.metrology import bures_metric

from reference_routes import aux_matrix, aux_spectrum, invariant_set, singular_reduction


def _passline(number, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_identity():
    started = time.monotonic()
    for seed in range(200):
        n = seed % 4 + 1
        s = random_state(n, seed, pure=bool(seed % 2))
        assert abs(fidelity(s, s).F - 1.0) < 1e-10, f"seed {seed}"
    _passline(1, "self-fidelity equals 1", started, 10)


def test_criterion_02_pure_state_reduction():
    started = time.monotonic()
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = trial % 4 + 1
        s1 = GaussianState(n, rng.uniform(-2, 2, 2 * n), 0.5 * np.eye(2 * n))
        s2 = GaussianState(n, rng.uniform(-2, 2, 2 * n), 0.5 * np.eye(2 * n))
        rep = fidelity(s1, s2)
        assert abs(rep.F0 - 1.0) < 1e-10
        du = s2.u - s1.u
        expected = np.exp(-0.25 * du @ np.linalg.solve(s1.V + s2.V, du))
        assert abs(rep.F - expected) < 1e-10
    _passline(2, "pure-reference reduction", started, 5)


def test_criterion_03_closed_form_equivalence():
    started = time.monotonic()
    for n in (1, 2, 3):
        for trial in range(200):
            a = random_state(n, 3000 + 1000 * n + trial)
            b = random_state(n, 9000 + 1000 * n + trial)
            rep = fidelity(a, b)
            f0 = closed_form_fidelity(n, invariant_set(a.V, b.V))
            assert abs(f0 - rep.F0) < 1e-9 * rep.F0, f"n={n} trial={trial}"
    _passline(3, "closed forms match the general engine", started, 30)


def test_criterion_04_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    for trial in range(30):
        a = build_circuit_state(random_circuit(1, rng), cutoff=40)
        b = build_circuit_state(random_circuit(1, rng), cutoff=40)
        assert a.fock.trace_deficit < 1e-8 and b.fock.trace_deficit < 1e-8
        diff = abs(fidelity(a.gaussian, b.gaussian).F
                   - uhlmann_fidelity_matrix(a.fock, b.fock))
        assert diff < 1e-6, f"1-mode trial {trial}: diff {diff:.3e}"
    for trial in range(10):
        a = build_circuit_state(random_circuit(2, rng), cutoff=25)
        b = build_circuit_state(random_circuit(2, rng), cutoff=25)
        assert a.fock.trace_deficit < 1e-8 and b.fock.trace_deficit < 1e-8
        diff = abs(fidelity(a.gaussian, b.gaussian).F
                   - uhlmann_fidelity_matrix(a.fock, b.fock))
        assert diff < 1e-6, f"2-mode trial {trial}: diff {diff:.3e}"
    _passline(4, "Fock-oracle equivalence", started, 300)


def test_criterion_05_invariant_relations():
    started = time.monotonic()
    for n in (1, 2, 3):
        sign = (-1.0) ** n
        for trial in range(100):
            a = random_state(n, 50000 + 1000 * n + trial)
            b = random_state(n, 60000 + 1000 * n + trial)
            inv = invariant_set(a.V, b.V)
            lhs0 = inv.chi(0.0) * sign * inv.delta
            assert abs(lhs0 - inv.gamma) < 1e-8 * abs(inv.gamma)
            lhs1 = inv.chi(1.0) * sign * inv.delta
            scale = max(abs(inv.lam), 1e-8 * abs(inv.gamma))
            assert abs(lhs1 - inv.lam) < 1e-8 * scale
    _passline(5, "characteristic-polynomial identities", started, 10)


def test_criterion_06_three_mode_reality():
    started = time.monotonic()
    for trial in range(500):
        a = random_state(3, 70000 + trial)
        b = random_state(3, 80000 + trial)
        inv = invariant_set(a.V, b.V)
        i2, i4, i6 = inv.i2k
        p = i2 * i2 / 24.0 - i4 / 4.0
        q = -i2 ** 3 / 108.0 + i2 * i4 / 12.0 - i6 / 6.0
        scale = max(1.0, i2 * i2 / 24.0 + abs(i4) / 4.0)
        assert p <= 1e-10 * scale
        disc = q * q / 4.0 + p ** 3 / 27.0
        disc_scale = max(1.0, q * q / 4.0 + abs(p) ** 3 / 27.0)
        assert disc <= 1e-10 * disc_scale
        coeff_norm = np.linalg.norm(inv.char_coeffs)
        for w in aux_spectrum(aux_matrix(a.V, b.V)).retained:
            assert abs(inv.chi(w)) < 1e-7 * coeff_norm
    _passline(6, "three-mode roots are real", started, 20)


def test_criterion_07_symmetry_and_multiplicativity():
    started = time.monotonic()
    for trial in range(100):
        na, nc = trial % 2 + 1, (trial // 2) % 2 + 1
        a = random_state(na, 90000 + trial)
        b = random_state(na, 91000 + trial)
        c = random_state(nc, 92000 + trial)
        d = random_state(nc, 93000 + trial)
        fab, fba = fidelity(a, b).F, fidelity(b, a).F
        assert abs(fab - fba) < 1e-12
        fcd = fidelity(c, d).F
        f_joint = fidelity(tensor(a, c), tensor(b, d)).F
        assert abs(f_joint - fab * fcd) < 1e-9
    _passline(7, "symmetry and multiplicativity", started, 10)


def _fd_metric_error(family, dtheta_state, ds2, h):
    base = family(0.0)
    fd = 2.0 * (1.0 - fidelity(base, family(h)).F) / h ** 2
    return abs(fd - ds2)


def test_criterion_08_bures_metric_and_qfi():
    started = time.monotonic()

    # finite differences of F converge to the metric, superlinearly in h
    coherent_family = lambda t: displace(vacuum(1), [t, 0.0])
    thermal_family = lambda t: thermal([0.7 + t])
    for family, du, dV in ((coherent_family, np.array([1.0, 0.0]), np.zeros((2, 2))),
                           (thermal_family, np.zeros(2), np.eye(2))):
        ds2 = bures_metric(family(0.0), du, dV).ds2
        errors = [_fd_metric_error(family, None, ds2, h) for h in (1e-2, 1e-3)]
        assert errors[0] / errors[1] >= 4.0

    # closed-form QFI values
    assert abs(qfi_scalar(get_family("coherent-displacement"), 0.0) - 2.0) < 1e-6
    for nbar in (0.5, 1.0):
        expected = 1.0 / (nbar * (nbar + 1.0))
        assert abs(qfi_scalar(get_family("thermal-nbar"), nbar) - expected) < 1e-6

        # oracle cross-check: Richardson-extrapolated Fock finite differences
        h = 2e-2
        oracle_values = []
        for step in (h, h / 2):
            fa = build_circuit_state(CircuitSpec(1, (nbar - step / 2,), ()), cutoff=40)
            fb = build_circuit_state(CircuitSpec(1, (nbar + step / 2,), ()), cutoff=40)
            f = uhlmann_fidelity_matrix(fa.fock, fb.fock)
            oracle_values.append(8.0 * (1.0 - f) / step ** 2)
        richardson = (4.0 * oracle_values[1] - oracle_values[0]) / 3.0
        assert abs(richardson - expected) < 1e-3

    # oracle cross-check for the displacement family
    h = 2e-2
    values = []
    for step in (h, h / 2):
        fa = build_circuit_state(
            CircuitSpec(1, (0.0,), (("displace", 0, -step / 2 / np.sqrt(2)),)), cutoff=40)
        fb = build_circuit_state(
            CircuitSpec(1, (0.0,), (("displace", 0, step / 2 / np.sqrt(2)),)), cutoff=40)
        f = uhlmann_fidelity_matrix(fa.fock, fb.fock)
        values.append(8.0 * (1.0 - f) / step ** 2)
    richardson = (4.0 * values[1] - values[0]) / 3.0
    assert abs(richardson - 2.0) < 1e-3
    _passline(8, "Bures metric and QFI", started, 60)


def test_criterion_09_error_probability_bounds():
    started = time.monotonic()
    for N in (1, 2, 7):
        top = error_bounds(1.0, N)
        assert top.lower == 0.5 and top.upper == 0.5
        bottom = error_bounds(0.0, N)
        assert bottom.lower == 0.0 and bottom.upper == 0.0
    b = error_bounds(0.5, 1)
    assert abs(b.lower - 0.0669872981077807) < 1e-12
    assert abs(b.upper - 0.25) < 1e-15
    for F in (0.1, 0.3, 0.5, 0.7, 0.9):
        previous = error_bounds(F, 1)
        for N in range(2, 6):
            current = error_bounds(F, N)
            assert current.lower <= previous.lower + 1e-15
            assert current.upper <= previous.upper + 1e-15
            previous = current
    _passline(9, "error-probability bounds", started, 1)


def test_criterion_10_singular_case_robustness():
    started = time.monotonic()

    def circuit(nbar=0.0, r=0.0, phi=0.0, alpha=0.0):
        ops = []
        if r:
            ops.append(("squeeze", 0, r, phi))
        if alpha:
            ops.append(("displace", 0, alpha))
        return CircuitSpec(1, (nbar,), tuple(ops))

    cases = [
        ("identical vacua", circuit(), circuit()),
        ("vacuum vs thermal", circuit(), circuit(nbar=0.5)),
        ("vacuum vs displaced squeezed vacuum", circuit(), circuit(r=0.3, alpha=0.4)),
        ("pure vs pure", circuit(r=0.4, alpha=0.2), circuit(r=-0.2, alpha=0.5j)),
        ("mixed vs pure", circuit(nbar=0.5, r=0.2, alpha=0.3), circuit(r=0.35, phi=1.0)),
    ]
    for name, ca, cb in cases:
        a = build_circuit_state(ca, cutoff=40)
        b = build_circuit_state(cb, cutoff=40)
        rep = fidelity(a.gaussian, b.gaussian)
        assert np.isfinite(rep.F), name
        reduction = singular_reduction(a.gaussian.V, b.gaussian.V)
        assert rep.discarded_pairs == reduction.r, name
        f_oracle = uhlmann_fidelity_matrix(a.fock, b.fock)
        assert abs(rep.F - f_oracle) < 1e-6, f"{name}: |dF| = {abs(rep.F - f_oracle):.3e}"
    _passline(10, "singular-case robustness", started, 60)
