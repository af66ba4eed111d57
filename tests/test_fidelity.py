"""Fidelity engine: auxiliary spectrum, invariants, closed forms, cross-checks."""

import dataclasses
import importlib

import mpmath as mp
import numpy as np
import pytest

from gaussfid import (
    GaussianState,
    InvalidState,
    NumericalError,
    apply_symplectic,
    closed_form_fidelity,
    coherent,
    displace,
    fidelity,
    make_symplectic_form,
    random_state,
    squeezed,
    tensor,
    thermal,
    vacuum,
)
from gaussfid.fidelity import (
    _PURITY_TOL,
    _parallel_sum_spectrum,
    _purity_invariant,
    ftot_from_spectrum,
)
from gaussfid.core import DEFAULT_PHYS_TOL, require_physical
from gaussfid.states import random_symplectic

from conftest import (
    COMPLEX,
    REAL,
    count_linalg_calls,
    mixed_pair,
    record_calls,
    symplectic_spectrum_mp,
    via_xpxp,
)
from reference_routes import (
    _char_coeffs_from_traces,
    alt_ftot_v12,
    aux_matrix,
    aux_spectrum,
    invariant_set,
    singular_reduction,
    w_matrix,
)


# ---------------------------------------------------------------------------
# auxiliary matrix and spectrum
# ---------------------------------------------------------------------------

class TestAuxMatrix:
    def test_identical_vacua(self):
        V = 0.5 * np.eye(2)
        np.testing.assert_allclose(aux_matrix(V, V), V, atol=1e-14)

    def test_pure_first_argument_gives_half_identity(self):
        # whenever V1 = I/2 the auxiliary matrix collapses to I/2
        V2 = random_state(2, 5).V
        np.testing.assert_allclose(aux_matrix(0.5 * np.eye(4), V2),
                                   0.5 * np.eye(4), atol=1e-12)

    def test_identical_thermal_spectrum(self):
        v = 1.3
        aux = aux_matrix(v * np.eye(2), v * np.eye(2))
        expected = (2 * v + 1.0 / (2 * v)) / 2.0
        spec = aux_spectrum(aux)
        np.testing.assert_allclose(spec.retained, [expected], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_w_aux_identity(self, seed):
        # -2 V_aux i Omega = (W1 + W2)^{-1} (I + W2 W1); the spectrum is
        # +- paired so the overall sign of W_aux never matters downstream
        n = seed % 3 + 1
        a, b = mixed_pair(n, 400 + seed)
        W1, W2 = w_matrix(a.V), w_matrix(b.V)
        direct = np.linalg.solve(W1 + W2, np.eye(2 * n) + W2 @ W1)
        w_aux = -2.0j * aux_matrix(a.V, b.V) @ make_symplectic_form(n)
        assert np.max(np.abs(w_aux - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_exchange_invariance(self, seed):
        n = seed % 3 + 1
        a, b = mixed_pair(n, 500 + seed)
        s_ab = aux_spectrum(aux_matrix(a.V, b.V)).retained
        s_ba = aux_spectrum(aux_matrix(b.V, a.V)).retained
        np.testing.assert_allclose(np.sort(s_ab), np.sort(s_ba), atol=1e-10)

    def test_identical_vacua_all_discarded(self):
        spec = aux_spectrum(aux_matrix(0.5 * np.eye(4), 0.5 * np.eye(4)))
        assert spec.retained.size == 0
        assert spec.discarded_pairs == 2


class TestAuxSpectrumEdgeCases:
    def test_mixed_vs_pure_single_mode(self):
        spec = aux_spectrum(aux_matrix(0.5 * np.eye(2), thermal([0.7]).V))
        assert spec.discarded_pairs == 1
        assert spec.retained.size == 0

    def test_all_retained_at_least_one(self):
        a, b = mixed_pair(3, 17)
        spec = aux_spectrum(aux_matrix(a.V, b.V))
        assert np.all(spec.retained >= 1.0)

    def test_real_spectrum_rejected(self):
        # 2 V_aux Omega with real eigenvalues cannot come from physical states
        bogus = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            aux_spectrum(bogus)


# ---------------------------------------------------------------------------
# fidelity values
# ---------------------------------------------------------------------------

class TestFidelity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_self_fidelity_mixed(self, n):
        s = random_state(n, 600 + n)
        assert fidelity(s, s).F == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_self_fidelity_pure(self, n):
        s = random_state(n, 700 + n, pure=True)
        assert fidelity(s, s).F == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_coherent(self):
        rep = fidelity(vacuum(1), coherent([1.0]))
        assert rep.F == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert rep.F0 == pytest.approx(1.0, abs=1e-12)
        assert rep.disp_exponent == pytest.approx(-0.5, abs=1e-12)

    def test_pure_reference_reduces_to_displacement_term(self):
        s2 = random_state(2, 8)
        s1 = displace(vacuum(2), np.full(4, 0.3))
        rep = fidelity(s1, s2)
        assert rep.Ftot == pytest.approx(1.0, abs=1e-10)
        expected = rep.det_v_sum ** -0.25 * np.exp(rep.disp_exponent)
        assert rep.F == pytest.approx(expected, rel=1e-12)

    def test_single_mode_thermal_closed_form(self):
        # known thermal result: F = 1/(sqrt((n1+1)(n2+1)) - sqrt(n1 n2))
        n1, n2 = 0.3, 0.9
        rep = fidelity(thermal([n1]), thermal([n2]))
        expected = 1.0 / (np.sqrt((n1 + 1) * (n2 + 1)) - np.sqrt(n1 * n2))
        assert rep.F == pytest.approx(expected, rel=1e-12)

    def test_far_displaced_orthogonal_limit(self):
        rep = fidelity(vacuum(1), displace(vacuum(1), [20.0, 0.0]))
        assert rep.F == pytest.approx(np.exp(-100.0), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        n = seed % 4 + 1
        a, b = mixed_pair(n, 800 + seed)
        assert abs(fidelity(a, b).F - fidelity(b, a).F) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_interval_and_strictness(self, seed):
        a, b = mixed_pair(2, 900 + seed)
        f = fidelity(a, b).F
        assert 0.0 <= f <= 1.0
        perturbed = displace(a, 1e-3 * np.ones(4))
        assert fidelity(a, perturbed).F < 1.0 - 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_symplectic_covariance(self, seed):
        n = 2
        a, b = mixed_pair(n, 1000 + seed)
        rng = np.random.default_rng(seed)
        S = random_symplectic(n, rng)
        d = rng.uniform(-1, 1, 2 * n)
        fa = fidelity(a, b).F
        fb = fidelity(displace(apply_symplectic(a, S), d),
                      displace(apply_symplectic(b, S), d)).F
        assert abs(fa - fb) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_multiplicative_over_tensor_products(self, seed):
        a, b = mixed_pair(1, 1100 + seed)
        c, d = mixed_pair(2, 1200 + seed)
        f_joint = fidelity(tensor(a, c), tensor(b, d)).F
        assert f_joint == pytest.approx(fidelity(a, b).F * fidelity(c, d).F, rel=1e-9)

    def test_mode_count_mismatch(self):
        with pytest.raises(Exception):
            fidelity(vacuum(1), vacuum(2))

    def test_unphysical_input_rejected(self):
        from gaussfid import GaussianState, InvalidState
        bad = GaussianState(1, np.zeros(2), 0.25 * np.eye(2))
        with pytest.raises(InvalidState):
            fidelity(bad, vacuum(1))

    def test_unphysical_self_pair_rejected(self):
        # a self pair checks its one state once, with the same refusal
        bad = GaussianState(1, np.zeros(2), np.diag([0.25, 0.5]))
        message = "state is not physical: symmetric=True, min_eig_shifted=-1.404e-01"
        for a, b in ((bad, bad), (bad, GaussianState(1, bad.u, bad.V)), (bad, vacuum(1))):
            with pytest.raises(InvalidState) as exc:
                fidelity(a, b)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n, seed", [(1, 9113), (4, 9143)])
    def test_singular_v_sum_refused(self, n, seed):
        # V1 + V2 of this pure state is singular to working precision; the
        # solve's LinAlgError is refused as a NumericalError
        s = random_state(n, seed, pure=True, max_squeeze=8.0)
        with pytest.raises(NumericalError, match="V1 \\+ V2 is singular") as exc:
            fidelity(s, s)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def _boundary_state(V0, frac):
    """V0 shifted by a multiple of I so that the smallest eigenvalue of
    V + i Omega/2 is -frac * DEFAULT_PHYS_TOL * max(1, max|V|): a covariance
    that require_physical accepts for frac < 1, though no state has it."""
    n = V0.shape[0] // 2
    lam0 = np.linalg.eigvalsh(V0 + 0.5j * make_symplectic_form(n))[0]
    shift = lam0
    for _ in range(3):  # the scale is that of the shifted V
        scale = max(1.0, np.max(np.abs(V0 - shift * np.eye(2 * n))))
        shift = lam0 + frac * DEFAULT_PHYS_TOL * scale
    return GaussianState(n, np.zeros(2 * n), V0 - shift * np.eye(2 * n))


class TestClampAgainstAcceptance:
    """An F_raw above 1 that the states' departure from physicality explains
    is clamped; one beyond it is refused."""

    def test_accepted_state_against_vacuum_clamps(self):
        s = GaussianState(1, np.zeros(2), np.diag([0.5 - 1e-9, 0.5]))
        require_physical(s)
        rep = fidelity(s, vacuum(1))
        assert rep.F == 1.0 and rep.clamped
        assert rep.F_raw == pytest.approx(1.0 + 2.5e-10, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boundary_states_never_exceed_the_bound(self, n):
        # every mode of a pure state, or the least mixed mode of a mixed
        # state, pushed to the acceptance limit or short of it.  A self pair
        # is exactly 1 or refused for its spectrum: the parallel sum of a
        # mixed boundary state against itself read F_raw up to 1.29
        clamped = self_pairs = 0
        for seed in range(14):
            if seed < 8:
                V0 = random_state(n, 3100 + 10 * n + seed, pure=True,
                                  max_squeeze=(0.0, 1.0, 2.0, 3.0)[seed % 4]).V
            else:
                V0 = random_state(n, 3100 + 10 * n + seed,
                                  max_squeeze=(0.0, 1.0, 2.0)[seed % 3]).V
            for frac in (0.1, 0.5, 0.999):
                s = _boundary_state(V0, frac)
                require_physical(s)
                for a, b in ((s, s), (s, vacuum(n)), (vacuum(n), s)):
                    try:
                        rep = fidelity(a, b)
                    except NumericalError as exc:
                        assert "exceeds 1" not in str(exc), (seed, frac)
                        continue
                    assert rep.F <= 1.0
                    if a is b:
                        assert rep.F == rep.F_raw == 1.0 and not rep.clamped, (seed, frac)
                        self_pairs += seed >= 8
                    clamped += rep.clamped
        assert clamped and self_pairs

    def test_excess_past_the_bound_refused(self, monkeypatch):
        # a physical near pair has F_raw < 1 and no excess to explain
        module = importlib.import_module("gaussfid.fidelity")
        ftot = module.ftot_from_spectrum
        monkeypatch.setattr(module, "ftot_from_spectrum", lambda w: ftot(w) * (1.0 + 1e-6))
        s = random_state(2, 3200)
        near = displace(s, [1e-6, 0.0, 0.0, 0.0])
        assert near != s
        with pytest.raises(NumericalError, match="exceeds 1 beyond tolerance"):
            fidelity(s, near)


def _separate_solves(a, b):
    """The fidelity from separate solves of V1 + V2 for V_aux and for du."""
    n = a.n
    omega = make_symplectic_form(n)
    v_sum = a.V + b.V
    v_aux = omega.T @ np.linalg.solve(v_sum, omega / 4.0 + b.V @ omega @ a.V)
    ftot = ftot_from_spectrum(aux_spectrum(v_aux).retained)
    sign, logdet = np.linalg.slogdet(v_sum)
    du = b.u - a.u
    disp = float(-0.25 * du @ np.linalg.solve(v_sum, du))
    f0 = float(ftot * np.exp(-0.25 * logdet))
    return {"F": min(f0 * np.exp(disp), 1.0), "F0": f0, "Ftot": ftot,
            "det_v_sum": float(sign * np.exp(logdet)), "disp_exponent": disp}


def _ensemble():
    pairs = []
    for n in (1, 2, 3, 4, 16):
        for seed in range(3):
            a, b = mixed_pair(n, 2400 + 10 * n + seed)
            p = random_state(n, 2500 + 10 * n + seed, pure=True)
            pairs += [(a, b), (a, a), (p, b), (p, p)]
    return pairs


def _record_calls(monkeypatch, name):
    """The arguments of every call of ``gaussfid.fidelity.<name>`` from here on."""
    return record_calls(monkeypatch, importlib.import_module("gaussfid.fidelity"), name)


class TestLeanHotPath:
    """fidelity() solves V1 + V2 once and leaves the invariants to the report."""

    @pytest.mark.parametrize("index", range(len(_ensemble())))
    def test_matches_separate_solves(self, index):
        # mixed-mixed pairs (the first two of each group of four) take their
        # spectrum from the parallel sum: their F, F0 and Ftot are checked
        # against 60 digits, where the eigvals of the separate solves err by
        # up to 1.4e-13 at n = 16.  The pure-member pair (the third) takes
        # det_v_sum and disp_exponent from a Cholesky factor, not from LU
        # solves: those two are checked against 60 digits
        a, b = _ensemble()[index]
        rep = fidelity(a, b)
        expected = {name: pytest.approx(value, rel=1e-14, abs=1e-14)
                    for name, value in _separate_solves(a, b).items()}
        if index % 4 < 2:
            expected.update((name, pytest.approx(value, rel=1e-14, abs=0.0))
                            for name, value in _fidelity_parts_mp(a, b, hermitian=True).items())
        if index % 4 == 2:
            expected.update((name, pytest.approx(value, rel=_ROOT_OVERLAP_REL, abs=0.0))
                            for name, value in _root_overlap_mp(a, b).items())
        for name, value in expected.items():
            assert getattr(rep, name) == value, name

    def test_hermitian_reference_matches_eig_reference(self):
        # the 60-digit reference of test_matches_separate_solves, against
        # the eigenvalues of 2 V_aux Omega on the mixed-mixed pairs up to n = 4
        pairs = [pair for index, pair in enumerate(_ensemble())
                 if index % 4 < 2 and pair[0].n <= 4]
        assert len(pairs) == 24
        for a, b in pairs:
            assert _fidelity_parts_mp(a, b, hermitian=True) == pytest.approx(
                _fidelity_parts_mp(a, b), rel=1e-15, abs=0.0)

    def test_fidelity_does_not_compute_invariants(self, monkeypatch):
        # the report's invariants expand the characteristic polynomial with
        # np.poly, which fidelity() itself never calls
        calls = record_calls(monkeypatch, np, "poly")
        for a, b in _ensemble()[:8]:
            rep = fidelity(a, b)
        assert calls == []
        first = rep.invariants
        assert len(calls) == 1
        assert rep.invariants is first
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_invariants_on_access_equal_invariant_set(self, n):
        # the report's traces and coefficients come from its W_aux pairs, the
        # reference's from powers of 2 V_aux Omega and Newton's identities;
        # they agree within 1e-10 (3.4e-12 at worst over 120 pairs per n,
        # pure and squeezed partners included).  Gamma and Lambda are the same
        # determinants on both routes, and so is Delta on a mixed-mixed pair;
        # the pure partner's Delta comes from a Cholesky factor, and both
        # Deltas are checked against 60 digits there
        a, b = mixed_pair(n, 2600 + n)
        pure = random_state(n, 2700 + n, pure=True)
        for other in (b, pure, random_state(n, 2800 + n, max_squeeze=2.0)):
            inv = fidelity(a, other).invariants
            ref = invariant_set(a.V, other.V)
            np.testing.assert_allclose(inv.i2k, ref.i2k, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(inv.char_coeffs, ref.char_coeffs, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(ref.char_coeffs)))
            assert (inv.gamma, inv.lam) == (ref.gamma, ref.lam)
            if other is pure:
                exact = pytest.approx(_root_overlap_mp(a, other)["det_v_sum"],
                                      rel=_ROOT_OVERLAP_REL, abs=0.0)
                assert inv.delta == exact and ref.delta == exact
            else:
                assert inv.delta == ref.delta

    def test_lambda_residue_refusal_kept(self):
        for seed in (34, 359, 498):
            s = random_state(3, seed, max_squeeze=4.0)
            with pytest.raises(NumericalError, match="Lambda has a non-vanishing imaginary part"):
                fidelity(s, s)

    def test_lambda_refusal_matches_invariant_set(self):
        # fidelity() evaluates Gamma only when the Lambda-relative check
        # fails; its refusals must stay the ones invariant_set makes.  Seven
        # of these stiff self-pairs trip the Lambda check.
        refused = 0
        for seed in range(400, 700):
            s = random_state(3, seed, max_squeeze=4.0)
            outcomes = []
            for call in (lambda: invariant_set(s.V, s.V), lambda: fidelity(s, s)):
                try:
                    call()
                    outcomes.append("")
                except NumericalError as exc:
                    outcomes.append(str(exc))
            expected, got = outcomes
            refused += "Lambda" in expected
            if "Lambda" in got:
                assert got == expected, seed
            if "Lambda" in expected:
                assert got != "", seed
        assert refused == 7


def _route_pairs(n):
    """(pairs with a pure member, mixed-mixed pairs) on n modes."""
    a, b = mixed_pair(n, 6100 + n)
    p = random_state(n, 6200 + n, pure=True)
    q = random_state(n, 6300 + n, pure=True, max_disp=0.0)
    with_pure = [(p, b), (a, p), (p, q), (p, p), (via_xpxp(p), a), (p, via_xpxp(p))]
    return with_pure, [(a, b), (a, a), (via_xpxp(a), a)]


def _spectrum_route(a, b):
    """The report fields of the W_aux spectrum route, evaluated directly."""
    du = b.u - a.u
    v_sum = a.V + b.V
    spectrum = aux_spectrum(aux_matrix(a.V, b.V))
    sign, logdet = np.linalg.slogdet(v_sum)
    f0 = float(ftot_from_spectrum(spectrum.retained) * np.exp(-0.25 * logdet))
    disp = float(-0.25 * du @ np.linalg.solve(v_sum, du))
    values = {"F": min(f0 * np.exp(disp), 1.0), "F0": f0,
              "det_v_sum": float(sign * np.exp(logdet)), "disp_exponent": disp}
    return values, spectrum


def _fidelity_parts_mp(a, b, hermitian=False):
    """F, F0 and Ftot from the W_aux formula at 60 digits, the float inputs
    converted exactly; w within 1e-9 of 1 counts as a unit pair, the engine's
    discard rule (DEFAULT_PURE_TOL).

    The w are the |Im| of the eigenvalues of 2 V_aux Omega, or with
    ``hermitian`` sqrt(1 + 4 sigma^2) over the singular values sigma of
    Q = G^T Omega^T G, G the Cholesky factor of the parallel sum
    E = conj(P1) (V1+V2)^{-1} P2, P_k = V_k + i Omega/2, which must then be
    positive definite.  At n = 16 mpmath's Hermitian eigenvalues take about a
    third of the time of its nonsymmetric ones.  Either way each w is counted
    twice."""
    n = a.n
    with mp.workdps(60):
        om = mp.matrix(np.asarray(make_symplectic_form(n)).tolist())
        va, vb = mp.matrix(a.V.tolist()), mp.matrix(b.V.tolist())
        s_inv = mp.inverse(va + vb)
        if hermitian:
            e = (va - om * 0.5j) * s_inv * (vb + om * 0.5j)
            g = mp.cholesky((e + e.H) / 2)
            q = g.T * om.T * g
            w = [mp.sqrt(1 + 4 * s2) for s2 in mp.eighe(q.H * q, eigvals_only=True)]
        else:
            v_aux = om.T * s_inv * (om / 4 + vb * om * va)
            w = [abs(mp.im(e)) for e in mp.eig(2 * v_aux * om, left=False, right=False)]
        du = mp.matrix((b.u - a.u).tolist())
        log_ftot = mp.fsum(mp.acosh(x) for x in w if x - 1 > 1e-9) / 4
        log_f0 = log_ftot - mp.log(mp.det(va + vb)) / 4
        log_f = log_f0 - (du.T * s_inv * du)[0] / 4
        return {"F": float(mp.exp(log_f)), "F0": float(mp.exp(log_f0)),
                "Ftot": float(mp.exp(log_ftot))}


def _fidelity_mp(a, b):
    """F of :func:`_fidelity_parts_mp`."""
    return _fidelity_parts_mp(a, b)["F"]


#: Relative error of det(V1 + V2) and du^T (V1 + V2)^{-1} du against 60
#: digits on the pure-member pairs checked here, up to n = 16.  The bordered
#: Cholesky factor errs by up to 6.2e-15 on them, and the LU solve and
#: slogdet it replaced by up to 1.2e-14.  The one n = 64 pair allows 1e-13:
#: the factor errs by up to 8.4e-16 there, LU by up to 8.6e-14.
_ROOT_OVERLAP_REL = 2e-14


def _root_overlap_mp(a, b):
    """det_v_sum = det(V1 + V2) and disp_exponent = -du^T (V1 + V2)^{-1} du / 4
    at 60 digits, the float inputs converted exactly, from the Cholesky factor
    L of V1 + V2 and the forward substitution y = L^{-1} du."""
    with mp.workdps(60):
        low = mp.cholesky(mp.matrix(a.V.tolist()) + mp.matrix(b.V.tolist()))
        du = mp.matrix(b.u.tolist()) - mp.matrix(a.u.tolist())
        y = []
        for i in range(low.rows):
            y.append((du[i] - mp.fdot((low[i, j] for j in range(i)), y)) / low[i, i])
        return {"det_v_sum": float(mp.fprod(low[i, i] for i in range(low.rows)) ** 2),
                "disp_exponent": float(-mp.fdot(y, y) / 4)}


class TestPureMemberRoute:
    """A pair with a pure member skips the W_aux eigenproblem: F is the root overlap."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 64])
    def test_eigvals_only_on_mixed_pairs(self, n, monkeypatch):
        # the LAPACK budget of a call once both factors of Lambda are cached:
        # one complex Cholesky accept test per state (one for two equal
        # states).  Two distinct states with a pure member add one real
        # Cholesky factor of V1 + V2 bordered by du, of order 2n + 1, and
        # nothing else.  Every other pair makes one slogdet of V1 + V2; a
        # mixed-mixed pair adds one solve of V1 + V2, the complex Cholesky
        # factor of E and one complex svd of Q.  Equal states make no solve;
        # a mixed one adds the real Cholesky factor of V and one real svd.
        # The nonsymmetric eigvals and the eigh fallback are never called
        # here.  Lambda vanishes when a state is pure, so the Lambda check may
        # floor its residue with Gamma, one real det, on a pair with a pure
        # member
        with_pure, mixed = _route_pairs(n)
        names = ("cholesky", "solve", "slogdet", "det", "svd", "eigvals", "eigh")
        calls = {name: count_linalg_calls(monkeypatch, name) for name in names}
        m = (2 * n, 2 * n)
        seen = set()
        for pairs, spectrum in ((with_pure, False), (mixed, True)):
            for a, b in pairs:
                fidelity(a, b)
                for recorded in calls.values():
                    del recorded[:]
                fidelity(a, b)
                same = a == b
                bordered = not (same or spectrum)
                accept = [(m, COMPLEX)] * (1 if same else 2)
                dtype = REAL if same else COMPLEX
                seen.add((same, spectrum))
                assert len(calls["det"]) <= 1 - spectrum
                assert calls == {"cholesky": accept + [(m, dtype)] * spectrum
                                 + [((2 * n + 1, 2 * n + 1), REAL)] * bordered,
                                 "solve": [(m, REAL)] * (spectrum and not same),
                                 "slogdet": [(m, REAL)] * (not bordered), "det": calls["det"],
                                 "svd": [(m, dtype)] * spectrum,
                                 "eigvals": [], "eigh": []}
        assert len(seen) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 64])
    def test_matches_spectrum_route(self, n):
        # det_v_sum and disp_exponent of distinct states come from a Cholesky
        # factor, and the LU route's values from solve and slogdet: both are
        # checked against 60 digits instead.  (a, p) and (via_xpxp(p), a)
        # share V1 + V2 and have opposite du, so one 60-digit evaluation
        # serves both; it is the only one at n = 64 (1.2 s), where (p, b) and
        # (p, q) keep det_v_sum within the sum of both routes' 60-digit
        # bounds of the LU route's value
        with_pure = _route_pairs(n)[0]
        shared = _root_overlap_mp(*with_pure[1])
        rel = _ROOT_OVERLAP_REL if n <= 16 else 1e-13
        for index, (a, b) in enumerate(with_pure):
            rep = fidelity(a, b)
            expected, spectrum = _spectrum_route(a, b)
            if a != b:
                exact = shared if index in (1, 4) else _root_overlap_mp(a, b) if n <= 16 else {}
                for name, value in exact.items():
                    assert getattr(rep, name) == pytest.approx(value, rel=rel, abs=0.0), name
                    assert expected.pop(name) == pytest.approx(value, rel=rel, abs=0.0), name
                if not exact:
                    assert rep.det_v_sum == pytest.approx(expected.pop("det_v_sum"), rel=2 * rel)
            for name, value in expected.items():
                assert getattr(rep, name) == pytest.approx(value, rel=1e-14), name
            assert rep.Ftot == 1.0
            assert rep.discarded_pairs == spectrum.discarded_pairs == n
            np.testing.assert_array_equal(rep.waux_spectrum, spectrum.retained)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_stiff_pure_states(self, n, monkeypatch):
        # at max_squeeze=4 roundoff hides the purity of some states at the
        # working-precision level: those take the spectrum route.  The rest
        # take the root overlap, which stays accurate on pairs where the
        # eigvals of 2 V_aux Omega are off by up to 1.7e-3 against mpmath
        calls = count_linalg_calls(monkeypatch, "svd")
        eigvals = count_linalg_calls(monkeypatch, "eigvals")
        resolved_seen = set()
        for seed in range(20):
            p = random_state(n, 7000 + 10 * n + seed, pure=True, max_squeeze=4.0)
            q = random_state(n, 7500 + 10 * n + seed)
            resolved = abs(_purity_invariant(p.V) - 1.0) <= _PURITY_TOL
            resolved_seen.add(resolved)
            del calls[:]
            try:
                f = fidelity(p, q).F
            except NumericalError:
                assert not resolved, seed
            assert len(calls) == (0 if resolved else 1), seed
            assert eigvals == [], seed
            if resolved and n <= 3:
                assert f == pytest.approx(_fidelity_mp(p, q), rel=1e-10), seed
        assert resolved_seen == {True, False}

    def test_gray_zone_against_mpmath(self, monkeypatch):
        # thermal cores of mean photon number eta straddle the purity test:
        # t - 1 = 4 eta (1 + eta), so eta <= 1e-13 takes the root overlap
        partners = [thermal([0.5]), thermal([10.0]), thermal([1000.0]),
                    random_state(1, 3), random_state(1, 4, max_disp=0.0)]
        calls = count_linalg_calls(monkeypatch, "svd")
        eigvals = count_linalg_calls(monkeypatch, "eigvals")
        for eta in (0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-7, 1e-6):
            core = thermal([eta])
            for partner in partners:
                for a, b in ((core, partner), (partner, core)):
                    del calls[:]
                    f = fidelity(a, b).F
                    assert len(calls) == (0 if eta <= 1e-13 else 1), eta
                    assert eigvals == [], eta
                    assert f == pytest.approx(_fidelity_mp(a, b), rel=1e-12), eta

    def test_far_displaced_pair_vanishes(self):
        # the squared length of du = 1e160 per entry overflows, the unit border
        # of the factorisation does not: F = 0, as the LU route read it
        p, q = random_state(2, 8100, pure=True), random_state(2, 8101)
        rep = fidelity(p, GaussianState(2, np.full(4, 1e160), q.V))
        assert (rep.F, rep.F_raw, rep.disp_exponent) == (0.0, 0.0, -np.inf)
        assert rep.F0 == fidelity(p, q).F0

    def test_equal_means_give_no_displacement_term(self):
        p, q = random_state(3, 8102, pure=True), random_state(3, 8103)
        for a, b in ((p, GaussianState(3, p.u, q.V)), (GaussianState(3, q.u, p.V), q)):
            assert fidelity(a, b).disp_exponent == 0.0

    def test_v_sum_not_positive_definite_refused(self, monkeypatch):
        # V1 + V2 = 2V of this state has a negative eigenvalue in floating
        # point.  Read as pure, the pair takes the root overlap, whose
        # Cholesky factor refuses it
        module = importlib.import_module("gaussfid.fidelity")
        monkeypatch.setattr(module, "_purity_invariant", lambda V: 1.0)
        s = random_state(1, 9113, pure=True, max_squeeze=8.0)
        with pytest.raises(NumericalError, match="V1 \\+ V2 is not positive definite") as exc:
            fidelity(s, displace(s, [1.0, 0.0]))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_lambda_check_runs_on_the_pure_member_route(self, monkeypatch):
        calls = _record_calls(monkeypatch, "_checked_lambda")
        pairs = [pair for n in (1, 2, 3) for pair in _route_pairs(n)[0]]
        for a, b in pairs:
            fidelity(a, b)
        assert len(calls) == len(pairs)

    def test_lambda_refusal_on_a_stiff_pure_pair(self):
        p = random_state(1, 305, pure=True, max_squeeze=8.0)
        q = random_state(1, 5305, max_squeeze=8.0)
        assert abs(_purity_invariant(p.V) - 1.0) <= _PURITY_TOL  # the pure-member route
        with pytest.raises(NumericalError, match="Lambda has a non-vanishing imaginary part"):
            fidelity(p, q)


def _outcome(a, b):
    """Every field of fidelity(a, b) as bytes, or the type and message of its refusal."""
    try:
        rep = fidelity(a, b)
    except NumericalError as exc:
        return "refused", type(exc).__name__, str(exc)
    return tuple((f.name, np.asarray(getattr(rep, f.name)).tobytes())
                 for f in dataclasses.fields(rep) if f.compare)


def _cache_ensemble():
    """Mixed and pure, displaced and centred states with max_squeeze 1, 4 and 8."""
    states = []
    for n in (1, 2, 4, 16, 64):
        seed = 9100 + 10 * n
        states.append([
            random_state(n, seed),
            random_state(n, seed + 1, pure=True),
            random_state(n, seed + 2, max_squeeze=4.0, max_disp=0.0),
            random_state(n, seed + 3, pure=True, max_squeeze=8.0),
        ])
    return states


class TestLambdaFactorCache:
    """Each state evaluates det(V + i Omega/2) once; the Lambda check itself
    runs on every call."""

    def test_det_once_per_state(self, monkeypatch):
        a, b = mixed_pair(2, 9000)
        c = random_state(2, 9001)
        dets = count_linalg_calls(monkeypatch, "det")
        for _ in range(10):
            fidelity(a, b)
        assert len(dets) == 2
        del dets[:]
        for _ in range(10):
            fidelity(c, c)
        assert len(dets) == 1

    # the stiffest pure states overflow det and exp at n = 64 and are refused
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cached_states_match_fresh_copies(self):
        refused = computed = 0
        for group in _cache_ensemble():
            for a in group:
                for b in group:
                    first = _outcome(a, b)  # fills both factors
                    assert "_lambda_factor" in vars(a) or first[0] == "refused"
                    fresh = _outcome(GaussianState(a.n, a.u, a.V),
                                     GaussianState(b.n, b.u, b.V))
                    assert _outcome(a, b) == first == fresh
                    refused += first[0] == "refused"
                    computed += first[0] != "refused"
        assert refused and computed


def _pure_mode_pairs():
    """Mixed-mixed pairs in which a state has an exactly pure mode: vacuum x
    rho under a random symplectic S, against the same construction under the
    same S and against a random mixed state, in both orders."""
    pairs = []
    for n in (1, 2):
        for k in range(8):
            S = random_symplectic(n + 1, np.random.default_rng(k))
            a = apply_symplectic(tensor(vacuum(1), random_state(n, 100 + k)), S)
            b = apply_symplectic(tensor(vacuum(1), random_state(n, 300 + k)), S)
            c = random_state(n + 1, 400 + k)
            pairs += [(a, b), (b, a), (a, c), (c, a)]
    return pairs


class TestParallelSumRoute:
    """Mixed-mixed pairs: w = sqrt(1 + 4 sigma^2) over the singular values of
    Q = G^T Omega^T G, with E = G G^H the parallel sum of conj(P1) and P2."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_spectrum_matches_eigvals_route(self, n):
        for seed in range(3):
            a, b = mixed_pair(n, 8500 + 10 * n + seed)
            for x, y in ((a, b), (b, a), (a, a)):
                _, retained, solved = _parallel_sum_spectrum(x.V, y.V, y.u - x.u)
                ref = aux_spectrum(aux_matrix(x.V, y.V))
                solved_ref = np.linalg.solve(x.V + y.V, y.u - x.u)
                assert n - retained.size == ref.discarded_pairs == 0
                np.testing.assert_allclose(retained, ref.retained, rtol=1e-12)
                # a column of a solve depends on the block it is solved in
                # at the roundoff level, so this is relative to the largest entry
                np.testing.assert_allclose(solved, solved_ref, rtol=0,
                                           atol=1e-14 * np.abs(solved_ref).max())

    def test_pure_mode_pairs_take_both_factorisations(self, monkeypatch):
        # E is singular when a state has an exactly pure mode: its Cholesky
        # factorisation fails on some of these pairs, and the eigh factor
        # takes over; either way F is within 1e-12 of 60 digits
        eigh = count_linalg_calls(monkeypatch, "eigh")
        eigvals = count_linalg_calls(monkeypatch, "eigvals")
        routes = []
        for a, b in _pure_mode_pairs():
            del eigh[:]
            rep = fidelity(a, b)
            routes.append(len(eigh))
            assert rep.discarded_pairs >= 1
            assert rep.F == pytest.approx(_fidelity_mp(a, b), rel=1e-12, abs=0.0)
        assert eigvals == []
        assert set(routes) == {0, 1}

    def test_stiff_self_pairs(self):
        # F(a, a) = 1.  At max_squeeze = 4 the eigvals of 2 V_aux Omega gave
        # values off by up to 0.22 without a warning, refusing 21 of these
        # pairs, and the parallel sum was off by up to 6.1e-4 and refused
        # 17.  The self-pair route returns exactly 1 or refuses: 10 of these
        # for the gap of their symplectic spectrum, 2 for Lambda
        refused = 0
        for seed in range(60):
            s = random_state(3, seed, max_squeeze=4.0)
            try:
                rep = fidelity(s, s)
            except NumericalError:
                refused += 1
                continue
            assert rep.F == rep.F0 == rep.F_raw == 1.0, seed
        assert refused <= 12

    def test_far_negative_parallel_sum_refused(self, monkeypatch):
        # E >= 0 in exact arithmetic; an eigenvalue far below zero is a
        # breakdown, refused rather than clipped
        def failing(e):
            raise np.linalg.LinAlgError("not positive definite")

        def indefinite(e):
            lam = np.linspace(-1.0, 1.0, e.shape[0])
            return lam, np.eye(e.shape[0], dtype=complex)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(np.linalg, "eigh", indefinite)
        a, b = mixed_pair(2, 8600)
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            _parallel_sum_spectrum(a.V, b.V, b.u - a.u)


class TestSelfPairRoute:
    """Equal states: F = 1 exactly, with the W_aux pairs w = nu + 1/(4 nu)
    over V's symplectic eigenvalues and Ftot = det(V1 + V2)^{1/4}."""

    # the stiffest pure states overflow det and exp at n = 64 and are refused
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_equal_copies_take_the_self_route(self, monkeypatch):
        # a state against a fresh equal copy gives the bytes of the state
        # against itself: one physicality check, no solve, F exactly 1
        checks = _record_calls(monkeypatch, "require_physical")
        solves = count_linalg_calls(monkeypatch, "solve")
        returned = refused = 0
        for group in _cache_ensemble():
            for a in group:
                copy = GaussianState(a.n, a.u, a.V)
                outcomes = []
                for x, y in ((a, a), (a, copy), (copy, a)):
                    del checks[:]
                    outcomes.append(_outcome(x, y))
                    assert len(checks) == 1
                assert outcomes[0] == outcomes[1] == outcomes[2]
                if outcomes[0][0] == "refused":
                    refused += 1
                    continue
                returned += 1
                rep = fidelity(a, copy)
                assert rep.F == rep.F0 == rep.F_raw == 1.0 and not rep.clamped
                # the sign the parent's -0.25 du^T (V1+V2)^{-1} du gave du = 0
                assert rep.disp_exponent == 0.0 and not np.signbit(rep.disp_exponent)
        assert solves == []
        assert returned and refused

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_spectrum_against_60_digits(self, n):
        # Ftot and the W_aux pairs against the 60-digit symplectic spectrum:
        # within 1e-14 in random_state's default range (6.3e-15 at worst),
        # within 5e-13 at max_squeeze = 2 (2.1e-13; the parallel sum erred
        # by up to 9.7e-13 on these pairs)
        for max_squeeze, rel in ((None, 1e-14), (2.0, 5e-13)):
            for seed in range(3):
                kwargs = {} if max_squeeze is None else {"max_squeeze": max_squeeze}
                s = random_state(n, 3300 + 10 * n + seed, **kwargs)
                rep = fidelity(s, s)
                nu = symplectic_spectrum_mp(s.V)
                with mp.workdps(60):
                    ftot = float(mp.sqrt(mp.fprod(2 * x for x in nu)))
                    w = [float(x + 1 / (4 * x)) for x in nu if x + 1 / (4 * x) - 1 > 1e-9]
                assert rep.Ftot == pytest.approx(ftot, rel=rel, abs=0.0)
                assert rep.discarded_pairs == n - len(w)
                np.testing.assert_allclose(np.sort(rep.waux_spectrum), w, rtol=rel, atol=0.0)

    @pytest.mark.parametrize("n", [1, 4, 16, 32, 64])
    def test_identities_on_self_pairs(self, n):
        # the report's invariants of a self pair meet both identities within
        # the bounds TestSpectrumInvariants documents, on the mixed and pure
        # states of random_state's default range.  A max_squeeze = 2 state
        # against itself is as stiff as Gamma's own determinant: chi(0)
        # missed by 2.3e-10 at n = 16 on the parallel-sum route as well
        for seed in range(3):
            for s in (random_state(n, 100 + seed), random_state(n, 100 + seed, pure=True)):
                chi0, chi1 = _identity_residuals(fidelity(s, s).invariants)
                assert chi0 <= 1e-10, (seed, chi0)
                assert chi1 <= 1e-8, (seed, chi1)

    def test_spectrum_gap_refused(self):
        # 2 sum log(2 nu) misses log det(2V) by 2.2e-6 on this stiff state
        s = random_state(3, 0, max_squeeze=4.0)
        with pytest.raises(NumericalError, match="symplectic spectrum of a self pair"):
            fidelity(s, s)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

class TestInvariants:
    def test_identical_vacua_values(self):
        V = 0.5 * np.eye(2)
        inv = invariant_set(V, V)
        assert inv.delta == pytest.approx(1.0, abs=1e-12)
        assert inv.gamma == pytest.approx(1.0, abs=1e-12)
        assert inv.lam == pytest.approx(0.0, abs=1e-12)
        assert inv.chi(0.0) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_char_poly_identities(self, n, seed):
        a, b = mixed_pair(n, 1300 + 10 * n + seed)
        inv = invariant_set(a.V, b.V)
        sign = (-1.0) ** n
        assert inv.chi(0.0) * sign * inv.delta == pytest.approx(inv.gamma, rel=1e-8)
        assert inv.chi(1.0) * sign * inv.delta == pytest.approx(
            inv.lam, rel=1e-8, abs=1e-8 * abs(inv.gamma))

    @pytest.mark.parametrize("seed", range(3))
    def test_traces_are_increasing(self, seed):
        a, b = mixed_pair(3, 1400 + seed)
        i2k = invariant_set(a.V, b.V).i2k
        assert np.all(np.diff(i2k) >= -1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_char_roots_match_spectrum(self, seed):
        a, b = mixed_pair(2, 1500 + seed)
        inv = invariant_set(a.V, b.V)
        retained = aux_spectrum(aux_matrix(a.V, b.V)).retained
        scale = np.linalg.norm(inv.char_coeffs)
        for w in retained:
            assert abs(inv.chi(w)) < 1e-8 * scale

    def test_singular_trace_shift(self):
        # with r unit pairs, I_2k = 2r + traces of the reduced block
        V1 = tensor(vacuum(1), thermal([0.8])).V
        V2 = mixed_pair(2, 42)[0].V
        inv = invariant_set(V1, V2)
        red = singular_reduction(V1, V2)
        assert red.r == 1
        omega_t = make_symplectic_form(1)  # one mode: the xpxp form is the xxpp form
        A = 2.0 * red.reduced_block @ omega_t
        for k in (1, 2):
            trace_k = (-1.0) ** k * np.trace(np.linalg.matrix_power(A @ A, k))
            assert inv.i2k[k - 1] == pytest.approx(2 * red.r + trace_k, rel=1e-9)


def _identity_residuals(inv):
    """chi(0) (-1)^n delta - gamma relative to |gamma|, and chi(1) (-1)^n delta
    - lam relative to max(|lam|, 1e-6 |gamma|) (lam vanishes on pure states)."""
    sign = (-1.0) ** inv.n
    return (abs(inv.chi(0.0) * sign * inv.delta - inv.gamma) / abs(inv.gamma),
            abs(inv.chi(1.0) * sign * inv.delta - inv.lam)
            / max(abs(inv.lam), 1e-6 * abs(inv.gamma)))


class TestSpectrumInvariants:
    """The report's invariants, built from its own W_aux pairs, meet both
    characteristic-polynomial identities within the documented bounds (1e-10
    and 1e-8) at every size, against Gamma and Lambda evaluated as
    determinants of their own."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_identities_at_scale(self, n):
        # the trace route misses the chi(0) identity by 1.1 |Gamma| at n = 32
        for seed in range(6):
            a = random_state(n, 100 + seed)
            for b in (random_state(n, 200 + seed), random_state(n, 200 + seed, pure=True),
                      random_state(n, 200 + seed, max_squeeze=2.0)):
                inv = fidelity(a, b).invariants
                assert inv.n == n and np.isfinite(inv.i2k).all()
                chi0, chi1 = _identity_residuals(inv)
                assert chi0 <= 1e-10, (seed, chi0)
                assert chi1 <= 1e-8, (seed, chi1)

    def test_unit_pairs_enter_as_one(self):
        # a pure member discards every pair: I_2k = 2n and chi = (lambda^2 - 1)^n
        n = 3
        inv = fidelity(random_state(n, 31, pure=True), random_state(n, 32)).invariants
        np.testing.assert_array_equal(inv.i2k, np.full(n, 2.0 * n))
        np.testing.assert_array_equal(inv.char_coeffs, [1, 0, -3, 0, 3, 0, -1])
        assert inv.chi(1.0) == 0.0
        assert inv.gamma == pytest.approx(inv.delta, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_identical_vacua_single_mode(self):
        V = 0.5 * np.eye(2)
        assert closed_form_fidelity(1, invariant_set(V, V)) == pytest.approx(1.0, abs=1e-12)

    def test_three_mode_equal_thermal_hits_p_zero_branch(self):
        v = 1.2
        V = v * np.eye(6)
        inv = invariant_set(V, V)
        i2 = inv.i2k[0]
        w_expected = np.sqrt(i2 / 6.0)
        f0 = closed_form_fidelity(3, inv)
        assert f0 == pytest.approx(ftot_from_spectrum(np.full(3, w_expected))
                                   / inv.delta ** 0.25, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_general_engine(self, n, seed):
        a, b = mixed_pair(n, 1600 + 100 * n + seed)
        rep = fidelity(a, b)
        # the reference invariants, not the report's, which come from the
        # spectrum that F0 is built from
        f0 = closed_form_fidelity(n, invariant_set(a.V, b.V))
        assert f0 == pytest.approx(rep.F0, rel=1e-9)

    def test_mode_count_mismatch(self):
        a, b = mixed_pair(2, 3)
        with pytest.raises(Exception):
            closed_form_fidelity(1, invariant_set(a.V, b.V))

    def test_positive_cubic_coefficient_rejected(self):
        from gaussfid.fidelity import InvariantSet
        i2k = np.array([6.0, 1.0, 1.0])  # p = 36/24 - 1/4 > 0
        bogus = InvariantSet(i2k=i2k, gamma=1.0, lam=0.0, delta=1.0,
                             char_coeffs=_char_coeffs_from_traces(i2k))
        with pytest.raises(NumericalError):
            closed_form_fidelity(3, bogus)


# ---------------------------------------------------------------------------
# alternative route and singular reduction
# ---------------------------------------------------------------------------

class TestAlternativeRoute:
    def test_identical_unit_thermal(self):
        V = np.eye(2)
        assert alt_ftot_v12(V, V) == pytest.approx(np.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_spectrum_route(self, seed):
        n = seed % 3 + 1
        a, b = mixed_pair(n, 1700 + seed)
        spec = aux_spectrum(aux_matrix(a.V, b.V))
        ftot = ftot_from_spectrum(spec.retained)
        assert alt_ftot_v12(a.V, b.V) == pytest.approx(ftot, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugate_variant_agrees(self, seed):
        a, b = mixed_pair(2, 1800 + seed)
        assert alt_ftot_v12(a.V, b.V) == pytest.approx(alt_ftot_v12(b.V, a.V), rel=1e-9)


class TestSingularReduction:
    def test_mixed_vs_pure_single_mode(self):
        red = singular_reduction(vacuum(1).V, thermal([0.9]).V)
        assert red.r == 1
        assert red.retained.size == 0
        assert red.corner_residual < 1e-10

    def test_identical_vacua(self):
        red = singular_reduction(vacuum(2).V, vacuum(2).V)
        assert red.r == 2
        assert red.retained.size == 0

    def test_purer_state_chosen_automatically(self):
        # pass the mixed state first; the reduction must still find r = 1
        red = singular_reduction(thermal([0.9]).V, squeezed([0.4]).V)
        assert red.r == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_block_structure_and_spectrum(self, seed):
        pure_part = random_state(1, 2000 + seed, pure=True, max_disp=0.0)
        mixed_part = random_state(1, 2100 + seed)
        V1 = tensor(pure_part, mixed_part).V
        V2 = random_state(2, 2200 + seed).V
        red = singular_reduction(V1, V2)
        assert red.r == 1
        assert red.corner_residual < 1e-8
        assert red.lower_block_residual < 1e-8
        spec = aux_spectrum(aux_matrix(V1, V2))
        assert spec.discarded_pairs == 1
        np.testing.assert_allclose(np.sort(red.retained), np.sort(spec.retained),
                                   atol=1e-8)


class TestThreeModeReality:
    @pytest.mark.parametrize("seed", range(20))
    def test_cubic_coefficients(self, seed):
        a, b = mixed_pair(3, 2300 + seed)
        inv = invariant_set(a.V, b.V)
        i2, i4, i6 = inv.i2k
        p = i2 * i2 / 24.0 - i4 / 4.0
        q = -i2 ** 3 / 108.0 + i2 * i4 / 12.0 - i6 / 6.0
        scale = max(1.0, i2 * i2 / 24.0 + abs(i4) / 4.0)
        assert p <= 1e-10 * scale
        disc_scale = max(1.0, q * q / 4.0 + abs(p) ** 3 / 27.0)
        assert q * q / 4.0 + p ** 3 / 27.0 <= 1e-10 * disc_scale
