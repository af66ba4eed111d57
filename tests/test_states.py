"""Builders, elementary symplectics, tensor products and the xpxp boundary constructor."""

import numpy as np
import pytest

from gaussfid import (
    GaussianState,
    InvalidParameter,
    apply_symplectic,
    coherent,
    displace,
    fidelity,
    make_symplectic_form,
    random_state,
    squeezed,
    symplectic_eigenvalues,
    tensor,
    thermal,
    two_mode_squeezed,
    vacuum,
    validate_state,
)
from gaussfid.states import (
    beamsplitter_block,
    embed_symplectic,
    random_symplectic,
    rotation_block,
    squeeze_block,
    two_mode_squeeze_block,
)

from conftest import mixed_pair, via_xpxp


class TestBuilders:
    def test_vacuum(self):
        s = vacuum(2)
        np.testing.assert_array_equal(s.u, 0.0)
        np.testing.assert_array_equal(s.V, 0.5 * np.eye(4))

    def test_coherent_mean(self):
        s = coherent([1.0])
        np.testing.assert_allclose(s.u, [np.sqrt(2.0), 0.0], atol=1e-15)
        np.testing.assert_array_equal(s.V, 0.5 * np.eye(2))

    def test_thermal_covariance(self):
        s = thermal([0.5])
        np.testing.assert_allclose(s.V, np.eye(2), atol=1e-15)

    def test_thermal_negative_occupation(self):
        with pytest.raises(InvalidParameter):
            thermal([-0.1])

    def test_squeezed_variances(self):
        r = 0.5
        s = squeezed([r])
        np.testing.assert_allclose(np.diag(s.V),
                                   [0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)],
                                   atol=1e-12)
        assert validate_state(s).physical

    def test_two_mode_squeezed_blocks(self):
        r = 0.6
        s = two_mode_squeezed(r)
        ch2, sh2 = 0.5 * np.cosh(2 * r), 0.5 * np.sinh(2 * r)
        assert s.V[0, 0] == pytest.approx(ch2, abs=1e-12)
        assert s.V[0, 1] == pytest.approx(sh2, abs=1e-12)   # x1 x2
        assert s.V[2, 3] == pytest.approx(-sh2, abs=1e-12)  # p1 p2
        assert validate_state(s).physical
        np.testing.assert_allclose(symplectic_eigenvalues(s.V), 0.5, atol=1e-10)

    def test_apply_symplectic_rejects_non_symplectic(self):
        # a NaN entry makes the residual NaN, which must not pass the test
        for S in (2.0 * np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])):
            with pytest.raises(InvalidParameter):
                apply_symplectic(vacuum(1), S)

    def test_displace_shifts_mean_only(self):
        s = displace(vacuum(1), [0.3, -0.4])
        np.testing.assert_allclose(s.u, [0.3, -0.4])
        np.testing.assert_array_equal(s.V, 0.5 * np.eye(2))


class TestSymplecticBlocks:
    @pytest.mark.parametrize("block,n_modes", [
        (rotation_block(0.3), 1),
        (squeeze_block(0.5, 1.1), 1),
        (beamsplitter_block(0.7, 0.4), 2),
        (two_mode_squeeze_block(0.5), 2),
    ])
    def test_blocks_are_symplectic(self, block, n_modes):
        # blocks use the (x.., p..) sub-layout
        omega = make_symplectic_form(n_modes)
        np.testing.assert_allclose(block @ omega @ block.T, omega, atol=1e-12)

    def test_embedding_untouched_modes(self):
        S = embed_symplectic(squeeze_block(0.4), [1], 3)
        idx = [0, 2, 3, 5]  # x0, x2, p0, p2
        np.testing.assert_array_equal(S[np.ix_(idx, idx)], np.eye(4))

    def test_random_symplectic_is_symplectic(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 4):
            S = random_symplectic(n, rng)
            omega = make_symplectic_form(n)
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-10 * np.max(np.abs(S)) ** 2


class TestRandomState:
    def test_deterministic(self):
        a = random_state(2, 42, 1.0, 2.0, 1.0)
        b = random_state(2, 42, 1.0, 2.0, 1.0)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.V, b.V)

    @pytest.mark.parametrize("seed", range(8))
    def test_always_physical(self, seed):
        s = random_state(seed % 4 + 1, seed)
        assert validate_state(s).physical

    @pytest.mark.parametrize("seed", range(6))
    def test_symplectic_spectrum_within_bounds(self, seed):
        max_thermal = 2.0
        s = random_state(3, 200 + seed, max_thermal=max_thermal)
        nu = symplectic_eigenvalues(s.V)
        assert np.all(nu >= 0.5 - 1e-10)
        assert np.all(nu <= max_thermal + 0.5 + 1e-8)

    def test_pure_flag(self):
        s = random_state(2, 9, pure=True)
        np.testing.assert_allclose(symplectic_eigenvalues(s.V), 0.5, atol=1e-9)


class TestTensor:
    def test_vacuum_tensor_vacuum(self):
        s = tensor(vacuum(1), vacuum(2))
        assert s.n == 3
        np.testing.assert_array_equal(s.V, 0.5 * np.eye(6))

    def test_block_placement(self):
        a = random_state(1, 1)
        b = random_state(2, 2)
        s = tensor(a, b)
        assert s.n == 3
        # mode 0 carries a, modes 1-2 carry b
        np.testing.assert_allclose(s.V[np.ix_([0, 3], [0, 3])], a.V)
        np.testing.assert_allclose(s.V[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])], b.V)
        assert validate_state(s).physical


class TestReorder:
    """GaussianState.from_xpxp, the one conversion from the interleaved layout."""

    def test_round_trip(self):
        s = random_state(3, 77)
        # (x1, p1, x2, p2, x3, p3) written out by hand
        order = [0, 3, 1, 4, 2, 5]
        u = np.array([s.u[i] for i in order])
        V = np.array([[s.V[i, j] for j in order] for i in order])
        back = GaussianState.from_xpxp(u, V)
        assert back == s
        assert via_xpxp(s) == s

    def test_vacuum_invariant(self):
        assert GaussianState.from_xpxp(np.zeros(4), 0.5 * np.eye(4)) == vacuum(2)

    def test_interleaving(self):
        # mode 1 vacuum, mode 2 thermal with nu = 3/2
        s = GaussianState.from_xpxp([1.0, 2.0, 3.0, 4.0], np.diag([0.5, 0.5, 1.5, 1.5]))
        np.testing.assert_array_equal(s.u, [1.0, 3.0, 2.0, 4.0])
        assert s == displace(thermal([0.0, 1.0]), [1.0, 3.0, 2.0, 4.0])

    @pytest.mark.parametrize("u, V", [
        (np.zeros(4), 0.5 * np.eye(2)),
        (np.zeros(3), 0.5 * np.eye(3)),
        (np.zeros((2, 2)), 0.5 * np.eye(4)),
        (np.zeros(0), np.zeros((0, 0))),
    ])
    def test_shape_mismatch_raises(self, u, V):
        with pytest.raises(InvalidParameter):
            GaussianState.from_xpxp(u, V)

    @pytest.mark.parametrize("seed", range(3))
    def test_fidelity_invariant_under_reordering(self, seed):
        a, b = mixed_pair(2, 300 + seed)
        assert fidelity(via_xpxp(a), via_xpxp(b)).F == fidelity(a, b).F
