"""Builders, elementary symplectics, tensor products and the xpxp boundary constructor."""

import warnings
import weakref

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
from gaussfid import states
from gaussfid.fidelity import _PURITY_TOL
from gaussfid.metrology import FAMILIES
from gaussfid.states import (
    beamsplitter_block,
    embed_symplectic,
    random_symplectic,
    rotation_block,
    squeeze_block,
    two_mode_squeeze_block,
)

from conftest import count_linalg_calls, mixed_pair, record_calls, via_xpxp


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

    def test_squeezed_vacuum_is_pure_to_working_precision(self, monkeypatch):
        # the contracted variance is e^{-2r}/2 without cancellation, so the
        # state passes the purity test and takes the root-overlap route
        for r in np.linspace(-16.0, 16.0, 65):
            assert abs(squeezed([r])._purity_invariant - 1.0) <= _PURITY_TOL, r
        calls = count_linalg_calls(monkeypatch, "eigvals")
        assert 0.0 < fidelity(squeezed([16.0]), thermal([0.3])).F < 1.0
        assert calls == []

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


class TestNonFiniteParameters:
    """Builders refuse a NaN or infinite parameter, and an overflowing result,
    with InvalidParameter."""

    @pytest.mark.parametrize("nbar", [[np.nan], [np.inf], [0.5, -np.inf]])
    def test_thermal(self, nbar):
        with pytest.raises(InvalidParameter, match="finite and >= 0"):
            thermal(nbar)

    @pytest.mark.parametrize("alpha", [[np.nan], [complex(0.0, np.inf)], [0.3, np.nan * 1j]])
    def test_coherent(self, alpha):
        with pytest.raises(InvalidParameter, match="non-finite mean vector"):
            coherent(alpha)

    @pytest.mark.parametrize("d", [[np.nan, 0.0], [0.0, -np.inf], [1e308, 0.0]])
    def test_displace(self, d):
        # the last one overflows the mean vector of an already displaced state
        with pytest.raises(InvalidParameter, match="non-finite mean vector"):
            displace(displace(vacuum(1), [1e308, 0.0]), d)

    @pytest.mark.parametrize("r, phi", [
        ([400.0], None),           # cosh(400) is finite, the covariance overflows
        ([0.2, -400.0], [0.0, 1.0]),
        ([np.nan], None),
        ([np.inf], None),
        ([0.2], [np.nan]),
        ([0.2, 0.1], [0.0, np.inf]),
    ])
    def test_squeezed(self, r, phi):
        with pytest.raises(InvalidParameter, match="non-finite or overflowing covariance"):
            squeezed(r, phi)

    @pytest.mark.parametrize("r", [400.0, -400.0, np.nan, np.inf])
    def test_two_mode_squeezed(self, r):
        with pytest.raises(InvalidParameter, match="non-finite or overflowing covariance"):
            two_mode_squeezed(r, 3, (2, 0))

    @pytest.mark.parametrize("state, S", [
        (vacuum(1), np.diag([1e200, 1e-200])),  # symplectic to the last bit; V overflows
        (GaussianState(1, [1e300, 0.0], 0.5 * np.eye(2)), np.diag([1e10, 1e-10])),
        (GaussianState(1, [np.inf, 0.0], 0.5 * np.eye(2)), np.eye(2)),
        (GaussianState(1, np.zeros(2), [[np.nan, 0.0], [0.0, 0.5]]), np.eye(2)),
    ])
    def test_apply_symplectic(self, state, S):
        with pytest.raises(InvalidParameter, match="conjugation: non-finite or overflowing"):
            apply_symplectic(state, S)

    @pytest.mark.parametrize("n, kwargs", [
        (2, {"max_squeeze": 400.0}),
        (1, {"max_squeeze": 400.0, "pure": True}),
        (2, {"max_thermal": 8e307}),
    ])
    def test_random_state_that_overflows(self, n, kwargs):
        with pytest.raises(InvalidParameter, match="overflowing covariance or mean vector"):
            random_state(n, 1, **kwargs)

    @pytest.mark.parametrize("bound", ["max_squeeze", "max_thermal", "max_disp"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf, 1e308])
    def test_random_state_bounds(self, bound, value):
        # 1e308 is finite, but the width of its draw, 2e308, is not
        with pytest.raises(InvalidParameter, match="sampling bounds"):
            random_state(2, 1, **{bound: value})

    @pytest.mark.parametrize("build", [
        lambda: vacuum(2.0),
        lambda: two_mode_squeezed(0.3, 2.0),
        lambda: random_state(2.0, 1),
        lambda: random_symplectic(2.0, np.random.default_rng(1)),
        lambda: embed_symplectic(np.eye(2), [0], 2.0),
    ], ids=["vacuum", "two_mode_squeezed", "random_state", "random_symplectic",
            "embed_symplectic"])
    def test_non_integral_mode_count(self, build):
        # each raised an untyped TypeError from numpy
        with pytest.raises(InvalidParameter, match="mode count must be an integer, got 2.0"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: embed_symplectic(np.eye(2), [0.0], 2),
        lambda: two_mode_squeezed(0.3, 2, (0.0, 1.0)),
    ], ids=["embed_symplectic", "two_mode_squeezed"])
    def test_non_integral_mode_index(self, build):
        # each raised numpy's IndexError
        with pytest.raises(InvalidParameter, match="mode indices must be integers"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: thermal([[0.1, 0.2]]), "thermal occupations must be 1-D, got shape \\(1, 2\\)"),
        (lambda: coherent([[0.1j]]), "coherent amplitudes must be 1-D, got shape \\(1, 1\\)"),
    ], ids=["thermal", "coherent"])
    def test_occupations_and_amplitudes_must_be_1d(self, build, message):
        # thermal's refusal named a covariance of shape (2,), coherent's a displacement
        with pytest.raises(InvalidParameter, match=message):
            build()

    @pytest.mark.parametrize("build", [
        lambda: squeezed([800.0]),                         # exp, sinh, multiply
        lambda: squeezed([400.0], [1.0]),                  # the product
        lambda: random_state(1, 1, max_squeeze=800.0),     # the product
        lambda: two_mode_squeezed(800.0),                  # cosh, sinh, the product
        lambda: apply_symplectic(vacuum(1), np.diag([1e200, 1e-200])),
        lambda: apply_symplectic(vacuum(1), np.full((2, 2), 1e300)),  # S Omega S^T
        lambda: displace(displace(vacuum(1), [1e308, 0.0]), [1e308, 0.0]),
        lambda: coherent([1.3e308]),
    ], ids=["squeezed", "squeezed-phi", "random_state", "two_mode_squeezed",
            "apply_symplectic", "apply_symplectic-check", "displace", "coherent"])
    def test_overflow_refused_without_a_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                build()

    @pytest.mark.parametrize("seed, message", [(1.5, "seed must be an integer, got 1.5"),
                                               (-1, "seed must be >= 0, got -1")])
    def test_random_state_seed(self, seed, message):
        with pytest.raises(InvalidParameter, match=message):
            random_state(2, seed)

    def test_integer_types_give_the_same_state(self):
        assert random_state(np.int64(2), np.int64(1)) == random_state(2, 1)
        assert vacuum(np.int32(2)) == vacuum(2) and type(vacuum(np.int32(2)).n) is int

    def test_large_finite_parameters_are_kept(self):
        assert np.isfinite(squeezed([300.0]).V).all()
        assert apply_symplectic(vacuum(1), np.diag([1e150, 1e-150])).V[0, 0] > 1e299
        assert np.isfinite(random_state(2, 1, max_thermal=1e300, max_disp=8e307).V).all()
        assert displace(vacuum(1), [1e308, -1e308]).u[1] == -1e308
        assert thermal([1e300]).V[0, 0] == 1e300


# ---------------------------------------------------------------------------
# bit-identity with the composition the builders replaced
# ---------------------------------------------------------------------------

def _product_embed(block, modes, n):
    """embed_symplectic as it was: np.ix_ assignment into an identity."""
    modes = list(modes)
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n for m in modes):
        raise InvalidParameter(f"invalid mode indices {modes} for n = {n}")
    k = len(modes)
    if block.shape != (2 * k, 2 * k):
        raise InvalidParameter("block shape does not match number of modes")
    idx = np.array(modes + [m + n for m in modes])
    out = np.eye(2 * n)
    out[np.ix_(idx, idx)] = block
    return out


def _product_apply(state, S):
    """apply_symplectic as it was."""
    S = np.asarray(S, dtype=float)
    if S.shape != (2 * state.n,) * 2:
        raise InvalidParameter("symplectic matrix shape does not match the state")
    omega = make_symplectic_form(state.n)
    if not np.max(np.abs(S @ omega @ S.T - omega)) <= 1e-8 * max(1.0, np.max(np.abs(S)) ** 2):
        raise InvalidParameter("matrix is not symplectic (S Omega S^T != Omega)")
    return GaussianState(state.n, S @ state.u, S @ state.V @ S.T)


def _product_squeezed(r, phi=None):
    """squeezed as it was: vacuum, a chain of embedded products, then the check."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    phi = np.zeros_like(r) if phi is None else np.atleast_1d(np.asarray(phi, dtype=float))
    if phi.shape != r.shape:
        raise InvalidParameter("r and phi must have matching lengths")
    n = len(r)
    state = vacuum(n)
    S = np.eye(2 * n)
    for k in range(n):
        S = _product_embed(squeeze_block(r[k], phi[k]), [k], n) @ S
    return _product_apply(state, S)


def _product_random_symplectic(n, rng, max_squeeze=1.0):
    """random_symplectic as it was: a chain of products of _product_embed gates."""
    S = np.eye(2 * n)
    for _ in range(2):
        for k in range(n):
            S = _product_embed(rotation_block(rng.uniform(0, 2 * np.pi)), [k], n) @ S
            S = _product_embed(squeeze_block(rng.uniform(-max_squeeze, max_squeeze),
                                             rng.uniform(0, 2 * np.pi)), [k], n) @ S
        for k in range(n - 1):
            S = _product_embed(beamsplitter_block(rng.uniform(0, 2 * np.pi),
                                                  rng.uniform(0, 2 * np.pi)), [k, k + 1], n) @ S
    return S


def _product_random_state(n, seed, max_squeeze=1.0, max_thermal=2.0, max_disp=1.0,
                          pure=False):
    """random_state as it was: the thermal core through _product_apply, then a shift."""
    rng = np.random.default_rng(seed)
    nbar = np.zeros(n) if pure else rng.uniform(0.0, max_thermal, n)
    state = GaussianState(n, np.zeros(2 * n), np.diag(np.concatenate([nbar + 0.5] * 2)))
    state = _product_apply(state, _product_random_symplectic(n, rng, max_squeeze))
    d = rng.uniform(-max_disp, max_disp, 2 * n)
    return GaussianState(n, state.u + d, state.V)


def _product_thermal(nbar):
    """thermal as it was: a diagonal from the concatenated occupations."""
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    return GaussianState(len(nbar), np.zeros(2 * len(nbar)),
                         np.diag(np.concatenate([nbar, nbar]) + 0.5))


def _product_displace(state, d):
    """displace as it was: the numpy sum of the means."""
    return GaussianState(state.n, state.u + np.asarray(d, dtype=float), state.V)


def _product_coherent(alpha):
    """coherent as it was: the vacuum, then its displacement."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    n = len(alpha)
    return _product_displace(GaussianState(n, np.zeros(2 * n), 0.5 * np.eye(2 * n)),
                             np.sqrt(2.0) * np.concatenate([alpha.real, alpha.imag]))


_PRODUCT_FAMILIES = {
    "coherent-displacement": lambda t: GaussianState(1, np.array([t, 0.0]), 0.5 * np.eye(2)),
    "thermal-nbar": lambda t: GaussianState(1, np.zeros(2), np.diag([t + 0.5] * 2)),
    "squeeze-r": lambda t: _product_squeezed([t]),
    "phase-theta": lambda t: _product_apply(_product_squeezed([1.0]),
                                            _product_embed(rotation_block(t), [0], 1)),
}


def _assert_same(state, expected):
    assert state.n == expected.n
    assert np.array_equal(state.u, expected.u)
    assert np.array_equal(state.V, expected.V)


#: mode counts of the bit-identity grid: the 1-4 modes the builders serve
#: most, and sizes where BLAS blocks the products differently
_GRID = [1, 2, 3, 4, 8, 16, 64]


class TestBitIdentity:
    """The builders give the arrays of the composition they replaced, bit for
    bit (np.array_equal), and refuse what it refused with the same type."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("with_phi", [False, True])
    def test_squeezed(self, n, with_phi):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            r = rng.uniform(-3.0, 3.0, n)
            phi = rng.uniform(0.0, 2 * np.pi, n) if with_phi else None
            _assert_same(squeezed(r, phi), _product_squeezed(r, phi))

    @pytest.mark.parametrize("r", [0.0, 0.4, -1.3, 5.0])
    @pytest.mark.parametrize("n, modes", [(2, (0, 1)), (3, (2, 0)), (5, (1, 4)),
                                          (16, (3, 12)), (64, (63, 0))])
    def test_two_mode_squeezed_and_embedding(self, r, n, modes):
        block = two_mode_squeeze_block(r)
        assert np.array_equal(embed_symplectic(block, modes, n),
                              _product_embed(block, modes, n))
        _assert_same(two_mode_squeezed(r, n, modes),
                     _product_apply(vacuum(n), _product_embed(block, modes, n)))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_embedding_of_random_blocks(self, n):
        rng = np.random.default_rng(7 * n)
        for k in range(n):
            block = rng.normal(size=(2, 2))
            assert np.array_equal(embed_symplectic(block, [k], n), _product_embed(block, [k], n))
        if n > 1:
            block = rng.normal(size=(4, 4))
            assert np.array_equal(embed_symplectic(block, [n - 1, 0], n),
                                  _product_embed(block, [n - 1, 0], n))

    @pytest.mark.parametrize("n", _GRID)
    def test_vacuum_core_on_dense_symplectics(self, n):
        # a squeezer's S has two entries per row, which sum alike in every
        # order; a dense S tells (S/2) S^T apart from numpy's SYRK for S S^T
        for seed in range(5):
            S = random_symplectic(n, np.random.default_rng(900 + seed))
            _assert_same(states._through(S),
                         GaussianState(n, np.zeros(2 * n), S @ (0.5 * np.eye(2 * n)) @ S.T))

    @pytest.mark.parametrize("n", _GRID)
    def test_vacuum_thermal_coherent(self, n):
        rng = np.random.default_rng(300 + n)
        _assert_same(vacuum(n), GaussianState(n, np.zeros(2 * n), 0.5 * np.eye(2 * n)))
        for scale in (0.0, 1e-3, 1.0, 1e6):
            nbar = scale * rng.uniform(0.0, 2.0, n)
            _assert_same(thermal(nbar), _product_thermal(nbar))
            alpha = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            _assert_same(coherent(alpha), _product_coherent(alpha))

    @pytest.mark.parametrize("n", _GRID)
    def test_displace_and_apply_symplectic(self, n):
        # apply_symplectic on random symplectics of every squeezing range
        for seed, max_squeeze in enumerate((0.0, 0.5, 1.0, 4.0), start=20 * n):
            state = random_state(n, seed, max_squeeze=max_squeeze)
            rng = np.random.default_rng(seed)
            S = random_symplectic(n, rng, max_squeeze)
            _assert_same(apply_symplectic(state, S), _product_apply(state, S))
            d = rng.uniform(-2.0, 2.0, 2 * n)
            _assert_same(displace(state, d), _product_displace(state, d))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families(self, name):
        for theta in (0.0, 0.3, 0.95, 1.7, 2.6):
            _assert_same(FAMILIES[name](theta), _PRODUCT_FAMILIES[name](theta))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 32, 64])
    def test_random_state(self, n):
        # the row-wise gates against the chain of embedded products
        for seed, max_squeeze in enumerate((0.0, 1.0, 4.0, 8.0), start=10 * n):
            assert np.array_equal(
                random_symplectic(n, np.random.default_rng(seed), max_squeeze),
                _product_random_symplectic(n, np.random.default_rng(seed), max_squeeze))
            for pure in (False, True):
                kwargs = {"max_squeeze": max_squeeze, "pure": pure}
                _assert_same(random_state(n, seed, **kwargs),
                             _product_random_state(n, seed, **kwargs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("r, phi", [
        ([], None),
        ([[0.1, 0.2]], None),
        ([0.1, 0.2], [0.3]),
        ([0.1], [[0.3]]),
        ([np.nan], None),
        ([np.inf], None),
        ([-np.inf, 0.2], None),
        ([0.2], [np.nan]),
        ([0.2], [np.inf]),
        (["x"], None),
    ])
    def test_squeezed_refuses_what_the_product_refused(self, r, phi):
        with pytest.raises(Exception) as old:
            _product_squeezed(r, phi)
        with pytest.raises(Exception) as new:
            squeezed(r, phi)
        assert new.type is old.type

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("r, n, modes", [
        (np.nan, 2, (0, 1)),
        (-np.inf, 2, (0, 1)),
        (0.3, 2, (0, 0)),
        (0.3, 2, (0, 2)),
        (0.3, 1, (0, 1)),
        (0.3, 3, (0,)),
    ])
    def test_two_mode_squeezed_refuses_what_the_product_refused(self, r, n, modes):
        with pytest.raises(InvalidParameter):
            _product_apply(vacuum(n), _product_embed(two_mode_squeeze_block(r), modes, n))
        with pytest.raises(InvalidParameter):
            two_mode_squeezed(r, n, modes)

    @pytest.mark.parametrize("block, modes, n", [
        (np.eye(2), [0, 0], 2),
        (np.eye(2), [2], 2),
        (np.eye(2), [-1], 2),
        (np.eye(4), [0], 2),
        (np.eye(2), [0, 1], 2),
    ])
    def test_embedding_refuses_what_the_product_refused(self, block, modes, n):
        with pytest.raises(InvalidParameter):
            _product_embed(block, modes, n)
        with pytest.raises(InvalidParameter):
            embed_symplectic(block, modes, n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("S", [
        2.0 * np.eye(2),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 0.0]]),
        np.eye(4),
    ])
    def test_apply_symplectic_refuses_what_the_product_refused(self, S):
        with pytest.raises(InvalidParameter):
            _product_apply(vacuum(1), S)
        with pytest.raises(InvalidParameter):
            apply_symplectic(vacuum(1), S)


class TestConstructionBudget:
    """Each builder makes the states its result needs and no embedded products."""

    def test_squeezed_places_its_blocks(self, monkeypatch):
        embeds = record_calls(monkeypatch, states, "embed_symplectic")
        applies = record_calls(monkeypatch, states, "apply_symplectic")
        built = record_calls(monkeypatch, GaussianState, "__post_init__")
        squeezed([0.3, -0.2, 1.1], [0.1, 0.0, 2.0])
        assert (embeds, applies, len(built)) == ([], [], 1)

    def test_random_symplectic_places_its_gates(self, monkeypatch):
        embeds = record_calls(monkeypatch, states, "embed_symplectic")
        random_symplectic(5, np.random.default_rng(3))
        assert embeds == []

    @pytest.mark.parametrize("pure", [False, True])
    def test_random_state_builds_one_state(self, pure, monkeypatch):
        calls = [record_calls(monkeypatch, states, name)
                 for name in ("embed_symplectic", "apply_symplectic", "thermal", "displace")]
        built = record_calls(monkeypatch, GaussianState, "__post_init__")
        random_state(5, 3, pure=pure)
        assert (calls, len(built)) == ([[]] * 4, 1)

    def test_random_state_frees_its_symplectic_before_the_copy(self, monkeypatch):
        # the one state copies V after S is freed, so that at n = 64 the copy
        # takes the lowest free block and S's block rejoins the free top
        made, freed = [], []
        sample, post_init = states.random_symplectic, GaussianState.__post_init__

        def sampling(*args):
            S = sample(*args)
            made.append(weakref.ref(S))
            return S

        def building(state):
            freed.append(made[0]() is None)
            post_init(state)

        monkeypatch.setattr(states, "random_symplectic", sampling)
        monkeypatch.setattr(GaussianState, "__post_init__", building)
        random_state(8, 5)
        assert freed == [True]

    def test_tms_displace_path(self, monkeypatch):
        # the benchmark's two-parameter family: a two-mode squeezer embedded on
        # modes (0, 1), the base state conjugated by it, then shifted along x1.
        # Two states per call, and no identity built per call
        base = random_state(3, 11, max_squeeze=0.5)
        shift = np.zeros(6)
        shift[0] = 0.2

        def family():
            S = states.embed_symplectic(states.two_mode_squeeze_block(0.3), [0, 1], base.n)
            return states.displace(states.apply_symplectic(base, S), shift)

        expected = family()
        calls = [record_calls(monkeypatch, states, name)
                 for name in ("embed_symplectic", "apply_symplectic", "displace")]
        built = record_calls(monkeypatch, GaussianState, "__post_init__")
        eyes = record_calls(monkeypatch, np, "eye")
        _assert_same(family(), expected)
        assert [len(c) for c in calls] == [1, 1, 1]
        assert (len(built), eyes) == (2, [])

    #: GaussianState constructions per family call
    FAMILY_STATES = {
        "coherent-displacement": 2,  # the vacuum, then its displacement
        "thermal-nbar": 1,
        "squeeze-r": 1,
        "phase-theta": 2,            # the squeezed vacuum, then its rotation
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_states(self, name, monkeypatch):
        built = record_calls(monkeypatch, GaussianState, "__post_init__")
        FAMILIES[name](0.7)
        assert len(built) == self.FAMILY_STATES[name]
