"""State builders, elementary symplectic transformations and random sampling.

All builders return states in the canonical xxpp layout with vacuum = I/2 and
coherent amplitude alpha mapped to the mean (sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import GaussianState, check_count, make_symplectic_form
from .errors import InvalidParameter

# ---------------------------------------------------------------------------
# elementary symplectic blocks (single mode in (x, p), pairs in (x1, x2, p1, p2))
# ---------------------------------------------------------------------------


def rotation_block(phi: float) -> np.ndarray:
    """Phase rotation exp(-i phi a'a): x -> x cos + p sin, p -> p cos - x sin."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeeze_block(r: float, phi: float = 0.0) -> np.ndarray:
    """Single-mode squeezer exp[(xi* a^2 - xi a'^2)/2], xi = r e^{i phi}.

    For phi = 0 this contracts x by e^{-r} and stretches p by e^{r}.  The
    diagonal cosh r -+ sinh r cos phi is summed as e^{-+r} cos^2(phi/2) +
    e^{+-r} sin^2(phi/2), positive terms that cannot cancel at large r.
    """
    down, up = np.exp(-r), np.exp(r)
    c2, s2 = np.cos(0.5 * phi) ** 2, np.sin(0.5 * phi) ** 2
    off = -np.sinh(r) * np.sin(phi)
    return np.array([[down * c2 + up * s2, off], [off, up * c2 + down * s2]])


def beamsplitter_block(theta: float, phi: float = 0.0) -> np.ndarray:
    """Two-mode beam splitter exp[theta (e^{i phi} a1'a2 - h.c.)] in (x1,x2,p1,p2)."""
    ct, st = np.cos(theta), np.sin(theta)
    c, s = np.cos(phi), np.sin(phi)
    return np.array([
        [ct, st * c, 0.0, -st * s],
        [-st * c, ct, -st * s, 0.0],
        [0.0, st * s, ct, st * c],
        [st * s, 0.0, -st * c, ct],
    ])


def two_mode_squeeze_block(r: float) -> np.ndarray:
    """Two-mode squeezer in (x1,x2,p1,p2): x's correlate, p's anticorrelate."""
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array([
        [ch, sh, 0.0, 0.0],
        [sh, ch, 0.0, 0.0],
        [0.0, 0.0, ch, -sh],
        [0.0, 0.0, -sh, ch],
    ])


def embed_symplectic(block: np.ndarray, modes: Sequence[int], n: int) -> np.ndarray:
    """Embed a block acting on ``modes`` into an identity 2n x 2n xxpp matrix.

    The block must use the sub-layout (x_{m1}..x_{mk}, p_{m1}..p_{mk}).
    """
    modes, n = list(modes), check_count(n)
    if len(set(modes)) != len(modes) or any(not 0 <= m < n for m in modes):
        raise InvalidParameter(f"invalid mode indices {modes} for n = {n}")
    if block.shape != (2 * len(modes),) * 2:
        raise InvalidParameter("block shape does not match number of modes")
    idx = np.array(modes + [m + n for m in modes])
    out = np.eye(2 * n)
    out[idx[:, None], idx] = block
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def vacuum(n: int) -> GaussianState:
    n = check_count(n)
    return GaussianState(n, np.zeros(2 * n), 0.5 * np.eye(2 * n))


def thermal(nbar: Sequence[float]) -> GaussianState:
    """Thermal state with mean occupation nbar_k per mode; V = diag(nbar + 1/2)."""
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    if not ((nbar >= 0) & (nbar < np.inf)).all():
        raise InvalidParameter(f"thermal occupations must be finite and >= 0, got {nbar}")
    v = np.concatenate([nbar, nbar]) + 0.5
    return GaussianState(len(nbar), np.zeros(2 * len(nbar)), np.diag(v))


def coherent(alpha: Sequence[complex]) -> GaussianState:
    """Coherent state |alpha_1 .. alpha_n>: vacuum CM, mean sqrt(2)(Re a, Im a)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    return displace(vacuum(len(alpha)), np.sqrt(2.0) * np.concatenate([alpha.real, alpha.imag]))


def _through(S: np.ndarray, core=None, u=None, **params) -> GaussianState:
    """The state (u, S core S^T) for a symplectic S; by default u = 0, core = I/2."""
    V = S @ (0.5 * np.eye(len(S)) if core is None else core) @ S.T
    del S, core  # so that the state's copy of V takes the lowest free block
    if not (np.isfinite(V).all() and (u is None or np.isfinite(u).all())):
        raise InvalidParameter(
            f"{params or 'conjugation'}: non-finite or overflowing covariance or mean vector")
    return GaussianState(len(V) // 2, np.zeros(len(V)) if u is None else u, V)


def squeezed(r: Sequence[float], phi: Sequence[float] | None = None) -> GaussianState:
    """Product of single-mode squeezed vacua with parameters (r_k, phi_k)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    phi = np.zeros_like(r) if phi is None else np.atleast_1d(np.asarray(phi, dtype=float))
    n = len(r)
    if r.ndim != 1 or phi.shape != r.shape or n < 1:
        raise InvalidParameter("r and phi must be non-empty 1-D of matching lengths")
    S = np.eye(2 * n)
    for k in range(n):  # squeezer k acts on rows and columns k, k + n alone
        S[k::n, k::n] = squeeze_block(r[k], phi[k])
    return _through(S, r=r, phi=phi)


def two_mode_squeezed(r: float, n: int = 2, modes: Sequence[int] = (0, 1)) -> GaussianState:
    """Two-mode squeezed vacuum on the given mode pair of an n-mode register."""
    return _through(embed_symplectic(two_mode_squeeze_block(r), list(modes), n), r=r)


def displace(state: GaussianState, d: Sequence[float]) -> GaussianState:
    """Shift the mean vector by d."""
    d = np.asarray(d, dtype=float)
    if d.shape != state.u.shape:
        raise InvalidParameter("displacement length does not match the state")
    u = state.u + d
    if not np.isfinite(u).all():
        raise InvalidParameter(f"displacement {d}: non-finite mean vector")
    return GaussianState(state.n, u, state.V)


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Conjugate the state by a symplectic S: u -> S u, V -> S V S^T, refusing overflow."""
    S = np.asarray(S, dtype=float)
    if S.shape != (2 * state.n,) * 2:
        raise InvalidParameter("symplectic matrix shape does not match the state")
    omega = make_symplectic_form(state.n)
    resid = np.abs(S @ omega @ S.T - omega).max()  # within 1e-8 * max(1, max|S|^2)
    if not (resid <= 1e-8 or resid <= 1e-8 * np.abs(S).max() ** 2):
        raise InvalidParameter("matrix is not symplectic (S Omega S^T != Omega)")
    return _through(S, state.V, S @ state.u)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of two states, realized as a direct sum of moments."""
    n = a.n + b.n
    u, V = np.zeros(2 * n), np.zeros((2 * n, 2 * n))
    for s, first in ((a, 0), (b, a.n)):
        idx = np.r_[first:first + s.n, n + first:n + first + s.n]
        u[idx] = s.u
        V[idx[:, None], idx] = s.V
    return GaussianState(n, u, V)


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def random_symplectic(n: int, rng: np.random.Generator,
                      max_squeeze: float = 1.0) -> np.ndarray:
    """Random symplectic from two layers of rotations, squeezers and beam splitters,
    each gate applied to its own rows of S: bit for bit their embedded product."""
    n = check_count(n)
    S, tau = np.eye(2 * n), 2 * np.pi
    for _ in range(2):
        for k in range(n):
            S[k::n] = rotation_block(rng.uniform(0, tau)) @ S[k::n]
            S[k::n] = squeeze_block(rng.uniform(-max_squeeze, max_squeeze),
                                    rng.uniform(0, tau)) @ S[k::n]
        for k in range(n - 1):
            idx = [k, k + 1, k + n, k + 1 + n]
            S[idx] = beamsplitter_block(rng.uniform(0, tau), rng.uniform(0, tau)) @ S[idx]
    return S


def random_state(n: int, seed: int, max_squeeze: float = 1.0, max_thermal: float = 2.0,
                 max_disp: float = 1.0, pure: bool = False) -> GaussianState:
    """Deterministic random physical state: a thermal Williamson core, occupations
    uniform in [0, max_thermal] (vacuum when ``pure``), conjugated by
    :func:`random_symplectic` and displaced; its symplectic spectrum lies in
    [1/2, max_thermal + 1/2].  The seed must be an integer >= 0, and each bound
    >= 0 with a finite width 2 * bound; overflow is refused with
    :class:`InvalidParameter`."""
    n, seed = check_count(n), check_count(seed, "seed", least=0)
    bounds = (max_squeeze, max_thermal, max_disp)
    if not all(0 <= 2 * bound < np.inf for bound in bounds):
        raise InvalidParameter(f"sampling bounds {bounds} must be >= 0, "
                               "each with a finite width 2 * bound")
    rng = np.random.default_rng(seed)
    nbar = np.zeros(n) if pure else rng.uniform(0.0, max_thermal, n)
    # the arguments draw in order: the circuit, then the shift
    return _through(random_symplectic(n, rng, max_squeeze),
                    np.diag(np.concatenate([nbar, nbar]) + 0.5),
                    rng.uniform(-max_disp, max_disp, 2 * n), seed=seed, max_squeeze=max_squeeze)
