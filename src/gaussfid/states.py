"""State builders, elementary symplectic transformations and random sampling.

All builders return states in the canonical xxpp layout with vacuum = I/2 and
coherent amplitude alpha mapped to the mean (sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import GaussianState, make_symplectic_form
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
    modes = list(modes)
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
    if n < 1:
        raise InvalidParameter("mode count must be >= 1")
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


def _vacuum_through(S: np.ndarray, **params) -> GaussianState:
    """The vacuum conjugated by an S that is symplectic by construction."""
    V = S @ (0.5 * np.eye(len(S))) @ S.T
    if not np.isfinite(V).all():
        raise InvalidParameter(f"{params}: non-finite or overflowing covariance")
    return GaussianState(len(S) // 2, np.zeros(len(S)), V)


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
    return _vacuum_through(S, r=r, phi=phi)


def two_mode_squeezed(r: float, n: int = 2, modes: Sequence[int] = (0, 1)) -> GaussianState:
    """Two-mode squeezed vacuum on the given mode pair of an n-mode register."""
    return _vacuum_through(embed_symplectic(two_mode_squeeze_block(r), list(modes), n), r=r)


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
    """Conjugate the state by a symplectic matrix: u -> S u, V -> S V S^T."""
    S = np.asarray(S, dtype=float)
    if S.shape != (2 * state.n,) * 2:
        raise InvalidParameter("symplectic matrix shape does not match the state")
    omega = make_symplectic_form(state.n)
    St = S.T
    if not np.abs(S @ omega @ St - omega).max() <= 1e-8 * max(1.0, np.abs(S).max() ** 2):
        raise InvalidParameter("matrix is not symplectic (S Omega S^T != Omega)")
    return GaussianState(state.n, S @ state.u, S @ state.V @ St)


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
    """Random symplectic from two layers of rotations, squeezers and beam splitters."""
    S = np.eye(2 * n)
    for _ in range(2):
        for k in range(n):
            S = embed_symplectic(rotation_block(rng.uniform(0, 2 * np.pi)), [k], n) @ S
            S = embed_symplectic(
                squeeze_block(rng.uniform(-max_squeeze, max_squeeze),
                              rng.uniform(0, 2 * np.pi)), [k], n) @ S
        for k in range(n - 1):
            S = embed_symplectic(
                beamsplitter_block(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
                [k, k + 1], n) @ S
    return S


def random_state(n: int, seed: int, max_squeeze: float = 1.0, max_thermal: float = 2.0,
                 max_disp: float = 1.0, pure: bool = False) -> GaussianState:
    """Deterministic random physical state.

    A thermal Williamson core with occupations uniform in [0, max_thermal]
    (exact vacuum when ``pure``) is conjugated by a random circuit of
    rotations, squeezers and beam splitters, then randomly displaced.  The
    symplectic spectrum therefore lies in [1/2, max_thermal + 1/2].  The
    seed must be a non-negative integer and the bounds finite and >= 0.
    """
    if seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")
    if not all(0 <= bound < np.inf for bound in (max_squeeze, max_thermal, max_disp)):
        raise InvalidParameter("sampling bounds must be finite and non-negative, got "
                               f"{max_squeeze}, {max_thermal}, {max_disp}")
    rng = np.random.default_rng(seed)
    nbar = np.zeros(n) if pure else rng.uniform(0.0, max_thermal, n)
    state = apply_symplectic(thermal(nbar), random_symplectic(n, rng, max_squeeze))
    return displace(state, rng.uniform(-max_disp, max_disp, 2 * n))
