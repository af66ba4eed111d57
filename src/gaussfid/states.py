"""State builders, elementary symplectic transformations and random sampling.

All builders return states in the canonical xxpp layout with vacuum = I/2 and
coherent amplitude alpha mapped to the mean (sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .core import GaussianState, check_count, make_symplectic_form
from .errors import InvalidParameter

#: numpy's overflow and invalid-value reports are silenced where a builder
#: refuses the non-finite result itself, so that a refusal comes without a warning
_QUIET = {"over": "ignore", "invalid": "ignore"}


@functools.lru_cache(maxsize=64)
def _scaled_identity(n: int, scale: float) -> np.ndarray:
    """scale * I of size 2n, cached and read-only per (n, scale): a template
    that the builders copy in place of an ``np.eye`` per call."""
    out = scale * np.eye(2 * n)
    out.setflags(write=False)
    return out


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, in one pass after ``isfinite``."""
    return np.count_nonzero(np.isfinite(a)) == a.size


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
    return np.array([ch, sh, 0.0, 0.0,
                     sh, ch, 0.0, 0.0,
                     0.0, 0.0, ch, -sh,
                     0.0, 0.0, -sh, ch]).reshape(4, 4)


@functools.lru_cache(maxsize=256)
def _embedding(modes: tuple[int, ...], n: int) -> np.ndarray:
    """The flat indices, in C order, of the rows and columns of ``modes`` in a
    2n x 2n xxpp matrix; read-only and cached per (modes, n), which are
    integers.  Repeated or out-of-range modes are refused."""
    if len(set(modes)) != len(modes) or any(not 0 <= m < n for m in modes):
        raise InvalidParameter(f"invalid mode indices {list(modes)} for n = {n}")
    idx = np.array(modes + tuple(m + n for m in modes))
    flat = (2 * n * idx[:, None] + idx).ravel()
    flat.setflags(write=False)
    return flat


def embed_symplectic(block: np.ndarray, modes: Sequence[int], n: int) -> np.ndarray:
    """Embed a block acting on ``modes`` into an identity 2n x 2n xxpp matrix.

    The block must use the sub-layout (x_{m1}..x_{mk}, p_{m1}..p_{mk}).  A mode
    index that is not an integer, repeated or out of range is refused with
    :class:`InvalidParameter`.
    """
    n = check_count(n)
    try:
        modes = tuple(map(operator.index, modes))
    except TypeError:
        raise InvalidParameter(f"mode indices must be integers, got {modes!r}") from None
    flat = _embedding(modes, n)
    if block.shape != (2 * len(modes),) * 2:
        raise InvalidParameter("block shape does not match number of modes")
    out = _scaled_identity(n, 1.0).copy()
    out.put(flat, block)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def vacuum(n: int) -> GaussianState:
    n = check_count(n)
    return GaussianState(n, np.zeros(2 * n), _scaled_identity(n, 0.5))


def thermal(nbar: Sequence[float]) -> GaussianState:
    """Thermal state with mean occupation nbar_k per mode; V = diag(nbar + 1/2).

    ``nbar`` is a number or a 1-D sequence of finite occupations >= 0; anything
    else is refused with :class:`InvalidParameter`.
    """
    nbar = np.array(nbar, dtype=float, ndmin=1)
    if nbar.ndim != 1:
        raise InvalidParameter(f"thermal occupations must be 1-D, got shape {nbar.shape}")
    occupations = nbar.tolist()
    if not all(0.0 <= x < math.inf for x in occupations):  # a NaN fails the test
        raise InvalidParameter(f"thermal occupations must be finite and >= 0, got {nbar}")
    n = len(occupations)
    V = np.zeros((2 * n, 2 * n))
    for k, x in enumerate(occupations):
        V[k, k] = V[k + n, k + n] = x + 0.5
    return GaussianState(n, np.zeros(2 * n), V)


def coherent(alpha: Sequence[complex]) -> GaussianState:
    """Coherent state |alpha_1 .. alpha_n>: vacuum CM, mean sqrt(2)(Re a, Im a).

    ``alpha`` is a number or a 1-D sequence; anything else, and a mean vector
    that is not finite, is refused with :class:`InvalidParameter`.
    """
    alpha = np.array(alpha, dtype=complex, ndmin=1)
    if alpha.ndim != 1:
        raise InvalidParameter(f"coherent amplitudes must be 1-D, got shape {alpha.shape}")
    n = check_count(len(alpha))
    with np.errstate(**_QUIET):
        u = np.sqrt(2.0) * np.concatenate([alpha.real, alpha.imag])
    if not _finite(u):
        raise InvalidParameter(f"displacement {u}: non-finite mean vector")
    return GaussianState(n, u, _scaled_identity(n, 0.5))


def _through(S: np.ndarray, core=None, u=None, **params) -> GaussianState:
    """The state (u, S core S^T) for a symplectic S; by default u = 0 and
    core = I/2, whose product is formed as (S/2) S^T.  The callers silence
    numpy's overflow reports (:data:`_QUIET`): a non-finite entry is refused
    here with :class:`InvalidParameter`.

    ``ndarray.dot`` makes the BLAS call ``@`` makes, with less overhead.  Each
    product pairs two distinct arrays: numpy hands ``S.dot(S.T)`` to SYRK,
    which rounds differently from S (I/2) S^T."""
    V = (0.5 * S).dot(S.T) if core is None else S.dot(core).dot(S.T)
    del S, core  # so that the state's copy of V takes the lowest free block
    if not (_finite(V) and (u is None or _finite(u))):
        raise InvalidParameter(
            f"{params or 'conjugation'}: non-finite or overflowing covariance or mean vector")
    return GaussianState(len(V) // 2, np.zeros(len(V)) if u is None else u, V)


def squeezed(r: Sequence[float], phi: Sequence[float] | None = None) -> GaussianState:
    """Product of single-mode squeezed vacua with parameters (r_k, phi_k)."""
    r = np.array(r, dtype=float, ndmin=1)
    phi = np.zeros(r.shape) if phi is None else np.array(phi, dtype=float, ndmin=1)
    n = len(r)
    if r.ndim != 1 or phi.shape != r.shape or n < 1:
        raise InvalidParameter("r and phi must be non-empty 1-D of matching lengths")
    S = np.zeros((2 * n, 2 * n))
    with np.errstate(**_QUIET):
        for k in range(n):  # squeezer k acts on rows and columns k, k + n alone
            S[k::n, k::n] = squeeze_block(r[k], phi[k])
        return _through(S, r=r, phi=phi)


def two_mode_squeezed(r: float, n: int = 2, modes: Sequence[int] = (0, 1)) -> GaussianState:
    """Two-mode squeezed vacuum on the given mode pair of an n-mode register."""
    with np.errstate(**_QUIET):
        return _through(embed_symplectic(two_mode_squeeze_block(r), modes, n), r=r)


def displace(state: GaussianState, d: Sequence[float]) -> GaussianState:
    """Shift the mean vector by d, refusing a mean that is not finite."""
    d = np.asarray(d, dtype=float)
    if d.shape != state.u.shape:
        raise InvalidParameter("displacement length does not match the state")
    # summed as Python floats, which overflow to inf without a numpy warning
    u = [a + b for a, b in zip(state.u.tolist(), d.tolist())]
    if not all(map(math.isfinite, u)):
        raise InvalidParameter(f"displacement {d}: non-finite mean vector")
    return GaussianState(state.n, u, state.V)


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Conjugate the state by a symplectic S: u -> S u, V -> S V S^T, refusing overflow."""
    S = np.asarray(S, dtype=float)
    if S.shape != (2 * state.n,) * 2:
        raise InvalidParameter("symplectic matrix shape does not match the state")
    omega = make_symplectic_form(state.n)
    with np.errstate(**_QUIET):
        resid = S.dot(omega).dot(S.T)
        resid -= omega
        resid = np.abs(resid, out=resid).max()  # within 1e-8 * max(1, max|S|^2)
        if not (resid <= 1e-8 or resid <= 1e-8 * np.abs(S).max() ** 2):
            raise InvalidParameter("matrix is not symplectic (S Omega S^T != Omega)")
        return _through(S, state.V, S.dot(state.u))


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
    with np.errstate(**_QUIET):
        return _through(random_symplectic(n, rng, max_squeeze),
                        np.diag(np.concatenate([nbar, nbar]) + 0.5),
                        rng.uniform(-max_disp, max_disp, 2 * n), seed=seed,
                        max_squeeze=max_squeeze)
