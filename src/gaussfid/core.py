"""Gaussian-state types and the symplectic linear algebra underneath them.

Conventions used throughout the package: hbar = 1, annihilation operator
a = (x + ip)/sqrt(2), vacuum covariance matrix = identity/2, symplectic
eigenvalues >= 1/2.  The canonical internal quadrature layout is "xxpp",
Q = (x_1..x_n, p_1..p_n); the interleaved "xpxp" layout is accepted at the
boundary only (see :func:`reorder_state`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidParameter, InvalidState, NumericalError, PureStateError

# Default tolerances; every routine that uses one accepts an override.
DEFAULT_PHYS_TOL = 1e-9       # physicality of V + i*Omega/2
DEFAULT_RECON_TOL = 1e-8      # Williamson residual checks
DEFAULT_PURE_GAP = 1e-9       # minimum nu - 1/2 for Gibbs conversions

VACUUM_VARIANCE = 0.5


class ModeOrdering(str, Enum):
    """Quadrature layout of mean vectors and covariance matrices."""

    XXPP = "xxpp"
    XPXP = "xpxp"


# ---------------------------------------------------------------------------
# symplectic form and ordering permutations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def make_symplectic_form(n: int, ordering: ModeOrdering = ModeOrdering.XXPP) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega encoding [Q, Q^T] = i*Omega.

    In xxpp ordering Omega = [[0, I], [-I, 0]]; in xpxp ordering it is the
    direct sum of n blocks [[0, 1], [-1, 0]].  The array is built once per
    (n, ordering), cached and read-only: writing to it, or re-enabling writes
    with ``setflags``, raises ``ValueError``.
    """
    if n < 1:
        raise InvalidParameter(f"mode count must be >= 1, got {n}")
    if ordering == ModeOrdering.XXPP:
        eye = np.eye(n)
        zero = np.zeros((n, n))
        out = np.block([[zero, eye], [-eye, zero]])
    else:
        out = np.zeros((2 * n, 2 * n))
        for k in range(n):
            out[2 * k, 2 * k + 1] = 1.0
            out[2 * k + 1, 2 * k] = -1.0
    return _frozen_view(out)


def xxpp_to_xpxp_indices(n: int) -> np.ndarray:
    """Index array p with v_xpxp = v_xxpp[p]."""
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return perm


def xpxp_to_xxpp_indices(n: int) -> np.ndarray:
    return np.argsort(xxpp_to_xpxp_indices(n))


def permute_quadratures(u: np.ndarray, V: np.ndarray, perm: np.ndarray):
    return u[perm], V[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

def _frozen_view(out: np.ndarray) -> np.ndarray:
    """A read-only view of ``out``, which must own its data.  numpy lets the
    owner of the data re-enable writes, but not a view of a read-only base."""
    out.setflags(write=False)
    return out.view()


def _readonly(a: np.ndarray) -> np.ndarray:
    return _frozen_view(np.array(a, dtype=float))


@dataclass(frozen=True, eq=False)
class GaussianState:
    """An n-mode Gaussian state given by its mean vector and covariance matrix.

    Arrays are copied and frozen at construction; instances are immutable and
    safe to share across threads.  Two states are equal when their mode count,
    ordering and arrays are equal entry by entry; equal states hash alike, so
    states can be set members and dict keys.
    """

    n: int
    u: np.ndarray
    V: np.ndarray
    ordering: ModeOrdering = ModeOrdering.XXPP

    def __post_init__(self):
        u = _readonly(self.u)
        V = _readonly(self.V)
        if u.shape != (2 * self.n,):
            raise InvalidParameter(f"mean vector has shape {u.shape}, expected {(2 * self.n,)}")
        if V.shape != (2 * self.n, 2 * self.n):
            raise InvalidParameter(
                f"covariance matrix has shape {V.shape}, expected {(2 * self.n,) * 2}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "ordering", ModeOrdering(self.ordering))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.ordering == other.ordering
                and np.array_equal(self.u, other.u) and np.array_equal(self.V, other.V))

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((self.n, self.ordering, (self.u + 0.0).tobytes(), (self.V + 0.0).tobytes()))


@dataclass(frozen=True)
class PhysicalityReport:
    symmetric: bool
    min_eig_shifted: float
    physical: bool


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """V = S (D + D) S^T with S symplectic and D = diag(nu), nu descending."""

    S: np.ndarray
    nu: np.ndarray


@dataclass(frozen=True)
class GibbsRepresentation:
    """Exponent matrix G and partition value Z of exp[-(Q-u)^T G (Q-u)/2]."""

    G: np.ndarray
    Z: float


@dataclass(frozen=True)
class ComplexGaussianOperator:
    """W-matrix of an (unnormalized, generally non-Hermitian) Gaussian operator."""

    W: np.ndarray


def reorder_state(state: GaussianState, target: ModeOrdering) -> GaussianState:
    """Permute a state between the xxpp and xpxp quadrature layouts."""
    target = ModeOrdering(target)
    if state.ordering == target:
        return state
    if target == ModeOrdering.XPXP:
        perm = xxpp_to_xpxp_indices(state.n)
    else:
        perm = xpxp_to_xxpp_indices(state.n)
    u, V = permute_quadratures(state.u, state.V, perm)
    return GaussianState(state.n, u, V, target)


def as_xxpp(state: GaussianState) -> GaussianState:
    return reorder_state(state, ModeOrdering.XXPP)


# ---------------------------------------------------------------------------
# physicality
# ---------------------------------------------------------------------------

def validate_state(state: GaussianState, tol: float = DEFAULT_PHYS_TOL) -> PhysicalityReport:
    """Check symmetry of V and the uncertainty relation V + i*Omega/2 >= 0.

    ``min_eig_shifted`` is the smallest eigenvalue of the Hermitian matrix
    V + i*Omega/2; the state is physical iff it is >= -tol (equivalently all
    symplectic eigenvalues >= 1/2 - tol) and V is symmetric within tol.
    """
    V = state.V
    if V.shape[0] != 2 * state.n:
        raise InvalidParameter("covariance matrix shape does not match mode count")
    scale = max(1.0, float(np.max(np.abs(V))))
    symmetric = bool(np.max(np.abs(V - V.T)) <= tol * scale)
    omega = make_symplectic_form(state.n, state.ordering)
    herm = V + 0.5j * omega
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityReport(
        symmetric=symmetric,
        min_eig_shifted=min_eig,
        physical=symmetric and min_eig >= -tol * scale,
    )


def require_physical(state: GaussianState, tol: float = DEFAULT_PHYS_TOL) -> None:
    """Raise :class:`InvalidState` exactly when :func:`validate_state` reports
    the state unphysical.

    A Cholesky factorisation of V + i*Omega/2 + (tol*scale/2)*I is the accept
    test: it succeeds only if the smallest eigenvalue of V + i*Omega/2 lies
    above -tol*scale/2 up to roundoff, which the eigenvalue test accepts too.
    Everything else goes to :func:`validate_state`, which alone decides: a
    failed factorisation, an asymmetric V, tol <= 0 and a V with a non-finite
    entry (an inf makes the bound infinite, a NaN fails the symmetry test).
    """
    V = state.V
    bound = tol * max(1.0, float(np.max(np.abs(V))))
    if 0 < bound < np.inf and np.max(np.abs(V - V.T)) <= bound:
        shifted = V + 0.5j * make_symplectic_form(state.n, state.ordering)
        shifted.flat[::V.shape[0] + 1] += 0.5 * bound
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
    report = validate_state(state, tol)
    if not report.physical:
        raise InvalidState(
            "state is not physical: symmetric=%s, min_eig_shifted=%.3e"
            % (report.symmetric, report.min_eig_shifted))


# ---------------------------------------------------------------------------
# Williamson decomposition
# ---------------------------------------------------------------------------

def _sym_eig_sqrt(V: np.ndarray):
    """Principal square root (and inverse root) of a symmetric PSD matrix.

    Eigenvalues are clamped at 0; the inverse root requires strict positivity.
    """
    w, U = np.linalg.eigh(0.5 * (V + V.T))
    if w[-1] <= 0:
        raise NumericalError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    root = (U * np.sqrt(w)) @ U.T
    if w[0] <= 0:
        return root, None
    inv_root = (U / np.sqrt(w)) @ U.T
    return root, inv_root


def symmetric_sqrt(V: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric positive semidefinite matrix."""
    return _sym_eig_sqrt(V)[0]


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of V as the positive eigenvalues of i V^{1/2} Omega V^{1/2}.

    Returned in descending order.
    """
    n = V.shape[0] // 2
    omega = make_symplectic_form(n)
    root = symmetric_sqrt(V)
    herm = 1j * root @ omega @ root
    eig = np.linalg.eigvalsh(herm)
    return eig[n:][::-1].copy()


def williamson(V: np.ndarray, tol: float = DEFAULT_RECON_TOL) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive-definite matrix.

    The symplectic matrix is assembled from the eigenvectors of the Hermitian
    matrix i V^{1/2} Omega V^{1/2}: an eigenvector psi = (a + ib)/sqrt(2) for
    eigenvalue nu_k > 0 supplies two orthonormal real columns, and
    S = V^{1/2} [b | a] (D + D)^{-1/2}.  Both defining identities
    (S Omega S^T = Omega and S (D+D) S^T = V) are verified before returning.
    """
    V = np.asarray(V, dtype=float)
    n2 = V.shape[0]
    if V.ndim != 2 or V.shape[0] != V.shape[1] or n2 % 2:
        raise InvalidParameter("expected a square matrix of even dimension")
    n = n2 // 2
    omega = make_symplectic_form(n)
    eigs = np.linalg.eigvalsh(0.5 * (V + V.T))
    if eigs[0] <= 0:
        raise NumericalError("Williamson decomposition requires a positive definite matrix")
    root, _ = _sym_eig_sqrt(V)
    herm = 1j * root @ omega @ root
    mu, psi = np.linalg.eigh(herm)
    nu = mu[n:]
    vecs = psi[:, n:]
    order = np.argsort(nu)[::-1]
    nu = nu[order]
    vecs = vecs[:, order]
    a = np.sqrt(2.0) * vecs.real
    b = np.sqrt(2.0) * vecs.imag
    ortho = np.hstack([b, a])
    scale = np.concatenate([nu, nu]) ** -0.5
    S = (root @ ortho) * scale[None, :]

    vscale = max(1.0, float(np.max(np.abs(V))))
    if np.max(np.abs(S @ omega @ S.T - omega)) > tol * vscale:
        raise NumericalError("assembled matrix fails S Omega S^T = Omega")
    D = np.concatenate([nu, nu])
    if np.max(np.abs((S * D[None, :]) @ S.T - V)) > tol * vscale:
        raise NumericalError("assembled decomposition fails to reconstruct V")
    return WilliamsonDecomposition(S=S, nu=nu)


# ---------------------------------------------------------------------------
# symplectic action of odd scalar functions
# ---------------------------------------------------------------------------

def gibbs_kernel(v):
    """g(v) = 2 arccoth(2v); exponent spectrum of a thermal mode with nu = v."""
    return 2.0 * np.arctanh(1.0 / (2.0 * np.asarray(v, dtype=float)))


def cov_kernel(g):
    """v(g) = coth(g/2)/2; inverse of :func:`gibbs_kernel`."""
    return 0.5 / np.tanh(0.5 * np.asarray(g, dtype=float))


def sqrt_kernel(v):
    """Symplectic-eigenvalue map of the operator square root."""
    v = np.asarray(v, dtype=float)
    return (np.sqrt(1.0 - 1.0 / (4.0 * v * v)) + 1.0) * v


def partition_kernel(g):
    """z(g) = 1/(2 sinh(g/2)), the per-mode partition value."""
    return 0.5 / np.sinh(0.5 * np.asarray(g, dtype=float))


#: Odd scalar kernels safe to use with :func:`symplectic_action_odd`.
ODD_KERNELS = {
    "gibbs": gibbs_kernel,
    "cov": cov_kernel,
    "sqrt": sqrt_kernel,
    "partition": partition_kernel,
    "identity": lambda v: np.asarray(v, dtype=float),
}


def symplectic_action_odd(f: Callable[[np.ndarray], np.ndarray], V: np.ndarray,
                          tol: float = DEFAULT_RECON_TOL) -> np.ndarray:
    """Apply an odd scalar function to the symplectic spectrum of V.

    Realized as S [f(D) + f(D)] S^T from the Williamson decomposition, which
    for odd f coincides with the matrix function f(V i Omega) i Omega.  The
    kernels in :data:`ODD_KERNELS` are the intended inputs; an even f silently
    produces wrong results, so only odd functions may be passed.
    """
    dec = williamson(V, tol)
    fd = np.asarray(f(dec.nu), dtype=float)
    if not np.all(np.isfinite(fd)):
        raise NumericalError(
            f"kernel is undefined at a symplectic eigenvalue (nu = {dec.nu})")
    D = np.concatenate([fd, fd])
    return (dec.S * D[None, :]) @ dec.S.T


# ---------------------------------------------------------------------------
# Gibbs representation, partition function, purity
# ---------------------------------------------------------------------------

def gibbs_from_cov(V: np.ndarray, pure_gap: float = DEFAULT_PURE_GAP) -> GibbsRepresentation:
    """Exponent matrix G of the state with covariance V, with its partition value.

    Raises :class:`PureStateError` when any symplectic eigenvalue is within
    ``pure_gap`` of 1/2: G diverges there and covariance-only code paths must
    be used instead.
    """
    nu = symplectic_eigenvalues(V)
    if np.any(nu < 0.5 + pure_gap):
        raise PureStateError(
            "state is pure or nearly pure (min nu = %.12g); the Gibbs matrix diverges"
            % float(nu.min()))
    n = V.shape[0] // 2
    omega = make_symplectic_form(n)
    G = -omega @ symplectic_action_odd(gibbs_kernel, V) @ omega
    Z = float(np.prod(np.sqrt(nu * nu - 0.25)))
    return GibbsRepresentation(G=G, Z=Z)


def cov_from_gibbs(G: np.ndarray) -> np.ndarray:
    """Covariance matrix of the Gaussian state with exponent matrix G."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0] // 2
    omega = make_symplectic_form(n)
    Y = -omega @ G @ omega
    return symplectic_action_odd(cov_kernel, Y)


def partition_function(V: np.ndarray, tol: float = DEFAULT_PHYS_TOL) -> float:
    """Z = prod_k sqrt(nu_k^2 - 1/4); zero exactly on pure states."""
    nu = _checked_nu(V, tol)
    gap = np.clip(nu * nu - 0.25, 0.0, None)
    gap[gap < 1e-12] = 0.0  # the sqrt would amplify eigenvalue roundoff
    return float(np.prod(np.sqrt(gap)))


def purity(V: np.ndarray, tol: float = DEFAULT_PHYS_TOL) -> float:
    """Tr(rho^2) = prod_k 1/(2 nu_k)."""
    nu = _checked_nu(V, tol)
    return float(np.prod(1.0 / (2.0 * nu)))


def _require_physical_cov(V: np.ndarray, tol: float) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    require_physical(GaussianState(V.shape[0] // 2, np.zeros(V.shape[0]), V), tol)
    return V


def _checked_nu(V: np.ndarray, tol: float) -> np.ndarray:
    V = _require_physical_cov(V, tol)
    # clamp roundoff below the vacuum bound
    return np.clip(symplectic_eigenvalues(V), 0.5, None)


def square_root_cov(V: np.ndarray, tol: float = DEFAULT_PHYS_TOL) -> np.ndarray:
    """Covariance matrix of sqrt(rho) for the state with covariance V.

    Pure states are fixed points; mixed symplectic eigenvalues map as
    v -> (sqrt(1 - 1/(4 v^2)) + 1) v.
    """
    return symplectic_action_odd(sqrt_kernel, _require_physical_cov(V, tol))


# ---------------------------------------------------------------------------
# W-matrices and Gaussian-operator products
# ---------------------------------------------------------------------------

def w_matrix(V: np.ndarray) -> np.ndarray:
    """W = -2 V i Omega, the modified covariance matrix (complex)."""
    n = V.shape[0] // 2
    omega = make_symplectic_form(n)
    return -2.0j * np.asarray(V) @ omega


def cov_from_w(W: np.ndarray) -> np.ndarray:
    """Inverse of :func:`w_matrix`; the result of a Hermitian product is real."""
    n = W.shape[0] // 2
    omega = make_symplectic_form(n)
    return -0.5j * np.asarray(W) @ omega


def product_w(W1: np.ndarray, W2: np.ndarray) -> ComplexGaussianOperator:
    """W-matrix of the operator product rho1 * rho2 of two Gaussian operators.

    Arguments are ordered left to right: the result satisfies
    exp(-i Omega G'') = exp(-i Omega G1) exp(-i Omega G2).
    """
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    if W1.shape != W2.shape:
        raise InvalidParameter("operator dimensions do not match")
    eye = np.eye(W1.shape[0])
    try:
        middle = np.linalg.solve(W2 + W1, W1 - eye)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("W1 + W2 is singular") from exc
    return ComplexGaussianOperator(W=eye + (W2 - eye) @ middle)
