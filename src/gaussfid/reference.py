"""Independent cross-check routes for the fidelity engine and the metric.

These exist to validate the production code in :mod:`gaussfid.fidelity` and
:mod:`gaussfid.metrology` by other routes (the complex V12 determinant, the
singular block reduction, an explicit superoperator pseudo-inverse, and the
paper's Gaussian-operator algebra of Gibbs exponent matrices and W-matrices);
the engine never calls them.  The package does not import this module.  It
needs numpy only, apart from :func:`alt_ftot_v12`, which imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_PHYS_TOL,
    GaussianState,
    make_symplectic_form,
    require_physical,
    symplectic_eigenvalues,
    williamson,
    xxpp_to_xpxp_indices,
)
from .errors import InvalidParameter, NumericalError, PureStateError
from .fidelity import DEFAULT_PURE_TOL, _paired_imag_eigenvalues, aux_matrix

DEFAULT_PURE_GAP = 1e-9       # minimum nu - 1/2 for Gibbs conversions


def alt_ftot_v12(V1: np.ndarray, V2: np.ndarray, resid_tol: float = 1e-7) -> float:
    """Ftot from the complex matrix V12 = -iOmega/2 + (V1+iOmega/2)(V1+V2)^{-1}(V2+iOmega/2).

    The spectrum of the associated W12 equals that of -W_aux, so this route
    must agree with the eigenvalue route; it is kept as a cross-check.
    Swapping the arguments evaluates the Hermitian-conjugate variant.
    """
    import scipy.linalg

    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    n = V1.shape[0] // 2
    omega = make_symplectic_form(n)
    half = 0.5j * omega
    v12 = -half + (V1 + half) @ np.linalg.solve(V1 + V2, V2 + half)
    m = v12 @ omega
    inner = np.eye(2 * n) + 0.25 * np.linalg.matrix_power(np.linalg.inv(m), 2)
    root = scipy.linalg.sqrtm(inner)
    ftot4 = complex(np.linalg.det(2.0 * (root + np.eye(2 * n)) @ v12))
    if abs(ftot4.imag) > resid_tol * max(abs(ftot4), 1e-30):
        raise NumericalError("Ftot^4 has imaginary residue %.3e" % ftot4.imag)
    if ftot4.real <= 0:
        raise NumericalError("Ftot^4 is not positive")
    return float(ftot4.real ** 0.25)


@dataclass(frozen=True)
class SingularReduction:
    """Diagnostic block reduction when pure symplectic eigenvalues are present.

    In the Williamson frame of the purer state (pure modes first, interleaved
    layout), V_aux is block upper-triangular with an I/2 corner of size 2r; the
    retained spectrum comes from the lower-right block alone.
    """

    r: int
    retained: np.ndarray
    corner_residual: float
    lower_block_residual: float
    reduced_block: np.ndarray


def singular_reduction(V1: np.ndarray, V2: np.ndarray,
                       tol: float = DEFAULT_PURE_TOL) -> SingularReduction:
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    n = V1.shape[0] // 2
    r1, r2 = (int(np.sum(symplectic_eigenvalues(V) - 0.5 <= tol)) for V in (V1, V2))
    r = max(r1, r2)
    if r2 > r1:
        V1, V2 = V2, V1

    omega = make_symplectic_form(n)
    dec = williamson(V1)
    s_inv = -omega @ dec.S.T @ omega
    v1d = s_inv @ V1 @ s_inv.T
    v2d = s_inv @ V2 @ s_inv.T
    # pure modes first (williamson returns nu descending, so pure modes last)
    pure = dec.nu - 0.5 <= tol
    mode_order = np.concatenate([np.flatnonzero(pure), np.flatnonzero(~pure)])
    idx = np.concatenate([mode_order, mode_order + n])
    v1d = v1d[np.ix_(idx, idx)]
    v2d = v2d[np.ix_(idx, idx)]

    vaux = aux_matrix(v1d, v2d)
    perm = xxpp_to_xpxp_indices(n)
    vaux = vaux[np.ix_(perm, perm)]

    corner = float(np.max(np.abs(vaux[:2 * r, :2 * r] - 0.5 * np.eye(2 * r)))) if r else 0.0
    lower = float(np.max(np.abs(vaux[2 * r:, :2 * r]))) if 0 < r < n else 0.0
    block = vaux[2 * r:, 2 * r:]
    if n > r:
        # the interleaved form, exact: permuting entries 0 and +-1 rounds nothing
        p = xxpp_to_xpxp_indices(n - r)
        omega_t = make_symplectic_form(n - r)[np.ix_(p, p)]
        w = _paired_imag_eigenvalues(2.0 * block @ omega_t)
        w = np.clip(w, 1.0, None)
    else:
        w = np.empty(0)
    return SingularReduction(r=r, retained=w, corner_residual=corner,
                             lower_block_residual=lower, reduced_block=block)


def bures_metric_delta_superop(V: np.ndarray, dV: np.ndarray) -> float:
    """delta = 4 Tr[dV (4 L_V + L_Omega)^{-1} dV] via an explicit pseudo-inverse.

    Builds the superoperator as a 4n^2 x 4n^2 matrix; intended as an
    independent cross-check of :func:`gaussfid.metrology.bures_metric_delta`, not for production.
    """
    V = np.asarray(V, dtype=float)
    dV = np.asarray(dV, dtype=float)
    n = V.shape[0] // 2
    omega = make_symplectic_form(n)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    superop = 4.0 * np.kron(V, V) - np.kron(omega, omega)
    vec = dV.reshape(-1)
    return float(4.0 * vec @ (np.linalg.pinv(superop, rcond=1e-10) @ vec))


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


def symplectic_action_odd(f: Callable[[np.ndarray], np.ndarray], V: np.ndarray) -> np.ndarray:
    """Apply an odd scalar function to the symplectic spectrum of V.

    Realized as S [f(D) + f(D)] S^T from the Williamson decomposition, which
    for odd f coincides with the matrix function f(V i Omega) i Omega.  The
    kernels in :data:`ODD_KERNELS` are the intended inputs; an even f silently
    produces wrong results, so only odd functions may be passed.
    """
    dec = williamson(V)
    fd = np.asarray(f(dec.nu), dtype=float)
    if not np.all(np.isfinite(fd)):
        raise NumericalError(
            f"kernel is undefined at a symplectic eigenvalue (nu = {dec.nu})")
    D = np.concatenate([fd, fd])
    return (dec.S * D[None, :]) @ dec.S.T


# ---------------------------------------------------------------------------
# Gibbs representation, partition function, purity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsRepresentation:
    """Exponent matrix G and partition value Z of exp[-(Q-u)^T G (Q-u)/2]."""

    G: np.ndarray
    Z: float


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


def product_w(W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
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
    return eye + (W2 - eye) @ middle
