"""Independent cross-check routes for the fidelity engine, the metric and the
Fock oracle.

These exist to validate the production code in :mod:`gaussfid.fidelity`,
:mod:`gaussfid.metrology` and :mod:`gaussfid.fock` by other routes: V_aux
itself, the nonsymmetric ``eigvals`` spectrum of 2 V_aux Omega, the
invariants from traces of its powers and Newton's identities, the complex V12
determinant, the singular block reduction, an explicit superoperator
pseudo-inverse, the paper's Gaussian-operator algebra of Gibbs exponent
matrices and W-matrices, and the Fock oracle's operators on the full space.
The package never calls them.  They need numpy only, apart from
:func:`alt_ftot_v12`, which imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gaussfid.core import (
    GaussianState,
    make_symplectic_form,
    require_physical,
    symplectic_eigenvalues,
    williamson,
    xxpp_to_xpxp_indices,
)
from gaussfid.errors import GaussfidError, InvalidParameter, NumericalError
from gaussfid.fidelity import (
    _BREAKDOWN_LIMIT,
    DEFAULT_PURE_TOL,
    InvariantSet,
    _checked_lambda,
    _gamma,
    _solve_v_sum,
)
from gaussfid.fock import _quadratures, destroy


DEFAULT_PURE_GAP = 1e-9       # minimum nu - 1/2 for Gibbs conversions


class PureStateError(GaussfidError):
    """A Gibbs-matrix conversion was requested at (or too close to) the pure limit."""


# ---------------------------------------------------------------------------
# V_aux and the eigvals route to the W_aux spectrum
# ---------------------------------------------------------------------------

def aux_matrix(V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """V_aux of a covariance pair (xxpp layout), from one solve of V1 + V2."""
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    if V1.shape != V2.shape:
        raise InvalidParameter("covariance matrices have mismatched shapes")
    omega = make_symplectic_form(V1.shape[0] // 2)
    return omega.T @ _solve_v_sum(V1 + V2, omega / 4.0 + V2 @ omega @ V1)


@dataclass(frozen=True)
class AuxSpectrum:
    """Positive spectrum {w >= 1} of W_aux after unit pairs are removed."""

    retained: np.ndarray
    discarded_pairs: int


def _paired_imag_eigenvalues(A: np.ndarray) -> np.ndarray:
    """|Im| of the +-i w eigenvalue pairs of a real matrix, descending."""
    eigs = np.linalg.eigvals(A)
    scale = np.linalg.norm(A)
    if np.max(np.abs(eigs.real)) > 1e-6 * max(scale, 1.0):
        raise NumericalError(
            "spectrum is not purely imaginary (max |Re| = %.3e)" % np.max(np.abs(eigs.real)))
    return np.sort(np.abs(eigs.imag))[::-1][::2].copy()


def aux_spectrum(v_aux: np.ndarray) -> AuxSpectrum:
    """Eigenvalue pairs of W_aux from the real matrix A = 2 V_aux Omega.

    A has spectrum +-i w; pairs with |w - 1| <= DEFAULT_PURE_TOL come from pure
    modes, contribute a factor 1, and are dropped.  Retained values are clamped
    to w >= 1 so that downstream square roots stay real.
    """
    n = v_aux.shape[0] // 2
    omega = make_symplectic_form(n)
    w = _paired_imag_eigenvalues(2.0 * v_aux @ omega)
    unit = np.abs(w - 1.0) <= DEFAULT_PURE_TOL
    retained = w[~unit]
    if retained.size and retained.min() < 1.0 - _BREAKDOWN_LIMIT:
        raise NumericalError(
            "retained W_aux eigenvalue %.12g lies below 1; inputs are likely unphysical"
            % float(retained.min()))
    return AuxSpectrum(retained=np.clip(retained, 1.0, None),
                       discarded_pairs=int(unit.sum()))


# ---------------------------------------------------------------------------
# the trace route to the symplectic invariants
# ---------------------------------------------------------------------------

def _char_coeffs_from_traces(i2k: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of W_aux from the trace invariants.

    Newton's identities convert the power sums of the squared pair eigenvalues
    (I_2m / 2) into the elementary symmetric functions; the polynomial in
    lambda is even, so odd coefficients vanish.
    """
    n = len(i2k)
    psums = np.asarray(i2k, dtype=float) / 2.0
    e = np.zeros(n + 1)
    e[0] = 1.0
    for m in range(1, n + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += (-1.0) ** (i - 1) * e[m - i] * psums[i - 1]
        e[m] = acc / m
    coeffs = np.zeros(2 * n + 1)
    for k in range(n + 1):
        coeffs[2 * k] = (-1.0) ** k * e[k]
    return coeffs


def invariant_set(V1: np.ndarray, V2: np.ndarray) -> InvariantSet:
    """Trace and determinant invariants of a covariance pair."""
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    n = V1.shape[0] // 2
    omega = make_symplectic_form(n)

    A2 = np.linalg.matrix_power(2.0 * aux_matrix(V1, V2) @ omega, 2)
    i2k = np.empty(n)
    power = np.eye(2 * n)
    for k in range(1, n + 1):
        power = power @ A2
        i2k[k - 1] = (-1.0) ** k * np.trace(power)

    sign, logdet = np.linalg.slogdet(V1 + V2)
    if sign <= 0:
        raise NumericalError("det(V1 + V2) is not positive")
    delta = float(sign * np.exp(logdet))
    gamma = _gamma(V1, V2)
    lam = _checked_lambda(GaussianState._lambda_factor_of(V1),
                          GaussianState._lambda_factor_of(V2), V1, V2, gamma)
    return InvariantSet(i2k=i2k, gamma=gamma, lam=lam, delta=delta,
                        char_coeffs=_char_coeffs_from_traces(i2k))


# ---------------------------------------------------------------------------
# other routes to Ftot and the metric
# ---------------------------------------------------------------------------

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


def partition_function(V: np.ndarray) -> float:
    """Z = prod_k sqrt(nu_k^2 - 1/4); zero exactly on pure states."""
    nu = _checked_nu(V)
    gap = np.clip(nu * nu - 0.25, 0.0, None)
    gap[gap < 1e-12] = 0.0  # the sqrt would amplify eigenvalue roundoff
    return float(np.prod(np.sqrt(gap)))


def purity(V: np.ndarray) -> float:
    """Tr(rho^2) = prod_k 1/(2 nu_k)."""
    nu = _checked_nu(V)
    return float(np.prod(1.0 / (2.0 * nu)))


def _require_physical_cov(V: np.ndarray) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    require_physical(GaussianState(V.shape[0] // 2, np.zeros(V.shape[0]), V))
    return V


def _checked_nu(V: np.ndarray) -> np.ndarray:
    V = _require_physical_cov(V)
    # clamp roundoff below the vacuum bound
    return np.clip(symplectic_eigenvalues(V), 0.5, None)


def square_root_cov(V: np.ndarray) -> np.ndarray:
    """Covariance matrix of sqrt(rho) for the state with covariance V.

    Pure states are fixed points; mixed symplectic eigenvalues map as
    v -> (sqrt(1 - 1/(4 v^2)) + 1) v.
    """
    return symplectic_action_odd(sqrt_kernel, _require_physical_cov(V))


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


# ---------------------------------------------------------------------------
# the Fock oracle's operators on the full space
# ---------------------------------------------------------------------------

def _embed(op: np.ndarray, mode: int, cutoffs: Sequence[int]) -> np.ndarray:
    factors = [np.eye(c) for c in cutoffs]
    factors[mode] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def mode_operators(cutoffs: Sequence[int]) -> list:
    """Embedded annihilation operators a_k on the full tensor-product space."""
    return [_embed(destroy(c), k, cutoffs) for k, c in enumerate(cutoffs)]


def quadrature_operators(cutoffs: Sequence[int]) -> list:
    """Quadratures (x_1..x_n, p_1..p_n) on the full tensor-product space."""
    return _quadratures(mode_operators(cutoffs))
