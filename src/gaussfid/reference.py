"""Independent cross-check routes for the fidelity engine and the metric.

These exist to validate the production code in :mod:`gaussfid.fidelity` and
:mod:`gaussfid.metrology` by other routes (the complex V12 determinant, the
singular block reduction, an explicit superoperator pseudo-inverse); the
engine never calls them.  The package does not import this module, and it is
the only one that uses scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    ModeOrdering,
    make_symplectic_form,
    symplectic_eigenvalues,
    williamson,
    xxpp_to_xpxp_indices,
)
from .errors import NumericalError
from .fidelity import DEFAULT_PURE_TOL, _paired_imag_eigenvalues, aux_matrix


def alt_ftot_v12(V1: np.ndarray, V2: np.ndarray, resid_tol: float = 1e-7) -> float:
    """Ftot from the complex matrix V12 = -iOmega/2 + (V1+iOmega/2)(V1+V2)^{-1}(V2+iOmega/2).

    The spectrum of the associated W12 equals that of -W_aux, so this route
    must agree with the eigenvalue route; it is kept as a cross-check.
    Swapping the arguments evaluates the Hermitian-conjugate variant.
    """
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
    nu1 = symplectic_eigenvalues(V1)
    nu2 = symplectic_eigenvalues(V2)
    r1 = int(np.sum(nu1 - 0.5 <= tol))
    r2 = int(np.sum(nu2 - 0.5 <= tol))
    if r2 > r1:
        V1, V2 = V2, V1
        r, nu = r2, nu2
    else:
        r, nu = r1, nu1

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

    vaux = aux_matrix(v1d, v2d).V_aux
    perm = xxpp_to_xpxp_indices(n)
    vaux = vaux[np.ix_(perm, perm)]

    corner = float(np.max(np.abs(vaux[:2 * r, :2 * r] - 0.5 * np.eye(2 * r)))) if r else 0.0
    lower = float(np.max(np.abs(vaux[2 * r:, :2 * r]))) if 0 < r < n else 0.0
    block = vaux[2 * r:, 2 * r:]
    if n > r:
        omega_t = make_symplectic_form(n - r, ModeOrdering.XPXP)
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
