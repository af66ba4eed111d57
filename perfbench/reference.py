"""Reference values the benchmark checks the package's outputs against.

Everything here is the benchmark's own code: it never calls gaussfid, so a
defect in the engine cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np

#: Working precision of the W_aux reference, in decimal digits.
DPS = 40

#: Eigenvalues with |w - 1| below this are pure-mode pairs and count as w = 1,
#: the package's documented discard rule.  Pure states built in float64 are
#: pure only to roundoff (nu = 1/2 + O(1e-16)), and near w = 1 the factor
#: w + sqrt(w^2 - 1) turns that into a 1e-8 change of F, so the exact value
#: of the float inputs is not the value of the pure state they stand for.
PURE_TOL = 1e-9


def _omega(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def fidelity_mp(u1, V1, u2, V2) -> float:
    """Uhlmann fidelity of two Gaussian states (xxpp layout, vacuum = I/2) in
    arbitrary precision, from the W_aux formula of Banchi, Braunstein and
    Pirandola:

        F = Ftot det(V1+V2)^{-1/4} exp[-du^T (V1+V2)^{-1} du / 4],
        Ftot = prod_k [w_k + sqrt(w_k^2 - 1)]^{1/2},

    with +-i w_k the eigenvalues of 2 V_aux Omega and
    V_aux = Omega^T (V1+V2)^{-1} (Omega/4 + V2 Omega V1).  Each w appears
    twice among the 2n eigenvalues, hence the exponent 1/4 in the sum below.
    The float64 inputs are converted exactly; see PURE_TOL for pure modes.
    """
    import mpmath as mp  # here, so that importing this module stays out of set-up time

    n = len(u1) // 2
    with mp.workdps(DPS):
        om = mp.matrix(_omega(n).tolist())
        a = mp.matrix(np.asarray(V1, dtype=float).tolist())
        b = mp.matrix(np.asarray(V2, dtype=float).tolist())
        s = a + b
        s_inv = mp.inverse(s)
        v_aux = om.T * s_inv * (om / 4 + b * om * a)
        eigs = mp.eig(2 * v_aux * om, left=False, right=False)
        w = [abs(mp.im(e)) for e in eigs]
        log_ftot = mp.fsum(mp.acosh(x) for x in w if x - 1 > PURE_TOL) / 4
        du = mp.matrix((np.asarray(u2, dtype=float) - np.asarray(u1, dtype=float)).tolist())
        disp = -(du.T * s_inv * du)[0] / 4
        return float(mp.exp(log_ftot + disp) * mp.det(s) ** mp.mpf(-0.25))


def fidelity_np(u1, V1, u2, V2) -> float:
    """The W_aux formula of ``fidelity_mp`` in float64, for inputs too large
    for the mpmath reference (n = 64).  Evaluated in logs, because F of two
    random 64-mode states is near 1e-19."""
    n = len(u1) // 2
    om = _omega(n)
    s = np.asarray(V1, dtype=float) + np.asarray(V2, dtype=float)
    v_aux = om.T @ np.linalg.solve(s, om / 4 + V2 @ om @ V1)
    w = np.abs(np.linalg.eigvals(2 * v_aux @ om).imag)
    log_ftot = np.sum(np.arccosh(w[w - 1 > PURE_TOL])) / 4
    du = np.asarray(u2, dtype=float) - np.asarray(u1, dtype=float)
    disp = -du @ np.linalg.solve(s, du) / 4
    return float(np.exp(log_ftot + disp - np.linalg.slogdet(s)[1] / 4))


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

#: Closed-form QFI of the package's named one-parameter families.
CLOSED_FORM_QFI = {
    "coherent-displacement": lambda theta: 2.0,
    "squeeze-r": lambda theta: 2.0,
    "thermal-nbar": lambda theta: 1.0 / (theta * (theta + 1.0)),
    "phase-theta": lambda theta: 2.0 * math.sinh(2.0) ** 2,
}


def tms_block(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-mode squeezer on (x1, x2, p1, p2) and its derivative in r."""
    ch, sh = math.cosh(r), math.sinh(r)
    block = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, ch, -sh], [0, 0, -sh, ch]])
    deriv = np.array([[sh, ch, 0, 0], [ch, sh, 0, 0], [0, 0, sh, -ch], [0, 0, -ch, sh]])
    return block, deriv


def multi_family_moments(u0, V0, theta):
    """Moments of the benchmark's two-parameter family and their exact derivatives.

    theta = (a, r): a two-mode squeezer of strength r on modes 0 and 1 acts on
    the base state (u0, V0), then mode 0 is displaced by a along x.
    Returns (u, V, [du/da, du/dr], [dV/da, dV/dr]).
    """
    a, r = theta
    n = len(u0) // 2
    idx = np.array([0, 1, n, n + 1])
    block, deriv = tms_block(r)
    S = np.eye(2 * n)
    S[np.ix_(idx, idx)] = block
    dS = np.zeros((2 * n, 2 * n))
    dS[np.ix_(idx, idx)] = deriv
    shift = np.zeros(2 * n)
    shift[0] = 1.0
    u = S @ u0 + a * shift
    V = S @ V0 @ S.T
    dV_r = dS @ V0 @ S.T + S @ V0 @ dS.T
    return u, V, [shift, dS @ u0], [np.zeros_like(V), dV_r]


def qfi_matrix_reference(V, dus, dVs) -> np.ndarray:
    """H_ij = 4 g_ij with g_ij = du_i^T V^{-1} du_j / 4 + delta_ij / 8 and
    delta_ij = 4 vec(dV_i)^T (4 V(x)V - Omega(x)Omega)^{-1} vec(dV_j),
    solved directly (row-major vec), for a state with no pure modes."""
    n = V.shape[0] // 2
    om = _omega(n)
    superop = 4.0 * np.kron(V, V) - np.kron(om, om)
    m = len(dus)
    H = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            mean = dus[i] @ np.linalg.solve(V, dus[j]) / 4.0
            delta = 4.0 * dVs[i].reshape(-1) @ np.linalg.solve(superop, dVs[j].reshape(-1))
            H[i, j] = 4.0 * (mean + delta / 8.0)
    return H


def error_bounds_reference(F: float, N: int) -> tuple[float, float]:
    """(1 - sqrt(1 - F^{2N})) / 2 <= p_err <= F^N / 2."""
    fn = F ** N
    return 0.5 * (1.0 - math.sqrt(max(1.0 - fn * fn, 0.0))), 0.5 * fn


def symplectic_spectrum(V) -> np.ndarray:
    """Symplectic eigenvalues, descending, as |Im| of the eigenvalues of Omega V."""
    n = V.shape[0] // 2
    w = np.sort(np.abs(np.linalg.eigvals(_omega(n) @ V).imag))[::-1]
    return w[::2]
