"""Uhlmann fidelity between multimode Gaussian states from first and second moments.

The central quantity is the auxiliary matrix

    V_aux = Omega^T (V1 + V2)^{-1} (Omega/4 + V2 Omega V1),

whose spectrum (in the form of the eigenvalue pairs +-w of W_aux = -2 V_aux i Omega,
all with |w| >= 1) determines the covariance part of the fidelity:

    F = Ftot * det(V1 + V2)^{-1/4} * exp[-(u2-u1)^T (V1+V2)^{-1} (u2-u1) / 4],
    Ftot = prod_k [w_k + sqrt(w_k^2 - 1)]^{1/2}.

Unit pairs (w = 1) arise from pure modes and do not contribute; they are
discarded and counted.  When one state of the pair is pure, every pair is a
unit pair and Ftot = 1, so :func:`fidelity` does not compute the spectrum.
The same spectrum yields the symplectic invariants I_2k = Tr(W_aux^{2k}) and
the classic closed forms for one, two and three modes.

:func:`fidelity` does not form V_aux.  With P_k = V_k + i Omega/2 (Hermitian,
>= 0 for a physical state), V1 + V2 = conj(P1) + P2 and
Omega/4 + V2 Omega V1 = P2 Omega P1 + (i/2)(V1 + V2), so the w_k^2 - 1 are
the eigenvalues of 4 E Omega conj(E) Omega^T, where

    E = conj(P1) (V1 + V2)^{-1} P2

is the parallel sum of conj(P1) and P2, Hermitian and >= 0.  With E = G G^H
and the complex antisymmetric Q = G^T Omega^T G, each pair is
w_k = sqrt(1 + 4 sigma_k^2) over the singular values sigma_k of Q, which come
in equal pairs.  G is a Cholesky factor, and the factorisation is the accept
test: E is singular when a state has an exactly pure mode, and then G comes
from E's Hermitian eigendecomposition instead.  :func:`aux_matrix` and
:func:`aux_spectrum` (the nonsymmetric eigenvalues of 2 V_aux Omega) remain as
the direct route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import GaussianState, make_symplectic_form, require_physical
from .errors import InvalidParameter, NumericalError

#: Pairs with |w - 1| below this are treated as pure-mode pairs and discarded.
DEFAULT_PURE_TOL = 1e-9

#: Relative undershoot that indicates a numerical breakdown: a retained W_aux
#: eigenvalue this far below 1, or an eigenvalue of the parallel sum E below
#: -this times its largest (w >= 1 and E >= 0 in exact arithmetic).
_BREAKDOWN_LIMIT = 1e-6

#: Relative imaginary residue of Lambda above which a pair is refused.
LAMBDA_RESID_TOL = 1e-8

#: |t(V) - 1| at or below this marks a covariance as pure (see
#: :func:`_purity_invariant`).  It sits at working precision, apart from
#: DEFAULT_PURE_TOL: a state whose t cannot be resolved this finely (strong
#: squeezing) fails the test and takes the W_aux spectrum route.
_PURITY_TOL = 1e-12


@dataclass(frozen=True)
class AuxSpectrum:
    """Positive spectrum {w >= 1} of W_aux after unit pairs are removed."""

    retained: np.ndarray
    discarded_pairs: int


@dataclass(frozen=True)
class InvariantSet:
    """Symplectic invariants of a state pair.

    ``i2k[k-1] = Tr(W_aux^{2k})`` for k = 1..n, ``delta = det(V1+V2)``,
    ``gamma = 4^n det(Omega V1 Omega V2 - I/4)`` and
    ``lam = 4^n det(V1 + i Omega/2) det(V2 + i Omega/2)``.  ``char_coeffs``
    holds the characteristic polynomial of W_aux, highest power first.
    """

    i2k: np.ndarray
    gamma: float
    lam: float
    delta: float
    char_coeffs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.i2k)

    def chi(self, lam_value: float) -> float:
        return float(np.polyval(self.char_coeffs, lam_value))


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity value with the intermediate quantities it was built from.

    ``invariants`` is computed from the covariance pair on first access and
    cached; :func:`fidelity` itself does not evaluate it.
    """

    F: float
    F0: float
    Ftot: float
    det_v_sum: float
    disp_exponent: float
    waux_spectrum: np.ndarray
    discarded_pairs: int
    F_raw: float
    clamped: bool
    #: The xxpp covariance matrices (V1, V2) the report was computed from.
    covariances: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def invariants(self) -> InvariantSet:
        return invariant_set(*self.covariances)


# ---------------------------------------------------------------------------
# auxiliary matrix and its spectrum
# ---------------------------------------------------------------------------

def aux_matrix(V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """V_aux of a covariance pair (xxpp layout), from one solve of V1 + V2."""
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    if V1.shape != V2.shape:
        raise InvalidParameter("covariance matrices have mismatched shapes")
    omega = make_symplectic_form(V1.shape[0] // 2)
    return omega.T @ np.linalg.solve(V1 + V2, omega / 4.0 + V2 @ omega @ V1)


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


def _parallel_sum_spectrum(V1: np.ndarray, V2: np.ndarray, du: np.ndarray):
    """W_aux spectrum of a pair from the parallel sum E (see the module docstring).

    One solve of V1 + V2 for [V2 | Omega | du] supplies E and the displacement
    term.  G is the Cholesky factor of E's Hermitian part.  When that fails,
    as it does when a state has an exactly pure mode (E is then singular), G
    is U diag(sqrt(lambda)) from E's eigendecomposition with the
    roundoff-negative eigenvalues set to 0, and an eigenvalue below
    -_BREAKDOWN_LIMIT * max(lambda) is refused with NumericalError.
    Returns (V1 + V2, spectrum, (V1 + V2)^{-1} du).
    """
    n = V1.shape[0] // 2
    m = 2 * n
    v_sum = V1 + V2
    x = np.linalg.solve(v_sum, np.column_stack((V2, make_symplectic_form(n), du)))
    solved_du = x[:, -1].copy()
    # E = (V1 - i Omega/2)(a + i b/2) with [a | b] = (V1+V2)^{-1} [V2 | Omega];
    # Omega @ [a | b] is a signed swap of its row blocks.  Each 2n x 2n
    # temporary is dropped once used, which keeps the peak memory of a call
    # near that of the V_aux route.
    prod = V1 @ x[:, :-1]
    swapped = np.concatenate((x[n:, :-1], -x[:n, :-1]))
    del x
    re, im = prod[:, :m], prod[:, m:]
    re += 0.25 * swapped[:, m:]
    im -= swapped[:, :m]
    del swapped
    # twice the Hermitian part of E, not one triangle of E, is factorised;
    # its factor is sqrt(2) G, so the singular values below are 2 sigma
    e = np.empty((m, m), dtype=complex)
    np.add(re, re.T, out=e.real)
    e_imag = e.imag
    np.subtract(im, im.T, out=e_imag)
    e_imag *= 0.5
    del prod, re, im, e_imag
    try:
        g = np.linalg.cholesky(e)
    except np.linalg.LinAlgError:
        lam, g = np.linalg.eigh(e)
        if lam[0] < -_BREAKDOWN_LIMIT * lam[-1]:
            raise NumericalError(
                "parallel sum E is not positive semidefinite (eigenvalue %.3e of %.3e)"
                % (lam[0], lam[-1])) from None
        g *= np.sqrt(np.clip(lam, 0.0, None))
    del e
    # Q = G^T Omega^T G = X - X^T with X = G_p^T G_x over G's row blocks
    q = g[n:].T @ g[:n]
    del g
    q -= q.T
    two_sigma = np.linalg.svd(q, compute_uv=False)[::2]
    four_s2 = two_sigma * two_sigma
    w = np.sqrt(1.0 + four_s2)
    # w - 1 without cancellation
    retained = w[four_s2 / (w + 1.0) > DEFAULT_PURE_TOL]
    spectrum = AuxSpectrum(retained=retained, discarded_pairs=n - retained.size)
    return v_sum, spectrum, solved_du


def _purity_invariant(V: np.ndarray) -> float:
    """t(V) = -(2/n) Tr((V Omega)^2) = (4/n) sum_k nu_k^2 of a symmetric xxpp
    covariance.

    t = 1 on a pure state and t > 1 on every other physical state.  With
    V = [[a, b], [c, d]], Omega V Omega = [[-d, c], [b, -a]], so
    Tr((V Omega)^2) = sum(V * Omega V Omega) = -2 (sum(a * d) - sum(b * c))
    needs no matrix product.
    """
    n = V.shape[0] // 2
    return (4.0 / n) * float(np.vdot(V[:n, :n], V[n:, n:]) - np.vdot(V[:n, n:], V[n:, :n]))


def ftot_from_spectrum(retained: np.ndarray) -> float:
    """Ftot = prod [w + sqrt(w^2-1)]^{1/2} = exp(sum arccosh(w) / 2)."""
    return float(np.exp(0.5 * np.sum(np.arccosh(np.clip(retained, 1.0, None)))))


# ---------------------------------------------------------------------------
# symplectic invariants
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


def _gamma(V1: np.ndarray, V2: np.ndarray) -> float:
    n = V1.shape[0] // 2
    omega = make_symplectic_form(n)
    return float(4.0 ** n * np.linalg.det(omega @ V1 @ omega @ V2 - 0.25 * np.eye(2 * n)))


def _checked_lambda(d1: complex, d2: complex, V1: np.ndarray, V2: np.ndarray,
                    gamma: float | None = None) -> float:
    """Lambda = 4^n d1 d2 from the factors d_k = det(V_k + i Omega/2), refused
    when its imaginary residue does not vanish.

    Lambda vanishes on pure states, so the relative check is floored by the
    roundoff scale of the determinants (gamma >= delta > 0 anchors it).  The
    floor can only matter when the residue exceeds LAMBDA_RESID_TOL * |Lambda|,
    so gamma is evaluated there only when the caller has not passed it.
    """
    n = V1.shape[0] // 2
    lam_c = 4.0 ** n * d1 * d2
    if gamma is None and abs(lam_c.imag) <= LAMBDA_RESID_TOL * max(abs(lam_c), 1e-300):
        return float(lam_c.real)
    if gamma is None:
        gamma = _gamma(V1, V2)
    scale = max(abs(lam_c), 1e-6 * abs(gamma), 1e-300)
    if abs(lam_c.imag) > LAMBDA_RESID_TOL * scale:
        raise NumericalError("Lambda has a non-vanishing imaginary part: %.3e" % lam_c.imag)
    return float(lam_c.real)


# ---------------------------------------------------------------------------
# closed forms for one, two and three modes
# ---------------------------------------------------------------------------

def closed_form_fidelity(n: int, inv: InvariantSet) -> float:
    """Covariance part F0 of the fidelity from invariants alone, n <= 3."""
    if n != inv.n:
        raise InvalidParameter(f"invariant set is for {inv.n} modes, not {n}")
    if n == 1:
        lam = max(inv.lam, 0.0)
        return float((math.sqrt(inv.delta + lam) - math.sqrt(lam)) ** -0.5)
    if n == 2:
        root = math.sqrt(max(inv.gamma, 0.0)) + math.sqrt(max(inv.lam, 0.0))
        inner = math.sqrt(max(root * root - inv.delta, 0.0))
        return float((root - inner) ** -0.5)
    if n == 3:
        return _closed_form_three_modes(inv)
    raise InvalidParameter("closed forms are available for 1, 2 or 3 modes only")


def _closed_form_three_modes(inv: InvariantSet) -> float:
    i2, i4, i6 = inv.i2k
    p = i2 * i2 / 24.0 - i4 / 4.0
    q = -i2 ** 3 / 108.0 + i2 * i4 / 12.0 - i6 / 6.0
    scale = max(1.0, i2 * i2 / 24.0 + abs(i4) / 4.0)
    if p > 1e-10 * scale:
        raise NumericalError("characteristic cubic has p > 0 (p = %.3e)" % p)
    if abs(p) <= 1e-10 * scale:
        w = np.full(3, math.sqrt(i2 / 6.0))
    else:
        theta = math.acos(np.clip(3.0 * math.sqrt(3.0) * q / (2.0 * p * math.sqrt(-p)), -1.0, 1.0))
        k = np.arange(1, 4)
        w2 = i2 / 6.0 + 2.0 * math.sqrt(-p / 3.0) * np.cos((theta - 2.0 * np.pi * (k - 1)) / 3.0)
        w = np.sqrt(np.clip(w2, 1.0, None))
    return ftot_from_spectrum(w) / inv.delta ** 0.25


# ---------------------------------------------------------------------------
# the fidelity itself
# ---------------------------------------------------------------------------

def fidelity(s1: GaussianState, s2: GaussianState) -> FidelityReport:
    """Uhlmann fidelity between two Gaussian states.

    Symmetric in its arguments, equal to 1 exactly when the states coincide,
    and valid for any mix of pure and mixed multimode states.  Values that
    exceed 1 by at most 1e-10 (roundoff) are clamped to 1 in ``F`` with the
    raw value kept in ``F_raw``.

    When either state is pure (its purity invariant t(V) = (4/n) sum_k nu_k^2
    lies within 1e-12 of 1), the W_aux eigenproblem is skipped: every pair
    is a unit pair, so ``waux_spectrum`` is empty, ``discarded_pairs`` is n,
    ``Ftot`` is 1 and F is the root overlap
    sqrt(Tr rho1 rho2) = det(V1+V2)^{-1/4} exp[-du^T (V1+V2)^{-1} du / 4].
    On mixed-mixed pairs the W_aux pairs are w = sqrt(1 + 4 sigma^2) over the
    singular values sigma of Q = G^T Omega^T G, where G G^H = E is the
    parallel sum conj(P1) (V1+V2)^{-1} P2 with P_k = V_k + i Omega/2 (see the
    module docstring).  G is a Cholesky factor; when the factorisation fails
    (a state with an exactly pure mode makes E singular), G comes from E's
    eigendecomposition with its roundoff-negative eigenvalues set to 0, and
    an eigenvalue below -1e-6 times the largest is refused with
    NumericalError.  Pairs with w - 1 = 4 sigma^2 / (w + 1) <= DEFAULT_PURE_TOL
    are discarded as unit pairs.  The thresholds are fixed: both states must pass
    :func:`require_physical` at DEFAULT_PHYS_TOL, and a Lambda whose relative
    imaginary residue exceeds LAMBDA_RESID_TOL is refused with NumericalError
    before F is compared with 1.  Both checks run on every call; only each
    state's factor det(V + i Omega/2) of Lambda is computed once per state
    object and kept on it.
    """
    if s1.n != s2.n:
        raise InvalidParameter(f"mode counts differ: {s1.n} vs {s2.n}")
    require_physical(s1)
    require_physical(s2)

    du = s2.u - s1.u
    if (abs(_purity_invariant(s1.V) - 1.0) <= _PURITY_TOL
            or abs(_purity_invariant(s2.V) - 1.0) <= _PURITY_TOL):
        # sqrt(rho1) rho2 sqrt(rho1) has rank one: every W_aux pair is a
        # unit pair, Ftot = 1 and F is the root overlap sqrt(Tr rho1 rho2)
        v_sum = s1.V + s2.V
        solved_du = np.linalg.solve(v_sum, du)
        spectrum = AuxSpectrum(retained=np.empty(0), discarded_pairs=s1.n)
    else:
        v_sum, spectrum, solved_du = _parallel_sum_spectrum(s1.V, s2.V, du)
    ftot = ftot_from_spectrum(spectrum.retained)

    sign, logdet = np.linalg.slogdet(v_sum)
    if sign <= 0:
        raise NumericalError("det(V1 + V2) is not positive")
    det_v_sum = float(sign * np.exp(logdet))
    disp_exponent = float(-0.25 * du @ solved_du)

    # The only refusal invariant_set adds on stiff inputs, made before the
    # value is judged; the other invariants are left to the report's first
    # access.  Each state evaluates its factor of Lambda once.
    _checked_lambda(s1._lambda_factor, s2._lambda_factor, s1.V, s2.V)
    f0 = float(ftot * np.exp(-0.25 * logdet))
    f_raw = float(f0 * np.exp(disp_exponent))
    if f_raw > 1.0 + 1e-10:
        raise NumericalError("fidelity %.12g exceeds 1 beyond tolerance" % f_raw)
    clamped = f_raw > 1.0
    f = min(f_raw, 1.0)

    return FidelityReport(
        F=f,
        F0=f0,
        Ftot=ftot,
        det_v_sum=det_v_sum,
        disp_exponent=disp_exponent,
        waux_spectrum=spectrum.retained,
        discarded_pairs=spectrum.discarded_pairs,
        F_raw=f_raw,
        clamped=clamped,
        covariances=(s1.V, s2.V),
    )
