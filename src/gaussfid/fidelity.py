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
The same spectrum yields the symplectic invariants I_2k = Tr(W_aux^{2k}) =
2 sum_k w_k^{2k} and the characteristic polynomial prod_k (lambda^2 - w_k^2)
of :attr:`FidelityReport.invariants`, and from those the classic closed forms
for one, two and three modes.

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
from E's Hermitian eigendecomposition instead.

A pair of equal states needs neither.  There F = 1, and the W_aux pairs are
w_k = nu_k + 1/(4 nu_k) over the symplectic eigenvalues nu_k of V, so that
Ftot = prod_k (2 nu_k)^{1/2} = det(2V)^{1/4}.  The nu_k come from
:func:`gaussfid.core.symplectic_eigenvalues`: with V = L L^T, the real
antisymmetric L^T Omega L is similar to V Omega, and its singular values are
the nu_k, each twice.

When one of two distinct states is pure, F is the root overlap
det(V1 + V2)^{-1/4} exp[-du^T (V1 + V2)^{-1} du / 4], and both of its terms
come from one real Cholesky factor of V1 + V2 bordered by the unit vector
along du = u2 - u1: the leading block gives log det(V1 + V2), the last row
the displacement term.  That factorisation is also the test that V1 + V2 is
positive definite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    make_symplectic_form,
    require_physical,
    symplectic_eigenvalues,
    validate_state,
)
from .errors import InvalidParameter, NumericalError

#: Pairs with |w - 1| below this are treated as pure-mode pairs and discarded.
DEFAULT_PURE_TOL = 1e-9

#: Relative undershoot that indicates a numerical breakdown: an eigenvalue of
#: the parallel sum E below -this times its largest (E >= 0 in exact
#: arithmetic).
_BREAKDOWN_LIMIT = 1e-6

#: Relative imaginary residue of Lambda above which a pair is refused.
LAMBDA_RESID_TOL = 1e-8

#: Largest |2 sum_k log(2 nu_k) - log det(V1 + V2)| accepted on a self pair
#: of a mixed state.  The two sides agree in exact arithmetic, and their gap
#: tracks the error of the computed nu_k: on the 60 self pairs of
#: random_state(3, s, max_squeeze=4) the W_aux pairs erred by at most 8 times
#: the gap against 60 digits (2.0e-6 at worst among the accepted pairs),
#: and a gap of 3.4e-5 came with an error of 1.0e-5.
_SELF_PAIR_GAP_TOL = 1e-6

#: |t(V) - 1| at or below this marks a covariance as pure (see
#: :func:`_purity_invariant`).  It sits at working precision, apart from
#: DEFAULT_PURE_TOL: a state whose t cannot be resolved this finely (strong
#: squeezing) fails the test and takes the W_aux spectrum route.
_PURITY_TOL = 1e-12


@dataclass(frozen=True)
class InvariantSet:
    """Symplectic invariants of a state pair.

    ``i2k[k-1] = Tr(W_aux^{2k})`` for k = 1..n, ``delta = det(V1+V2)``,
    ``gamma = 4^n det(Omega V1 Omega V2 - I/4)`` and
    ``lam = 4^n det(V1 + i Omega/2) det(V2 + i Omega/2)``.  ``char_coeffs``
    holds the characteristic polynomial of W_aux, highest power first.
    ``w_squared`` holds the squared W_aux pairs when the set was built from
    them; :meth:`chi` then evaluates prod_k (lambda^2 - w_k^2), as the
    expanded coefficients lose chi(1) to cancellation from about n = 16 on.
    """

    i2k: np.ndarray
    gamma: float
    lam: float
    delta: float
    char_coeffs: np.ndarray
    w_squared: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.i2k)

    def chi(self, lam_value: float) -> float:
        if self.w_squared is None:
            return float(np.polyval(self.char_coeffs, lam_value))
        return float(np.prod(lam_value * lam_value - self.w_squared))


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity value with the intermediate quantities it was built from.

    ``invariants`` is built on first access and cached; :func:`fidelity`
    itself does not evaluate it.  Its traces and characteristic polynomial
    come from ``waux_spectrum``, each discarded pair as w = 1, its delta is
    ``det_v_sum``, and gamma and lam are determinants of their own, so
    chi(0) (-1)^n delta = gamma and chi(1) (-1)^n delta = lam check the spectrum.
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
        V1, V2 = self.covariances
        w2 = np.concatenate((self.waux_spectrum ** 2, np.ones(self.discarded_pairs)))
        coeffs = np.zeros(2 * w2.size + 1)
        coeffs[::2] = np.poly(w2)  # the polynomial is even in lambda
        gamma = _gamma(V1, V2)
        lam = _checked_lambda(GaussianState._lambda_factor_of(V1),
                              GaussianState._lambda_factor_of(V2), V1, V2, gamma)
        return InvariantSet(
            i2k=2.0 * np.sum(np.power.outer(w2, np.arange(1, w2.size + 1)), axis=0),
            gamma=gamma, lam=lam, delta=self.det_v_sum, char_coeffs=coeffs, w_squared=w2)


# ---------------------------------------------------------------------------
# the W_aux spectrum
# ---------------------------------------------------------------------------

def _solve_v_sum(v_sum: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(V1 + V2)^{-1} rhs; a V1 + V2 singular to working precision is refused."""
    try:
        return np.linalg.solve(v_sum, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("V1 + V2 is singular to working precision: %s" % exc) from exc


def _parallel_sum_spectrum(V1: np.ndarray, V2: np.ndarray, du: np.ndarray):
    """W_aux spectrum of a pair from the parallel sum E (see the module docstring).

    One solve of V1 + V2 for [V2 | Omega | du] supplies E and the displacement
    term.  G is the Cholesky factor of E's Hermitian part.  When that fails,
    as it does when a state has an exactly pure mode (E is then singular), G
    is U diag(sqrt(lambda)) from E's eigendecomposition with the
    roundoff-negative eigenvalues set to 0, and an eigenvalue below
    -_BREAKDOWN_LIMIT * max(lambda) is refused with NumericalError.
    Returns (V1 + V2, the retained pairs w, (V1 + V2)^{-1} du); the other
    n - retained.size pairs are unit pairs.
    """
    n = V1.shape[0] // 2
    m = 2 * n
    v_sum = V1 + V2
    x = _solve_v_sum(v_sum, np.column_stack((V2, make_symplectic_form(n), du)))
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
    return v_sum, retained, solved_du


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

def _accepted_excess(s1: GaussianState, s2: GaussianState) -> float:
    """The largest F_raw - 1 that the pair's departure from physicality allows.

    With delta the shortfall max(0, -min eig(V + i Omega/2)) of a state, at
    most DEFAULT_PHYS_TOL * max(1, max|V|) when require_physical accepts it,
    and mu the smallest eigenvalue of V, c = 1 + delta / mu makes c V a
    physical covariance.  The exact formula then gives F_raw <= (c1 c2)^{n/2}:
    on the root-overlap route, max(c1, c2) (V1 + V2) is twice a physical
    covariance, so det(V1 + V2)^{-1/4} <= max(c1, c2)^{n/2}.  Other pairs are
    checked by a sweep of boundary states in the tests.
    """
    c = 1.0
    for s in (s1, s2):
        mu = np.linalg.eigvalsh(s.V)[0]
        if mu <= 0.0:
            return 0.0
        c *= 1.0 + max(0.0, -validate_state(s).min_eig_shifted) / mu
    return c ** (s1.n / 2.0) - 1.0


def _log_det(v_sum: np.ndarray):
    """(det(V1 + V2), log det(V1 + V2)); a determinant that is not positive is refused."""
    sign, logdet = np.linalg.slogdet(v_sum)
    if sign <= 0:
        raise NumericalError("det(V1 + V2) is not positive")
    return float(sign * np.exp(logdet)), logdet


def _root_overlap_terms(V1: np.ndarray, V2: np.ndarray, du: np.ndarray):
    """(log det(V1 + V2), du^T (V1 + V2)^{-1} du) from one real Cholesky factor.

    The factor is that of V1 + V2 bordered by the unit vector e = du / |du|
    (zeros when du = 0) and an infinite corner, [[V1 + V2, e], [e^T, inf]].
    Its leading block is the factor L of V1 + V2, so log det(V1 + V2) is
    2 sum log L_ii; its last row is L^{-1} e, so the quadratic form is
    |du|^2 |L^{-1} e|^2.  The corner enters only the last pivot, which stays
    infinite, so the factorisation fails exactly when V1 + V2 is not positive
    definite; that is refused with NumericalError.  A unit border keeps the
    last row finite however large du is, and |du| is taken by math.hypot,
    which does not overflow.
    """
    m = du.size
    length = math.hypot(*du.tolist())
    bordered = np.empty((m + 1, m + 1))
    np.add(V1, V2, out=bordered[:m, :m])
    # np.linalg.cholesky reads the lower triangle only
    bordered[m, :m] = du / length if length else 0.0
    bordered[m, m] = np.inf
    try:
        low = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "V1 + V2 is not positive definite to working precision: %s" % exc) from exc
    row = low[m, :m]
    root = length * math.sqrt(row @ row)
    return 2.0 * float(np.log(low.diagonal()[:m]).sum()), root * root


def _self_pair(s1: GaussianState, s2: GaussianState, pure: bool) -> FidelityReport:
    """The report of two equal states: F = F0 = F_raw = 1 (see :func:`fidelity`)."""
    try:
        nu = None if pure else symplectic_eigenvalues(s1.V)
    except NumericalError as exc:  # V has no Cholesky factor: 2V = V1 + V2 is singular
        raise NumericalError("V1 + V2 is singular to working precision: %s"
                             % exc.__cause__) from exc.__cause__
    det_v_sum, logdet = _log_det(s1.V + s2.V)
    _checked_lambda(s1._lambda_factor, s1._lambda_factor, s1.V, s2.V)
    if pure:
        retained, ftot = np.empty(0), 1.0
    else:
        # log det(2V) = 2 sum_k log(2 nu_k) in exact arithmetic
        gap = abs(2.0 * float(np.sum(np.log(2.0 * nu))) - logdet)
        if gap > _SELF_PAIR_GAP_TOL:
            raise NumericalError(
                "symplectic spectrum of a self pair misses log det(V1 + V2) by %.3e" % gap)
        # w - 1 = (2 nu - 1)^2 / (4 nu), without cancellation
        retained = (nu + 0.25 / nu)[(2.0 * nu - 1.0) ** 2 / (4.0 * nu) > DEFAULT_PURE_TOL]
        ftot = float(np.exp(0.25 * logdet))
    return FidelityReport(
        F=1.0,
        F0=1.0,
        Ftot=ftot,
        det_v_sum=det_v_sum,
        disp_exponent=0.0,
        waux_spectrum=retained,
        discarded_pairs=s1.n - retained.size,
        F_raw=1.0,
        clamped=False,
        covariances=(s1.V, s2.V),
    )


def fidelity(s1: GaussianState, s2: GaussianState) -> FidelityReport:
    """Uhlmann fidelity between two Gaussian states.

    Symmetric in its arguments, equal to 1 exactly when the states coincide,
    and valid for any mix of pure and mixed multimode states.  A raw value
    above 1 is clamped to 1 in ``F`` (``clamped`` set, the raw value kept in
    ``F_raw``) when the excess is roundoff, at most 1e-10, or at most what the
    states' departure from physicality explains (:func:`_accepted_excess`):
    at the acceptance limit of require_physical about (n/2) DEFAULT_PHYS_TOL
    (kappa1 + kappa2), kappa the condition number of V, and nothing for a
    physical pair.  A larger F_raw is refused with NumericalError.

    The call takes one of three routes.

    * Equal states (``s2 is s1`` or ``s2 == s1``): F, F0 and F_raw are
      exactly 1 and ``clamped`` is False; no solve is made.  When the state
      is pure (see below), ``waux_spectrum`` is empty, ``discarded_pairs`` is
      n and ``Ftot`` is 1.  Otherwise the W_aux pairs are
      w = nu + 1/(4 nu) over the symplectic eigenvalues nu of V, taken from
      the singular values of L^T Omega L with L the real Cholesky factor of V
      (see the module docstring); a V whose factorisation fails is refused as
      a singular V1 + V2.  Pairs with w - 1 = (2 nu - 1)^2 / (4 nu) <=
      DEFAULT_PURE_TOL are discarded as unit pairs, and
      Ftot = det(V1 + V2)^{1/4}, which the exact formula gives.  The spectrum
      is refused with NumericalError when 2 sum log(2 nu) misses
      log det(V1 + V2) by more than 1e-6 (``_SELF_PAIR_GAP_TOL``).
    * A pure member (a state whose purity invariant
      t(V) = (4/n) sum_k nu_k^2 lies within 1e-12 of 1): the W_aux
      eigenproblem is skipped, since every pair is a unit pair, so
      ``waux_spectrum`` is empty, ``discarded_pairs`` is n, ``Ftot`` is 1 and
      F is the root overlap
      sqrt(Tr rho1 rho2) = det(V1+V2)^{-1/4} exp[-du^T (V1+V2)^{-1} du / 4].
      Both terms come from one real Cholesky factor of V1 + V2 bordered by
      du / |du| (see :func:`_root_overlap_terms`), and a V1 + V2 that the
      factorisation finds not positive definite is refused with
      NumericalError.  A displacement term that overflows a float gives
      ``disp_exponent`` = -inf and F = 0.
    * Mixed-mixed pairs: the W_aux pairs are w = sqrt(1 + 4 sigma^2) over the
      singular values sigma of Q = G^T Omega^T G, where G G^H = E is the
      parallel sum conj(P1) (V1+V2)^{-1} P2 with P_k = V_k + i Omega/2 (see
      the module docstring).  G is a Cholesky factor; when the factorisation
      fails (a state with an exactly pure mode makes E singular), G comes
      from E's eigendecomposition with its roundoff-negative eigenvalues set
      to 0, and an eigenvalue below -1e-6 times the largest is refused with
      NumericalError.  Pairs with w - 1 = 4 sigma^2 / (w + 1) <=
      DEFAULT_PURE_TOL are discarded as unit pairs.

    The thresholds are fixed: both states must pass :func:`require_physical`
    at DEFAULT_PHYS_TOL, and a Lambda whose relative imaginary residue
    exceeds LAMBDA_RESID_TOL is refused with NumericalError before F is
    judged.  The physicality check and the purity invariant run once per
    state for two distinct states and once for two equal ones, the Lambda
    check on every call; only each state's factor det(V + i Omega/2) of
    Lambda is kept on the state object.  A V1 + V2 that is singular to
    working precision is refused with NumericalError.
    """
    if s1.n != s2.n:
        raise InvalidParameter(f"mode counts differ: {s1.n} vs {s2.n}")
    # equal states are one state: its checks need not run twice
    same = s2 is s1 or s2 == s1
    states = (s1,) if same else (s1, s2)
    for s in states:
        require_physical(s)
    pure = any(abs(_purity_invariant(s.V) - 1.0) <= _PURITY_TOL for s in states)
    if same:
        return _self_pair(s1, s2, pure)

    du = s2.u - s1.u
    if pure:
        # sqrt(rho1) rho2 sqrt(rho1) has rank one: every W_aux pair is a
        # unit pair, Ftot = 1 and F is the root overlap sqrt(Tr rho1 rho2)
        retained, ftot = np.empty(0), 1.0
        logdet, quadratic = _root_overlap_terms(s1.V, s2.V, du)
        det_v_sum = float(np.exp(logdet))
    else:
        v_sum, retained, solved_du = _parallel_sum_spectrum(s1.V, s2.V, du)
        ftot = ftot_from_spectrum(retained)
        det_v_sum, logdet = _log_det(v_sum)
        quadratic = du @ solved_du
    disp_exponent = float(-0.25 * quadratic)

    # The refusal the report's invariants would make on stiff inputs, made
    # before the value is judged; the invariants themselves are left to the
    # report's first access.  Each state evaluates its factor of Lambda once.
    _checked_lambda(s1._lambda_factor, s2._lambda_factor, s1.V, s2.V)
    f0 = float(ftot * np.exp(-0.25 * logdet))
    f_raw = float(f0 * np.exp(disp_exponent))
    if f_raw > 1.0 + 1e-10 and f_raw - 1.0 > _accepted_excess(s1, s2):
        raise NumericalError("fidelity %.12g exceeds 1 beyond tolerance" % f_raw)
    clamped = f_raw > 1.0
    f = min(f_raw, 1.0)

    return FidelityReport(
        F=f,
        F0=f0,
        Ftot=ftot,
        det_v_sum=det_v_sum,
        disp_exponent=disp_exponent,
        waux_spectrum=retained,
        discarded_pairs=s1.n - retained.size,
        F_raw=f_raw,
        clamped=clamped,
        covariances=(s1.V, s2.V),
    )
