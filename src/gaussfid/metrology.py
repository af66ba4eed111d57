"""Bures geometry, quantum Fisher information and discrimination bounds.

The distance convention follows D_B = 2(1 - F); note that this is the
*squared* Bures distance in the most common textbook normalization.  The
metric is

    ds^2 = du^T V^{-1} du / 4 + delta / 8,

where delta is evaluated in the eigenbasis of W = -2 V i Omega as
sum_ij dW_ij dW_ji / (w_i w_j - 1), skipping index pairs with w_i w_j = 1
(the pseudo-inverse rule; such terms do not contribute, and skipping them is
what makes the formula valid for pure and mixed states alike).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import GaussianState, make_symplectic_form, real_array, symplectic_frame
from .errors import InvalidParameter, NumericalError
from .fidelity import fidelity
from . import states

#: Terms with |w_i w_j - 1| below this are skipped in the metric sum.
DEFAULT_METRIC_TOL = 1e-9

#: Above this share of its largest |dW_ij dW_ji|, a dV's product on a skipped
#: pair is a dropped term, not roundoff.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

#: Step of the moment stencil in the analytic QFI mode (families without
#: exact derivatives).
DEFAULT_MOMENT_STEP = 1e-4

#: Step used by the finite-difference QFI mode.
DEFAULT_FD_STEP = 1e-3


@dataclass(frozen=True)
class MetricEvaluation:
    ds2: float
    mean_part: float
    cov_part: float
    skipped_terms: int


@dataclass(frozen=True)
class QfiMatrix:
    """Quantum Fisher information matrix H = 4 g for a vector parametrization."""

    H: np.ndarray
    labels: tuple


@dataclass(frozen=True)
class ErrorBounds:
    """Fidelity bounds on the N-copy discrimination error probability."""

    lower: float
    upper: float
    copies: int
    fidelity_used: float


class DeltaResult(NamedTuple):
    delta: float
    skipped: int


# ---------------------------------------------------------------------------
# Bures distance and metric
# ---------------------------------------------------------------------------

def bures_distance(s1: GaussianState, s2: GaussianState) -> float:
    """D_B = 2 [1 - F(s1, s2)]  (squared-distance convention)."""
    return 2.0 * (1.0 - fidelity(s1, s2).F)


def _metric_form(V: np.ndarray, dVs: Sequence[np.ndarray]):
    """(L^{-1}, form, skipped) at V = L L^T from one :func:`symplectic_frame`
    and one inverse, the kernel of the three metric entry points: the form
    delta(dV_i, dV_j) on every pair of ``dVs``, summed as in
    :func:`bures_metric_delta`, and the entries skipped per pair.  What
    depends on V alone (U^+ L^{-1} and the kept denominators) is formed once.
    V is refused as by the frame; a complex dV, or one of another shape, with
    a NaN or infinite entry, or not symmetric within 1e-8 max(1, max|dV|),
    with InvalidParameter.

    delta(dV, dV) >= 0 in exact arithmetic for a symmetric dV.  A diagonal
    entry below -k eps sum|terms|, k the number of terms summed, is more
    negative than the rounding of its own sum explains and is refused with
    NumericalError.
    Such entries have no correct digit: a dV that leaves the pure manifold,
    where the metric diverges, leaves terms that cancel to a delta of either
    sign (-9.7e15 on a pure state at max_squeeze 4, -6e-32 on one at
    max_squeeze 0), and so do the terms of strongly squeezed mixed states.
    A dV whose largest |dW_ij dW_ji| on a skipped pair exceeds sqrt(eps) times
    its largest on any pair is refused with NumericalError as well: the skip
    drops a divergent term there (a dV off the pure manifold, or a state within
    the tolerance of pure, such as thermal n = 1e-10 with dV = I), while on a
    tangent K V + V K^T those products are roundoff.
    """
    low, halves, U = symplectic_frame(V)
    inv_low = np.linalg.inv(low)
    dVs = [real_array(dV, "dV") for dV in dVs]
    for dV in dVs:
        if dV.shape != low.shape:
            raise InvalidParameter("dV shape does not match V")
        peak = float(np.abs(dV).max())  # NaN or inf exactly when an entry is one
        if not math.isfinite(peak):
            raise InvalidParameter("dV has a non-finite entry")
        if np.abs(dV - dV.T).max() > 1e-8 * max(1.0, peak):
            raise InvalidParameter("dV must be symmetric")
    omega = make_symplectic_form(low.shape[0] // 2)
    # W = -L U diag(w) U^+ L^{-1} with V = L L^T and i L^T Omega L = U diag(w/2) U^+;
    # the sum is even in w
    w = 2.0 * halves
    # each dV enters through its symmetric part (dV + dV^T)/2: an antisymmetric
    # part, such as the roundoff of a finite difference, has a negative
    # definite delta of its own and no cross term with the symmetric one
    left = U.conj().T @ inv_low
    dWts = [left @ (-1.0j * (dV + dV.T) @ omega) @ low @ U for dV in dVs]
    denom = w[:, None] * w - 1.0
    keep = np.abs(denom) > DEFAULT_METRIC_TOL
    kept_denom = denom[keep]
    dropped_pairs = None if keep.all() else ~keep
    form = np.empty((len(dVs), len(dVs)))
    for i, dWt in enumerate(dWts):
        for j in range(i, len(dVs)):
            products = dWt * dWts[j].T
            terms = products[keep] / kept_denom
            total = complex(terms.sum())
            if abs(total.imag) > 1e-7 * max(1.0, abs(total.real)):
                raise NumericalError("metric sum has imaginary residue %.3e" % total.imag)
            if i == j and total.real < 0.0:
                magnitude = float(np.abs(terms).sum())
                if total.real < -terms.size * np.finfo(float).eps * magnitude:
                    raise NumericalError(
                        "metric delta %.3e is negative beyond the rounding of its terms "
                        "(sum of |terms| %.3e)" % (total.real, magnitude))
            if i == j and dropped_pairs is not None:
                sizes = np.abs(products)
                dropped = float(sizes[dropped_pairs].max())
                if dropped > _SQRT_EPS * float(sizes.max()):
                    raise NumericalError(
                        "dV carries |dW_ij dW_ji| = %.3e on a pair with |w_i w_j - 1| <= %g, "
                        "which the metric skips: dV leaves the pure manifold or the state "
                        "is within that tolerance of pure" % (dropped, DEFAULT_METRIC_TOL))
            form[i, j] = form[j, i] = total.real
    return inv_low, form, int(keep.size - kept_denom.size)


def bures_metric_delta(V: np.ndarray, dV: np.ndarray) -> DeltaResult:
    """Covariance contribution delta of the Bures metric.

    dV is mapped to dW = -2 dV i Omega, rotated to the eigenbasis of W and
    summed as dW_ij dW_ji / (w_i w_j - 1) over index pairs with
    |w_i w_j - 1| > DEFAULT_METRIC_TOL; the number of skipped entries is
    returned alongside.  V and dV are refused as by the metric's kernel
    :func:`_metric_form`, V read from its lower triangle, and a delta that
    comes out negative beyond the rounding of its terms with NumericalError.
    """
    _, form, skipped = _metric_form(V, [dV])
    return DeltaResult(delta=float(form[0, 0]), skipped=skipped)


def bures_metric(s: GaussianState, du: np.ndarray, dV: np.ndarray) -> MetricEvaluation:
    """ds^2 = du^T V^{-1} du / 4 + delta / 8 for a state perturbed by (du, dV).

    Both parts come from the one frame of V = L L^T of :func:`_metric_form`,
    the mean part as |L^{-1} du|^2 / 4; V and dV are refused as by
    :func:`bures_metric_delta`.
    """
    du = real_array(du, "du")
    if du.shape != s.u.shape:
        raise InvalidParameter("du length does not match the state")
    if not np.isfinite(du).all():
        raise InvalidParameter("du has a non-finite entry")
    inv_low, form, skipped = _metric_form(s.V, [dV])
    y = inv_low @ du
    mean_part = float(0.25 * (y @ y))
    cov_part = float(form[0, 0]) / 8.0
    return MetricEvaluation(ds2=mean_part + cov_part, mean_part=mean_part,
                            cov_part=cov_part, skipped_terms=skipped)


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

def _step(h: float | None, default: float) -> float:
    """h (``default`` if None), refused unless finite and > 0."""
    step = default if h is None else h
    if not 0.0 < step < np.inf:
        raise InvalidParameter(f"QFI step h must be finite and > 0, got {step}")
    return step


def _moment_derivatives(family: Callable, theta0, h: float, axis=1.0):
    """4th-order central differences of the family's mean and covariance along
    ``axis`` at ``theta0`` (a scalar, or a vector with a unit ``axis``).

    The stencil reaches theta0 +- 2h; a family that refuses one of its points
    is reported with InvalidParameter naming theta0, h and that reach.
    """
    try:
        stencil = {k: family(theta0 + k * h * axis) for k in (-2, -1, 1, 2)}
    except InvalidParameter as exc:
        lo, hi, at = (np.array2string(np.asarray(x), precision=6)
                      for x in (theta0 - 2 * h * axis, theta0 + 2 * h * axis, theta0))
        raise InvalidParameter(
            f"the moment stencil at theta0 = {at} with step h = {h:g} reaches {lo} to "
            f"{hi}, where the family refuses a point: {exc}") from exc
    du = (stencil[-2].u - 8.0 * stencil[-1].u + 8.0 * stencil[1].u - stencil[2].u) / (12.0 * h)
    dV = (stencil[-2].V - 8.0 * stencil[-1].V + 8.0 * stencil[1].V - stencil[2].V) / (12.0 * h)
    return du, dV


def qfi_scalar(family: Callable[[float], GaussianState], theta0: float,
               mode: str = "analytic", h: float | None = None) -> float:
    """Quantum Fisher information H(theta) of a one-parameter Gaussian family.

    ``analytic`` differentiates the moment maps and evaluates H = 4 g from the
    metric; ``finite_difference`` evaluates 8 [1 - F(rho_theta, rho_theta+h)] / h^2.
    The two agree in the h -> 0 limit.  A family of :data:`FAMILIES` has exact
    moment derivatives, taken from its state at theta0: its analytic mode
    validates ``h`` but uses no step.  Any other callable is differentiated by
    the 4-point stencil with step ``h``.
    """
    if mode == "analytic":
        base = family(theta0)
        step = _step(h, DEFAULT_MOMENT_STEP)
        # a function hashes by identity; other callables may not hash at all
        exact = _EXACT_DERIVATIVES.get(family) if isinstance(family, FunctionType) else None
        du, dV = exact(base) if exact else _moment_derivatives(family, theta0, step)
        return 4.0 * bures_metric(base, du, dV).ds2
    if mode == "finite_difference":
        step = _step(h, DEFAULT_FD_STEP)
        if not sys.float_info.min <= step * step < math.inf:
            raise InvalidParameter(f"finite-difference step h = {step} has h^2 = {step * step}, "
                                   "which is not a normal float")
        f = fidelity(family(theta0), family(theta0 + step)).F
        return 8.0 * (1.0 - f) / step ** 2
    raise InvalidParameter(f"unknown QFI mode {mode!r}")


def qfi_matrix(family: Callable[[Sequence[float]], GaussianState],
               theta0: Sequence[float], h: float = DEFAULT_MOMENT_STEP,
               labels: Sequence[str] | None = None) -> QfiMatrix:
    """QFI matrix H_ij = 4 g_ij of a vector-parametrized Gaussian family.

    g is the metric's bilinear form on the axis moment derivatives,
    g_ij = du_i^T V^{-1} du_j / 4 + delta(dV_i, dV_j) / 8, from the one frame
    of V and its L^{-1} of :func:`_metric_form`; a one-parameter family gives
    qfi_scalar's value.  ``theta0`` must be a non-empty 1-D vector and
    ``labels``, if given, one name per parameter.  V and the dV_i are refused
    as by :func:`_metric_form`, as in qfi_scalar's analytic mode.
    """
    theta0 = real_array(theta0, "theta0")
    m = theta0.size
    if theta0.ndim != 1 or m == 0:
        raise InvalidParameter(f"theta0 must be a non-empty 1-D vector, got shape {theta0.shape}")
    if labels is not None and len(labels) != m:
        raise InvalidParameter(f"{len(labels)} labels given for {m} parameters")
    h = _step(h, DEFAULT_MOMENT_STEP)
    base = family(theta0)
    dus, dVs = zip(*(_moment_derivatives(family, theta0, h, axis) for axis in np.eye(m)))
    inv_low, delta, _ = _metric_form(base.V, dVs)
    Y = inv_low @ np.column_stack(dus)
    H = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            H[i, j] = H[j, i] = 4.0 * (0.25 * Y[:, i] @ Y[:, j] + delta[i, j] / 8.0)
    labels = tuple(f"theta_{i}" for i in range(m)) if labels is None else tuple(labels)
    return QfiMatrix(H=H, labels=labels)


# ---------------------------------------------------------------------------
# discrimination bounds
# ---------------------------------------------------------------------------

def error_bounds(F: float, N: int) -> ErrorBounds:
    """Fidelity bounds on the minimum error probability for N copies.

        (1 - sqrt(1 - F^{2N})) / 2  <=  p_err(N)  <=  F^N / 2

    Multiplicativity under tensor products enters as F^N.  N must be a
    positive integer; NaN, +-inf and an integer past the float range, where
    F^N cannot be formed, are refused with InvalidParameter.
    """
    if not (-1e-12 <= F <= 1.0 + 1e-12):
        raise InvalidParameter(f"fidelity must lie in [0, 1], got {F}")
    if not 1 <= N < math.inf or int(N) != N:  # a NaN fails the first test
        raise InvalidParameter("copy count must be a positive integer")
    f = min(max(float(F), 0.0), 1.0)
    try:
        fn = f ** N
    except OverflowError:  # an integer N too large to convert to a float
        raise InvalidParameter("copy count exceeds the float range") from None
    lower = 0.5 * (1.0 - np.sqrt(max(1.0 - fn * fn, 0.0)))
    return ErrorBounds(lower=float(lower), upper=float(0.5 * fn),
                       copies=int(N), fidelity_used=f)


# ---------------------------------------------------------------------------
# named one-parameter families for the CLI
# ---------------------------------------------------------------------------

#: The bases of the named families that move a fixed state, built once.
_VACUUM = states.vacuum(1)
_SQUEEZED = states.squeezed([1.0])


def coherent_displacement_family(theta: float) -> GaussianState:
    """Vacuum displaced along x: u = (theta, 0), V = I/2.  H = 2."""
    return states.displace(_VACUUM, [theta, 0.0])


def thermal_nbar_family(theta: float) -> GaussianState:
    """Single-mode thermal state with occupation theta.  H = 1/(theta(theta+1))."""
    return states.thermal([theta])


def squeeze_r_family(theta: float) -> GaussianState:
    """Squeezed vacuum with squeezing parameter theta.  H = 2 for all theta."""
    return states.squeezed([theta])


def phase_theta_family(theta: float) -> GaussianState:
    """Squeezed vacuum (r = 1) rotated by theta; phase estimation benchmark."""
    return states.apply_symplectic(_SQUEEZED, states.rotation_block(theta))


FAMILIES = {
    "coherent-displacement": coherent_displacement_family,
    "thermal-nbar": thermal_nbar_family,
    "squeeze-r": squeeze_r_family,
    "phase-theta": phase_theta_family,
}

#: Generator of phase-theta's rotation exp(theta K): du = K u, dV = K V + V K^T.
_K = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Exact (du, dV) of each named family from its state at theta.
_EXACT_DERIVATIVES = {
    coherent_displacement_family: lambda s: (np.array([1.0, 0.0]), np.zeros((2, 2))),
    thermal_nbar_family: lambda s: (np.zeros(2), np.eye(2)),
    squeeze_r_family: lambda s: (np.zeros(2), np.diag([-2.0 * s.V[0, 0], 2.0 * s.V[1, 1]])),
    phase_theta_family: lambda s: (_K @ s.u, _K @ s.V + s.V @ _K.T),
}


def get_family(name: str) -> Callable[[float], GaussianState]:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidParameter(
            f"unknown family {name!r}; available: {sorted(FAMILIES)}") from None
