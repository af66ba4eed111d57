"""Gaussian-state types and the symplectic linear algebra underneath them.

Conventions used throughout the package: hbar = 1, annihilation operator
a = (x + ip)/sqrt(2), vacuum covariance matrix = identity/2, symplectic
eigenvalues >= 1/2.  Every array is in the "xxpp" quadrature layout,
Q = (x_1..x_n, p_1..p_n); the interleaved "xpxp" layout is accepted at the
boundary only (see :meth:`GaussianState.from_xpxp`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidState, NumericalError

# The package's fixed tolerances.
DEFAULT_PHYS_TOL = 1e-9       # physicality of V + i*Omega/2
DEFAULT_RECON_TOL = 1e-8      # Williamson residual checks


# ---------------------------------------------------------------------------
# counts, the symplectic form and the interleaving permutation
# ---------------------------------------------------------------------------

def check_count(value, what: str = "mode count", least: int = 1) -> int:
    """``value`` as a Python int, refused with :class:`InvalidParameter`
    unless it is an integer (``operator.index`` accepts it) of at least
    ``least``: the one check of a mode count, and of a seed."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}") from None
    if count < least:
        raise InvalidParameter(f"{what} must be >= {least}, got {count}")
    return count


# typed, so that a float n misses the cache of the int it equals and is refused
@functools.lru_cache(maxsize=64, typed=True)
def make_symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = [[0, I], [-I, 0]] encoding
    [Q, Q^T] = i*Omega.

    The array is built once per n, cached and read-only: writing to it, or
    re-enabling writes with ``setflags``, raises ``ValueError``.
    """
    n = check_count(n)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    omega = np.block([[zero, eye], [-eye, zero]])
    omega.setflags(write=False)
    return omega.view()


@functools.lru_cache(maxsize=64)
def _half_i_omega(n: int) -> np.ndarray:
    """i*Omega/2, the shift of V + i*Omega/2, cached and read-only per n like
    :func:`make_symplectic_form`."""
    half = 0.5j * make_symplectic_form(n)
    half.setflags(write=False)
    return half.view()


def xxpp_to_xpxp_indices(n: int) -> np.ndarray:
    """Index array p with v_xpxp = v_xxpp[p]; ``n`` is checked as a mode count."""
    n = check_count(n)
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return perm


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

class _kept:
    """A value a state computes from its arrays on first access and keeps in
    its instance dict, which later reads find before this descriptor.

    Unlike ``functools.cached_property`` on Python < 3.12, it takes no lock:
    two threads that read the value first may both compute it, and each keeps
    an equal result.  A computation that raises keeps nothing.  ``func`` is
    looked up on every computation, so a test can record its calls.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True, eq=False)
class GaussianState:
    """An n-mode Gaussian state given by its mean vector and covariance matrix.

    ``u`` and ``V`` are in the xxpp layout; :meth:`from_xpxp` converts
    interleaved arrays.  Arrays are copied and frozen at construction;
    instances are immutable and safe to share across threads, and copies and
    pickles are rebuilt through the constructor, which freezes them again.
    Two states are equal when their mode count and arrays are equal entry by
    entry; equal states hash alike, so states can be set members and dict
    keys.  Each instance computes its hash once, and states whose hashes
    differ compare unequal without reading their arrays again.

    The mode count must be an integer of at least 1, and is kept as a Python
    int.  Besides the hash, a state keeps four values that depend on V alone,
    each computed on first use: its purity invariant t(V), its factor
    det(V + i Omega/2) of the invariant Lambda, its symplectic spectrum nu
    (read-only) and the LU ``slogdet(V + V)``.  None of the five is a field:
    equality, hashing, ``repr``, copies and pickles do not see them.  A
    computation that raises keeps nothing.
    """

    n: int
    u: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # an int of at least 1 is kept as is
            object.__setattr__(self, "n", check_count(self.n))
        u = np.array(self.u, dtype=float)
        V = np.array(self.V, dtype=float)
        if u.shape != (2 * self.n,):
            raise InvalidParameter(f"mean vector has shape {u.shape}, expected {(2 * self.n,)}")
        if V.shape != (2 * self.n, 2 * self.n):
            raise InvalidParameter(
                f"covariance matrix has shape {V.shape}, expected {(2 * self.n,) * 2}")
        # a view of a read-only base cannot be made writable
        u.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "u", u.view())
        object.__setattr__(self, "V", V.view())

    @classmethod
    def from_xpxp(cls, u, V) -> "GaussianState":
        """The state whose mean and covariance in the interleaved layout
        (x_1, p_1, .., x_n, p_n) are ``u`` and ``V``."""
        u = np.asarray(u, dtype=float)
        V = np.asarray(V, dtype=float)
        n = u.size // 2
        if n < 1 or u.shape != (2 * n,) or V.shape != (2 * n, 2 * n):
            raise InvalidParameter(
                f"mean/cov shapes {u.shape}/{V.shape} do not describe an xpxp state")
        perm = np.argsort(xxpp_to_xpxp_indices(n))
        return cls(n, u[perm], V[perm[:, None], perm])

    def __reduce__(self):
        return self.__class__, (self.n, self.u, self.V)

    @_kept
    def _purity_invariant(self) -> float:
        """t(V) = -(2/n) Tr((V Omega)^2) = (4/n) sum_k nu_k^2, evaluated on
        first access and kept like :attr:`_lambda_factor`.

        t = 1 on a pure state and t > 1 on every other physical state.  With
        V = [[a, b], [c, d]], Omega V Omega = [[-d, c], [b, -a]], so
        Tr((V Omega)^2) = sum(V * Omega V Omega) = -2 (sum(a * d) - sum(b * c))
        needs no matrix product.
        """
        n, V = self.n, self.V
        return (4.0 / n) * float(np.vdot(V[:n, :n], V[n:, n:]) - np.vdot(V[:n, n:], V[n:, :n]))

    @staticmethod
    def _lambda_factor_of(V: np.ndarray) -> complex:
        """det(V + i Omega/2), one covariance's factor of the invariant Lambda."""
        return np.linalg.det(V + _half_i_omega(V.shape[0] // 2))

    @_kept
    def _lambda_factor(self) -> complex:
        """:meth:`_lambda_factor_of` this state's V, evaluated on first access.

        The frozen arrays keep it valid for the instance's lifetime; it is
        not a field, so equality, hashing and ``repr`` do not see it.
        """
        return self._lambda_factor_of(self.V)

    @_kept
    def _symplectic_spectrum(self) -> np.ndarray:
        """:func:`symplectic_eigenvalues` of this state's V, read-only, kept
        like :attr:`_lambda_factor`.  A V it refuses caches nothing, so the
        refusal repeats on every access."""
        # the copy owns its data, so the view returned cannot be made writable
        nu = symplectic_eigenvalues(self.V).copy()
        nu.setflags(write=False)
        return nu.view()

    @_kept
    def _slogdet_2v(self) -> tuple[float, float]:
        """The LU ``slogdet(V + V)``, kept like :attr:`_lambda_factor`.  It is
        the reference :attr:`_symplectic_spectrum` is checked against, so it
        is not read off V's Cholesky factor, whose rounding nu shares."""
        sign, logdet = np.linalg.slogdet(self.V + self.V)
        return float(sign), float(logdet)

    @_kept
    def _hash(self) -> int:
        """The hash of the mode count and arrays, computed on first access and
        kept outside the fields like :attr:`_lambda_factor`."""
        # adding 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((self.n, (self.u + 0.0).tobytes(), (self.V + 0.0).tobytes()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # states that hash apart differ; a NaN entry keeps a state unequal even to itself
        return (self._hash == other._hash and self.n == other.n
                and np.array_equal(self.u, other.u) and np.array_equal(self.V, other.V))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class PhysicalityReport:
    symmetric: bool
    min_eig_shifted: float
    physical: bool


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """V = S (D + D) S^T with S symplectic and D = diag(nu), nu descending.

    The residuals are max|S Omega S^T - Omega| and max|S (D + D) S^T - V|, the
    values :func:`williamson` checked before returning.
    """

    S: np.ndarray
    nu: np.ndarray
    residual_symplectic: float
    residual_reconstruction: float


# ---------------------------------------------------------------------------
# physicality
# ---------------------------------------------------------------------------

def validate_state(state: GaussianState) -> PhysicalityReport:
    """Check symmetry of V and the uncertainty relation V + i*Omega/2 >= 0.

    ``min_eig_shifted`` is the smallest eigenvalue of the Hermitian matrix
    V + i*Omega/2; the state is physical iff it is >= -tol*scale and V is
    symmetric within tol*scale (tol = DEFAULT_PHYS_TOL, scale = max(1, max|V|)).  A V
    with a NaN or infinite entry is unphysical, with ``min_eig_shifted`` NaN.
    """
    V = state.V
    if not np.isfinite(V).all():
        # eigvalsh reads one triangle only and fails to converge on a NaN
        return PhysicalityReport(symmetric=False, min_eig_shifted=float("nan"),
                                 physical=False)
    scale = max(1.0, float(np.max(np.abs(V))))
    symmetric = bool(np.max(np.abs(V - V.T)) <= DEFAULT_PHYS_TOL * scale)
    min_eig = float(np.linalg.eigvalsh(V + _half_i_omega(state.n))[0])
    return PhysicalityReport(
        symmetric=symmetric,
        min_eig_shifted=min_eig,
        physical=symmetric and min_eig >= -DEFAULT_PHYS_TOL * scale,
    )


def require_physical(state: GaussianState) -> None:
    """Raise :class:`InvalidState` exactly when :func:`validate_state` reports
    the state unphysical.

    With tol = DEFAULT_PHYS_TOL and scale = max(1, max|V|), a Cholesky
    factorisation of V + i*Omega/2 + (tol*scale/2)*I is the accept test: it
    succeeds only if the smallest eigenvalue of V + i*Omega/2 lies above
    -tol*scale/2 up to roundoff, which the eigenvalue test accepts too.
    Everything else goes to :func:`validate_state`, which alone decides: a
    failed factorisation, an asymmetric V and a V with a non-finite entry
    (an inf makes the bound infinite, a NaN fails the symmetry test).
    A mean vector with a NaN or infinite entry is refused as well.
    """
    if not np.isfinite(state.u).all():
        raise InvalidState("state is not physical: the mean vector has a non-finite entry")
    V = state.V
    bound = DEFAULT_PHYS_TOL * max(1.0, float(np.max(np.abs(V))))
    if bound < np.inf and np.max(np.abs(V - V.T)) <= bound:
        shifted = V + _half_i_omega(state.n)
        shifted.flat[::V.shape[0] + 1] += 0.5 * bound
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
    if not np.isfinite(V).all():
        raise InvalidState("state is not physical: the covariance matrix has a non-finite entry")
    report = validate_state(state)
    if not report.physical:
        raise InvalidState(
            "state is not physical: symmetric=%s, min_eig_shifted=%.3e"
            % (report.symmetric, report.min_eig_shifted))


# ---------------------------------------------------------------------------
# symplectic frame and Williamson decomposition
# ---------------------------------------------------------------------------

def _cholesky(V) -> np.ndarray:
    """The lower-triangular L with V = L L^T, read from V's lower triangle: the
    one factorisation behind every symplectic spectrum and frame.

    A V that is not a square matrix of even dimension, or that has a NaN or
    infinite entry, is refused with :class:`InvalidParameter`; one that is not
    positive definite to working precision with :class:`NumericalError`.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2 or not V.size:
        raise InvalidParameter(
            f"expected a square matrix of even dimension, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise InvalidParameter("matrix has a non-finite entry")
    try:
        return np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is not positive definite to working precision") from exc


def symplectic_frame(V: np.ndarray):
    """The frame (L, mu, psi) of a positive-definite V = L L^T, in which
    :func:`williamson` and the Bures metric both work.

    L is :func:`_cholesky`'s factor; mu (ascending, the pairs +-nu_k) and psi
    are the eigenvalues and vectors of the Hermitian i L^T Omega L from one
    ``eigh``.  L^{-1} is left to the metric, the one caller that needs it.
    """
    low = _cholesky(V)
    omega = make_symplectic_form(low.shape[0] // 2)
    mu, psi = np.linalg.eigh(1j * low.T @ omega @ low)
    return low, mu, psi


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive-definite V, in descending order.

    With V = L L^T, L^T Omega L = L^{-1} (V Omega) L is real antisymmetric,
    so its singular values are the nu, each twice; over L's row blocks it is
    X - X^T with X = L_x^T L_p, L being :func:`_cholesky`'s factor.
    """
    low = _cholesky(V)
    n = low.shape[0] // 2
    k = low[:n].T @ low[n:]
    k -= k.T
    return np.linalg.svd(k, compute_uv=False)[::2]


def williamson(V: np.ndarray) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite matrix V.

    The symplectic matrix is assembled in the frame of V = L L^T (see
    :func:`symplectic_frame`): an eigenvector psi = (a + ib)/sqrt(2) of
    i L^T Omega L for eigenvalue nu_k > 0 supplies two orthonormal real
    columns, and S = L [b | a] (D + D)^{-1/2} (S is not unique).  Both
    defining identities (S Omega S^T = Omega and S (D+D) S^T = V, all of V)
    are verified to DEFAULT_RECON_TOL before returning; a NaN fails them.
    """
    V = np.asarray(V, dtype=float)
    low, mu, psi = symplectic_frame(V)
    n = V.shape[0] // 2
    omega = make_symplectic_form(n)
    nu, vecs = mu[n:][::-1], psi[:, n:][:, ::-1]  # eigh's mu ascends
    ortho = np.sqrt(2.0) * np.hstack([vecs.imag, vecs.real])
    D = np.concatenate([nu, nu])
    S = (low @ ortho) * D ** -0.5

    tol = DEFAULT_RECON_TOL * max(1.0, float(np.max(np.abs(V))))
    resid_symp = float(np.max(np.abs(S @ omega @ S.T - omega)))
    if not resid_symp <= tol:
        raise NumericalError("assembled matrix fails S Omega S^T = Omega")
    resid_recon = float(np.max(np.abs((S * D) @ S.T - V)))
    if not resid_recon <= tol:
        raise NumericalError("assembled decomposition fails to reconstruct V")
    return WilliamsonDecomposition(S=S, nu=nu, residual_symplectic=resid_symp,
                                   residual_reconstruction=resid_recon)
