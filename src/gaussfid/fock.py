"""Brute-force oracle: Gaussian states as truncated number-basis density matrices.

States are assembled by applying exact exponentials of truncated gate
generators to a thermal input, while the same circuit is tracked exactly at
the moment level; the two representations describe the same state up to
truncation.  This covers arbitrary Gaussian states within the parameter
limits below, since every Gaussian unitary decomposes into displacements,
squeezers, phase rotations and beam splitters.  Generators are
anti-Hermitian, so their exact exponentials are unitary and the trace
deficit stems from the thermal input tail alone; the population of the top
Fock level is reported as a secondary truncation diagnostic.

The circuit carries a factor A of rho = A A^dagger, a tensor with one row leg
per mode and one column per input level, starting as the diagonal root of the
thermal input.  A gate U maps A to U A: it is exponentiated on the factor of
the modes it acts on (the beam splitter block by block over its conserved
total photon number) and applied to those row legs only.  Single-mode gates
before the first two-mode gate act on per-mode factors, joined at that gate
(or at the end) into the Kronecker product's columns of input weight above
INPUT_WEIGHT_FLOOR.  rho is formed only when read: the trace deficit is
1 - ||A||_F^2, the populations are A's squared row norms, F is the nuclear norm
of A1^dagger A2, and a moment reads bands rho[n + d, n] = <A[n], A[n + d]>.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import GaussianState
from .errors import InvalidParameter, NumericalError, TruncationError
from . import states as st

# Hard per-primitive limits; beyond them the default cutoffs are unreliable.
MAX_ALPHA = 1.5
MAX_SQUEEZE = 0.8
MAX_NBAR = 1.5

#: Default cutoff per mode, keyed by mode count; the oracle is capped at 2 modes.
DEFAULT_CUTOFFS = {1: 56, 2: 25}

TRACE_DEFICIT_BUDGET = 1e-8
#: Trace deficits up to this size are roundoff of the build, not truncation.
TRACE_DEFICIT_ROUNDOFF = 1e-12
#: Input levels of weight at most this are dropped from the factor.  Dropped
#: weight delta <= cutoff^n * floor moves the trace deficit by at most delta
#: and F by at most sqrt(delta) per state, as ||X^H Y||_1 moves by at most
#: ||X - X'||_F ||Y||_F: 2.5e-11 at 2 modes (cutoff 25), 7.5e-12 at 1 (56).
INPUT_WEIGHT_FLOOR = 1e-24

# Sampling ranges (nbar, r, |alpha|) for random circuits, chosen so that the
# default cutoffs keep moment and fidelity truncation errors well below 1e-6.
SAMPLING_RANGES = {1: (0.6, 0.4, 0.8), 2: (0.35, 0.25, 0.5)}


@dataclass(frozen=True, eq=False, init=False)
class FockDensityMatrix:
    """A truncated density matrix given as ``rho``, as a ``factor`` A with rho =
    A A^dagger, or as both; a built state holds A alone and forms ``rho`` on first
    read.  tr rho is the given rho's trace, else ||A||_F^2.  Equality compares every
    field but ``factor``, and ``rho`` (a writable array: no hash) entry by entry."""

    n_modes: int
    cutoffs: tuple
    trace_deficit: float
    top_level_population: float = 0.0
    #: A with rho = A A^dagger, set by :func:`build_circuit_state`.
    factor: np.ndarray | None = field(default=None, repr=False)

    __hash__ = None

    def __init__(self, n_modes, cutoffs, rho, trace_deficit, top_level_population=0.0,
                 factor=None):
        if rho is None and factor is None:
            raise InvalidParameter("a density matrix needs rho or a factor of it")
        self.__dict__.update(n_modes=n_modes, cutoffs=cutoffs, trace_deficit=trace_deficit,
                             top_level_population=top_level_population, factor=factor, _rho=rho)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return _hermitise(self.factor @ self.factor.conj().T) if self._rho is None else self._rho

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n_modes, self.cutoffs, self.trace_deficit, self.top_level_population)
                == (other.n_modes, other.cutoffs, other.trace_deficit,
                    other.top_level_population)
                and np.array_equal(self.rho, other.rho))

    def validate(self) -> None:
        rho = self.rho
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(rho))):
            raise NumericalError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] < -1e-10:
            raise NumericalError(f"density matrix has eigenvalue {eigs[0]:.3e} < 0")
        tr = float(np.trace(rho).real)
        if not (1.0 - TRACE_DEFICIT_BUDGET <= tr <= 1.0 + 1e-12):
            raise TruncationError(f"trace {tr} is outside [1 - budget, 1]")


@dataclass(frozen=True)
class CircuitSpec:
    """Thermal input followed by an ordered list of Gaussian primitives.

    Ops are tuples: ("displace", mode, alpha), ("squeeze", mode, r, phi),
    ("phase", mode, phi), ("beamsplitter", (j, k), theta, phi).
    """

    n_modes: int
    thermal_nbar: tuple
    ops: tuple


class BuildResult(NamedTuple):
    fock: FockDensityMatrix
    gaussian: GaussianState


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)


def _unitary_from_generator(K: np.ndarray) -> np.ndarray:
    """exp(K) for anti-Hermitian K via the Hermitian eigenproblem of -iK."""
    herm = -1j * K
    w, U = np.linalg.eigh(herm)
    return (U * np.exp(1j * w)) @ U.conj().T


def thermal_fock(nbar: float, cutoff: int) -> np.ndarray:
    """Truncated geometric thermal state, p_k = nbar^k / (1 + nbar)^{k+1}."""
    if nbar < 0:
        raise InvalidParameter("thermal occupation must be >= 0")
    k = np.arange(cutoff)
    p = nbar ** k / (1.0 + nbar) ** (k + 1)  # 0.0 ** 0 = 1: the vacuum for nbar = 0
    return np.diag(p).astype(complex)


# ---------------------------------------------------------------------------
# circuit construction
# ---------------------------------------------------------------------------

def _gate(op, n: int, cutoffs: Sequence[int]):
    """A primitive's checks and both of its actions, as (modes, blocks, S, d).

    The primitive is refused with InvalidParameter when its kind is unknown,
    a mode index is not an integer or out of range (a beam splitter needs two
    distinct modes), |alpha| > MAX_ALPHA or |r| > MAX_SQUEEZE.  ``blocks`` is
    the exact exponential of its truncated generator on the factor of
    ``modes``, as (indices, block) pairs, and (S, d) its exact xxpp action
    u -> S u + d.

    A single-mode gate is one c x c block.  The beam splitter on modes (j, k)
    acts on the flattened factor index n_j * c_k + n_k; its generator
    conserves n_j + n_k, also after truncation, so it is exponentiated block
    by block over those sectors, each block cut from the same matrix as the
    full-space generator.
    """
    kind = op[0]
    if kind == "beamsplitter":
        _, modes, theta, phi = op
        try:
            modes = tuple(map(operator.index, modes))
        except TypeError:
            raise InvalidParameter(f"beamsplitter modes {modes!r} are not integers") from None
        if len(set(modes)) != 2 or any(not 0 <= m < n for m in modes):
            raise InvalidParameter("beamsplitter needs two distinct in-range modes")
        cj, ck = cutoffs[modes[0]], cutoffs[modes[1]]
        aj, ak = destroy(cj), destroy(ck)
        total = np.add.outer(np.arange(cj), np.arange(ck)).ravel()
        blocks = []
        for N in range(cj + ck - 1):
            idx = np.flatnonzero(total == N)
            on_j, on_k = np.ix_(idx // ck, idx // ck), np.ix_(idx % ck, idx % ck)
            K = theta * (np.exp(1j * phi) * aj.conj().T[on_j] * ak[on_k]
                         - np.exp(-1j * phi) * aj[on_j] * ak.conj().T[on_k])
            blocks.append((idx, _unitary_from_generator(K)))
        S = st.embed_symplectic(st.beamsplitter_block(theta, phi), modes, n)
        return modes, blocks, S, np.zeros(2 * n)
    if kind not in ("displace", "squeeze", "phase"):
        raise InvalidParameter(f"unknown primitive {kind!r}")
    try:
        mode = operator.index(op[1])
    except TypeError:
        raise InvalidParameter(f"mode index {op[1]!r} is not an integer") from None
    if not 0 <= mode < n:
        raise InvalidParameter(f"mode index {mode} out of range")
    a = destroy(cutoffs[mode])
    d = np.zeros(2 * n)
    if kind == "displace":
        _, _, alpha = op
        if abs(alpha) > MAX_ALPHA:
            raise InvalidParameter(f"|alpha| = {abs(alpha)} exceeds {MAX_ALPHA}")
        K = alpha * a.conj().T - np.conj(alpha) * a
        S = np.eye(2 * n)
        d[mode], d[n + mode] = np.sqrt(2.0) * np.real(alpha), np.sqrt(2.0) * np.imag(alpha)
    elif kind == "squeeze":
        _, _, r, phi = op
        if abs(r) > MAX_SQUEEZE:
            raise InvalidParameter(f"|r| = {abs(r)} exceeds {MAX_SQUEEZE}")
        xi = r * np.exp(1j * phi)
        K = 0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T)
        S = st.embed_symplectic(st.squeeze_block(r, phi), [mode], n)
    else:
        _, _, phi = op
        K = -1j * phi * a.conj().T @ a
        S = st.embed_symplectic(st.rotation_block(phi), [mode], n)
    return [mode], [(slice(None), _unitary_from_generator(K))], S, d


def _apply_left(t: np.ndarray, legs: Sequence[int], blocks) -> np.ndarray:
    """Multiply the tensor legs ``legs`` of t from the left by a
    block-diagonal operator given as (indices, block) pairs."""
    k = len(legs)
    front = np.moveaxis(t, legs, range(k))
    shape = front.shape
    flat = front.reshape(int(np.prod(shape[:k])), -1)
    out = np.empty_like(flat)
    for idx, U in blocks:
        # a full-factor block is written in place; sector rows are gathered
        if isinstance(idx, slice):
            np.matmul(U, flat[idx], out=out[idx])
        else:
            out[idx] = U @ flat[idx]
    return np.moveaxis(out.reshape(shape), range(k), legs)


def _hermitise(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger) / 2, in place."""
    a += a.conj().T
    a *= 0.5
    return a


def build_circuit_state(circuit: CircuitSpec, cutoff: int | None = None) -> BuildResult:
    """Build the same state as a truncated density matrix and as exact moments.

    The density matrix holds the factor tracked through the gates as
    ``fock.factor`` and forms ``fock.rho`` only when it is read.  The mode
    count and thermal_nbar are checked before the first gate, each gate as
    it is applied (:func:`_gate`).  Raises :class:`TruncationError` when the
    final trace deficit exceeds TRACE_DEFICIT_BUDGET; raise the cutoff then.
    """
    n = circuit.n_modes
    if n not in (1, 2):
        raise InvalidParameter("the oracle supports 1 or 2 modes only")
    if len(circuit.thermal_nbar) != n:
        raise InvalidParameter("thermal_nbar length must match the mode count")
    for nb in circuit.thermal_nbar:
        if not 0 <= nb <= MAX_NBAR:
            raise InvalidParameter(f"thermal occupation {nb} outside [0, {MAX_NBAR}]")
    cutoff = DEFAULT_CUTOFFS[n] if cutoff is None else cutoff
    if cutoff < 4:
        raise InvalidParameter("cutoff must be at least 4")
    cutoffs = (cutoff,) * n

    inputs = [thermal_fock(nb, cutoff) for nb in circuit.thermal_nbar]
    factors = [np.sqrt(rho_in) for rho_in in inputs]  # per mode until a two-mode gate
    A = None
    u = np.zeros(2 * n)
    V = np.diag(np.concatenate([np.asarray(circuit.thermal_nbar)] * 2) + 0.5)
    for op in circuit.ops:
        modes, blocks, S, d = _gate(op, n, cutoffs)
        if A is None and len(modes) == 1:
            factors[modes[0]] = _apply_left(factors[modes[0]], [0], blocks)
        else:
            if A is None:
                A = _join(factors, inputs).reshape(cutoffs + (-1,))
            A = _apply_left(A, modes, blocks)
        u = S @ u + d
        V = S @ V @ S.T
    A = (_join(factors, inputs) if A is None else A).reshape(cutoff ** n, -1)
    population = _populations(A)
    deficit = float(1.0 - population.sum())
    if deficit > TRACE_DEFICIT_BUDGET:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds budget {TRACE_DEFICIT_BUDGET:.1e}; "
            "raise the cutoff")
    top = population[np.any(np.indices(cutoffs).reshape(n, -1) == cutoff - 1, axis=0)].sum()
    fock = FockDensityMatrix(n, cutoffs, None, max(deficit, 0.0), float(top), factor=A)
    return BuildResult(fock=fock, gaussian=GaussianState(n, u, V))


def _join(factors, inputs) -> np.ndarray:
    """The columns of the per-mode factors' Kronecker product whose input
    weight exceeds INPUT_WEIGHT_FLOOR, built without the other columns."""
    weight = functools.reduce(np.multiply.outer, [rho_in.diagonal().real for rho_in in inputs])
    kept = np.argwhere(weight > INPUT_WEIGHT_FLOOR)  # input levels per mode, in kron order
    A = factors[0][:, kept[:, 0]]
    for f, levels in zip(factors[1:], kept.T[1:]):
        A = (A[:, None, :] * f[:, levels]).reshape(-1, len(kept))
    return A


def _populations(A: np.ndarray) -> np.ndarray:
    """rho's diagonal, A's squared row norms (their sum errs by ~1e-16, a flat vdot's by 4e-14)."""
    return np.einsum("ij,ij->i", A.real, A.real) + np.einsum("ij,ij->i", A.imag, A.imag)


# ---------------------------------------------------------------------------
# fidelity and moments
# ---------------------------------------------------------------------------

def uhlmann_fidelity_matrix(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) = ||A1^dagger A2||_1 / sqrt(tr rho1 tr rho2)
    for any rho_k = A_k A_k^dagger (Uhlmann): ``r_k.factor``, else from eigh of rho_k."""
    f = fidelity_of_matrices(r1._rho, r2._rho, r1.factor, r2.factor)
    if f > 1.0 + 1e-8:
        raise NumericalError(f"fidelity {f} exceeds 1 beyond tolerance")
    return min(f, 1.0)


def fidelity_of_matrices(rho1: np.ndarray | None, rho2: np.ndarray | None,
                         factor1=None, factor2=None) -> float:
    """Uhlmann fidelity of two Hermitian PSD matrices (trace-normalized), the
    singular-value sum of A1^dagger A2 over sqrt(tr rho1 tr rho2); ``factor_k``
    (rho_k = A_k A_k^dagger) spares the eigendecomposition, and rho_k may be None."""
    (a1, t1), (a2, t2) = _root(rho1, factor1), _root(rho2, factor2)
    if a1.shape[0] != a2.shape[0]:
        raise InvalidParameter("density matrices have different dimensions")
    return float(np.sum(np.linalg.svd(a1.conj().T @ a2, compute_uv=False)) / np.sqrt(t1 * t2))


def _root(rho: np.ndarray | None, factor: np.ndarray | None) -> tuple:
    """(A, t) with A A^dagger / t = rho / tr rho: ``factor`` with t = tr rho (||factor||_F^2
    when rho is None), else U sqrt(w) from eigh of rho / tr rho, w clipped at 0, and t = 1."""
    if factor is not None:
        return factor, float(_populations(factor).sum() if rho is None else np.trace(rho).real)
    w, U = np.linalg.eigh(_hermitise(np.asarray(rho) / np.trace(rho)))
    if w[0] < -1e-8:
        raise NumericalError(f"eigenvalue {w[0]:.3e} below -1e-8")
    return U * np.sqrt(np.clip(w, 0.0, None)), 1.0


def moments_from_fock(r: FockDensityMatrix) -> GaussianState:
    """Mean and covariance from ladder-operator expectations on a factor A of
    rho (as for the fidelity): a product X of ladder operators shifts number
    states by some d, so Tr(rho X) reads only the band rho[n + d, n] =
    <A[n], A[n + d]>, weighted by X's own truncated matrix elements."""
    n, cutoffs = r.n_modes, tuple(r.cutoffs)
    A, trace = _root(r._rho, r.factor)
    A = A.reshape(cutoffs + (-1,))
    bands = {}

    def expectation(ops: list) -> complex:
        """Tr(rho X) / tr rho, X the product of ops = [(d_m, X_m)], X_m a band at d_m."""
        d = tuple(dm for dm, _ in ops)
        if d not in bands:
            rows = tuple(slice(max(-dm, 0), c - max(dm, 0)) for dm, c in zip(d, cutoffs))
            shifted = tuple(slice(max(dm, 0), c - max(-dm, 0)) for dm, c in zip(d, cutoffs))
            bands[d] = np.vecdot(A[rows], A[shifted])  # conjugates its first argument
        value = bands[d]
        for dm, X in reversed(ops):
            value = value @ np.diagonal(X, dm)
        return value / trace

    # (a_1 .. a_n, a_1^dagger .. a_n^dagger): a shifts n_m by +1, a^dagger by -1
    a = [destroy(c) for c in cutoffs]
    ladders = [[(s, a[m] if s == 1 else a[m].T) if k == m else (0, np.eye(c))
                for k, c in enumerate(cutoffs)] for s in (1, -1) for m in range(n)]
    first = np.array([expectation(b) for b in ladders])
    second = np.array([[expectation([(d + e, X @ Y) for (d, X), (e, Y) in zip(b, c)])
                        for c in ladders] for b in ladders])
    # x = (a + a^dagger) / sqrt(2), p = -i (a - a^dagger) / sqrt(2)
    T = np.kron([[1.0, 1.0], [-1j, 1j]], np.eye(n)) / np.sqrt(2.0)
    u, M = (T @ first).real, (T @ second @ T.T).real
    return GaussianState(n, u, 0.5 * (M + M.T) - np.outer(u, u))


# ---------------------------------------------------------------------------
# random circuits for oracle cross-checks
# ---------------------------------------------------------------------------

def random_circuit(n_modes: int, rng: np.random.Generator) -> CircuitSpec:
    """Random circuit within the sampling ranges: thermal input, per-mode
    squeeze and phase, beam splitter between neighbours, per-mode displacement."""
    if n_modes not in SAMPLING_RANGES:
        raise InvalidParameter("random circuits support 1 or 2 modes")
    max_nb, max_r, max_al = SAMPLING_RANGES[n_modes]
    nbar = tuple(rng.uniform(0.0, max_nb, n_modes))
    ops = []
    for m in range(n_modes):
        ops.append(("squeeze", m, rng.uniform(-max_r, max_r), rng.uniform(0, 2 * np.pi)))
        ops.append(("phase", m, rng.uniform(0, 2 * np.pi)))
    for m in range(n_modes - 1):
        ops.append(("beamsplitter", (m, m + 1), rng.uniform(0, 2 * np.pi),
                    rng.uniform(0, 2 * np.pi)))
    for m in range(n_modes):
        alpha = rng.uniform(-max_al, max_al) + 1j * rng.uniform(-max_al, max_al)
        ops.append(("displace", m, alpha))
    return CircuitSpec(n_modes=n_modes, thermal_nbar=nbar, ops=tuple(ops))
