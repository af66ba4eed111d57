"""Brute-force oracle: Gaussian states as truncated number-basis density matrices.

States are assembled by applying exact exponentials of truncated gate
generators to a thermal input, while the same circuit is tracked exactly at
the moment level; the two representations describe the same state up to
truncation.  This covers arbitrary Gaussian states within the parameter
limits below, since every Gaussian unitary decomposes into displacements,
squeezers, phase rotations and beam splitters.

Generators are anti-Hermitian, so their exact exponentials are unitary and
the trace deficit stems from the thermal input tail alone; the population of
the top Fock level is reported as a secondary truncation diagnostic.

The circuit carries sigma = sqrt(rho) rather than rho: the unitaries are
exact on the truncated space, so U sqrt(rho_th) U^dagger is the square root
of U rho_th U^dagger and the Uhlmann fidelity needs no diagonalisation of
rho1.  sigma starts as the diagonal root of the thermal input, and rho =
sigma sigma is formed once at the end.  Single-mode gates that come before
the circuit's first two-mode gate act on per-mode cutoff-sized factors,
which are joined by a Kronecker product at that gate (or at the end).

The full-space matrix is handled as a tensor with one row and one column leg
per mode.  A gate is exponentiated on the factor of the modes it acts on (the
beam splitter block by block over its conserved total photon number) and
applied to those legs only; moments contract single-mode quadrature factors
against the tensor.  :func:`mode_operators` and :func:`quadrature_operators`
give the same operators on the full space, as a dense reference.
"""

from __future__ import annotations

import functools
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

# Sampling ranges (nbar, r, |alpha|) for random circuits, chosen so that the
# default cutoffs keep moment and fidelity truncation errors well below 1e-6.
SAMPLING_RANGES = {1: (0.6, 0.4, 0.8), 2: (0.35, 0.25, 0.5)}


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """A truncated density matrix.  Equality compares every field but
    ``root`` (a derived quantity), ``rho`` entry by entry; ``rho`` is a plain
    writable array, so instances are not hashable."""

    n_modes: int
    cutoffs: tuple
    rho: np.ndarray
    trace_deficit: float
    top_level_population: float = 0.0
    #: Hermitian square root of ``rho`` (rho = root @ root), set by
    #: :func:`build_circuit_state`; without it the Uhlmann fidelity
    #: diagonalises rho.
    root: np.ndarray | None = field(default=None, repr=False)

    __hash__ = None

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


def _quadratures(a_ops: list) -> list:
    """(x_1..x_n, p_1..p_n) with x = (a + a')/sqrt(2) from the a_k."""
    return ([(a + a.conj().T) / np.sqrt(2.0) for a in a_ops]
            + [-1j * (a - a.conj().T) / np.sqrt(2.0) for a in a_ops])


def quadrature_operators(cutoffs: Sequence[int]) -> list:
    """Quadratures (x_1..x_n, p_1..p_n) on the full tensor-product space."""
    return _quadratures(mode_operators(cutoffs))


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

def _validate_circuit(circuit: CircuitSpec) -> None:
    if circuit.n_modes not in (1, 2):
        raise InvalidParameter("the oracle supports 1 or 2 modes only")
    if len(circuit.thermal_nbar) != circuit.n_modes:
        raise InvalidParameter("thermal_nbar length must match the mode count")
    for nb in circuit.thermal_nbar:
        if not 0 <= nb <= MAX_NBAR:
            raise InvalidParameter(f"thermal occupation {nb} outside [0, {MAX_NBAR}]")
    for op in circuit.ops:
        kind = op[0]
        if kind == "displace":
            _, mode, alpha = op
            if abs(alpha) > MAX_ALPHA:
                raise InvalidParameter(f"|alpha| = {abs(alpha)} exceeds {MAX_ALPHA}")
        elif kind == "squeeze":
            _, mode, r, _ = op
            if abs(r) > MAX_SQUEEZE:
                raise InvalidParameter(f"|r| = {abs(r)} exceeds {MAX_SQUEEZE}")
        elif kind == "phase":
            _, mode, _ = op
        elif kind == "beamsplitter":
            _, modes, _, _ = op
            if len(set(modes)) != 2 or any(not 0 <= m < circuit.n_modes for m in modes):
                raise InvalidParameter("beamsplitter needs two distinct in-range modes")
            continue
        else:
            raise InvalidParameter(f"unknown primitive {kind!r}")
        if not 0 <= op[1] < circuit.n_modes:
            raise InvalidParameter(f"mode index {op[1]} out of range")


def _gate_blocks(op, cutoffs: Sequence[int]):
    """Exact exponential of a primitive's truncated generator, as
    (modes, [(indices, block), ...]) on the factor of the modes it acts on.

    A single-mode gate is one c x c block.  The beam splitter on modes (j, k)
    acts on the flattened factor index n_j * c_k + n_k; its generator
    conserves n_j + n_k, also after truncation, so it is exponentiated block
    by block over those sectors, each block cut from the same matrix as the
    full-space generator.
    """
    kind = op[0]
    if kind == "beamsplitter":
        _, modes, theta, phi = op
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
        return list(modes), blocks
    mode = op[1]
    a = destroy(cutoffs[mode])
    if kind == "displace":
        alpha = op[2]
        K = alpha * a.conj().T - np.conj(alpha) * a
    elif kind == "squeeze":
        _, _, r, phi = op
        xi = r * np.exp(1j * phi)
        K = 0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T)
    else:
        K = -1j * op[2] * a.conj().T @ a
    return [mode], [(slice(None), _unitary_from_generator(K))]


def _apply_left(rho_t: np.ndarray, legs: Sequence[int], blocks) -> np.ndarray:
    """Multiply the tensor legs ``legs`` of rho_t from the left by a
    block-diagonal operator given as (indices, block) pairs."""
    k = len(legs)
    front = np.moveaxis(rho_t, legs, range(k))
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


def _conjugate(rho: np.ndarray, cutoffs: Sequence[int], modes, blocks) -> np.ndarray:
    """U rho U^dagger for U acting on ``modes``, with rho a full-space matrix."""
    n = len(cutoffs)
    rho_t = _apply_left(rho.reshape(tuple(cutoffs) * 2), modes, blocks)
    rho_t = _apply_left(rho_t, [n + m for m in modes], [(i, U.conj()) for i, U in blocks])
    return rho_t.reshape(rho.shape)


def _hermitise(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger) / 2, in place."""
    a += a.conj().T
    a *= 0.5
    return a


def _op_moment_action(op, n: int):
    """Exact (S, d) action of a primitive on (u, V) in the xxpp layout."""
    kind = op[0]
    if kind == "displace":
        _, mode, alpha = op
        d = np.zeros(2 * n)
        d[mode] = np.sqrt(2.0) * np.real(alpha)
        d[n + mode] = np.sqrt(2.0) * np.imag(alpha)
        return np.eye(2 * n), d
    if kind == "squeeze":
        block, modes = st.squeeze_block(*op[2:]), [op[1]]
    elif kind == "phase":
        block, modes = st.rotation_block(op[2]), [op[1]]
    else:
        block, modes = st.beamsplitter_block(*op[2:]), list(op[1])
    return st.embed_symplectic(block, modes, n), np.zeros(2 * n)


def build_circuit_state(circuit: CircuitSpec, cutoff: int | None = None,
                        deficit_budget: float = TRACE_DEFICIT_BUDGET) -> BuildResult:
    """Build the same state as a truncated density matrix and as exact moments.

    The density matrix carries its Hermitian square root, tracked through the
    gates, as ``fock.root``.  Raises :class:`TruncationError` when the final
    trace deficit exceeds the budget; raise the cutoff in that case.
    """
    _validate_circuit(circuit)
    n = circuit.n_modes
    if cutoff is None:
        cutoff = DEFAULT_CUTOFFS[n]
    if cutoff < 4:
        raise InvalidParameter("cutoff must be at least 4")
    cutoffs = (cutoff,) * n

    # sigma = sqrt(rho): per-mode factors until the first two-mode gate; the
    # input's root is the elementwise root of its diagonal matrix
    factors = [np.sqrt(thermal_fock(nb, cutoff)) for nb in circuit.thermal_nbar]
    sigma = None
    u = np.zeros(2 * n)
    V = np.diag(np.concatenate([np.asarray(circuit.thermal_nbar)] * 2) + 0.5)
    for op in circuit.ops:
        modes, blocks = _gate_blocks(op, cutoffs)
        if sigma is None and len(modes) == 1:
            m = modes[0]
            factors[m] = _hermitise(_conjugate(factors[m], cutoffs[m:m + 1], [0], blocks))
        else:
            if sigma is None:
                sigma = functools.reduce(np.kron, factors)
            sigma = _hermitise(_conjugate(sigma, cutoffs, modes, blocks))
        S, d = _op_moment_action(op, n)
        u = S @ u + d
        V = S @ V @ S.T
    if sigma is None:
        sigma = functools.reduce(np.kron, factors)
    rho = _hermitise(sigma @ sigma)

    deficit = float(1.0 - np.trace(rho).real)
    top = _top_level_population(rho, cutoffs)
    if deficit > deficit_budget:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds budget {deficit_budget:.1e}; "
            "raise the cutoff")
    fock = FockDensityMatrix(n_modes=n, cutoffs=cutoffs, rho=rho,
                             trace_deficit=max(deficit, 0.0),
                             top_level_population=top, root=sigma)
    return BuildResult(fock=fock, gaussian=GaussianState(n, u, V))


def _top_level_population(rho: np.ndarray, cutoffs) -> float:
    dims = tuple(cutoffs)
    diag = np.diag(rho).real.reshape(dims)
    mask = np.zeros(dims, dtype=bool)
    for axis, c in enumerate(dims):
        sl = [slice(None)] * len(dims)
        sl[axis] = c - 1
        mask[tuple(sl)] = True
    return float(diag[mask].sum())


# ---------------------------------------------------------------------------
# fidelity and moments
# ---------------------------------------------------------------------------

def uhlmann_fidelity_matrix(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    sqrt(rho1) is ``r1.root`` when the state carries one (every state from
    :func:`build_circuit_state` does), else a Hermitian eigendecomposition of
    rho1; the outer root takes the eigenvalues of the Hermitian product.
    """
    if r1.rho.shape != r2.rho.shape:
        raise InvalidParameter("density matrices have different dimensions")
    f = fidelity_of_matrices(r1.rho, r2.rho, r1.root)
    if f > 1.0 + 1e-8:
        raise NumericalError(f"fidelity {f} exceeds 1 beyond tolerance")
    return min(f, 1.0)


def fidelity_of_matrices(rho1: np.ndarray, rho2: np.ndarray,
                         root1: np.ndarray | None = None) -> float:
    """Uhlmann fidelity of two raw Hermitian PSD matrices (trace-normalized).

    ``root1``, a Hermitian square root of rho1 (rho1 = root1 @ root1),
    replaces the eigendecomposition of rho1.
    """
    # Each temporary is dropped once it is dead and rho2 is normalised only
    # when it is used: at two modes each one is a 625 x 625 complex matrix.
    if root1 is None:
        herm1 = _hermitise(np.asarray(rho1) / np.trace(rho1))
        w1, U1 = np.linalg.eigh(herm1)
        del herm1
        if w1[0] < -1e-8:
            raise NumericalError(f"eigenvalue {w1[0]:.3e} below -1e-8")
        root1 = U1 * np.sqrt(np.clip(w1, 0.0, None))
        np.conjugate(U1, out=U1)
        root1 = root1 @ U1.T
        del U1
    else:
        root1 = np.asarray(root1) / np.sqrt(np.trace(rho1).real)
    inner = root1 @ (np.asarray(rho2) / np.trace(rho2))
    inner = inner @ root1
    del root1
    wm = np.linalg.eigvalsh(_hermitise(inner))
    if wm[0] < -1e-8:
        raise NumericalError(f"eigenvalue {wm[0]:.3e} below -1e-8")
    return float(np.sum(np.sqrt(np.clip(wm, 0.0, None))).real)


def _expectation(rho_t: np.ndarray, factors: dict) -> complex:
    """Tr(rho A) for A the tensor product of ``factors[mode]`` (identity elsewhere)."""
    n = rho_t.ndim // 2
    rows = [chr(ord("a") + m) for m in range(n)]
    cols = [chr(ord("A") + m) if m in factors else rows[m] for m in range(n)]
    subscripts = ",".join(["".join(rows + cols)] + [cols[m] + rows[m] for m in factors])
    return complex(np.einsum(subscripts + "->", rho_t, *factors.values()))


def moments_from_fock(r: FockDensityMatrix) -> GaussianState:
    """Mean and covariance of a Fock-space state from quadrature expectations.

    Each expectation contracts single-mode quadrature factors against the
    density tensor; quadratures of one mode multiply on their factor.
    """
    n = r.n_modes
    rho_t = (r.rho / np.trace(r.rho)).reshape(tuple(r.cutoffs) * 2)
    Q = list(zip(list(range(n)) * 2, _quadratures([destroy(c) for c in r.cutoffs])))
    u = np.array([_expectation(rho_t, {k: q}).real for k, q in Q])
    M = np.empty((2 * n, 2 * n))
    for i, (k, qi) in enumerate(Q):
        for j, (m, qj) in enumerate(Q):
            M[i, j] = _expectation(rho_t, {k: qi @ qj} if k == m else {k: qi, m: qj}).real
    V = 0.5 * (M + M.T) - np.outer(u, u)
    return GaussianState(r.n_modes, u, V)


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
