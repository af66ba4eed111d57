"""Fidelity and derived quantities for multimode bosonic Gaussian states.

Everything works directly on first and second statistical moments: the
Uhlmann fidelity between arbitrary (mixed or pure, displaced) Gaussian
states, symplectic invariants, the Bures distance and metric, quantum Fisher
information and fidelity-based discrimination bounds — backed by an
independent truncated Fock-space oracle for validation (:mod:`gaussfid.fock`,
imported on first use of one of its names).  The package needs numpy only;
the cross-check routes that only validate the engine live with the tests.
"""

__version__ = "0.1.0"

from .errors import (
    GaussfidError,
    InvalidParameter,
    InvalidState,
    NumericalError,
    StateFileError,
    TruncationError,
)
from .core import (
    GaussianState,
    PhysicalityReport,
    WilliamsonDecomposition,
    make_symplectic_form,
    symplectic_eigenvalues,
    validate_state,
    williamson,
)
from .states import (
    apply_symplectic,
    coherent,
    displace,
    random_state,
    random_symplectic,
    squeezed,
    tensor,
    thermal,
    two_mode_squeezed,
    vacuum,
)
from .fidelity import (
    FidelityReport,
    InvariantSet,
    closed_form_fidelity,
    fidelity,
    invariant_set,
)
from .metrology import (
    ErrorBounds,
    MetricEvaluation,
    QfiMatrix,
    bures_distance,
    bures_metric,
    bures_metric_delta,
    error_bounds,
    get_family,
    qfi_matrix,
    qfi_scalar,
)

#: The Fock oracle's public names.  They resolve through :func:`__getattr__`,
#: which imports :mod:`gaussfid.fock` on first use: the oracle only validates
#: the engine, so ``import gaussfid`` does not load it.
_FOCK_NAMES = frozenset({
    "CircuitSpec",
    "FockDensityMatrix",
    "build_circuit_state",
    "moments_from_fock",
    "random_circuit",
    "uhlmann_fidelity_matrix",
})


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock
        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GaussfidError", "InvalidParameter", "InvalidState", "NumericalError",
    "StateFileError", "TruncationError",
    "GaussianState", "PhysicalityReport", "WilliamsonDecomposition",
    "make_symplectic_form", "symplectic_eigenvalues", "validate_state", "williamson",
    "apply_symplectic", "coherent", "displace", "random_state",
    "random_symplectic", "squeezed", "tensor", "thermal", "two_mode_squeezed",
    "vacuum",
    "FidelityReport", "InvariantSet", "closed_form_fidelity", "fidelity",
    "invariant_set",
    "ErrorBounds", "MetricEvaluation", "QfiMatrix", "bures_distance",
    "bures_metric", "bures_metric_delta", "error_bounds", "get_family",
    "qfi_matrix", "qfi_scalar",
    "CircuitSpec", "FockDensityMatrix", "build_circuit_state",
    "moments_from_fock", "random_circuit", "uhlmann_fidelity_matrix",
]
