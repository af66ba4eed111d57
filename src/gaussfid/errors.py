"""Exception hierarchy for gaussfid."""


class GaussfidError(Exception):
    """Base class for all gaussfid errors."""


class InvalidParameter(GaussfidError, ValueError):
    """An argument is malformed or out of its documented domain."""


class InvalidState(InvalidParameter):
    """A covariance matrix / mean vector does not describe a physical state."""


class NumericalError(GaussfidError, ArithmeticError):
    """A numerical routine failed a consistency or residual check."""


class TruncationError(GaussfidError):
    """The Fock-space cutoff is too small for the requested circuit."""


class StateFileError(GaussfidError):
    """A state file could not be parsed against the schema."""
