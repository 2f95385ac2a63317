"""Exception types shared across the library.

Two families: invalid input (a caller can fix the arguments) and numerical
failure (the configuration itself defeats the computation).  The command-line
front end maps the first family to exit code 2 and the second to exit code 3.
"""

from __future__ import annotations


class InvalidArgumentError(ValueError):
    """An argument lies outside the domain of the operation."""


class ConstraintViolationError(InvalidArgumentError):
    """A geometric constraint on a configuration is violated."""


class NumericalFailureError(ArithmeticError):
    """Base class for failures of the computation itself."""


class SingularMatrixError(NumericalFailureError):
    """A pivot fell below the singularity threshold; no reliable solution."""


class NotPositiveDefiniteError(NumericalFailureError):
    """A matrix required to be symmetric positive definite is not."""


class SingularConfigurationError(NumericalFailureError):
    """An actuator configuration makes the cross-Gram matrix singular.

    Raised for coincident centers, where the columns of the cross-Gram
    coincide exactly.
    """


class DirectSumFailureError(NumericalFailureError):
    """The actuator span and the spectral complement fail to split the space.

    Equivalent to the smallest eigenvalue of Theta being (numerically) zero
    relative to its largest, i.e. the oblique projection is undefined for
    this configuration.
    """
