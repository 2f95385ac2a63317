"""Exception types shared across the library.

Two families: invalid input (a caller can fix the arguments) and numerical
failure (the configuration itself defeats the computation).  The command-line
front end maps the first family to exit code 2 and the second to exit code 3.
An actuator geometry that placement rejects is invalid input; a placement
whose cross-Gram is singular, coincident centers included, is a direct-sum
failure.
"""

from __future__ import annotations


class InvalidArgumentError(ValueError):
    """An argument lies outside the domain of the operation."""


class NumericalFailureError(ArithmeticError):
    """Base class for failures of the computation itself."""


class SingularMatrixError(NumericalFailureError):
    """A pivot fell below the singularity threshold; no reliable solution."""


class NotPositiveDefiniteError(NumericalFailureError):
    """A matrix required to be symmetric positive definite is not."""


class DirectSumFailureError(NumericalFailureError):
    """The actuator span and the spectral complement fail to split the space.

    Raised by build_projection when sigma_min/sigma_max of the cross-Gram is
    at most 1e-8, i.e. the smallest eigenvalue of Theta is numerically zero
    relative to its largest and the oblique projection is undefined for this
    configuration.
    """
