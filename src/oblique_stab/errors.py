"""Exception types shared across the library, the direct-sum threshold and its test.

Two families: invalid input (a caller can fix the arguments) and numerical
failure (the configuration itself defeats the computation).  The command-line
front end maps the first family to exit code 2 and the second to exit code 3.
An actuator geometry that placement rejects is invalid input; a placement
whose cross-Gram or grid coupling is singular, coincident centers included,
is a direct-sum failure.
"""

from __future__ import annotations


class InvalidArgumentError(ValueError):
    """An argument lies outside the domain of the operation."""


class NumericalFailureError(ArithmeticError):
    """Base class for failures of the computation itself."""


class NotPositiveDefiniteError(NumericalFailureError):
    """A matrix required to be symmetric positive definite is not."""


class DirectSumFailureError(NumericalFailureError):
    """The actuator span and the spectral complement fail to split the space.

    Raised by check_direct_sum, which build_projection calls for the
    continuous cross-Gram and feedback_matrices for the coupling matrix on a
    FEM grid: at or below SIGMA_RATIO_THRESHOLD the oblique projection is
    undefined, or numerically meaningless, for this configuration.
    """


# At or below this sigma_min/sigma_max of the cross-Gram G, or of the FEM
# coupling A, the direct sum counts as failed.  The rounding of G's entries
# and the SVD each move sigma_min by a small multiple of eps * sigma_max, a
# relative error of about 2e-16 / ratio: near 1e-8 vartheta = sigma_min^2 is
# still good to about 4e-8 relative (measured 1.6e-8 against a 60-digit SVD).
# Below it the digits run out: centers 1e-8 apart (ratio 3.9e-9) fail, while
# con at r = 0.1, M = 7 (ratio 2.3e-7) gives vartheta = 3.47e-14 to 2e-10
# relative.
SIGMA_RATIO_THRESHOLD = 1e-8


def check_direct_sum(ratio: float, matrix: str, remedy: str) -> None:
    """Raise DirectSumFailureError, naming the matrix and ending in the remedy,
    when its sigma_min/sigma_max ratio is at most SIGMA_RATIO_THRESHOLD."""
    if ratio <= SIGMA_RATIO_THRESHOLD:
        raise DirectSumFailureError(
            f"sigma_min/sigma_max {ratio:.3e} of {matrix} is at most "
            f"{SIGMA_RATIO_THRESHOLD:g}; {remedy}"
        )
