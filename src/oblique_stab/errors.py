"""Exception types, the argument checks shared by the layers, and the direct-sum test.

Two families: invalid input (a caller can fix the arguments) and numerical
failure (the configuration itself defeats the computation).  The command-line
front end maps the first family to exit code 2 and the second to exit code 3.
An actuator geometry that placement rejects is invalid input; a placement
whose cross-Gram or grid coupling is singular, coincident centers included,
is a direct-sum failure.
"""

from __future__ import annotations

import math


class InvalidArgumentError(ValueError):
    """An argument lies outside the domain of the operation."""


class NumericalFailureError(ArithmeticError):
    """A failure of the computation itself, such as a factor of an indefinite matrix."""


class DirectSumFailureError(NumericalFailureError):
    """The actuator span and the spectral complement fail to split the space.

    Raised by check_direct_sum, which build_projection calls for the
    continuous cross-Gram and feedback_matrices for the coupling matrix on a
    FEM grid: at or below SIGMA_RATIO_THRESHOLD the oblique projection is
    undefined, or numerically meaningless, for this configuration.
    """


def checked_positive(name: str, x) -> float:
    """x as a float; raises InvalidArgumentError, naming it, unless it is positive and finite."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {x}")
    return x


def checked_count(name: str, n, least: int = 1) -> int:
    """n as an int; raises InvalidArgumentError, naming it, unless it is an integer >= least."""
    if int(n) != n or n < least:
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise InvalidArgumentError(f"{name} must be {rule}, got {n}")
    return int(n)


def check_member(kind: type, x) -> None:
    """Raises InvalidArgumentError, naming the enum kind, unless x is one of its members."""
    if not isinstance(x, kind):
        raise InvalidArgumentError(f"{x!r} is not a {kind.__name__} member")


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
