"""Oblique-projection feedback stabilisation of 1D reaction-diffusion systems.

The package builds oblique projections onto spans of indicator actuators
along spectral complements of the Laplacian, exposes the closed-form
operator-norm results for the standard placements, and simulates the
explicit-feedback closed loop with hat-function finite elements and
Crank-Nicolson time stepping.

The names of `fem` and `projection` resolve on their first use (PEP 562),
so `import oblique_stab` loads neither module until a caller reads one of
their names.
"""

from importlib import import_module

from .actuators import ActuatorSet, Scheme, place
from .errors import (
    DirectSumFailureError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .spectral import BoundaryCondition, EigenBasis, build_basis

# exported name -> the module that defines it, imported when the name is read
_LAZY = {
    **dict.fromkeys((
        "ClosedLoopRun", "FeedbackConfig", "FeedbackOperator", "constant_reaction",
        "discrete_projection_norm", "feedback_matrices", "log_norm_slope", "make_grid",
        "oscillating_reaction", "run_closed_loop", "tabulated_reaction",
    ), "fem"),
    **dict.fromkeys((
        "CrossGram", "ProjectionData", "SufficientConditionReport", "analytic_theta_spectrum",
        "analytic_vartheta", "apply_projection", "assemble_cross_gram", "build_projection",
        "check_sufficient_condition", "op_norm_limit", "orthogonal_projection_actuators",
        "vartheta_limit",
    ), "projection"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

# the names imported above, then those of _LAZY
__all__ = [
    "ActuatorSet", "BoundaryCondition", "DirectSumFailureError", "EigenBasis",
    "InvalidArgumentError", "NumericalFailureError", "Scheme", "build_basis", "place",
    *_LAZY, "__version__",
]
