"""Oblique-projection feedback stabilisation of 1D reaction-diffusion systems.

The package builds oblique projections onto spans of indicator actuators
along spectral complements of the Laplacian, exposes the closed-form
operator-norm results for the standard placements, and simulates the
explicit-feedback closed loop with hat-function finite elements and
Crank-Nicolson time stepping.
"""

from .actuators import ActuatorSet, Scheme, place
from .errors import (
    DirectSumFailureError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .fem import (
    ClosedLoopRun,
    FeedbackConfig,
    FeedbackOperator,
    constant_reaction,
    discrete_projection_norm,
    feedback_matrices,
    log_norm_slope,
    make_grid,
    oscillating_reaction,
    run_closed_loop,
    tabulated_reaction,
)
from .projection import (
    CrossGram,
    ProjectionData,
    SufficientConditionReport,
    analytic_theta_spectrum,
    analytic_vartheta,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    op_norm_limit,
    orthogonal_projection_actuators,
    vartheta_limit,
)
from .spectral import BoundaryCondition, EigenBasis, build_basis

__version__ = "0.1.0"

__all__ = [
    "ActuatorSet",
    "BoundaryCondition",
    "ClosedLoopRun",
    "CrossGram",
    "DirectSumFailureError",
    "EigenBasis",
    "FeedbackConfig",
    "FeedbackOperator",
    "InvalidArgumentError",
    "NumericalFailureError",
    "ProjectionData",
    "Scheme",
    "SufficientConditionReport",
    "analytic_theta_spectrum",
    "analytic_vartheta",
    "apply_projection",
    "assemble_cross_gram",
    "build_basis",
    "build_projection",
    "check_sufficient_condition",
    "constant_reaction",
    "discrete_projection_norm",
    "feedback_matrices",
    "log_norm_slope",
    "make_grid",
    "op_norm_limit",
    "orthogonal_projection_actuators",
    "oscillating_reaction",
    "place",
    "run_closed_loop",
    "tabulated_reaction",
    "vartheta_limit",
    "__version__",
]
