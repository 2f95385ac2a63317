"""The argument contracts that errors.py states once, as every entry point sees them."""

import dataclasses
import math

import numpy as np
import pytest

import oblique_stab
from oblique_stab import actuators, errors
from oblique_stab.actuators import Scheme, place
from oblique_stab.errors import InvalidArgumentError
from oblique_stab.fem import (
    constant_reaction,
    feedback_matrices,
    make_grid,
    oscillating_reaction,
    run_closed_loop,
)
from oblique_stab.projection import (
    analytic_theta_spectrum,
    analytic_vartheta,
    assemble_cross_gram,
    check_sufficient_condition,
    closed_form_minimal_M,
    sweep_chunks,
)
from oblique_stab.spectral import BoundaryCondition, build_basis

D = BoundaryCondition.DIRICHLET


def _run(nu=0.1, T=0.01, k=1e-3):
    grid = make_grid(D, math.pi, 11)
    return run_closed_loop(grid, nu, constant_reaction(0.0), np.zeros(11), T, k)


# each entry point, the name its message gives the argument, and the call
_POSITIVE = [
    ("make_grid", "domain length", lambda x: make_grid(D, x, 11)),
    ("oscillating_reaction", "diffusion", lambda x: oscillating_reaction(x, math.pi)),
    ("run_closed_loop-nu", "diffusion", lambda x: _run(nu=x)),
    ("run_closed_loop-k", "time step", lambda x: _run(k=x)),
    ("run_closed_loop-T", "final time", lambda x: _run(T=x)),
    ("place", "interval length", lambda x: place(Scheme.MXE, x, 6, 0.1)),
    ("build_basis", "interval length", lambda x: build_basis(D, x, 3)),
    ("check_sufficient_condition", "diffusion",
     lambda x: check_sufficient_condition(x, D, 5, 1.5, 1.0)),
    ("closed_form_minimal_M-nu", "diffusion",
     lambda x: closed_form_minimal_M(x, D, Scheme.MXE, 0.1, 1.0)),
    ("closed_form_minimal_M-L", "interval length",
     lambda x: closed_form_minimal_M(0.1, D, Scheme.MXE, 0.1, 1.0, x)),
]


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name, call", [row[1:] for row in _POSITIVE],
                         ids=[row[0] for row in _POSITIVE])
def test_positive_and_finite_has_one_message(name, call, x):
    with pytest.raises(InvalidArgumentError) as info:
        call(x)
    assert str(info.value) == f"{name} must be positive and finite, got {x}"


# a bc or scheme given by its value string, not as the enum member, used to
# select the Neumann branch or "no closed form" without a word
_NOT_MEMBERS = [
    ("build_basis", "BoundaryCondition", lambda: build_basis("dirichlet", math.pi, 3)),
    ("assemble_cross_gram", "BoundaryCondition",
     lambda: assemble_cross_gram("dirichlet", place(Scheme.MXE, math.pi, 3, 0.1))),
    ("check_sufficient_condition", "BoundaryCondition",
     lambda: check_sufficient_condition(0.1, "dirichlet", 5, 3.0, 1.0)),
    ("analytic_vartheta-bc", "BoundaryCondition",
     lambda: analytic_vartheta("dirichlet", Scheme.UNI, 6, 0.1)),
    ("analytic_vartheta-scheme", "Scheme", lambda: analytic_vartheta(D, "uni", 6, 0.1)),
    ("closed_form_minimal_M-bc", "BoundaryCondition",
     lambda: closed_form_minimal_M(0.1, "neumann", Scheme.MXE, 0.1, 1.0)),
    ("closed_form_minimal_M-scheme", "Scheme",
     lambda: closed_form_minimal_M(0.1, D, "mxe", 0.1, 1.0)),
    ("analytic_theta_spectrum", "BoundaryCondition",
     lambda: analytic_theta_spectrum("dirichlet", Scheme.MXE, 6, 0.1)),
    ("place", "Scheme", lambda: place("mxe", math.pi, 3, 0.1)),
    # run_closed_loop takes its grid from make_grid
    ("make_grid", "BoundaryCondition", lambda: make_grid("dirichlet", math.pi, 101)),
    # the stepper reads the grid's bc, so a grid built by hand is checked too
    ("FemGrid", "BoundaryCondition", lambda: dataclasses.replace(
        make_grid(BoundaryCondition.NEUMANN, math.pi, 101), bc="dirichlet")),
    ("feedback_matrices", "BoundaryCondition", lambda: feedback_matrices(
        dataclasses.replace(make_grid(D, math.pi, 101), bc="dirichlet"),
        place(Scheme.MXE, math.pi, 3, 0.1))),
]


@pytest.mark.parametrize("kind, call", [row[1:] for row in _NOT_MEMBERS],
                         ids=[row[0] for row in _NOT_MEMBERS])
def test_bc_and_scheme_must_be_enum_members(kind, call):
    with pytest.raises(InvalidArgumentError, match=f"is not a {kind} member"):
        call()


@pytest.mark.parametrize(
    "M, op_norm, message",
    [
        (0, 1.5, "actuator count must be a positive integer, got 0"),
        (-1, 1.5, "actuator count must be a positive integer, got -1"),
        (2.5, 1.5, "actuator count must be a positive integer, got 2.5"),
        (5, 0.0, "operator norm must be positive and finite, got 0.0"),
        (5, -3.0, "operator norm must be positive and finite, got -3.0"),
        (5, math.nan, "operator norm must be positive and finite, got nan"),
        (5, math.inf, "operator norm must be positive and finite, got inf"),
    ],
    ids=["M-0", "M-neg", "M-frac", "norm-0", "norm-neg", "norm-nan", "norm-inf"],
)
def test_sufficient_condition_checks_count_and_norm(M, op_norm, message):
    with pytest.raises(InvalidArgumentError) as info:
        check_sufficient_condition(0.1, D, M, op_norm, 1.0)
    assert str(info.value) == message


def test_not_positive_definite_is_a_numerical_failure():
    # no caller told the subclass apart from its base, so only the base is left
    assert "NotPositiveDefiniteError" not in oblique_stab.__all__
    assert not hasattr(errors, "NotPositiveDefiniteError")


# each count and the message errors.checked_count gives it
_COUNTS = [
    ("place", "actuator count must be a positive integer, got 0",
     lambda: place(Scheme.MXE, math.pi, 0, 0.1)),
    ("build_basis", "eigenpair count must be a positive integer, got 2.5",
     lambda: build_basis(D, math.pi, 2.5)),
    ("make_grid", "node count must be an integer >= 3, got 2", lambda: make_grid(D, math.pi, 2)),
    ("sweep_chunks-mxe", "actuator count must be a positive integer, got -1",
     lambda: list(sweep_chunks(D, Scheme.MXE, math.pi, [3, -1], 0.1))),
    ("sweep_chunks-con", "actuator count must be a positive integer, got 0",
     lambda: list(sweep_chunks(D, Scheme.CON, math.pi, [0], 0.1))),
]


@pytest.mark.parametrize("message, call", [row[1:] for row in _COUNTS],
                         ids=[row[0] for row in _COUNTS])
def test_counts_have_one_check(message, call):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message
    assert actuators.checked_count is errors.checked_count  # no second copy
