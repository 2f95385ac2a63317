"""Tests for the hat-function discretization and the closed-loop driver."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from oblique_stab import fem
from oblique_stab.actuators import Scheme, indicators, place
from oblique_stab.errors import (
    DirectSumFailureError,
    InvalidArgumentError,
    NumericalFailureError,
)
from oblique_stab.fem import (
    BLOCK_STEPS,
    ROTATION_ANCHOR_STEPS,
    ClosedLoopRun,
    FeedbackConfig,
    FeedbackOperator,
    ReactionField,
    _eigen_system,
    _step_eigenbasis,
    constant_reaction,
    discrete_projection_norm,
    feedback_matrices,
    log_norm_slope,
    make_grid,
    oscillating_reaction,
    run_closed_loop,
    tabulated_reaction,
)
from oblique_stab.projection import (
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
)
from oblique_stab.spectral import BoundaryCondition, build_basis
from oracles import (
    eigh_projection_norm,
    eval_eigenfunction,
    feedback_apply,
    longdouble_closed_loop,
    low_mode_moments,
    low_mode_step,
    nodal_l2_norm,
    nodal_samples,
    project_nodal,
    reaction_matrix,
    tridiag_matvec,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def _dense(tri):
    diag, off = tri
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# ---------------------------------------------------------------- matrices

def test_grid_nodes_uniform():
    grid = make_grid(D, math.pi, 5)
    assert grid.h == pytest.approx(math.pi / 4)
    assert np.allclose(grid.nodes, [0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])


def test_mass_matrix_three_nodes():
    grid = make_grid(D, math.pi, 3)
    h = math.pi / 2
    diag, off = grid.mass
    assert np.allclose(diag, [h / 3, 2 * h / 3, h / 3], rtol=1e-15)
    assert np.allclose(off, [h / 6, h / 6], rtol=1e-15)


def test_stiffness_matrix_three_nodes():
    grid = make_grid(D, math.pi, 3)
    h = math.pi / 2
    diag, off = grid.stiffness
    assert np.allclose(diag, [1 / h, 2 / h, 1 / h], rtol=1e-15)
    assert np.allclose(off, [-1 / h, -1 / h], rtol=1e-15)


def test_stiffness_annihilates_constants():
    grid = make_grid(D, 2.0, 17)
    out = fem._stencil_times(grid.stiffness, np.ones(17))
    assert np.max(np.abs(out)) == 0.0


def _grid_pairs(grid, nu=0.1, lam=1.0, k=1e-3):
    """The grid matrices a run multiplies by: M, S, K0 = lam M - nu S, and the
    implicit matrix 2 M + k nu S, each a (diag, off) pair."""
    pairs = {"mass": grid.mass, "stiffness": grid.stiffness}
    pairs["K0"] = tuple(lam * m - nu * s for m, s in zip(grid.mass, grid.stiffness))
    pairs["implicit"] = tuple(2.0 * m + k * nu * s for m, s in zip(grid.mass, grid.stiffness))
    return pairs


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("n", [3, 4, 17, 1001])
def test_stencil_product_matches_dense(bc, n):
    grid = make_grid(bc, math.pi, n)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((5, n))
    for name, T in _grid_pairs(grid).items():
        dense = _dense(T)
        block = fem._stencil_times(T, X)
        assert block.shape == X.shape and block.flags.c_contiguous
        scale = np.max(np.abs(dense)) * np.max(np.abs(X))
        assert np.max(np.abs(block - X @ dense)) <= 1e-15 * scale, name
        # a (B, N) product is its rows' products, with the same rounding
        for row, x in zip(block, X):
            assert np.array_equal(row, fem._stencil_times(T, x)), name


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("n", [3, 4, 17, 1001])
def test_stencil_product_is_exact_on_indicator_samples(bc, n):
    # on 0/1 samples every order of the three-term sum rounds alike, so (M U)^T,
    # A and P do not depend on which product formed them
    grid = make_grid(bc, math.pi, n)
    rng = np.random.default_rng(n)
    X = rng.integers(0, 2, (8, n)).astype(float)
    X[:2] = [np.ones(n), np.arange(n) % 2]
    if n == 1001:
        X = np.vstack([X, indicators(place(Scheme.MXE, math.pi, 6, 0.1), grid.nodes).T])
    for name, T in _grid_pairs(grid).items():
        assert np.array_equal(fem._stencil_times(T, X), tridiag_matvec(*T, X.T).T), name


def test_too_few_nodes_rejected():
    with pytest.raises(InvalidArgumentError, match="node count must be an integer >= 3"):
        make_grid(D, math.pi, 2)
    with pytest.raises(InvalidArgumentError):
        make_grid(D, math.pi, 1)


def test_reaction_matrix_zero_and_constant():
    grid = make_grid(D, math.pi, 9)
    R0_diag, R0_off = reaction_matrix(grid, np.zeros(9))
    assert np.max(np.abs(R0_diag)) == 0.0 and np.max(np.abs(R0_off)) == 0.0
    c = -3.5
    Rc_diag, Rc_off = reaction_matrix(grid, np.full(9, c))
    assert np.allclose(Rc_diag, c * grid.mass[0], rtol=1e-15)
    assert np.allclose(Rc_off, c * grid.mass[1], rtol=1e-15)


def test_reaction_matrix_offdiagonal_average():
    # symmetrized product gives R_12 = (h/6) * (a_1 + a_2)/2
    grid = make_grid(D, math.pi, 3)
    a = grid.nodes.copy()
    _, R_off = reaction_matrix(grid, a)
    h = grid.h
    assert R_off[0] == pytest.approx((h / 6) * (a[0] + a[1]) / 2, rel=1e-14)
    assert R_off[1] == pytest.approx((h / 6) * (a[1] + a[2]) / 2, rel=1e-14)


def test_reaction_matrix_symmetric_for_any_field():
    grid = make_grid(D, math.pi, 21)
    rng = np.random.default_rng(7)
    R = _dense(reaction_matrix(grid, rng.standard_normal(21)))
    assert np.array_equal(R, R.T)


# ---------------------------------------------------------------- reaction fields

def test_constant_reaction_field():
    f = constant_reaction(-3.5)
    assert not f.time_dependent
    assert np.allclose(f.values(np.array([0.1, 2.0]), 1.7), -3.5)


def test_oscillating_reaction_field():
    f = oscillating_reaction(0.1, math.pi)
    x = np.array([0.5, 1.5])
    t = 2.0
    expected = -3.5 - 2 * np.abs(np.cos(4 * t) * np.cos(x * t) * x)
    assert np.allclose(f.values(x, t), expected, rtol=1e-14)
    assert f.time_dependent


@pytest.mark.parametrize(
    "bc, n_nodes, k, n_times",
    [(N, 10001, 4e-4, 1251), (D, 1001, 1e-3, 4501)],
    ids=["neumann-10001", "dirichlet-1001"],
)
def test_oscillating_rows_follow_values(bc, n_nodes, k, n_times):
    # the rows turn |x| e^{ixt} by x k per step and re-anchor from cos and sin
    grid = make_grid(bc, math.pi, n_nodes)
    f = oscillating_reaction(0.1, math.pi)
    times = np.arange(n_times) * k
    gap, n_rows = 0.0, 0
    for j, (t, row) in enumerate(zip(times, f.rows(grid.nodes, times))):
        ref = f.values(grid.nodes, t)
        if j % ROTATION_ANCHOR_STEPS == 0:
            assert np.array_equal(row, ref), j
        gap = max(gap, float(np.max(np.abs(row - ref))))
        n_rows += 1
    assert n_rows == n_times
    # measured 2.7e-14 (Neumann) and 2.5e-14 (Dirichlet)
    assert gap <= 1e-13


def test_default_rows_are_values():
    f = tabulated_reaction([0.0, 1.0], [0.0, 2.0], [[0.0, 2.0], [4.0, 6.0]])
    x, times = np.array([0.5, 1.5]), np.array([0.0, 0.25, 0.5])
    for t, row in zip(times, f.rows(x, times), strict=True):
        assert np.array_equal(row, f.values(x, t))


@pytest.mark.parametrize(
    "nu, L",
    [
        (0.1, 0.0),
        (0.1, -1.0),
        (0.1, math.inf),
        (0.1, math.nan),
        (0.0, math.pi),
        (math.nan, math.pi),
        (math.inf, math.pi),
    ],
)
def test_oscillating_reaction_rejects_bad_parameters(nu, L):
    with pytest.raises(InvalidArgumentError, match="must be positive and finite"):
        oscillating_reaction(nu, L)


def test_tabulated_reaction_bilinear():
    t_vals = np.array([0.0, 1.0])
    x_vals = np.array([0.0, 2.0])
    table = np.array([[0.0, 2.0], [4.0, 6.0]])  # rows: t, columns: x
    f = tabulated_reaction(t_vals, x_vals, table)
    assert f.values(np.array([1.0]), 0.5)[0] == pytest.approx(3.0)
    # clamped outside the table
    assert f.values(np.array([5.0]), 5.0)[0] == pytest.approx(6.0)
    assert f.values(np.array([-1.0]), -1.0)[0] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "t_vals, x_vals, table, message",
    [
        ([0.0], [0.0, math.nan, 1.0], [[1.0, 2.0, 3.0]], "must be finite"),
        ([0.0, math.nan], [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]], "must be finite"),
        ([0.0], [0.0, 1.0], [[1.0, math.inf]], "must be finite"),
        ([0.0, 1.0], [0.0, 1.0], [[1.0, 2.0]],
         "shape (1, 2) does not match (2 times, 2 x coordinates)"),
    ],
    ids=["nan-x", "nan-t", "inf-entry", "shape"],
)
def test_tabulated_reaction_rejects_bad_input(t_vals, x_vals, table, message):
    # NaN compares false, so without the finiteness check it passed the
    # strictly-increasing checks and the run later failed as a blow-up
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        tabulated_reaction(t_vals, x_vals, table)


# ---------------------------------------------------------------- feedback operator

@pytest.mark.parametrize("bc", [D, N])
def test_nodal_projection_annihilates_next_eigenfunction(bc, M=6):
    grid = make_grid(bc, math.pi, 2001)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, M, 0.1))
    basis = build_basis(bc, math.pi, M + 1)
    z = eval_eigenfunction(basis, M + 1, grid.nodes)
    assert np.max(np.abs(project_nodal(op, z))) <= 1e-3


@pytest.mark.parametrize("bc", [D, N])
def test_nodal_projection_fixes_first_actuator(bc):
    grid = make_grid(bc, math.pi, 2001)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    coeffs = op.P @ tridiag_matvec(*grid.mass, nodal_samples(op)[0][:, 0])
    assert abs(coeffs[0] - 1.0) <= 1e-6
    assert np.max(np.abs(coeffs[1:])) <= 1e-6


def test_nodal_projection_idempotent():
    grid = make_grid(N, math.pi, 801)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    z = np.cos(3 * grid.nodes) + 0.2 * grid.nodes
    once = project_nodal(op, z)
    twice = project_nodal(op, once)
    assert np.max(np.abs(twice - once)) <= 1e-9


@pytest.mark.parametrize("bc", [D, N])
def test_discrete_norm_close_to_continuous(bc):
    aset = place(Scheme.MXE, math.pi, 6, 0.1)
    continuous = build_projection(assemble_cross_gram(bc, aset)).op_norm
    grid = make_grid(bc, math.pi, 2001)
    discrete = discrete_projection_norm(feedback_matrices(grid, aset))
    assert abs(discrete - continuous) <= 0.05 * continuous


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON])
def test_discrete_norm_matches_eigh_square_root(bc, scheme):
    # the Cholesky form against the symmetric-square-root form, wherever the
    # discrete norm is small enough for either to carry digits; con at M = 47,
    # r = 0.1 has no discrete direct sum on this grid
    grid = make_grid(bc, math.pi, 1001)
    compared = 0
    for M in (1, 6, 47):
        for r in (0.1, 0.5):
            try:
                op = feedback_matrices(grid, place(scheme, math.pi, M, r))
            except DirectSumFailureError:
                continue
            ref = eigh_projection_norm(op)
            if ref >= 1e8:
                continue
            assert discrete_projection_norm(op) == pytest.approx(ref, rel=1e-12, abs=0.0)
            compared += 1
    assert compared >= 4


def test_discrete_norm_rejects_singular_eigenfunction_gram(monkeypatch):
    grid = make_grid(D, math.pi, 201)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    sample = fem._samples

    def zero_third_eigenfunction(*args):
        U, E, MU, A = sample(*args)
        E = E.copy()
        E[:, 2] = 0.0
        return U, E, MU, A

    monkeypatch.setattr(fem, "_samples", zero_third_eigenfunction)
    with pytest.raises(NumericalFailureError) as exc:
        discrete_projection_norm(op)
    assert "positive definite" in str(exc.value)


@pytest.mark.parametrize("bc", [D, N])
def test_operator_stores_the_spread_it_was_built_from(bc):
    # the operator keeps P and (M U)^T, the two arrays the closed loop reads
    grid = make_grid(bc, math.pi, 1001)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    assert [f.name for f in dataclasses.fields(FeedbackOperator)] == [
        "grid", "actuators", "P", "MUt",
    ]
    U, _ = nodal_samples(op)
    assert np.array_equal(op.MUt, tridiag_matvec(*grid.mass, U).T)
    for arr in (op.P, op.MUt):
        assert arr.flags.c_contiguous and not arr.flags.writeable


def test_coarse_mesh_direct_sum_failure():
    # supports without interior nodes make the coupling matrix singular
    grid = make_grid(D, math.pi, 5)
    with pytest.raises(DirectSumFailureError) as exc:
        feedback_matrices(grid, place(Scheme.MXE, math.pi, 3, 0.05))
    assert "mesh" in str(exc.value)


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_con_coupling_fails_the_direct_sum(bc):
    # coupling ratios 8.4e-10 (Dirichlet) and 2.1e-10 (Neumann); a closed
    # loop built on such a coupling grows without bound
    grid = make_grid(bc, math.pi, 1001)
    with pytest.raises(DirectSumFailureError) as exc:
        feedback_matrices(grid, place(Scheme.CON, math.pi, 9, 0.1))
    assert "sigma_min/sigma_max" in str(exc.value) and "mesh" in str(exc.value)


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("r", [0.05, 0.1])
@pytest.mark.parametrize("M", range(2, 13))
def test_coupling_and_cross_gram_share_the_direct_sum_verdict(bc, r, M):
    aset = place(Scheme.CON, math.pi, M, r)

    def fails(build) -> bool:
        try:
            build()
        except DirectSumFailureError:
            return True
        return False

    continuous = fails(lambda: build_projection(assemble_cross_gram(bc, aset)))
    on_grid = fails(lambda: feedback_matrices(make_grid(bc, math.pi, 1001), aset))
    assert on_grid == continuous


def test_grid_actuator_length_mismatch_rejected():
    grid = make_grid(D, math.pi, 101)
    with pytest.raises(InvalidArgumentError):
        feedback_matrices(grid, place(Scheme.MXE, 2.5, 3, 0.2))


@pytest.mark.parametrize(
    "built_on",
    [(N, math.pi, 201), (D, math.pi, 301), (D, 3.0, 201)],
    ids=["other-bc", "other-N", "other-L"],
)
def test_feedback_operator_from_another_grid_rejected(built_on):
    # the operator keeps its grid; stepping it on another one used to run
    # silently (other bc) or fail inside numpy (other N)
    grid = make_grid(D, math.pi, 201)
    bc, L, n_nodes = built_on
    op = feedback_matrices(make_grid(bc, L, n_nodes), place(Scheme.MXE, L, 4, 0.2))
    with pytest.raises(InvalidArgumentError, match="feedback operator was built on the grid"):
        run_closed_loop(
            grid, 0.1, constant_reaction(-1.0), np.sin(grid.nodes), 0.01, 1e-3,
            feedback=FeedbackConfig(operator=op),
        )


@pytest.mark.parametrize("bc", [D, N])
def test_initial_state_whose_norm_overflows_rejected(bc):
    # y0 = 1e300 x is finite, but y0^T M y0 is not: no step has been taken,
    # so the run rejects y0 instead of reporting a blow-up at step 0
    grid = make_grid(bc, math.pi, 101)
    y0 = 1e300 * grid.nodes
    with pytest.raises(InvalidArgumentError, match="^the L2 norm of the initial state y0"):
        run_closed_loop(grid, 0.1, constant_reaction(-1.0), y0, 0.01, 1e-3)


def test_feedback_apply_zero_state():
    grid = make_grid(D, math.pi, 201)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    R = reaction_matrix(grid, np.zeros(201))
    out = feedback_apply(op, 0.1, 1.0, R, np.zeros(201))
    assert np.max(np.abs(out)) == 0.0


def test_feedback_apply_matches_dense_oracle():
    grid = make_grid(D, math.pi, 201)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    nu, lam = 0.1, 1.3
    rng = np.random.default_rng(3)
    a = rng.standard_normal(201)
    R = reaction_matrix(grid, a)
    y = np.sin(grid.nodes) + 0.1 * grid.nodes
    Sd, Md, Rd = _dense(grid.stiffness), _dense(grid.mass), _dense(R)
    expected = -nodal_samples(op)[0] @ (op.P @ ((-nu * Sd - Rd + lam * Md) @ y))
    got = feedback_apply(op, nu, lam, R, y)
    assert np.allclose(got, expected, atol=1e-12)


def test_feedback_window_membership():
    grid = make_grid(D, math.pi, 201)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    cfg = FeedbackConfig(operator=op, lam=1.0, feed_on=(0.0, 1.0))
    assert cfg.active(0.0)
    assert cfg.active(0.5)
    assert cfg.active(1.0)
    assert not cfg.active(1.1)
    assert not cfg.active(-0.1)
    always = FeedbackConfig(operator=op, lam=1.0)
    assert always.active(123.0)


def test_inactive_feedback_equals_free_run():
    # a window that opens at the last step taken leaves every earlier state,
    # and the norm of each, as in the free dynamics
    grid = make_grid(D, math.pi, 151)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    y0 = np.sin(grid.nodes)
    react = constant_reaction(-1.0)
    free = run_closed_loop(grid, 0.1, react, y0, 1.0, 2e-3, snapshot_times=(0.998,))
    gated = run_closed_loop(
        grid, 0.1, react, y0, 1.0, 2e-3,
        feedback=FeedbackConfig(operator=op, lam=1.0, feed_on=(0.998, 3.0)),
        snapshot_times=(0.998,),
    )
    assert gated.feedback_on[-2:].all() and not gated.feedback_on[:-2].any()
    assert np.array_equal(free.snapshots, gated.snapshots)
    assert np.array_equal(free.norms[:-1], gated.norms[:-1])
    assert free.norms[-1] != gated.norms[-1]


def test_feedback_window_after_final_time_is_rejected():
    grid = make_grid(D, math.pi, 151)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    with pytest.raises(InvalidArgumentError, match="starts after the final time 1"):
        run_closed_loop(
            grid, 0.1, constant_reaction(-1.0), np.sin(grid.nodes), 1.0, 2e-3,
            feedback=FeedbackConfig(operator=op, lam=1.0, feed_on=(2.0, 3.0)),
        )


@pytest.mark.parametrize(
    "feed_on, message",
    [
        # active only at t = 1, the final state, from which no step is taken
        ((1.0, 3.0), "feedback window [1, 3] acts on no step before the final time 1"),
        # active() flags t = 1 within its 1e-9 tolerance, which does not help
        ((1.0000000001, 3.0), "feedback window [1.0000000001, 3] starts after the final time 1"),
        # between two steps
        ((0.5011, 0.5019), "feedback window [0.50109999999999999, 0.50190000000000001] acts on no step"),
    ],
    ids=["at-final-time", "within-tolerance-of-final-time", "between-steps"],
)
def test_feedback_window_acting_on_no_step_is_rejected(feed_on, message):
    grid = make_grid(D, math.pi, 151)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        run_closed_loop(
            grid, 0.1, constant_reaction(-1.0), np.sin(grid.nodes), 1.0, 2e-3,
            feedback=FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on),
        )


def test_feedback_window_at_the_last_step_taken_is_accepted():
    # within active()'s 1e-9 tolerance of step n - 1, the window acts on one step
    grid = make_grid(D, math.pi, 151)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 4, 0.2))
    run = run_closed_loop(
        grid, 0.1, constant_reaction(-1.0), np.sin(grid.nodes), 1.0, 2e-3,
        feedback=FeedbackConfig(operator=op, lam=1.0, feed_on=(0.998 + 5e-10, 3.0)),
    )
    assert run.feedback_on[-2:].all() and not run.feedback_on[:-2].any()


# ---------------------------------------------------------------- time stepping

def test_heat_decay_rate_dirichlet():
    grid = make_grid(D, math.pi, 401)
    run = run_closed_loop(grid, 0.1, constant_reaction(0.0), np.sin(grid.nodes), 1.0, 1e-3)
    ratio = run.norms[-1] / run.norms[0]
    assert abs(ratio - math.exp(-0.1)) <= 1e-3


def test_neumann_constant_steady_state():
    grid = make_grid(N, math.pi, 201)
    run = run_closed_loop(
        grid, 0.1, constant_reaction(0.0), np.ones(201), 1.0, 1e-3, snapshot_times=(1.0,)
    )
    assert np.max(np.abs(run.snapshots[0] - 1.0)) <= 1e-10


def test_unstable_reaction_growth_rate():
    # mode-1 rate is -(nu*1 + a) = 3.4 for a = -3.5
    grid = make_grid(D, math.pi, 401)
    run = run_closed_loop(grid, 0.1, constant_reaction(-3.5), np.sin(grid.nodes), 2.0, 1e-3)
    slope = log_norm_slope(run, 0.0, 2.0)
    assert abs(slope - 3.4) <= 0.02 * 3.4
    ratio = run.norms[-1] / run.norms[0]
    assert abs(ratio - math.exp(6.8)) <= 0.02 * math.exp(6.8)


def test_convergence_second_order():
    # halving h and k together cuts the error by about 4
    def error_at(n_nodes, k):
        grid = make_grid(D, math.pi, n_nodes)
        run = run_closed_loop(
            grid, 1.0, constant_reaction(0.0), np.sin(grid.nodes), 1.0, k, snapshot_times=(1.0,)
        )
        exact = math.exp(-1.0) * np.sin(grid.nodes)
        return nodal_l2_norm(grid, run.snapshots[0] - exact)

    e1 = error_at(33, 0.05)
    e2 = error_at(65, 0.025)
    assert 3.2 <= e1 / e2 <= 4.8


def test_stepper_rejects_bad_parameters():
    grid = make_grid(D, math.pi, 11)
    with pytest.raises(InvalidArgumentError):
        run_closed_loop(grid, 0.0, constant_reaction(0.0), np.zeros(11), 1.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        run_closed_loop(grid, 0.1, constant_reaction(0.0), np.zeros(11), 1.0, -1e-3)
    with pytest.raises(InvalidArgumentError):
        run_closed_loop(grid, 0.1, constant_reaction(0.0), np.zeros(11), -1.0, 1e-3)


def _feedback_with_lam(grid, lam):
    return FeedbackConfig(feedback_matrices(grid, place(Scheme.MXE, math.pi, 1, 0.5)), lam=lam)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), math.nan, 1e-3),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), math.inf, 1e-3),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), 1.0, math.nan),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), 1.0, math.inf),
        lambda g: run_closed_loop(g, math.nan, constant_reaction(0.0), np.zeros(11), 1.0, 1e-3),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.full(11, math.nan), 1.0, 1e-3),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(math.nan), np.zeros(11), 1.0, 1e-3),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), 1.0, 1e-3,
                                  feedback=_feedback_with_lam(g, math.nan)),
        lambda g: run_closed_loop(g, 0.1, constant_reaction(0.0), np.zeros(11), 1.0, 1e-3,
                                  feedback=_feedback_with_lam(g, math.inf)),
        lambda g: check_sufficient_condition(math.nan, D, 6, 1.5, 3.5),
        lambda g: check_sufficient_condition(math.inf, D, 6, 1.5, 3.5),
        lambda g: check_sufficient_condition(0.1, D, 6, 1.5, math.nan),
        lambda g: check_sufficient_condition(0.1, D, 6, 1.5, math.inf),
    ],
    ids=["T-nan", "T-inf", "k-nan", "k-inf", "nu-nan", "y0-nan", "reaction-nan", "lam-nan",
         "lam-inf", "suff-nu-nan", "suff-nu-inf", "suff-a-nan", "suff-a-inf"],
)
def test_non_finite_arguments_rejected(call):
    # y0, lambda and the reaction used to run and fail as a blow-up at step 0 or 1
    with pytest.raises(InvalidArgumentError):
        call(make_grid(D, math.pi, 11))


def test_initial_state_shape_checked():
    grid = make_grid(D, math.pi, 11)
    with pytest.raises(InvalidArgumentError):
        run_closed_loop(grid, 0.1, constant_reaction(0.0), np.zeros(10), 1.0, 1e-3)


def test_neumann_mass_conservation():
    grid = make_grid(N, math.pi, 301)
    y0 = np.cos(grid.nodes) + 1.0
    run = run_closed_loop(
        grid, 0.1, constant_reaction(0.0), y0, 1.0, 2e-3,
        snapshot_times=tuple(0.1 * i for i in range(11)),
    )
    ones = np.ones(grid.N)
    masses = [float(ones @ tridiag_matvec(*grid.mass, state)) for state in run.snapshots]
    spread = (max(masses) - min(masses)) / abs(masses[0])
    assert spread <= 1e-9


def test_energy_sign_dichotomy():
    # free Dirichlet dynamics: reaction below -nu*alpha_1 grows, above decays
    grid = make_grid(D, math.pi, 301)
    y0 = np.sin(grid.nodes)
    grow = run_closed_loop(grid, 0.1, constant_reaction(-0.5), y0, 2.0, 2e-3)
    decay = run_closed_loop(grid, 0.1, constant_reaction(-0.05), y0, 2.0, 2e-3)
    assert grow.norms[-1] > grow.norms[0]
    assert decay.norms[-1] < decay.norms[0]


def test_time_and_snapshot_bookkeeping():
    grid = make_grid(D, math.pi, 301)
    run = run_closed_loop(
        grid, 0.1, constant_reaction(0.0), np.sin(grid.nodes), 0.1, 2e-3,
        snapshot_times=(0.0, 0.05, 0.1),
    )
    n_steps = int(0.1 / 2e-3)
    assert len(run.times) == n_steps + 1
    assert run.times[0] == 0.0
    assert run.times[-1] == pytest.approx(0.1)
    assert len(run.snapshots) == 3
    assert np.allclose(run.snapshot_times, (0.0, 0.05, 0.1))
    assert np.allclose(run.snapshots[0], np.sin(grid.nodes))


@pytest.mark.parametrize("times", [(5.0,), (-1e-3,), (0.0, 0.011)])
def test_snapshot_times_outside_run_rejected(times):
    grid = make_grid(D, math.pi, 51)
    with pytest.raises(InvalidArgumentError, match=r"snapshot times must lie in \[0, 0.01\]"):
        run_closed_loop(
            grid, 0.1, constant_reaction(0.0), np.sin(grid.nodes), 0.01, 1e-3,
            snapshot_times=times,
        )


def test_snapshots_sharing_a_step_are_all_written():
    # 0 and 1e-4 both round to step 0 at k = 1e-3, so both rows hold y0
    grid = make_grid(D, math.pi, 51)
    y0 = np.sin(grid.nodes)
    run = run_closed_loop(
        grid, 0.1, constant_reaction(0.0), y0, 0.01, 1e-3,
        snapshot_times=(0.0, 1e-4, 0.01),
    )
    assert np.array_equal(run.snapshots[0], y0)
    assert np.array_equal(run.snapshots[1], y0)
    last = run_closed_loop(
        grid, 0.1, constant_reaction(0.0), y0, 0.01, 1e-3, snapshot_times=(0.01,)
    )
    assert np.array_equal(run.snapshots[2], last.snapshots[0])


# ---------------------------------------------------------------- closed loop

def test_stabilised_run_decays_monotonically_after_transient():
    react = constant_reaction(-3.5)
    for bc in (D, N):
        grid = make_grid(bc, math.pi, 301)
        y0 = 0.1 * grid.nodes
        op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
        run = run_closed_loop(
            grid, 0.1, react, y0, 4.5, 2e-3,
            feedback=FeedbackConfig(operator=op, lam=1.0),
        )
        assert run.norms[-1] < 0.05 * run.norms[0]
        tail = run.norms[int(round(1.0 / 2e-3)):]
        assert np.all(np.diff(tail) <= 1e-12)


def test_five_actuators_fail_under_neumann():
    grid = make_grid(N, math.pi, 301)
    y0 = 0.1 * grid.nodes
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 5, 0.1))
    run = run_closed_loop(
        grid, 0.1, constant_reaction(-3.5), y0, 4.5, 2e-3,
        feedback=FeedbackConfig(operator=op, lam=1.0),
    )
    assert run.norms[-1] > run.norms[0]


def test_norm_rebounds_after_feedback_switches_off():
    grid = make_grid(D, math.pi, 301)
    y0 = 0.1 * grid.nodes
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    run = run_closed_loop(
        grid, 0.1, constant_reaction(-3.5), y0, 2.5, 2e-3,
        feedback=FeedbackConfig(operator=op, lam=1.0, feed_on=(0.0, 1.5)),
    )
    i_off = int(round(1.5 / 2e-3))
    assert run.norms[-1] > run.norms[i_off]
    assert run.feedback_on[i_off]
    assert not run.feedback_on[i_off + 1]


def test_log_norm_slope_of_pure_heat():
    grid = make_grid(D, math.pi, 301)
    run = run_closed_loop(grid, 0.1, constant_reaction(0.0), np.sin(grid.nodes), 1.0, 2e-3)
    assert log_norm_slope(run, 0.2, 0.8) == pytest.approx(-0.1, abs=1e-4)


@pytest.mark.parametrize(
    "t0, t1, norms, error, message",
    [
        (0.5, 0.5, [1.0, 0.5, 0.25], InvalidArgumentError, "need t1 > t0, got [0.5, 0.5]"),
        (0.4, 0.6, [1.0, 0.5, 0.25], InvalidArgumentError,
         "window [0.4, 0.6] contains fewer than two samples"),
        (0.0, 1.0, [1.0, 0.0, 0.25], NumericalFailureError,
         "solution norm vanished inside the slope window"),
    ],
    ids=["empty window", "one sample", "zero norm"],
)
def test_log_norm_slope_rejects_bad_windows(t0, t1, norms, error, message):
    times = np.array([0.0, 0.5, 1.0])
    run = ClosedLoopRun(times, np.array(norms), np.ones(3, dtype=bool), (), None)
    with pytest.raises(error, match=re.escape(message)):
        log_norm_slope(run, t0, t1)


def test_blow_up_raises_with_step_and_time():
    grid = make_grid(D, math.pi, 101)
    y0, react, k = np.sin(grid.nodes), constant_reaction(-1e6), 1e-3
    with pytest.raises(NumericalFailureError) as exc:
        run_closed_loop(grid, 0.1, react, y0, 0.5, k)
    found = re.search(r"at step (\d+), t = ([^;]+);", str(exc.value))
    assert found is not None, str(exc.value)
    j, t = int(found.group(1)), float(found.group(2))
    assert 2 <= j <= 500
    assert t == pytest.approx(j * k, rel=1e-12)
    # every state before step j is finite, so j is the first failure
    before = run_closed_loop(grid, 0.1, react, y0, (j - 1) * k, k)
    assert np.all(np.isfinite(before.norms)) and len(before.norms) == j


# ---------------------------------------------------------------- fused kernel

def _reference_run(grid, nu, reaction, y0, T, k, feedback=None):
    """The closed loop written step by step with dense matrices: the state,
    its norm and the feedback flag at every step.

    The force is -R y + M f with f from feedback_apply, re-assembled every
    step, and each step solves 2 M + k nu S (its interior block under
    Dirichlet conditions) by a dense LU factorization.
    """
    Md, Sd = _dense(grid.mass), _dense(grid.stiffness)
    B_plus, B_minus = 2 * Md + k * nu * Sd, 2 * Md - k * nu * Sd
    inner = slice(1, -1) if grid.bc is D else slice(None)
    lu = scipy.linalg.lu_factor(B_plus[inner, inner])
    nodes = grid.nodes
    n_steps = int(math.floor(T / k + 1e-9))

    def force(y, t):
        R = reaction_matrix(grid, reaction.values(nodes, t))
        h = -_dense(R) @ y
        on = feedback is not None and feedback.active(t)
        if on:
            f = feedback_apply(feedback.operator, nu, feedback.lam, R, y)
            h = h + Md @ f
        return h, on

    y = np.array(y0, dtype=float)
    states, norms = [y], [math.sqrt(y @ Md @ y)]
    h_prev, on = force(y, 0.0)
    h_prev2, flags = h_prev, [on]
    for j in range(1, n_steps + 1):
        t = j * k
        rhs = B_minus @ y + k * (3 * h_prev - h_prev2)
        if grid.bc is D:
            y = np.concatenate([[0.0], scipy.linalg.lu_solve(lu, rhs[inner]), [0.0]])
        else:
            y = scipy.linalg.lu_solve(lu, rhs)
        states.append(y)
        norms.append(math.sqrt(y @ Md @ y))
        h_prev2 = h_prev
        h_prev, on = force(y, t)
        flags.append(on)
    return np.array(states), np.array(norms), np.array(flags)


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "bc, react, M, feed_on",
    [
        (D, "static", 6, None),
        (N, "static", 8, (0.1, 0.4)),
        (N, "oscillating", 8, (0.0, 0.3)),
        (D, "oscillating", 6, (0.1, 0.4)),
        (D, "varying", 6, None),
    ],
    ids=[
        "dirichlet-static", "neumann-static-window", "neumann-oscillating-window",
        "dirichlet-oscillating-window", "dirichlet-static-varying",
    ],
)
def test_fused_kernel_matches_stepwise_reference(bc, react, M, feed_on):
    grid = make_grid(bc, math.pi, 301)
    nu, k, T = 0.1, 2e-3, 0.6
    reaction = {
        "static": constant_reaction(-3.5),
        "oscillating": oscillating_reaction(nu, math.pi),
        # a static reaction that varies in x is stepped on the nodes, its values
        # evaluated once
        "varying": tabulated_reaction([0.0], grid.nodes, [np.cos(grid.nodes) - 3.5]),
    }[react]
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, M, 0.1))
    feedback = FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on)
    y0 = 0.1 * grid.nodes + 0.05
    run = run_closed_loop(
        grid, nu, reaction, y0, T, k, feedback=feedback, snapshot_times=(T,)
    )
    states_ref, norms_ref, flags_ref = _reference_run(
        grid, nu, reaction, y0, T, k, feedback=feedback
    )
    assert _rel(run.snapshots[0], states_ref[-1]) <= 1e-10
    assert _rel(run.norms, norms_ref) <= 1e-10
    assert np.array_equal(run.feedback_on, flags_ref)
    if feed_on is not None:
        assert run.feedback_on.any() and not run.feedback_on.all()


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("path", ["eigenbasis", "nodal"])
def test_closed_loop_reads_the_spread_from_the_operator(monkeypatch, bc, path):
    # The feedback is read through P and spread through (M U)^T from the
    # operator: a run forms no M x N product with a grid matrix, so every
    # product it forms has a 1-D operand
    grid = make_grid(bc, math.pi, 1001)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    nu = 0.1
    reaction = constant_reaction(-3.5) if path == "eigenbasis" else oscillating_reaction(nu, math.pi)
    shapes = []

    product = fem._stencil_times

    def recorded(T, x):
        shapes.append(x.shape)
        return product(T, x)

    monkeypatch.setattr(fem, "_stencil_times", recorded)
    run_closed_loop(
        grid, nu, reaction, 0.1 * grid.nodes, 0.01, 1e-3, feedback=FeedbackConfig(operator=op)
    )
    assert shapes and all(len(shape) == 1 for shape in shapes), shapes


# ---------------------------------------------------------------- eigenbasis path

@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_eigenbasis_path_matches_nodal_path(bc):
    # Flagging a constant reaction time-dependent sends it down the nodal
    # loop; measured agreement 3.2e-13 (Dirichlet) and 2.4e-13 (Neumann).
    grid = make_grid(bc, math.pi, 301)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    feedback = FeedbackConfig(operator=op, lam=1.0, feed_on=(0.2, 1.2))
    y0 = 0.1 * grid.nodes + 0.05
    react = constant_reaction(-3.5)
    runs = [
        run_closed_loop(
            grid, 0.1, r, y0, 1.5, 2e-3, feedback=feedback, snapshot_times=(0.0, 0.7, 1.5)
        )
        for r in (react, ReactionField(react.values, time_dependent=True))
    ]
    eig, nodal = runs
    assert _rel(eig.norms, nodal.norms) <= 1e-11
    assert _rel(eig.snapshots, nodal.snapshots) <= 1e-11
    assert np.array_equal(eig.snapshots[0], y0)
    assert np.array_equal(eig.feedback_on, nodal.feedback_on)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize(
    "bc, n_nodes, M, T, feed_on, varying, bound",
    [
        # measured 2.43e-14; the nodal path 5.0e-14
        (D, 201, 6, 0.3, None, False, 2e-13),
        # measured 5.52e-14; the nodal path 5.7e-14
        (N, 201, 6, 0.3, (0.1, 0.2), False, 2e-13),
        # measured 2.62e-14, also stepped one at a time; the nodal path 6.4e-13
        (D, 1001, 6, 0.2, None, False, 1e-13),
        # measured 2.08e-14 and 5.53e-14, as stepped one at a time: windows
        # shorter than a block and with their edges inside blocks
        (D, 201, 6, 0.3, (0.04, 0.06), False, 2e-13),
        (N, 201, 6, 0.3, (0.02, 0.15), False, 2e-13),
        # measured 2.32e-14 and 9.64e-15 (2.30e-14 and 9.75e-15 at 2 BLAS
        # threads); the nodal path 6.5e-13 and 2.6e-14
        (D, 2001, 100, 0.05, None, False, 5e-14),
        (N, 2001, 100, 0.05, None, False, 5e-14),
        # the nodal path with a static reaction varying in x: measured
        # 6.3e-13, 2.3e-14, 6.5e-13 and 2.5e-14
        (D, 1001, 6, 0.2, None, True, 2e-12),
        (N, 1001, 6, 0.2, None, True, 1e-13),
        (D, 2001, 40, 0.05, None, True, 2e-12),
        (N, 2001, 40, 0.05, None, True, 1e-13),
    ],
    ids=[
        "dirichlet-201", "neumann-201-window", "dirichlet-1001",
        "dirichlet-201-short-window", "neumann-201-long-window",
        "dirichlet-2001-M100", "neumann-2001-M100",
        "nodal-dirichlet-1001", "nodal-neumann-1001",
        "nodal-dirichlet-2001-M40", "nodal-neumann-2001-M40",
    ],
)
def test_eigenbasis_path_near_extended_precision(bc, n_nodes, M, T, feed_on, varying, bound):
    grid = make_grid(bc, math.pi, n_nodes)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, M, 0.1))
    feedback = FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on)
    y0 = 0.1 * grid.nodes + 0.05
    a = np.cos(grid.nodes) - 3.5 if varying else -3.5
    react = tabulated_reaction([0.0], grid.nodes, [a]) if varying else constant_reaction(a)
    run = run_closed_loop(grid, 0.1, react, y0, T, 1e-3, feedback=feedback)
    ref = longdouble_closed_loop(grid, 0.1, a, y0, T, 1e-3, feedback)
    assert float(np.max(np.abs(run.norms - ref) / ref)) <= bound


# Blocks start at step 2: the block from step j0 fills the states j0 + 1 ..
# j0 + BLOCK_STEPS, and a window edge cuts a block.
_EDGE = 2 + BLOCK_STEPS


@pytest.mark.parametrize(
    "n_steps", [1, 2, 3, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, _EDGE, _EDGE + 1]
)
@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_eigenbasis_run_ends_match_stepwise_reference(bc, n_steps):
    # measured at most 1.3e-14
    grid = make_grid(bc, math.pi, 301)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    y0, k = 0.1 * grid.nodes + 0.05, 2e-3
    T = n_steps * k
    args = (grid, 0.1, constant_reaction(-3.5), y0, T, k)
    feedback = FeedbackConfig(operator=op, lam=1.0)
    run = run_closed_loop(*args, feedback=feedback, snapshot_times=(T,))
    states_ref, norms_ref, _ = _reference_run(*args, feedback=feedback)
    assert len(run.norms) == n_steps + 1
    assert _rel(run.norms, norms_ref) <= 1e-10
    assert _rel(run.snapshots[0], states_ref[-1]) <= 1e-10


@pytest.mark.parametrize(
    "feed_on",
    [None, (0.04, 0.06), (0.02, 0.15), (0.0, 0.001), (0.002, 0.1)],
    ids=[
        "always", "window-shorter-than-a-block", "window-edges-inside-blocks",
        "window-on-step-0-only", "window-opens-at-step-1",
    ],
)
@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_eigenbasis_block_edges_match_stepwise_reference(bc, feed_on):
    # k = 2e-3: the short window acts on steps 20..30, the long one on
    # steps 10..75; the snapshots sit on either side of two block edges.
    # The last two windows act on step 0 alone and open at step 1, where
    # step 1's history carries step 0's feedback, or none.
    # Measured at most 4.9e-14.
    grid = make_grid(bc, math.pi, 301)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    y0, k, T = 0.1 * grid.nodes + 0.05, 2e-3, 0.2
    steps = [_EDGE - 1, _EDGE, _EDGE + 1, _EDGE + BLOCK_STEPS, _EDGE + BLOCK_STEPS + 1, 100]
    args = (grid, 0.1, constant_reaction(-3.5), y0, T, k)
    feedback = FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on)
    run = run_closed_loop(*args, feedback=feedback, snapshot_times=tuple(j * k for j in steps))
    states_ref, norms_ref, flags_ref = _reference_run(*args, feedback=feedback)
    assert _rel(run.norms, norms_ref) <= 1e-10
    assert _rel(run.snapshots, states_ref[steps]) <= 1e-10
    assert np.array_equal(run.feedback_on, flags_ref)


@pytest.mark.parametrize(
    "a, lam, scale",
    [(-1e6, 1.0, 1.0), (-3.5, 1e30, 1e-300)],
    ids=["reaction", "feedback"],
)
def test_blow_up_with_feedback_raises_with_step_and_time(a, lam, scale):
    # With lam = 1e30 the low modes grow about 1e27 per step: the powers of
    # the low block overflow within the first block while the state, scaled
    # by 1e-300, is still finite, and read without care they fail at step 14
    # instead of 17.
    grid = make_grid(D, math.pi, 101)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    feedback = FeedbackConfig(operator=op, lam=lam)
    y0, react, k = scale * np.sin(grid.nodes), constant_reaction(a), 1e-3
    with pytest.raises(NumericalFailureError) as exc:
        run_closed_loop(grid, 0.1, react, y0, 0.5, k, feedback=feedback)
    found = re.search(r"at step (\d+), t = ([^;]+);", str(exc.value))
    assert found is not None, str(exc.value)
    j, t = int(found.group(1)), float(found.group(2))
    assert 2 < j <= 500
    assert t == pytest.approx(j * k, rel=1e-12)
    before = run_closed_loop(grid, 0.1, react, y0, (j - 1) * k, k, feedback=feedback)
    assert np.all(np.isfinite(before.norms)) and len(before.norms) == j
    # the nodal path steps one at a time and fails at the same step
    nodal = ReactionField(react.values, time_dependent=True)
    with pytest.raises(NumericalFailureError, match=f"at step {j},"):
        run_closed_loop(grid, 0.1, nodal, y0, 0.5, k, feedback=feedback)


@pytest.mark.parametrize(
    "bc, M, lam, bound",
    [
        # measured 4.5e-6: mode M + 1 = cos 6x sets the rate 0.103 at N = 201
        (N, 6, 1.0, 2e-5),
        # measured 6.6e-5: mode 7 decays at 1.405 < lam
        (D, 6, 3.0, 2e-4),
        # measured 4.2e-5: mode 5 grows at 0.9987
        (D, 4, 1.0, 2e-4),
    ],
    ids=["neumann-M6", "dirichlet-lam3", "dirichlet-M4-unstable"],
)
def test_constant_reaction_decays_at_the_exact_rate(bc, M, lam, bound):
    # The late slope of ln ||y|| is ln rho / k, rho the spectral radius of the
    # eigenbasis recurrence: the larger of that of the low block F and the
    # largest root modulus of x^2 = A1_i x + A2_i over the modes i > M, which
    # the low block drives but never feeds back.  Measured 9.2e-13, 6.5e-15
    # and 2.2e-14 from that rate.
    #
    # For R = a M the feedback leaves the low modes decaying at lam and the
    # modes above M at nu Lambda_k + a, so the rate is close to
    # -min(lam, nu Lambda_{M+1} + a); Lambda_{M+1} is the grid eigenvalue of
    # the sampled eigenfunction, its Rayleigh quotient.  The bounds hold the
    # time discretization error, second order in k.
    grid = make_grid(bc, math.pi, 201)
    nu, a, k, T = 0.1, -3.5, 5e-3, 40.0
    x = grid.nodes
    e = np.sin((M + 1) * x) if bc is D else np.cos(M * x)
    Lam = (e @ tridiag_matvec(*grid.stiffness, e)) / (e @ tridiag_matvec(*grid.mass, e))
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, M, 0.1))
    feedback = FeedbackConfig(operator=op, lam=lam)
    system = _eigen_system(grid, nu, a, k, feedback)
    A1, A2 = system.A1[M:], system.A2[M:]
    root = np.sqrt((A1**2 + 4.0 * A2).astype(complex))
    rho = max(
        float(np.max(np.abs(np.linalg.eigvals(system.low_block(True, True)[1])))),
        float(np.max(np.abs(A1 + root) / 2.0)),
        float(np.max(np.abs(A1 - root) / 2.0)),
    )
    rate = math.log(rho) / k
    predicted = -min(lam, nu * Lam + a)
    assert abs(rate - predicted) <= bound * abs(predicted)
    run = run_closed_loop(grid, nu, constant_reaction(a), 0.1 * x + 0.05, T, k, feedback=feedback)
    assert abs(log_norm_slope(run, 0.75 * T, T) - rate) <= 1e-10 * abs(rate)


def _dense_sampled_eigenvectors(grid):
    """The eigenvectors V of the uniform grid's M and S as a dense matrix:
    sin(i j pi / (N-1)) on the Dirichlet interior, cos(i j pi / (N-1)) on
    all nodes under Neumann conditions, from the exact angles
    ((i j) mod 2(N-1)) pi / (N-1) in [0, 2 pi)."""
    n = grid.N
    i = np.arange(1, n - 1) if grid.bc is D else np.arange(n)
    angles = (np.outer(i, i) % (2 * (n - 1))) * (math.pi / (n - 1))
    return np.sin(angles) if grid.bc is D else np.cos(angles)


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 17, 1001])
@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_trig_sums_match_a_dense_transform(bc, n_nodes):
    # _trig_sums forms Bt, Cl, step 1's handoff and the snapshots.  Measured
    # at most 2.6e-16 of sum |x|; against sines and cosines of the unreduced
    # angles i j pi / (N-1) the oracle itself is off by 8.6e-15 at N = 1001.
    V = _dense_sampled_eigenvectors(make_grid(bc, 1.0, n_nodes))
    x = np.random.default_rng(n_nodes).standard_normal((3, len(V)))
    for rows in (x[0], x):
        got = fem._trig_sums(rows, bc is D)
        assert got.shape == rows.shape
        scale = np.sum(np.abs(rows), axis=-1, keepdims=True)
        assert float(np.max(np.abs(got - rows @ V) / scale)) <= 1e-15


@pytest.mark.parametrize("n_nodes", [201, 1001])
@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "scheme, M, r", [(Scheme.MXE, 6, 0.1), (Scheme.MXE, 20, 0.1), (Scheme.UNI, 8, 0.3)],
    ids=["mxe-6", "mxe-20", "uni-8"],
)
def test_feedback_reads_only_the_low_modes(bc, n_nodes, scheme, M, r):
    # The eigenbasis stepper keeps the M x M read Cl alone: the full read
    # P_M (K - a M) V vanishes beyond column M, since the sampled
    # eigenfunctions are eigenvectors, up to rounding that grows roughly as
    # N^2.  Measured at most 1.1e-13 of the largest entry at N = 201 and
    # 4.1e-12 at N = 1001; it reaches 1.4e-10 at N = 10001.
    grid = make_grid(bc, math.pi, n_nodes)
    op = feedback_matrices(grid, place(scheme, math.pi, M, r))
    nu, lam, a = 0.1, 1.0, -3.5
    W = op.P @ ((lam - a) * _dense(grid.mass) - nu * _dense(grid.stiffness))
    read = (W[:, 1:-1] if bc is D else W) @ _dense_sampled_eigenvectors(grid)
    scale = float(np.max(np.abs(read)))
    assert float(np.max(np.abs(read[:, M:]))) <= 1e-11 * scale
    # the builder's read, W[:, :M]^{-T} diag(omega o kappa) with W = (M U)^T V,
    # is the low block: measured at most 3.8e-15 of the largest entry from it
    # at N = 201 and 3.6e-14 at N = 1001
    Cl = _eigen_system(grid, nu, a, 1e-3, FeedbackConfig(operator=op, lam=lam)).Cl
    assert Cl.shape == (M, M)
    assert float(np.max(np.abs(Cl - read[:, :M]))) <= 1e-12 * scale


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_eigen_system_reads_no_projection(bc):
    # the eigenbasis system is built from (M U)^T alone; P_M serves step 0
    grid = make_grid(bc, math.pi, 201)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    blind = dataclasses.replace(op, P=np.full_like(op.P, np.nan))
    systems = [
        _eigen_system(grid, 0.1, -3.5, 1e-3, FeedbackConfig(operator=o, lam=1.0))
        for o in (op, blind)
    ]
    assert np.array_equal(systems[0].Cl, systems[1].Cl)
    assert np.array_equal(systems[0].Bt, systems[1].Bt)


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "scheme, M, r, n_nodes, bound",
    [
        # measured 1.9e-16 and 3.8e-16
        (Scheme.MXE, 6, 0.1, 1001, 2e-15),
        # measured 7.7e-16 and 1.0e-15 (8.8e-16 and 7.7e-16 at 2 BLAS threads)
        (Scheme.MXE, 100, 0.1, 2001, 2e-15),
        # measured 2.0e-16 and 3.9e-16
        (Scheme.UNI, 8, 0.3, 1001, 2e-15),
        # measured 5.9e-16 and 3.7e-15
        (Scheme.CON, 6, 0.5, 1001, 1e-14),
    ],
    ids=["mxe-6", "mxe-100", "uni-8", "con-6"],
)
def test_low_block_spreads_exactly_the_feedback_law(bc, scheme, M, r, n_nodes, bound):
    # Bt[:, :M] = W[:, :M] k / (omega o pi_k) and Cl = W[:, :M]^{-T}
    # diag(omega o kappa), so the low block's force Cl^T Bt[:, :M] is
    # diag(kappa o k / pi_k)[:M], up to one M x M solve
    grid = make_grid(bc, math.pi, n_nodes)
    op = feedback_matrices(grid, place(scheme, math.pi, M, r))
    nu, lam, a, k, h = 0.1, 1.0, -3.5, 1e-3, grid.h
    system = _eigen_system(grid, nu, a, k, FeedbackConfig(operator=op, lam=lam))
    i = np.arange(1, M + 1) if bc is D else np.arange(M)
    s = np.sin(i * math.pi / (2 * (n_nodes - 1))) ** 2
    mu = h - (2.0 * h / 3.0) * s
    kappa = (lam - a) * mu - nu * (4.0 / h) * s
    target = np.diag(kappa * k / (2.0 * mu + k * nu * (4.0 / h) * s))
    err = np.abs(system.Cl.T @ system.Bt[:, :M] - target)
    assert float(np.max(err)) <= bound * float(np.max(np.abs(target)))


@pytest.mark.parametrize("feed_on", [None, (0.01, 0.05)], ids=["on", "window"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, BLOCK_STEPS + 2, BLOCK_STEPS + 3, 80])
def test_eigenbasis_stepper_yields_each_state_once(n_steps, feed_on):
    # states 1..n_steps in order, and none beyond: a one-step run reads no block
    grid = make_grid(D, math.pi, 101)
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    feedback = FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on)
    k = 1e-3
    system = _eigen_system(grid, 0.1, -3.5, k, feedback)
    flags = feedback.active(np.arange(n_steps + 1) * k)
    u1 = np.ones(grid.N - 2)
    seen = []
    for j, rows in _step_eigenbasis(system, flags, u1, np.zeros_like(u1), n_steps):
        assert np.isfinite(rows).all()
        seen.extend(range(j, j + len(rows)))
    assert seen == list(range(1, n_steps + 1))


@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_free_eigenbasis_run_matches_stepwise_reference(bc):
    # without feedback every block is a free block, stepped with a zero read;
    # measured at most 2.3e-14
    grid = make_grid(bc, math.pi, 301)
    y0, k, T = 0.1 * grid.nodes + 0.05, 2e-3, 0.1
    args = (grid, 0.1, constant_reaction(-3.5), y0, T, k)
    run = run_closed_loop(*args, snapshot_times=(0.0, 0.05, T))
    states_ref, norms_ref, _ = _reference_run(*args)
    assert _rel(run.norms, norms_ref) <= 1e-10
    assert _rel(run.snapshots, states_ref[[0, 25, 50]]) <= 1e-10


# ---------------------------------------------------------------- low-mode law

@pytest.mark.parametrize("feed_on", [None, (0.1, 0.4)], ids=["always", "window"])
@pytest.mark.parametrize("react", ["constant", "varying", "oscillating"])
@pytest.mark.parametrize("bc", [D, N], ids=["dirichlet", "neumann"])
def test_low_modes_obey_the_feedback_law(bc, react, feed_on):
    # While the feedback acts, m = E^T M y obeys the recurrence of
    # low_mode_step whatever the reaction: the eigenbasis path (constant),
    # the nodal path with a static reaction varying in x, and the
    # time-dependent nodal path.  The law is seeded at steps 1 and 2, since a
    # Dirichlet y0 = 0.1 x is nonzero at x = L and enters step 0 only.
    grid = make_grid(bc, math.pi, 201)
    nu, lam, k, T = 0.1, 1.0, 1e-3, 0.5
    reaction = {
        "constant": constant_reaction(-3.5),
        "varying": tabulated_reaction([0.0], grid.nodes, [np.cos(grid.nodes) - 3.5]),
        "oscillating": oscillating_reaction(nu, math.pi),
    }[react]
    op = feedback_matrices(grid, place(Scheme.MXE, math.pi, 6, 0.1))
    n_steps = int(round(T / k))
    run = run_closed_loop(
        grid, nu, reaction, 0.1 * grid.nodes, T, k,
        feedback=FeedbackConfig(operator=op, lam=lam, feed_on=feed_on),
        snapshot_times=tuple(np.arange(n_steps + 1) * k),
    )
    m = low_mode_moments(op, run.snapshots)
    # step n -> n + 1 uses the forces at steps n and n - 1
    checked = [n for n in range(2, n_steps) if run.feedback_on[n] and run.feedback_on[n - 1]]
    assert len(checked) == (498 if feed_on is None else 300)
    pred = low_mode_step(op, nu, lam, k, m[[n - 1 for n in checked]], m[checked])
    got = m[[n + 1 for n in checked]]
    # measured 1.1e-15 to 1.8e-15 over the twelve cases
    assert float(np.max(np.abs(got - pred)) / np.max(np.abs(got))) <= 1e-14
