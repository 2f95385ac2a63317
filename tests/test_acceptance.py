"""Acceptance checks: one test per shipped guarantee, printed as a checklist.

Each test prints a single PASS line (visible under pytest -s; the test name
itself carries the criterion number under pytest -v).  Tolerances are stated
inline; timing limits are asserted where a guarantee includes one.
"""

import math
import time

import numpy as np
import pytest

from oblique_stab.actuators import (
    Scheme,
    all_breakpoints,
    indicators,
    normalized_indicator_coeff,
    place,
)
from oblique_stab.errors import ConstraintViolationError
from oblique_stab.fem import (
    FeedbackConfig,
    assemble_fem,
    constant_reaction,
    feedback_matrices,
    make_grid,
    nodal_l2_norm,
    oscillating_reaction,
    run_closed_loop,
)
from oblique_stab.projection import (
    analytic_vartheta,
    apply_adjoint_projection,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_theta_diagonal,
    cosine_sum,
    op_norm_limit,
    vartheta_limit,
)
from oblique_stab.quadrature import integrate
from oblique_stab.spectral import BoundaryCondition, build_basis, eval_eigenfunction

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN

COVERED = ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI))
R_SET = (0.1, 0.25, 0.5, 0.75, 0.9)


def _build(bc, scheme, M, r, L=math.pi):
    return build_projection(assemble_cross_gram(bc, place(scheme, L, M, r)))


def _first_admissible(scheme, r, start=2):
    M = start
    while scheme is Scheme.UNI and M < r / (1.0 - r) * (1.0 - 1e-12):
        M += 1
    return M


def test_criterion_01_analytic_vs_numeric_vartheta():
    t0 = time.perf_counter()
    worst = 0.0
    for bc, scheme in COVERED:
        for r in R_SET:
            for M in range(1, 61):
                if scheme is Scheme.UNI and M < r / (1.0 - r) * (1.0 - 1e-12):
                    continue
                expected = analytic_vartheta(bc, scheme, M, r)
                got = _build(bc, scheme, M, r).vartheta
                rel = abs(got - expected) / expected
                worst = max(worst, rel)
                assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS - closed-form vs numeric smallest eigenvalue, "
        f"worst rel err {worst:.2e} (tol 1e-8), {elapsed:.1f}s (limit 10s)"
    )


def test_criterion_02_limit_convergence_and_monotone_norms():
    for bc, scheme in COVERED:
        for r in R_SET:
            lim = vartheta_limit(r)
            start = _first_admissible(scheme, r)
            if start > 200:
                continue
            val = analytic_vartheta(bc, scheme, 200, r)
            assert abs(val - lim) <= 0.01 * lim
            norm_lim = op_norm_limit(r)
            norms = [
                1.0 / math.sqrt(analytic_vartheta(bc, scheme, M, r))
                for M in range(start, 201)
            ]
            assert all(a < b for a, b in zip(norms, norms[1:]))
            assert all(v < norm_lim for v in norms)
    print(
        "criterion 2: PASS - smallest eigenvalue at M=200 within 1% of its limit; "
        "norm sequence strictly increasing and bounded by the limit norm"
    )


def test_criterion_03_diagonality_and_corner_entries():
    # diagonal families
    for bc, scheme in COVERED:
        for M in (2, 5, 9):
            data = _build(bc, scheme, M, 0.5)
            ok, max_off = check_theta_diagonal(data)
            assert ok
            assert max_off <= 1e-10 * np.max(np.diag(data.theta))

    displayed = -16.0 * math.sin(math.pi / 12) * math.sin(math.pi / 4) / math.pi**2

    # the corner-entry expression depends on the centers only through the sums
    # sum_k cos(c_k) cos(3 c_k); both non-diagonal families at M=3, r=1/2 give
    # the same value, which the clustered Dirichlet family attains exactly
    r = 0.5
    for scheme in (Scheme.CON, Scheme.UNI):
        aset = place(scheme, math.pi, 3, r)
        mixed = 0.5 * (cosine_sum(aset, 2) + cosine_sum(aset, 4))
        expr = (24.0 / (r * math.pi**2)) * (
            math.sin(r * math.pi / 6) * math.sin(r * math.pi / 2) / 3.0
        ) * mixed
        assert abs(expr - displayed) <= 1e-10

    d_con = _build(D, Scheme.CON, 3, r)
    assert not check_theta_diagonal(d_con)[0]
    assert abs(d_con.theta[0, 2] - displayed) <= 1e-10

    # the Neumann families are likewise non-diagonal; their corner entries
    # take the closed-form values -sqrt(2)/pi and -sqrt(2)/(2 pi)
    n_con = _build(N, Scheme.CON, 3, r)
    assert not check_theta_diagonal(n_con)[0]
    assert abs(n_con.theta[0, 2] - (-math.sqrt(2) / math.pi)) <= 1e-10
    n_uni = _build(N, Scheme.UNI, 3, r)
    assert not check_theta_diagonal(n_uni)[0]
    assert abs(n_uni.theta[0, 2] - (-math.sqrt(2) / (2 * math.pi))) <= 1e-10

    print(
        "criterion 3: PASS - diagonal for covered placements (1e-10 rel); corner "
        f"entry {displayed:.6f} matched by Dirichlet-con and by the cosine-sum "
        "expression for both non-diagonal families; Neumann corner entries "
        f"{-math.sqrt(2)/math.pi:.6f} (con) and {-math.sqrt(2)/(2*math.pi):.6f} (uni)"
    )


def test_criterion_04_cosine_sum_identities():
    worst_mxe = 0.0
    for M in range(1, 51):
        aset = place(Scheme.MXE, math.pi, M, 0.3)
        for m in range(1, 2 * M):
            worst_mxe = max(worst_mxe, abs(cosine_sum(aset, m)))
    assert worst_mxe <= 1e-12
    worst_uni = 0.0
    for M in range(1, 51):
        aset = place(Scheme.UNI, math.pi, M, 0.3)
        for m in range(1, 2 * M):
            expected = -1.0 if m % 2 == 0 else 0.0
            worst_uni = max(worst_uni, abs(cosine_sum(aset, m) - expected))
    assert worst_uni <= 1e-12
    print(
        f"criterion 4: PASS - center cosine sums: extremiser worst {worst_mxe:.2e}, "
        f"uniform parity worst {worst_uni:.2e} (tol 1e-12)"
    )


def test_criterion_05_projector_laws():
    worst = 0.0
    for bc in (D, N):
        for M in (1, 5, 12, 20):
            aset = place(Scheme.MXE, math.pi, M, 0.3)
            data = build_projection(assemble_cross_gram(bc, aset))
            bps = all_breakpoints(aset)
            basis = build_basis(bc, math.pi, M + 1)

            # norm strictly above one
            assert data.op_norm > 1.0

            # range: the first actuator is reproduced with unit coefficients
            f_u = lambda x: normalized_indicator_coeff(aset) * indicators(aset, x)[..., 0]
            alpha, proj = apply_projection(data, f_u, breakpoints=bps, n_panels=64)
            dev = max(abs(alpha[0] - 1.0), float(np.max(np.abs(alpha[1:]), initial=0.0)))
            worst = max(worst, dev)
            assert dev <= 1e-9

            # idempotence on a generic smooth input
            f = lambda x: np.sin(x) + 0.3 * np.cos(2 * x)
            a1, proj1 = apply_projection(data, f)
            a2, _ = apply_projection(data, proj1, breakpoints=bps, n_panels=64)
            dev = float(np.max(np.abs(a2 - a1)))
            worst = max(worst, dev)
            assert dev <= 1e-9

            # kernel: the next eigenfunction maps to zero
            f_e = lambda x: eval_eigenfunction(basis, M + 1, x)
            a3, _ = apply_projection(data, f_e)
            dev = float(np.max(np.abs(a3)))
            worst = max(worst, dev)
            assert dev <= 1e-9

            # adjoint duality on a sampled pair
            g = lambda x: x * (math.pi - x)
            _, adj_g = apply_adjoint_projection(data, g)
            lhs = integrate(
                lambda x: proj1(x) * g(x), 0, math.pi, n_panels=64, breakpoints=bps
            )
            rhs = integrate(lambda x: f(x) * adj_g(x), 0, math.pi, n_panels=64)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-9
    print(
        f"criterion 5: PASS - idempotence, range, kernel, duality, norm > 1 for "
        f"M in {{1,5,12,20}}, both boundary conditions; worst dev {worst:.2e} (tol 1e-9)"
    )


def test_criterion_06_rescaling_invariance():
    # configurations kept comfortably away from near-singular clustered setups
    # so the 1e-9 comparison measures the rescaling map, not eigenvalue noise
    configs = ((Scheme.MXE, 8, 0.3), (Scheme.UNI, 8, 0.3), (Scheme.CON, 3, 0.5))
    worst = 0.0
    for bc in (D, N):
        for scheme, M, r in configs:
            norms = [_build(bc, scheme, M, r, L=L).op_norm for L in (1.0, math.pi, 2.5)]
            spread = max(norms) - min(norms)
            worst = max(worst, spread)
            assert spread <= 1e-9
    print(
        f"criterion 6: PASS - operator norm invariant across L in {{1, pi, 2.5}}, "
        f"worst spread {worst:.2e} (tol 1e-9)"
    )


def test_criterion_07_fem_convergence_order():
    t0 = time.perf_counter()

    def error_at(n_nodes, k):
        grid = make_grid(math.pi, n_nodes)
        fem = assemble_fem(grid)
        run = run_closed_loop(
            D, fem, 1.0, constant_reaction(0.0), np.sin(grid.nodes), 1.0, k
        )
        exact = math.exp(-1.0) * np.sin(grid.nodes)
        return nodal_l2_norm(fem, run.final_state - exact)

    errors = [error_at(33, 0.05), error_at(65, 0.025), error_at(129, 0.0125)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    for ratio in ratios:
        assert 3.2 <= ratio <= 4.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 7: PASS - (h,k)-halving error ratios {ratios[0]:.3f}, "
        f"{ratios[1]:.3f} in [3.2, 4.8], {elapsed:.1f}s (limit 30s)"
    )


def _experiment_run(bc, M, *, feedback_on=True, reaction=None, T=4.5, feed_on=None):
    grid = make_grid(math.pi, 1001)
    fem = assemble_fem(grid)
    y0 = 0.1 * grid.nodes
    react = reaction if reaction is not None else constant_reaction(-3.5)
    fb = None
    if feedback_on:
        op = feedback_matrices(fem, bc, place(Scheme.MXE, math.pi, M, 0.1))
        fb = FeedbackConfig(operator=op, lam=1.0, feed_on=feed_on)
    return run_closed_loop(bc, fem, 0.1, react, y0, T, 1e-3, feedback=fb)


def test_criterion_08_closed_loop_stabilisation():
    t0 = time.perf_counter()
    ratios = {}
    for bc in (D, N):
        run6 = _experiment_run(bc, 6)
        ratios[(bc, 6)] = run6.norms[-1] / run6.norms[0]
        assert ratios[(bc, 6)] < 0.1
    run5d = _experiment_run(D, 5)
    ratios[(D, 5)] = run5d.norms[-1] / run5d.norms[0]
    assert ratios[(D, 5)] < 1.0
    run5n = _experiment_run(N, 5)
    ratios[(N, 5)] = run5n.norms[-1] / run5n.norms[0]
    assert ratios[(N, 5)] > 1.0
    for bc in (D, N):
        free = _experiment_run(bc, 0, feedback_on=False)
        assert free.norms[-1] > free.norms[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        "criterion 8: PASS - six actuators contract the norm "
        f"(ratios D {ratios[(D, 6)]:.3f}, N {ratios[(N, 6)]:.3f} < 0.1); five "
        f"stabilise Dirichlet ({ratios[(D, 5)]:.3f}) but not Neumann "
        f"({ratios[(N, 5)]:.3f}); free dynamics grow; {elapsed:.0f}s (limit 120s)"
    )


def test_criterion_09_norm_rebounds_after_switch_off():
    k = 1e-3
    i_off = int(round(4.5 / k))
    for bc in (D, N):
        run = _experiment_run(bc, 6, T=6.0, feed_on=(0.0, 4.5))
        assert run.feedback_on[i_off]
        assert not run.feedback_on[i_off + 1]
        assert run.norms[-1] > run.norms[i_off]
    print(
        "criterion 9: PASS - with feedback active only on [0, 4.5], the norm at "
        "t=6 exceeds the norm at t=4.5 for both boundary conditions"
    )


def test_criterion_10_time_dependent_reaction():
    react = oscillating_reaction(0.1, math.pi)
    ratios = {}
    for bc in (D, N):
        run8 = _experiment_run(bc, 8, reaction=react)
        ratios[(bc, 8)] = run8.norms[-1] / run8.norms[0]
        assert ratios[(bc, 8)] < 1.0
    # M = 7 is a qualitative-only check: record both outcomes, require decay
    # for Dirichlet
    run7d = _experiment_run(D, 7, reaction=react)
    ratios[(D, 7)] = run7d.norms[-1] / run7d.norms[0]
    assert ratios[(D, 7)] < 1.0
    run7n = _experiment_run(N, 7, reaction=react)
    ratios[(N, 7)] = run7n.norms[-1] / run7n.norms[0]
    print(
        "criterion 10: PASS - oscillating reaction: eight actuators decay for "
        f"both bc (D {ratios[(D, 8)]:.3f}, N {ratios[(N, 8)]:.3f}); recorded M=7 "
        f"ratios D {ratios[(D, 7)]:.3f} (decays), N {ratios[(N, 7)]:.3f} "
        f"({'decays' if ratios[(N, 7)] < 1.0 else 'grows'}) at these parameters"
    )


def test_criterion_11_neumann_uniform_slope_estimates():
    targets = {(10, 20): -1e-3, (50, 60): -6e-5, (110, 120): -1.5e-5}
    theta = {
        M: _build(N, Scheme.UNI, M, 0.2).vartheta
        for window in targets for M in window
    }
    slopes = {}
    for (lo, hi), target in targets.items():
        slope = (theta[hi] - theta[lo]) / (hi - lo)
        slopes[(lo, hi)] = slope
        assert slope < 0.0
        assert abs(target) / 2.0 <= abs(slope) <= abs(target) * 2.0
    print(
        "criterion 11: PASS - uniform-Neumann eigenvalue slopes "
        + ", ".join(
            f"[{lo},{hi}] {slopes[(lo, hi)]:.3e} (target {t:.1e})"
            for (lo, hi), t in targets.items()
        )
        + ", each within a factor of 2"
    )
