"""Tests for the cross-Gram assembly and oblique projection operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_stab.actuators import (
    Scheme,
    all_breakpoints,
    indicators,
    normalized_indicator_coeff,
    place,
)
from oblique_stab.errors import (
    ConstraintViolationError,
    DirectSumFailureError,
    SingularConfigurationError,
)
from oblique_stab.projection import (
    analytic_theta_spectrum,
    analytic_vartheta,
    apply_adjoint_projection,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    check_theta_diagonal,
    cosine_sum,
    op_norm_limit,
    orthogonal_projection_actuators,
    vartheta_limit,
)
from oblique_stab.quadrature import integrate
from oblique_stab.spectral import BoundaryCondition, build_basis, eval_eigenfunction

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def _build(bc, scheme, M, r):
    return build_projection(assemble_cross_gram(bc, place(scheme, math.pi, M, r)))


def _antiderivative_entries(bc, M, r, cm):
    """Cross-Gram entries at L = pi from endpoint antiderivative differences."""
    delta = r * math.pi / (2 * M)
    norm_coef = math.sqrt(M / (r * math.pi))
    lo = cm - delta
    hi = cm + delta
    G = np.empty((M, M))
    if bc is BoundaryCondition.DIRICHLET:
        amp = norm_coef * math.sqrt(2 / math.pi)
        for row, i in enumerate(range(1, M + 1)):
            G[row, :] = amp * (np.cos(i * lo) - np.cos(i * hi)) / i
    else:
        G[0, :] = norm_coef * math.sqrt(1 / math.pi) * (hi - lo)
        amp = norm_coef * math.sqrt(2 / math.pi)
        for row, i in enumerate(range(2, M + 1), start=1):
            m = i - 1
            G[row, :] = amp * (np.sin(m * hi) - np.sin(m * lo)) / m
    return G


def _normalized(aset, j):
    """Evaluator of the L2-normalised indicator of omega_j, 1-based j."""
    return lambda x: normalized_indicator_coeff(aset) * indicators(aset, x)[..., j - 1]


# ---------------------------------------------------------------- assembly

def test_single_actuator_dirichlet_entry():
    # c = pi/2, r = 1/2: the overlap integral evaluates to 2*sqrt(2)/pi
    gram = assemble_cross_gram(D, place(Scheme.MXE, math.pi, 1, 0.5))
    assert gram.entries[0, 0] == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-14)
    assert gram.entries[0, 0] == pytest.approx(0.90032, abs=5e-6)


def test_single_actuator_neumann_entry_is_sqrt_r():
    for scheme in (Scheme.MXE, Scheme.UNI, Scheme.CON):
        for r in (0.1, 0.3, 0.7):
            if scheme is Scheme.UNI and 1 < r / (1 - r):
                continue
            gram = assemble_cross_gram(N, place(scheme, math.pi, 1, r))
            assert gram.entries[0, 0] == pytest.approx(math.sqrt(r), rel=1e-14)


def test_neumann_first_row_constant():
    gram = assemble_cross_gram(N, place(Scheme.MXE, math.pi, 5, 0.3))
    assert np.allclose(gram.entries[0, :], math.sqrt(0.3 / 5), rtol=1e-13)


def test_coincident_centers_rejected():
    aset = place(Scheme.CUSTOM, math.pi, 2, 0.2, centers=(1.0, 1.0 + 1e-13))
    with pytest.raises(SingularConfigurationError):
        assemble_cross_gram(D, aset)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON])
def test_antiderivative_validation_path(bc, scheme):
    # the closed forms agree with exact integration by antiderivatives
    aset = place(scheme, math.pi, 6, 0.35)
    gram = assemble_cross_gram(bc, aset)
    assert gram.entries.shape == (6, 6)
    oracle = _antiderivative_entries(bc, 6, 0.35, np.asarray(aset.centers))
    assert np.max(np.abs(gram.entries - oracle)) <= 1e-12


def test_entries_match_quadrature():
    # independent check: entry (i, j) is the L2 pairing of e_i with the
    # normalized indicator of omega_j
    aset = place(Scheme.UNI, math.pi, 3, 0.4)
    for bc in (D, N):
        gram = assemble_cross_gram(bc, aset)
        basis = build_basis(bc, math.pi, 3)
        for i in (1, 3):
            for j in (1, 2):
                u_j = _normalized(aset, j)
                val = integrate(
                    lambda x: eval_eigenfunction(basis, i, x) * u_j(x),
                    0.0,
                    math.pi,
                    n_panels=64,
                    breakpoints=all_breakpoints(aset),
                )
                assert gram.entries[i - 1, j - 1] == pytest.approx(val, abs=1e-12)


# ---------------------------------------------------------------- build

def test_build_projection_reference_values():
    data = _build(D, Scheme.MXE, 2, 0.5)
    # closed form 32/pi^2 * sin^2(pi/8)
    exact = 16.0 / (0.5 * math.pi**2) * math.sin(math.pi / 8) ** 2
    assert data.vartheta == pytest.approx(exact, rel=1e-12)
    assert data.vartheta == pytest.approx(0.474823, abs=5e-6)
    assert data.op_norm == pytest.approx(1.0 / math.sqrt(exact), rel=1e-12)
    assert data.op_norm == pytest.approx(1.45128, abs=1e-4)


def test_single_neumann_actuator_vartheta_is_r():
    data = _build(N, Scheme.MXE, 1, 0.3)
    assert data.vartheta == pytest.approx(0.3, rel=1e-13)


def test_identity_gram_gives_norm_one():
    gram = assemble_cross_gram(D, place(Scheme.MXE, math.pi, 3, 0.4))
    ident = type(gram)(
        bc=gram.bc,
        actuators=gram.actuators,
        basis=gram.basis,
        M=gram.M,
        entries=np.eye(3),
    )
    data = build_projection(ident)
    assert data.op_norm == pytest.approx(1.0, rel=1e-14)


def test_near_coincident_centers_fail_direct_sum():
    aset = place(Scheme.CUSTOM, math.pi, 2, 0.2, centers=(1.0, 1.0 + 1e-8))
    with pytest.raises(DirectSumFailureError):
        build_projection(assemble_cross_gram(D, aset))


def test_theta_eigenvalues_sorted_and_consistent():
    data = _build(N, Scheme.MXE, 5, 0.3)
    vals = data.theta_eigenvalues
    assert np.all(np.diff(vals) >= 0)
    assert data.vartheta == pytest.approx(vals[0])
    assert data.op_norm == pytest.approx(1.0 / math.sqrt(vals[0]))


# ---------------------------------------------------------------- closed forms

def test_analytic_uni_example():
    val = analytic_vartheta(D, Scheme.UNI, 3, 0.5)
    assert val == pytest.approx(8 / (1.5 * math.pi**2), rel=1e-14)
    assert val == pytest.approx(0.54038, abs=5e-6)


def test_analytic_mxe_single_example():
    val = analytic_vartheta(D, Scheme.MXE, 1, 0.5)
    assert val == pytest.approx(8 / math.pi**2, rel=1e-14)
    assert val == pytest.approx(0.81057, abs=5e-6)


def test_analytic_neumann_single_is_r():
    assert analytic_vartheta(N, Scheme.MXE, 1, 0.44) == pytest.approx(0.44)


def test_analytic_unavailable_combinations():
    assert analytic_vartheta(N, Scheme.UNI, 5, 0.2) is None
    assert analytic_vartheta(D, Scheme.CON, 3, 0.5) is None
    assert analytic_vartheta(N, Scheme.CON, 3, 0.5) is None


def test_analytic_uni_constraint_violation():
    with pytest.raises(ConstraintViolationError):
        analytic_vartheta(D, Scheme.UNI, 2, 0.9)


def test_analytic_spectrum_matches_numeric():
    for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
        predicted = analytic_theta_spectrum(bc, scheme, 6, 0.3)
        data = _build(bc, scheme, 6, 0.3)
        assert np.allclose(predicted, data.theta_eigenvalues, rtol=1e-10)
    assert analytic_theta_spectrum(N, Scheme.UNI, 6, 0.3) is None


def test_vartheta_limit_reference_values():
    assert op_norm_limit(0.5) == pytest.approx(math.pi / 2, rel=1e-14)
    assert vartheta_limit(0.2) == pytest.approx(
        4 / (0.2 * math.pi**2) * math.sin(0.1 * math.pi) ** 2, rel=1e-14
    )
    assert vartheta_limit(0.2) == pytest.approx(0.19350, abs=1e-5)


def test_large_m_closed_form_approaches_limit():
    # convergence is O(1/M) with an r-dependent constant; at M = 1e4 the gap
    # is below 1e-6 for small r and below 1e-4 across the range
    val = analytic_vartheta(D, Scheme.MXE, 10**4, 0.1)
    assert abs(val - vartheta_limit(0.1)) <= 1e-6
    for r in (0.1, 0.5, 0.9):
        for M in (10**3, 10**4):
            gap = abs(analytic_vartheta(D, Scheme.MXE, M, r) - vartheta_limit(r))
            assert gap <= 1.0 / M


# ---------------------------------------------------------------- projections

def test_projection_annihilates_higher_eigenfunction():
    for bc in (D, N):
        data = _build(bc, Scheme.MXE, 4, 0.5)
        basis = build_basis(bc, math.pi, 5)
        f = lambda x: eval_eigenfunction(basis, 5, x)
        alpha, proj = apply_projection(data, f)
        assert np.max(np.abs(alpha)) <= 1e-10
        assert np.max(np.abs(proj(np.linspace(0, math.pi, 33)))) <= 1e-9


def test_projection_fixes_first_actuator():
    aset = place(Scheme.MXE, math.pi, 3, 0.4)
    data = build_projection(assemble_cross_gram(D, aset))
    f = _normalized(aset, 1)
    alpha, _ = apply_projection(data, f, breakpoints=all_breakpoints(aset), n_panels=64)
    assert abs(alpha[0] - 1.0) <= 1e-10
    assert np.max(np.abs(alpha[1:])) <= 1e-10


def test_projection_idempotent_coefficients():
    aset = place(Scheme.MXE, math.pi, 4, 0.5)
    data = build_projection(assemble_cross_gram(D, aset))
    bps = all_breakpoints(aset)
    alpha, proj = apply_projection(data, lambda x: np.sin(3 * x))
    alpha2, _ = apply_projection(data, proj, breakpoints=bps, n_panels=64)
    assert np.max(np.abs(alpha2 - alpha)) <= 1e-9


def test_orthogonal_projection_residual_for_constant():
    # best approximation of a constant by indicators leaves exactly the mass
    # outside the supports: residual |f0| sqrt((1-r) pi)
    f0 = 2.0
    for M in (2, 5):
        aset = place(Scheme.MXE, math.pi, M, 0.1)
        data = build_projection(assemble_cross_gram(D, aset))
        bps = all_breakpoints(aset)
        _, proj = orthogonal_projection_actuators(data, lambda x: f0 * np.ones_like(x))
        resid_sq = integrate(
            lambda x: (f0 - proj(x)) ** 2, 0.0, math.pi, n_panels=64, breakpoints=bps
        )
        assert math.sqrt(resid_sq) == pytest.approx(f0 * math.sqrt(0.9 * math.pi), rel=1e-12)


def test_orthogonal_projection_with_overlapping_supports():
    # the supports (1 -+ d) and (1.3 -+ d), d = pi/8, share the interval
    # (1.3 - d, 1 + d); the normal equations carry that overlap
    aset = place(Scheme.CUSTOM, math.pi, 2, 0.5, centers=(1.0, 1.3))
    assert not aset.disjoint
    data = build_projection(assemble_cross_gram(D, aset))
    assert data.vartheta == pytest.approx(0.032, abs=5e-4)
    d = math.pi / 8
    lo = np.array([1.0 - d, 1.3 - d])
    hi = np.array([1.0 + d, 1.3 + d])
    coeff = math.sqrt(2 / (0.5 * math.pi))
    shared = coeff**2 * (1.0 + d - (1.3 - d))
    normal = np.array([[1.0, shared], [shared, 1.0]])
    support_integrals = coeff * (hi**3 - lo**3) / 3
    exact = np.linalg.solve(normal, support_integrals)
    gamma, proj = orthogonal_projection_actuators(data, lambda x: x**2)
    assert np.max(np.abs(gamma - exact)) <= 1e-12
    assert proj(1.2) == pytest.approx(coeff * (exact[0] + exact[1]), abs=1e-12)


@pytest.mark.parametrize(
    "project", [apply_projection, apply_adjoint_projection, orthogonal_projection_actuators]
)
def test_evaluators_return_float_for_scalar_and_array_for_array(project):
    data = _build(N, Scheme.MXE, 3, 0.4)
    _, proj = project(data, np.cos)
    xs = np.linspace(0.0, math.pi, 12)
    value = proj(1.0)
    assert type(value) is float
    grid = proj(xs.reshape(3, 4))
    assert isinstance(grid, np.ndarray) and grid.shape == (3, 4)
    assert proj(xs) == pytest.approx(grid.ravel(), abs=1e-15)
    assert proj(float(xs[5])) == pytest.approx(grid[1, 1], abs=1e-15)


def test_adjoint_annihilates_actuator_orthogonal_function():
    # sin(8t) integrates to zero over both supports of the M=2, r=0.5 family
    data = _build(D, Scheme.MXE, 2, 0.5)
    beta, proj = apply_adjoint_projection(data, lambda x: np.sin(8 * x))
    assert np.max(np.abs(beta)) <= 1e-12
    assert np.max(np.abs(proj(np.linspace(0, math.pi, 17)))) <= 1e-12


def test_adjoint_fixes_first_eigenfunction():
    for bc in (D, N):
        data = _build(bc, Scheme.MXE, 4, 0.5)
        basis = build_basis(bc, math.pi, 1)
        f = lambda x: eval_eigenfunction(basis, 1, x)
        beta, proj = apply_adjoint_projection(data, f)
        assert abs(beta[0] - 1.0) <= 1e-10
        assert np.max(np.abs(beta[1:])) <= 1e-10
        xs = np.linspace(0, math.pi, 33)
        assert np.max(np.abs(proj(xs) - f(xs))) <= 1e-10


def test_adjoint_duality_pairing():
    aset = place(Scheme.MXE, math.pi, 4, 0.5)
    data = build_projection(assemble_cross_gram(D, aset))
    bps = all_breakpoints(aset)
    f = lambda x: np.sin(3 * x)
    g = lambda x: x * (math.pi - x)
    _, proj_f = apply_projection(data, f)
    _, adj_g = apply_adjoint_projection(data, g)
    lhs = integrate(lambda x: proj_f(x) * g(x), 0, math.pi, n_panels=64, breakpoints=bps)
    rhs = integrate(lambda x: f(x) * adj_g(x), 0, math.pi, n_panels=64)
    assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------- diagonality

def test_theta_diagonal_for_extremiser_placement():
    ok, max_off = check_theta_diagonal(_build(D, Scheme.MXE, 5, 0.3))
    assert ok
    assert max_off <= 1e-12


def test_theta_not_diagonal_for_clustered_placement():
    data = _build(D, Scheme.CON, 3, 0.5)
    ok, _ = check_theta_diagonal(data)
    assert not ok
    expected = -16 * math.sin(math.pi / 12) * math.sin(math.pi / 4) / math.pi**2
    assert data.theta[0, 2] == pytest.approx(expected, abs=1e-13)
    assert data.theta[0, 2] == pytest.approx(-0.29667, abs=2e-5)


def test_theta_not_diagonal_for_neumann_uniform():
    data = _build(N, Scheme.UNI, 3, 0.5)
    ok, _ = check_theta_diagonal(data)
    assert not ok
    # corner entry has the closed form -sqrt(2)/(2 pi) at these parameters
    assert data.theta[0, 2] == pytest.approx(-math.sqrt(2) / (2 * math.pi), abs=1e-13)


# ---------------------------------------------------------------- cosine sums

def test_cosine_sum_extremiser_vanishes():
    aset = place(Scheme.MXE, math.pi, 2, 0.3)
    assert abs(cosine_sum(aset, 3)) <= 1e-15


def test_cosine_sum_uniform_parity():
    aset = place(Scheme.UNI, math.pi, 3, 0.3)
    assert cosine_sum(aset, 2) == pytest.approx(-1.0, abs=1e-13)
    assert abs(cosine_sum(aset, 1)) <= 1e-13
    assert abs(cosine_sum(aset, 3)) <= 1e-13


def test_cosine_sum_zero_frequency_counts_actuators():
    for scheme in (Scheme.MXE, Scheme.UNI, Scheme.CON):
        aset = place(scheme, math.pi, 4, 0.25)
        assert cosine_sum(aset, 0) == pytest.approx(4.0)


# ---------------------------------------------------------------- stabilisability

def test_sufficient_condition_zero_reaction():
    for M in (1, 3, 7):
        rep = check_sufficient_condition(0.1, D, M, op_norm=2.0, a_bound=0.0)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.1 * (M + 1) ** 2, rel=1e-14)


def test_sufficient_condition_eigenvalue_gap():
    rep_d = check_sufficient_condition(0.1, D, 5, op_norm=1.5, a_bound=0.0)
    assert rep_d.alpha_next == pytest.approx(36.0)
    assert rep_d.margin == pytest.approx(3.6)
    rep_n = check_sufficient_condition(0.1, N, 5, op_norm=1.5, a_bound=0.0)
    assert rep_n.alpha_next == pytest.approx(25.0)
    assert rep_n.margin == pytest.approx(2.5)


def test_sufficient_condition_threshold():
    # nu*alpha_{M+1} must exceed (6 + 4*norm^2)*a_bound^2
    rep = check_sufficient_condition(1.0, D, 2, op_norm=1.0, a_bound=0.9)
    assert rep.satisfied == (1.0 * 9.0 > 10.0 * 0.81)
    assert rep.margin == pytest.approx(9.0 - 8.1)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize(
    "bc,scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)]
)
def test_analytic_numeric_agreement_spot_checks(bc, scheme):
    for M, r in ((1, 0.25), (7, 0.5), (23, 0.75), (40, 0.1)):
        if scheme is Scheme.UNI and M < r / (1 - r):
            continue
        expected = analytic_vartheta(bc, scheme, M, r)
        data = _build(bc, scheme, M, r)
        assert abs(data.vartheta - expected) <= 1e-8 * expected


def test_vartheta_decreasing_and_bounded_by_limit():
    for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
        for r in (0.25, 0.6):
            vals = [analytic_vartheta(bc, scheme, M, r) for M in range(2, 61)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(v > vartheta_limit(r) for v in vals)


def test_smallest_eigenvalue_simple():
    for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
        for M in range(2, 41):
            vals = _build(bc, scheme, M, 0.3).theta_eigenvalues
            assert vals[1] - vals[0] >= 1e-10


def test_op_norm_exceeds_one():
    for bc in (D, N):
        for scheme in (Scheme.MXE, Scheme.UNI, Scheme.CON):
            data = _build(bc, scheme, 4, 0.3)
            assert data.op_norm > 1.0


def test_rescaling_invariance():
    # operator norm only depends on (bc, scheme, M, r), not on the length
    for bc in (D, N):
        for scheme, M, r in (
            (Scheme.MXE, 6, 0.3),
            (Scheme.UNI, 4, 0.4),
            (Scheme.CON, 3, 0.5),
        ):
            ref = build_projection(assemble_cross_gram(bc, place(scheme, math.pi, M, r)))
            other = build_projection(assemble_cross_gram(bc, place(scheme, 2.5, M, r)))
            assert abs(ref.op_norm - other.op_norm) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=50),
    r=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
def test_envelope_map_strictly_decreasing(M, r):
    # the map t -> sin^2(delta t)/t^2 with delta = r pi/(2M) decreases on (0, M]
    delta = r * math.pi / (2 * M)
    t = np.linspace(1e-3, float(M), 400)
    g = np.sin(delta * t) ** 2 / t**2
    assert np.all(np.diff(g) < 0)


@settings(max_examples=30, deadline=None)
@given(
    bc=st.sampled_from([D, N]),
    M=st.integers(min_value=1, max_value=25),
    r=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_build_succeeds_for_extremiser_family(bc, M, r):
    data = _build(bc, Scheme.MXE, M, r)
    assert data.vartheta > 0
    assert data.op_norm >= 1.0
