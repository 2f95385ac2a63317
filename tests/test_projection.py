"""Tests for the cross-Gram assembly and oblique projection operations."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_stab import projection
from oblique_stab.actuators import (
    Scheme,
    all_breakpoints,
    indicators,
    normalized_indicator_coeff,
    place,
    uni_min_count,
)
from oblique_stab.errors import (
    SIGMA_RATIO_THRESHOLD,
    DirectSumFailureError,
    InvalidArgumentError,
    check_direct_sum,
)
from oblique_stab.projection import (
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
from oblique_stab.spectral import BoundaryCondition, build_basis

from oracles import (
    apply_adjoint_projection,
    check_theta_diagonal,
    cosine_sum,
    eval_eigenfunction,
    exact_angle_trig_table,
    integrate,
    theta,
)

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
    # the sigma-ratio test catches centers 1e-13 apart (ratio about 4e-14)
    aset = place(Scheme.CUSTOM, math.pi, 2, 0.2, centers=(1.0, 1.0 + 1e-13))
    with pytest.raises(DirectSumFailureError):
        build_projection(assemble_cross_gram(D, aset))


def test_direct_sum_test_is_strict_at_the_threshold():
    # build_projection and feedback_matrices both reject through this one test
    with pytest.raises(DirectSumFailureError) as exc:
        check_direct_sum(SIGMA_RATIO_THRESHOLD, "G", "fix it")
    assert str(exc.value) == "sigma_min/sigma_max 1.000e-08 of G is at most 1e-08; fix it"
    assert check_direct_sum(np.nextafter(SIGMA_RATIO_THRESHOLD, 1.0), "G", "fix it") is None
    with pytest.raises(DirectSumFailureError, match=r"^sigma_min/sigma_max 0\.000e\+00 of G "):
        check_direct_sum(0.0, "G", "fix it")


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


def _row_loop_entries(bc, M, r, cm):
    """The closed-form cross-Gram built one row at a time with scalar sines."""
    delta = r * math.pi / (2 * M)
    coef = math.sqrt(8 * M / (r * math.pi**2))
    G = np.empty((M, M))
    if bc is BoundaryCondition.DIRICHLET:
        for row, i in enumerate(range(1, M + 1)):
            G[row, :] = coef * math.sin(i * delta) * np.sin(i * cm) / i
    else:
        G[0, :] = math.sqrt(r / M)
        for row, i in enumerate(range(2, M + 1), start=1):
            m = i - 1
            G[row, :] = coef * math.sin(m * delta) * np.cos(m * cm) / m
    return G


def _custom_centers(M):
    j = np.arange(1, M + 1)
    return math.pi * (j - 0.5 + 0.2 * np.sin(j)) / M


def _exact_angle_entries(bc, scheme, M, r):
    """mxe or uni cross-Gram at L = pi from 30-digit row scales and trig values.

    The angles m c_j are pi m n_j / d with integers, so each trig value is
    one of 2d reduced angles; the products are taken in np.longdouble.
    """
    import mpmath

    d = 2 * M if scheme is Scheme.MXE else M + 1
    j = np.arange(1, M + 1)
    n = 2 * j - 1 if scheme is Scheme.MXE else j
    m = np.arange(1, M + 1) if bc is D else np.arange(M)
    trig = mpmath.sin if bc is D else mpmath.cos
    with mpmath.workdps(30):
        r_, pi = mpmath.mpf(r), mpmath.pi
        coef = mpmath.sqrt(8 * M / (r_ * pi**2))
        scale = [
            coef * mpmath.sin(k * r_ * pi / (2 * M)) / k if k else mpmath.sqrt(r_ / M) for k in m
        ]
        table = [trig(pi * k / d) for k in range(2 * d)]
        s, t = (np.array([np.longdouble(mpmath.nstr(x, 30)) for x in v]) for v in (scale, table))
    return s[:, None] * t[np.multiply.outer(m, n) % (2 * d)]


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON, Scheme.CUSTOM])
@pytest.mark.parametrize("M", [1, 2, 7, 50, 200])
@pytest.mark.parametrize("r", [0.1, 0.5])
def test_cross_gram_bit_identical_to_row_loop(bc, scheme, M, r):
    # con and custom take sin/cos of float products, bit for bit as the row
    # loop does; mxe and uni come from the exact-angle table, within 4 eps of
    # each row's largest entry
    centers = _custom_centers(M) if scheme is Scheme.CUSTOM else None
    aset = place(scheme, math.pi, M, r, centers=centers)
    G = assemble_cross_gram(bc, aset).entries
    if scheme in (Scheme.CON, Scheme.CUSTOM):
        assert np.array_equal(G, _row_loop_entries(bc, M, r, np.asarray(aset.centers)))
        return
    oracle = _exact_angle_entries(bc, scheme, M, r)
    err = np.abs(G - oracle).max(axis=1) / np.abs(oracle).max(axis=1)
    assert err.max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI])
@pytest.mark.parametrize("M", [2, 7, 50, 200])
def test_exact_angle_entries_mirror_exactly(bc, scheme, M):
    # c -> pi - c takes sin(m c) to (-1)^(m+1) sin(m c) and cos(m c) to
    # (-1)^m cos(m c); the mirrored sine table keeps that bit for bit
    G = assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3)).entries
    m = np.arange(1, M + 1) if bc is D else np.arange(M)
    sign = (-1.0) ** (m + 1) if bc is D else (-1.0) ** m
    assert np.array_equal(G[:, ::-1], sign[:, None] * G)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON, Scheme.CUSTOM])
@pytest.mark.parametrize("M", [1, 2, 7, 50, 200])
@pytest.mark.parametrize("r", [0.1, 0.5])
def test_factored_theta_matches_its_oracles(bc, scheme, M, r):
    centers = _custom_centers(M) if scheme is Scheme.CUSTOM else None
    aset = place(scheme, math.pi, M, r, centers=centers)
    gram = assemble_cross_gram(bc, aset)
    eps = np.finfo(float).eps
    # product to sum: (T T^T)_ik = (C(m_i - m_k) -+ C(m_i + m_k)) / 2 with
    # C(p) = sum_j cos(p c_j), - for the sines and + for the cosines; the
    # Neumann row of ones is the cosine row m = 0
    cm = aset.centers * (math.pi / aset.L)
    TT = gram.TT
    m = np.arange(1, M + 1) if bc is D else np.arange(M)
    C = np.array([cosine_sum(aset, p) for p in range(2 * M + 1)])
    sign = -1.0 if bc is D else 1.0
    oracle = 0.5 * (C[np.abs(np.subtract.outer(m, m))] + sign * C[np.add.outer(m, m)])
    # the two sides take sin and cos of differently rounded arguments, whose
    # absolute error grows with the argument (m_i + m_k) c_j, up to 2 M pi
    scale = 1.0 + np.add.outer(m, m) * np.max(cm)
    assert np.all(np.abs(TT - oracle) <= 4 * M * eps * scale)
    # Theta = (s s^T) o (T T^T) against the product of the entries
    G = gram.entries
    assert np.all(np.abs(theta(gram) - G @ G.T) <= 4 * M * eps * (np.abs(G) @ np.abs(G).T))
    assert np.array_equal(theta(gram), theta(gram).T)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI])
def test_certified_spectrum_forms_no_trig_table(bc, scheme):
    # the Weyl test, the sorted diagonal and max_offdiag read only a, m and
    # the FFT-built T T^T; T and G are formed on first read, by the SVD
    # fallback (Neumann uni from M = 3 on) or by a projection, and that T is
    # the exact-angle gather bit for bit
    for M in range(2, 201):
        gram = assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3))
        data = build_projection(gram)
        formed = bc is N and scheme is Scheme.UNI and M > 2
        assert ("T" in gram.__dict__) is formed and ("entries" in gram.__dict__) is formed
        if M in (2, 50, 200):
            apply_projection(data, np.cos)
            assert "T" in gram.__dict__ and "entries" in gram.__dict__
        assert np.array_equal(gram.T, exact_angle_trig_table(bc, scheme, M))


@pytest.mark.parametrize("L", [math.pi, 2.0])
def test_cross_gram_memo_matches_cold_build(L):
    aset = place(Scheme.MXE, L, 7, 0.3)
    warm = [assemble_cross_gram(bc, aset) for bc in (D, D, N, D)]
    for gram in warm:
        projection._trig_factor.cache_clear()
        cold = assemble_cross_gram(gram.basis.bc, aset)
        assert np.array_equal(gram.entries, cold.entries)
        assert np.array_equal(theta(gram), theta(cold))
    # another r at the same M and centers reuses the factor
    hits = projection._trig_factor.cache_info().hits
    assemble_cross_gram(D, place(Scheme.MXE, L, 7, 0.5))
    assert projection._trig_factor.cache_info().hits == hits + 1


def test_cross_gram_arrays_are_read_only():
    aset = place(Scheme.UNI, math.pi, 5, 0.3)
    for bc in (D, N):
        gram = assemble_cross_gram(bc, aset)
        cached = projection._trig_factor(bc, Scheme.UNI, 5, b"")
        for arr in (*cached, gram.a, gram.m, gram.entries):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


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
        actuators=gram.actuators,
        basis=gram.basis,
        a=np.ones(3),
        m=np.ones(3),
        TT=np.eye(3),
        tt_off=np.zeros((3, 3)),
        tt_rowsum=np.zeros(3),
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


def _mp_vartheta_con(bc, M, r):
    """vartheta of the con placement and the condition number
    sigma_max/sigma_min of its cross-Gram, from a 60-digit SVD."""
    import mpmath

    with mpmath.workdps(60):
        r, pi = mpmath.mpf(r), mpmath.pi
        delta = r * pi / (2 * M)
        coef = mpmath.sqrt(8 * M / (r * pi**2))
        cm = [(1 - r) * pi / 2 + (2 * j - 1) * r * pi / (2 * M) for j in range(1, M + 1)]
        G = mpmath.matrix(M, M)
        for i in range(M):
            for j in range(M):
                if bc is D:
                    k = i + 1
                    G[i, j] = coef * mpmath.sin(k * delta) * mpmath.sin(k * cm[j]) / k
                elif i == 0:
                    G[i, j] = mpmath.sqrt(r / M)
                else:
                    G[i, j] = coef * mpmath.sin(i * delta) * mpmath.cos(i * cm[j]) / i
        sigma = mpmath.svd_r(G, compute_uv=False)
        return float(min(sigma) ** 2), float(max(sigma) / min(sigma))


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("M", [4, 5, 6, 7])
def test_small_vartheta_matches_high_precision_svd(bc, M):
    # con at r = 0.1 takes vartheta from 3e-7 down to 2e-15 here; the
    # eigenvalues of G G^T alone are off by up to 4e-5 relative at M = 6,
    # and at M = 7 vartheta is below 1e-13 yet sigma_min/sigma_max >= 6e-8
    exact, _ = _mp_vartheta_con(bc, M, 0.1)
    data = _build(bc, Scheme.CON, M, 0.1)
    assert data.vartheta == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert data.op_norm == pytest.approx(exact**-0.5, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7])
def test_con_vartheta_error_scales_with_conditioning(bc, r):
    # sigma(G)^2 loses a small multiple of eps * cond(G) (at most 2.8 here),
    # where forming G G^T would lose eps * cond(G)^2.  Neumann r = 0.1 at
    # M = 8 has cond(G) = 2.5e8, past the direct-sum threshold
    eps = np.finfo(float).eps
    for M in range(2, 9):
        exact, cond = _mp_vartheta_con(bc, M, r)
        if 1.0 / cond <= SIGMA_RATIO_THRESHOLD:
            with pytest.raises(DirectSumFailureError):
                _build(bc, Scheme.CON, M, r)
            continue
        vartheta = _build(bc, Scheme.CON, M, r).vartheta
        assert abs(vartheta - exact) <= 16 * eps * cond * exact, (M, abs(vartheta - exact) / exact)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: analytic_vartheta(D, Scheme.UNI, 2, 0.9),
         "uniform placement requires M >= r/(1-r): M=2 < 9 for r=0.9"),
        (lambda: analytic_vartheta(D, Scheme.MXE, 0, 0.5),
         "actuator count must be a positive integer, got 0"),
        (lambda: analytic_vartheta(N, Scheme.CON, 2.5, 0.5),
         "actuator count must be a positive integer, got 2.5"),
        (lambda: vartheta_limit(1.0), "volume fraction must lie in (0, 1), got 1.0"),
        (lambda: vartheta_limit(math.nan), "volume fraction must lie in (0, 1), got nan"),
    ],
    ids=["uni count", "zero count", "fractional count", "r = 1", "r = nan"],
)
def test_closed_forms_reject_what_placement_rejects(call, message):
    # the checks and messages of actuators.place
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        call()


def _mp_closed_forms(bc, scheme, M, r):
    """Ascending closed-form Theta spectrum and the large-M limit, from the
    sin^2(i delta)/(r pi^2 i^2) forms in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        r, pi = mpmath.mpf(r), mpmath.pi
        delta = r * pi / (2 * M)
        n = M + 1 if scheme is Scheme.UNI else M  # uni: i = 1..M, mxe: i = 1..M-1
        vals = [4 * M * n / (r * pi**2) * mpmath.sin(i * delta) ** 2 / i**2 for i in range(1, n)]
        limit = 4 / (r * pi**2) * mpmath.sin(r * pi / 2) ** 2
        if scheme is Scheme.MXE:
            vals.append(r if bc is N else 2 * limit)
        return sorted(vals), limit


@pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-160, 1e-8, 0.1, 0.5, 0.9, 0.99])
def test_closed_forms_match_mpmath(r):
    # the r sinc^2 form keeps tiny r accurate; sin^2/(r pi^2) underflowed to
    # 0 for r <= 1e-162
    import mpmath

    for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
        for M in (1, 2, 3, 10, 200):
            if scheme is Scheme.UNI and M < uni_min_count(r):
                continue
            exact, limit = _mp_closed_forms(bc, scheme, M, r)
            got = [
                analytic_vartheta(bc, scheme, M, r),
                *analytic_theta_spectrum(bc, scheme, M, r),
                vartheta_limit(r),
                op_norm_limit(r),
            ]
            with mpmath.workdps(40):
                want = [exact[0], *exact, limit, 1 / mpmath.sqrt(limit)]
                err = max(abs(mpmath.mpf(float(g)) / w - 1) for g, w in zip(got, want))
            assert err <= 1e-15, (bc, scheme, M, float(err))


@pytest.mark.parametrize("bc, scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)])
def test_spectrum_rejects_r_whose_step_rounds_to_zero(bc, scheme):
    # delta = r pi/(2M) rounds to 0 at M = 200, where sin(0)/0 gave NaN
    # entries after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="r = 5e-324"):
            analytic_theta_spectrum(bc, scheme, 200, 5e-324)


def test_analytic_spectrum_matches_numeric():
    # these Theta pass the Weyl certificate at every M, so the spectrum is
    # the sorted diagonal, and it matches the closed form entry by entry
    for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
        for r in (0.1, 0.3, 0.5):
            for M in range(1, 201):
                data = _build(bc, scheme, M, r)
                assert np.array_equal(data.theta_eigenvalues, np.sort(np.diag(theta(data.gram))))
                predicted = analytic_theta_spectrum(bc, scheme, M, r)
                err = np.abs(data.theta_eigenvalues - predicted) / predicted
                assert err.max() <= 1e-12, (bc, scheme, M, r)
    assert analytic_theta_spectrum(N, Scheme.UNI, 6, 0.3) is None


def test_weyl_certificate_from_factors_matches_formed_theta():
    # the certificate reads Theta's factors; max_offdiag is still that of the
    # formed Theta, bit for bit (test_analytic_spectrum_matches_numeric checks
    # the spectrum), and the exact-angle table keeps vartheta within 4e-15 of
    # the closed form
    for M in range(2, 201):
        for bc, scheme in ((D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)):
            for r in (0.1, 0.3, 0.5):
                data = _build(bc, scheme, M, r)
                formed = theta(data.gram)
                assert data.max_offdiag == np.max(np.abs(formed - np.diag(np.diag(formed))))
                exact = analytic_vartheta(bc, scheme, M, r)
                assert abs(data.vartheta - exact) <= 4e-15 * exact, (bc, scheme, M, r)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.UNI, Scheme.CON, Scheme.CUSTOM])
@pytest.mark.parametrize("M", [1, 7, 12])
def test_max_offdiag_is_that_of_formed_theta(bc, scheme, M):
    centers = _custom_centers(M) if scheme is Scheme.CUSTOM else None
    data = build_projection(assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3, centers=centers)))
    formed = theta(data.gram)
    assert data.max_offdiag == np.max(np.abs(formed - np.diag(np.diag(formed))))


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON])
def test_trig_gram_product_is_exactly_symmetric(bc, scheme):
    # _trig_factor reads the mxe and uni T T^T off symmetric strided views of
    # one cosine-sum vector and keeps the con T @ T.T as BLAS syrk returns
    # it, without symmetrising either, and CrossGram promises an exactly
    # symmetric Theta
    for M in range(2, 201):
        TT = assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3)).TT
        assert np.array_equal(TT, TT.T), (bc, scheme, M)


def _svd_branch_grams(monkeypatch, asets):
    """Cross-Grams whose spectrum build_projection takes from the SVD of G."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for bc, aset in asets:
        try:
            build_projection(assemble_cross_gram(bc, aset))
        except DirectSumFailureError:
            pass
    monkeypatch.undo()
    return seen


def test_numpy_svd_matches_scipy_svdvals_on_svd_branch(monkeypatch):
    import scipy.linalg

    asets = [
        (bc, place(Scheme.CON, math.pi, M, r))
        for bc in (D, N) for r in (0.1, 0.3, 0.5) for M in range(2, 21)
    ]
    asets += [
        (bc, place(Scheme.CUSTOM, math.pi, len(c), 0.2, centers=c))
        for bc in (D, N) for c in ((1.0, 1.0 + 1e-6), (1.0, 1.0 + 1e-6, 2.0, 2.0 + 1e-6))
    ]
    grams = _svd_branch_grams(monkeypatch, asets)
    assert len(grams) >= 80  # 108 of the 114 con grams and all 4 custom ones
    eps = np.finfo(float).eps
    for G in grams:
        ours, ref = np.linalg.svd(G, compute_uv=False), scipy.linalg.svdvals(G)
        assert np.all(np.abs(ours - ref) <= 2 * eps * ref[0]), G.shape


def test_neumann_uni_vartheta_decays_like_one_over_m():
    """Neumann uni: M * vartheta levels off, so ||P|| = vartheta^(-1/2) grows
    like sqrt(M) and this placement lies outside the paper's bounded-norm
    result."""
    for r, level in ((0.1, 0.09973), (0.5, 0.46554)):
        vals = np.array([M * _build(N, Scheme.UNI, M, r).vartheta for M in (20, 50, 100, 150, 200)])
        assert vals.max() - vals.min() <= 1e-4 * vals.min()
        assert np.all(np.abs(vals - level) <= 1e-4)


def _nudged_mxe(bc, nudge, M=8, r=0.3):
    """Projection data for mxe centers moved apart by nudge * (0, 1, ..., M-1)."""
    centers = place(Scheme.MXE, math.pi, M, r).centers + nudge * np.arange(M)
    return build_projection(
        assemble_cross_gram(bc, place(Scheme.CUSTOM, math.pi, M, r, centers=centers))
    )


def _weyl_ratio(theta):
    """Largest Gershgorin radius of theta over its smallest diagonal entry."""
    off = np.abs(theta - np.diag(np.diag(theta)))
    return off.sum(axis=1).max() / np.diag(theta).min()


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("nudge", [1e-3, 1e-11])
def test_nearly_diagonal_theta_spectrum_from_svd(bc, nudge):
    # the nudge lifts Theta's radius ratio to about 7e-2 and 7e-10, past the
    # 1e-10 certificate, so the spectrum is sigma(G)^2, bit for bit
    data = _nudged_mxe(bc, nudge)
    assert _weyl_ratio(theta(data.gram)) > 1e-10
    sigma = np.linalg.svd(data.gram.entries, compute_uv=False)
    assert np.array_equal(data.theta_eigenvalues, sigma[::-1] ** 2)


@pytest.mark.parametrize("bc", [D, N])
def test_barely_nudged_theta_spectrum_is_its_sorted_diagonal(bc):
    # a 1e-12 nudge leaves the radius ratio near 7e-11, inside the certificate
    data = _nudged_mxe(bc, 1e-12)
    assert _weyl_ratio(theta(data.gram)) <= 1e-10
    assert np.array_equal(data.theta_eigenvalues, np.sort(np.diag(theta(data.gram))))
    assert np.allclose(
        data.theta_eigenvalues, np.linalg.eigvalsh(theta(data.gram)), rtol=1e-10, atol=0.0
    )


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
    alpha, _ = apply_projection(data, f)
    assert abs(alpha[0] - 1.0) <= 1e-10
    assert np.max(np.abs(alpha[1:])) <= 1e-10


def test_projection_idempotent_coefficients():
    aset = place(Scheme.MXE, math.pi, 4, 0.5)
    data = build_projection(assemble_cross_gram(D, aset))
    alpha, proj = apply_projection(data, lambda x: np.sin(3 * x))
    alpha2, _ = apply_projection(data, proj)
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
    assert np.diff(aset.centers)[0] < 2 * aset.half_width * (1 - 1e-12)
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
    assert theta(data.gram)[0, 2] == pytest.approx(expected, abs=1e-13)
    assert theta(data.gram)[0, 2] == pytest.approx(-0.29667, abs=2e-5)


def test_theta_not_diagonal_for_neumann_uniform():
    data = _build(N, Scheme.UNI, 3, 0.5)
    ok, _ = check_theta_diagonal(data)
    assert not ok
    # corner entry has the closed form -sqrt(2)/(2 pi) at these parameters
    assert theta(data.gram)[0, 2] == pytest.approx(-math.sqrt(2) / (2 * math.pi), abs=1e-13)


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
