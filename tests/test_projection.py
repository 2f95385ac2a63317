"""Tests for the cross-Gram assembly and oblique projection operations."""

import functools
import gc
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    NumericalFailureError,
    check_direct_sum,
)
from oblique_stab.projection import (
    analytic_theta_spectrum,
    analytic_vartheta,
    analytic_varthetas,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    closed_form_minimal_M,
    op_norm_limit,
    orthogonal_projection_actuators,
    sweep_chunks,
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
    minimal_M_by_margin_test,
    theta,
    trig_gram,
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
    TT = trig_gram(gram)
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
def test_diagonal_spectrum_forms_no_trig_table(bc, scheme):
    # the sorted diagonal and max_offdiag read only a, m and the closed-form
    # T T^T; T and G are formed on first read, by the SVD (Neumann uni, whose
    # T T^T is dense, at every M) or by a projection, and that T is the
    # exact-angle gather bit for bit
    for M in range(2, 201):
        gram = assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3))
        data = build_projection(gram)
        formed = bc is N and scheme is Scheme.UNI
        assert ("T" in gram.__dict__) is formed and ("entries" in gram.__dict__) is formed
        if M in (2, 50, 200):
            apply_projection(data, np.cos)
            assert "T" in gram.__dict__ and "entries" in gram.__dict__
        assert np.array_equal(gram.T, exact_angle_trig_table(bc, scheme, M))


def test_float_angle_trig_table_is_formed_once(monkeypatch):
    # con and custom read T for G, the SVD, their BLAS T T^T and the
    # projections; the cross-Gram forms it once, on first read
    calls, table = [], projection._trig_table
    monkeypatch.setattr(projection, "_trig_table", lambda *a: calls.append(1) or table(*a))
    for bc in (D, N):
        for aset in (
            place(Scheme.CON, math.pi, 6, 0.5),
            place(Scheme.CUSTOM, math.pi, 3, 0.2, centers=(0.7, 1.5, 2.4)),
        ):
            gram = assemble_cross_gram(bc, aset)
            apply_projection(build_projection(gram), np.cos)
            assert len(calls) == 1 and np.array_equal(gram.T, table(bc, aset))
            calls.clear()


def test_cross_gram_arrays_are_read_only():
    # the factor is the diagonal of T T^T for Dirichlet uni and None for
    # Neumann uni; T and the entries are formed on read
    aset = place(Scheme.UNI, math.pi, 5, 0.3)
    for bc, ndim in ((D, 1), (N, None)):
        gram = assemble_cross_gram(bc, aset)
        assert (gram.tt is None) if ndim is None else gram.tt.ndim == ndim
        spectrum = build_projection(gram).theta_eigenvalues
        for arr in (gram.tt, gram.a, gram.m, gram.T, gram.entries, spectrum):
            if arr is None:
                continue
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


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


def test_identity_gram_gives_norm_one(monkeypatch):
    # Theta = I from T T^T = I given as its diagonal, and from the mxe T,
    # whose rows are orthogonal, scaled to unit rows with the diagonal of its
    # T T^T; a kept diagonal reads no T and takes no SVD
    gram = assemble_cross_gram(D, place(Scheme.MXE, math.pi, 3, 0.4))
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for m, tt in ((np.ones(3), np.ones(3)), (np.sqrt(gram.tt), gram.tt)):
        ident = type(gram)(actuators=gram.actuators, basis=gram.basis, a=np.ones(3), m=m, tt=tt)
        data = build_projection(ident)
        assert data.op_norm == pytest.approx(1.0, rel=1e-14)
        assert data.max_offdiag == 0.0
        assert len(calls) == 0


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


def _mp_sigma(bc, r, cm):
    """Singular values of the cross-Gram at L = pi for the mpmath centers cm
    on (0, pi) and the volume fraction r, at the working precision."""
    import mpmath

    M = len(cm)
    r, pi = mpmath.mpf(r), mpmath.pi
    delta = r * pi / (2 * M)
    coef = mpmath.sqrt(8 * M / (r * pi**2))
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
    return mpmath.svd_r(G, compute_uv=False)


def _mp_vartheta_con(bc, M, r):
    """vartheta of the con placement and the condition number
    sigma_max/sigma_min of its cross-Gram, from a 60-digit SVD."""
    import mpmath

    with mpmath.workdps(60):
        r, pi = mpmath.mpf(r), mpmath.pi
        cm = [(1 - r) * pi / 2 + (2 * j - 1) * r * pi / (2 * M) for j in range(1, M + 1)]
        sigma = _mp_sigma(bc, r, cm)
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
    # these T T^T are diagonal in closed form at every M, so the spectrum is
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


def test_diagonal_spectrum_from_factors_matches_formed_theta():
    # the spectrum reads Theta's factors; max_offdiag is still that of the
    # formed Theta, bit for bit (test_analytic_spectrum_matches_numeric checks
    # the spectrum), and vartheta is within 4e-15 of the closed form
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
    # _factors writes the mxe and Dirichlet uni diagonal and the oracle the
    # Neumann uni T T^T from closed forms, and the con T @ T.T that
    # _max_offdiag reads is kept as BLAS syrk returns it, neither symmetrised:
    # an exactly symmetric Theta
    for M in range(2, 201):
        TT = trig_gram(assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3)))
        assert np.array_equal(TT, TT.T), (bc, scheme, M)


def _extended_trig_gram(bc, scheme, M):
    """T T^T of the mxe or uni trig factor from 40-digit cosine sums.

    Product to sum gives (T T^T)_ik = (C(|m_i - m_k|) -+ C(m_i + m_k)) / 2
    with C(p) = sum_j cos(pi p n_j / d); each C(p) is summed in mpmath from a
    40-digit table of cos(pi q / d), the index q = p n_j mod 2d exact.
    """
    import mpmath

    j = np.arange(1, M + 1)
    n, d = (2 * j - 1, 2 * M) if scheme is Scheme.MXE else (j, M + 1)
    with mpmath.workdps(40):
        table = [mpmath.cos(mpmath.pi * q / d) for q in range(2 * d)]
        C = [mpmath.fsum(table[q] for q in (p * n) % (2 * d)) for p in range(2 * M + 1)]
        m = range(1, M + 1) if bc is D else range(M)
        sign = -1 if bc is D else 1
        return [[(C[abs(mi - mk)] + sign * C[mi + mk]) / 2 for mk in m] for mi in m]


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI])
def test_closed_form_trig_gram_matches_extended_sums(bc, scheme):
    # the closed forms are exact: every entry, zeros included, agrees with the
    # 40-digit sums far below double rounding
    for M in [*range(1, 41), 200]:
        gram = assemble_cross_gram(bc, place(scheme, math.pi, M, 0.3))
        diagonal = scheme is Scheme.MXE or bc is D
        assert (gram.tt.shape == (M,)) if diagonal else (gram.tt is None)
        exact = _extended_trig_gram(bc, scheme, M)
        TT = trig_gram(gram)
        err = max(abs(float(x - e)) for row, ex in zip(TT, exact) for x, e in zip(row, ex))
        assert err <= 1e-30, (bc, scheme, M, err)


@pytest.mark.parametrize("bc, scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)])
def test_diagonal_theta_has_exactly_zero_offdiag(bc, scheme):
    for M in range(1, 401):
        data = _build(bc, scheme, M, 0.3)
        assert data.max_offdiag == 0.0, (bc, scheme, M)
        assert data.gram.tt.ndim == 1 and "T" not in data.gram.__dict__


def test_neumann_uni_max_offdiag_is_that_of_formed_theta():
    # max_offdiag comes from s alone, the product of the two largest s of one
    # parity; bit for bit that of Theta formed from the oracle's dense T T^T,
    # at every M uni placement accepts up to 400 (r = 0.999 needs M >= 999).
    # build_projection's SVD runs at a few M; the rest call the helper it calls
    for r in (1e-300, 1e-6, 0.1, 0.5, 0.999):
        for M in range(uni_min_count(r), 401) if r < 0.999 else (999, 1000):
            gram = assemble_cross_gram(N, place(Scheme.UNI, math.pi, M, r))
            if M in (1, 2, 3, 50, 400, 999):
                got = build_projection(gram).max_offdiag
            else:
                got = projection._max_offdiag(gram, gram.a / gram.m)
            formed = theta(gram)
            offdiag = np.max(np.abs(formed - np.diag(np.diag(formed))))
            assert got == offdiag, (M, r)
            assert bool(offdiag > 0.0) == (M > 2)  # m = 0, 1 alone have unequal parity


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)]),
    Ms=st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=3),
    r=st.floats(min_value=5e-324, max_value=1 - 2**-53),
)
@example(shape=(D, Scheme.MXE), Ms=[1, 2, 100_000], r=5e-324)
@example(shape=(D, Scheme.MXE), Ms=[1, 2, 100_000], r=1e-300)
@example(shape=(D, Scheme.MXE), Ms=[1, 2, 100_000], r=1 - 2**-53)
@example(shape=(N, Scheme.MXE), Ms=[1, 2, 100_000], r=1 - 2**-53)
@example(shape=(D, Scheme.UNI), Ms=[1, 2, 100_000], r=1 - 2**-53)
def test_diagonal_spectrum_is_at_most_2r_where_the_row_scale_is_finite(shape, Ms, r):
    # build_projection takes no fallback and _stacked_vartheta no finiteness
    # test for s^2 o tt: wherever the row scale is finite, s^2 <= 2r/M by
    # sin x <= x and tt <= M, so s^2 o tt is finite and at most 2r, to rounding
    bc, scheme = shape
    _, row_scale, a, m, tt = projection._factors(bc, scheme, Ms, r)
    finite = np.repeat(np.isfinite(row_scale), Ms)
    s = a[finite] / m[finite]
    w = s * s * tt[finite]
    assert np.isfinite(w).all()
    assert np.all(w <= 2 * r * (1 + 1e-15)), (w.max() / r, Ms)


@pytest.mark.parametrize("bc, scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)])
def test_diagonal_theta_spectrum_forms_no_square_array(monkeypatch, bc, scheme):
    # no FFT and, at M = 2000, no M x M array (32 MB): the factors and the
    # spectrum are a few vectors of M entries
    def no_fft(*args, **kwargs):
        raise AssertionError("the closed-form T T^T takes no FFT")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    aset = place(scheme, math.pi, 2000, 0.3)
    tracemalloc.start()
    try:
        data = build_projection(assemble_cross_gram(bc, aset))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert data.max_offdiag == 0.0 and data.theta_eigenvalues.shape == (2000,)


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


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("nudge", [1e-3, 1e-11, 1e-12])
def test_nearly_diagonal_theta_spectrum_from_svd(bc, nudge):
    # custom centers give a dense T T^T however close they sit to the mxe
    # ones, so the spectrum is sigma(G)^2, bit for bit, and agrees with the
    # eigenvalues of the formed Theta
    data = _nudged_mxe(bc, nudge)
    assert data.gram.tt is None and data.max_offdiag > 0.0
    sigma = np.linalg.svd(data.gram.entries, compute_uv=False)
    assert np.array_equal(data.theta_eigenvalues, sigma[::-1] ** 2)
    assert np.allclose(
        data.theta_eigenvalues, np.linalg.eigvalsh(theta(data.gram)), rtol=1e-10, atol=0.0
    )


@pytest.mark.parametrize(
    "bc, scheme, M, rs, nudge",
    [
        (N, Scheme.UNI, 2, (0.1, 0.3, 0.5), None),
        (D, Scheme.CON, 2, (0.1, 0.5, 0.9), None),
        (N, Scheme.CON, 2, (0.1, 0.5, 0.9), None),
        (D, Scheme.CON, 9, (0.9,), None),
        (D, Scheme.MXE, 8, (0.1, 0.3, 0.5), 1e-12),
        (N, Scheme.MXE, 8, (0.1, 0.3, 0.5), 1e-12),
        (D, Scheme.UNI, 3, (0.1, 0.3, 0.5), 0.0),
        (N, Scheme.UNI, 2, (0.1, 0.3, 0.5), 1e-12),
    ],
    ids=[
        "neumann uni", "dirichlet con", "neumann con", "dirichlet con M=9",
        "dirichlet near mxe", "neumann near mxe", "dirichlet at uni", "neumann near uni",
    ],
)
def test_dense_near_diagonal_vartheta_matches_mpmath(bc, scheme, M, rs, nudge):
    # a dense T T^T whose Theta is diagonal or within about 1e-10 of it: the
    # uni and con centers exactly, custom ones the float centers of the scheme
    # moved by nudge * (0, 1, ..., M-1); sigma(G)^2 is within 2e-15 of a
    # 40-digit SVD
    import mpmath

    for r in rs:
        if nudge is None:
            aset = place(scheme, math.pi, M, r)
            with mpmath.workdps(40):
                r_mp, pi, j = mpmath.mpf(r), mpmath.pi, range(1, M + 1)
                if scheme is Scheme.UNI:
                    cm = [k * pi / (M + 1) for k in j]
                else:
                    cm = [(1 - r_mp) * pi / 2 + (2 * k - 1) * r_mp * pi / (2 * M) for k in j]
        else:
            centers = place(scheme, math.pi, M, 0.3).centers + nudge * np.arange(M)
            aset = place(Scheme.CUSTOM, math.pi, M, r, centers=centers)
            cm = [mpmath.mpf(float(c)) for c in centers]
        data = build_projection(assemble_cross_gram(bc, aset))
        assert data.gram.tt is None
        with mpmath.workdps(40):
            exact = min(_mp_sigma(bc, r, cm)) ** 2
            err = float(abs(mpmath.mpf(data.vartheta) / exact - 1))
        assert err <= 2e-15, (r, err)


def test_dropped_projection_releases_its_arrays():
    # nothing outlives the projection data: at M = 500 the T and G of
    # Neumann uni take 2 MB each
    build_projection(assemble_cross_gram(N, place(Scheme.UNI, math.pi, 3, 0.3)))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data = build_projection(assemble_cross_gram(N, place(Scheme.UNI, math.pi, 500, 0.3)))
        assert "entries" in data.gram.__dict__
        del data
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held <= 1e5, held


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
    "project, name",
    [(apply_projection, "oblique"), (orthogonal_projection_actuators, "orthogonal")],
)
def test_overflowing_input_raises_without_warning(project, name):
    # the interpolant between +-1e308 is -inf inside (0, pi); that used to
    # give NaN coefficients after a numpy RuntimeWarning
    data = _build(D, Scheme.MXE, 2, 0.1)

    def f(x):
        return np.interp(x, [0.0, math.pi], [1e308, -1e308])

    message = f"{name}_coefficients is not finite; the input overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match=f"^{message}$"):
            project(data, f)


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


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("L", [1e-3, 0.7, math.pi, 10.0, 1e4, 1e150])
def test_sufficient_condition_alpha_next_matches_the_basis(bc, L):
    # the one alpha at M + 1 is, bit for bit, the last of the M + 1 of build_basis
    alphas = build_basis(bc, L, 3001).alphas
    report = functools.partial(check_sufficient_condition, 0.1, bc, op_norm=2.0, a_bound=1.0, L=L)
    assert [report(M).alpha_next for M in range(1, 3001)] == alphas[1:].tolist()


def _closed_form_x(nu, r, a_bound, L):
    return (L / math.pi) * math.sqrt((6.0 + 4.0 * op_norm_limit(r) ** 2) / nu) * a_bound


def test_closed_form_count_inverts_the_margin_test():
    rng = np.random.default_rng(7)
    pairs = [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)]
    checked = 0
    for _ in range(3000):
        bc, scheme = pairs[rng.integers(3)]
        r, nu, L = rng.uniform(0.01, 0.99), 10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-1, 2)
        a_bound = rng.uniform(0.0, 5000.0) / _closed_form_x(nu, r, 1.0, L)
        X = _closed_form_x(nu, r, a_bound, L)
        if abs(X - round(X)) <= 1e-9 * X:  # there the two may round apart
            continue
        least = uni_min_count(r) if scheme is Scheme.UNI else 1
        expected = minimal_M_by_margin_test(nu, bc, r, a_bound, L, least)
        assert closed_form_minimal_M(nu, bc, scheme, r, a_bound, L) == expected, (bc, scheme, X)
        checked += 1
    assert checked > 2900


def test_closed_form_count_is_strict_at_an_integer_x():
    # X = 2 exactly: the margin at the count whose alpha_{M+1} gives X is -5.6e-17
    a_bound = 0.09291716600073399
    assert _closed_form_x(0.1, 0.1, a_bound, math.pi) == 2.0
    for bc, count in ((D, 2), (N, 3)):
        assert closed_form_minimal_M(0.1, bc, Scheme.MXE, 0.1, a_bound) == count
        assert minimal_M_by_margin_test(0.1, bc, 0.1, a_bound, math.pi, 1) == count
        report = check_sufficient_condition(0.1, bc, count - 1, op_norm_limit(0.1), a_bound)
        assert not report.satisfied and report.margin == pytest.approx(-5.6e-17, rel=0.01)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_rule_gives_the_closed_forms(monkeypatch, bc, scheme):
    # a sweep stacks its rows, analytic_vartheta has a value and the margin
    # test has a closed-form count for the same (bc, scheme) pairs
    formed = []
    stacked = projection._stacked_vartheta
    monkeypatch.setattr(
        projection, "_stacked_vartheta", lambda *a: formed.append(a[2]) or stacked(*a)
    )
    centers = [0.5, 1.5, 2.5] if scheme is Scheme.CUSTOM else None
    list(sweep_chunks(bc, scheme, math.pi, [3], 0.3, centers))
    closed = [
        formed == [[3]],
        analytic_vartheta(bc, scheme, 3, 0.3) is not None,
        closed_form_minimal_M(0.1, bc, scheme, 0.3, 3.5) is not None,
    ]
    assert closed == [scheme is Scheme.MXE or (bc, scheme) == (D, Scheme.UNI)] * 3


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


def _row_outcome(bc, scheme, M, r):
    """(vartheta, op_norm, max_offdiag) and, where one is known, analytic_vartheta
    as bytes, the failure's text, or the InvalidArgumentError's, from place,
    assemble_cross_gram, build_projection and analytic_vartheta."""
    try:
        data = _build(bc, scheme, M, r)
    except (DirectSumFailureError, InvalidArgumentError) as exc:
        return type(exc).__name__, str(exc)
    analytic = analytic_vartheta(bc, scheme, M, r)
    return struct.pack("3d", data.vartheta, data.op_norm, data.max_offdiag) + (
        b"" if analytic is None else struct.pack("d", analytic)
    )


def _sweep_outcomes(bc, scheme, Ms, r):
    outcomes = []
    try:
        for chunk in sweep_chunks(bc, scheme, math.pi, Ms, r):
            n = len(chunk.M)
            # the closed forms of the counts of a chunk with a row that did not fail
            analytic = n > len(chunk.failures) and analytic_varthetas(bc, scheme, chunk.M, r)
            analytic = analytic or [None] * n
            columns = (chunk.vartheta, chunk.op_norm, chunk.max_offdiag, analytic)
            assert {len(column) for column in columns} == {n}
            for i, (vartheta, op_norm, max_offdiag, ana) in enumerate(zip(*columns)):
                failure = chunk.failures.get(i)
                if failure is None:
                    outcomes.append(struct.pack("3d", vartheta, op_norm, max_offdiag) + (
                        b"" if ana is None else struct.pack("d", ana)
                    ))
                else:
                    assert vartheta is op_norm is max_offdiag is None
                    outcomes.append((type(failure).__name__, str(failure)))
    except InvalidArgumentError as exc:
        outcomes.append(("InvalidArgumentError", str(exc)))
    return outcomes


@pytest.mark.parametrize("r", [1e-307, 1e-300, 1e-6, 0.1, 0.5, 0.999])
@pytest.mark.parametrize("bc, scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)])
def test_sweep_rows_are_the_row_by_row_projection_bit_for_bit(bc, scheme, r):
    # M = 1..400 stacks 80,200 entries, about 40 chunks; uni rejects M below
    # r/(1 - r), and the sweep raises that at the first such row, as placement
    # does; at r = 1e-307 the row scale overflows from M = 23 on, inside the
    # first chunk, whose rows before it the sweep yields before it raises
    for start in (1, uni_min_count(r)) if scheme is Scheme.UNI else (1,):
        expected = []
        for M in range(start, 401):
            expected.append(_row_outcome(bc, scheme, M, r))
            if expected[-1][0] == "InvalidArgumentError":
                break
        assert _sweep_outcomes(bc, scheme, range(start, 401), r) == expected


@pytest.mark.parametrize("bc, scheme, Ms", [
    (N, Scheme.UNI, range(1, 30)),  # dense T T^T: the SVD, row by row
    (D, Scheme.CON, range(1, 30)),  # fails the direct sum from M = 9 on
    (D, Scheme.MXE, [5, 3000, 2, 2048, 2049, 1]),  # rows at and beyond the cap
])
def test_sweep_rows_of_every_shape_are_the_row_by_row_projection(bc, scheme, Ms):
    assert _sweep_outcomes(bc, scheme, Ms, 0.1) == [_row_outcome(bc, scheme, M, 0.1) for M in Ms]


# the grid on which squaring sin(theta)/theta by libm pow moved 4 of its
# 7,586 closed-form values by an ulp (mxe under both conditions, at M = 146,
# r = 0.3 and M = 138, r = 0.6)
_ANALYTIC_RS = [1e-300, 1e-6, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999]


@pytest.mark.parametrize("bc, scheme", [(D, Scheme.MXE), (N, Scheme.MXE), (D, Scheme.UNI)])
def test_stacked_analytic_vartheta_is_the_per_row_one_bit_for_bit(bc, scheme):
    for r in _ANALYTIC_RS:
        Ms = range(uni_min_count(r) if scheme is Scheme.UNI else 1, 201)
        stacked = analytic_varthetas(bc, scheme, Ms, r)
        per_row = [analytic_vartheta(bc, scheme, M, r) for M in Ms]
        assert struct.pack(f"{len(Ms)}d", *stacked) == struct.pack(f"{len(Ms)}d", *per_row), r


def test_closed_form_square_is_the_rounded_exact_square():
    # the cells where libm pow missed the square of q = sin(theta)/theta by an
    # ulp (mxe under both conditions); the product is the 40-digit square of q
    # rounded once
    import mpmath

    for M, r, cell in [(146, 0.3, "0.27872631879670168"), (138, 0.6, "0.44412003852429865")]:
        theta = (M - 1) * r * math.pi / (2 * M)
        q = float(np.sin(theta) / theta)
        with mpmath.workdps(40):
            square = float(mpmath.mpf(q) ** 2)
        for bc in (D, N):
            vartheta = analytic_vartheta(bc, Scheme.MXE, M, r)
            assert vartheta == r * square and "%.17g" % vartheta == cell


def test_sweep_chunks_are_capped_in_order():
    Ms = [*range(1, 300), 5000, 7, projection.SWEEP_CHUNK, 1]
    chunks = list(projection._chunks(Ms))
    assert [M for chunk in chunks for M in chunk] == Ms
    assert all(sum(chunk) <= projection.SWEEP_CHUNK or len(chunk) == 1 for chunk in chunks)
    # a chunk closes only where the next count would pass the cap
    assert all(sum(a) + b[0] > projection.SWEEP_CHUNK for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI])
def test_cross_gram_factors_are_the_row_formulas_bit_for_bit(bc, scheme):
    # the row-by-row formulas, as one cross-Gram wrote them before the sweep
    # stacked its rows
    for r in (1e-300, 1e-6, 0.1, 0.5, 0.9):
        for M in range(uni_min_count(r) if scheme is Scheme.UNI else 1, 60):
            gram = assemble_cross_gram(bc, place(scheme, math.pi, M, r))
            delta = r * math.pi / (2 * M)
            m = np.arange(1.0, M + 1 if bc is D else M)
            a = math.sqrt(8 * M / (r * math.pi**2)) * np.sin(m * delta)
            if bc is N:
                a, m = np.append(math.sqrt(r / M), a), np.append(1.0, m)
            assert gram.a.tobytes() == a.tobytes() and gram.m.tobytes() == m.tobytes()
            if scheme is Scheme.MXE:
                tt = np.full(M, M / 2)
                tt[-1 if bc is D else 0] = M
                assert gram.tt.tobytes() == tt.tobytes()
            elif bc is D:
                assert gram.tt.tobytes() == np.full(M, (M + 1) / 2).tobytes()
