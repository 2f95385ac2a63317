"""Oblique projections onto actuator spans along spectral complements.

Let U_M = span{1_omega_1, ..., 1_omega_M} be the span of M indicator
actuators and E_M = span{e_1, ..., e_M} the span of the first M Laplacian
eigenfunctions.  When L2(0, L) = U_M + E_M-perp is a direct sum, the oblique
projection P onto U_M along E_M-perp is well defined and acts by

    P x = sum_j alpha_j u_j,    with  G alpha = [(e_i, x)],

where u_j are the L2-normalised indicators and G is the cross-Gram matrix
G[i, j] = (e_i, u_j).  The operator norm comes from the smallest eigenvalue
vartheta of Theta = G G^T (rows indexed by eigenfunctions):

    ||P||^2 = 1 / vartheta,

so vartheta -> 0 means the splitting degenerates.  For mxe placement, and
uni under Dirichlet conditions, Theta is diagonal with eigenvalues
c r sinc^2(theta); those closed forms, their large-M limit r sinc^2(r pi/2)
and the margin test on ||P|| live here.

G[i, j] = s_i T[i, j] with a row scale s > 0 that depends only on r and a
trig factor T, sin or cos of m_i c_j.  T T^T is exact for mxe and uni, whose
angles are rational multiples of pi, and the BLAS product for con and custom.
build_projection takes the spectrum of Theta = (s s^T) o (T T^T) from these
factors in O(M) where T T^T is diagonal, else from the SVD of G; no scipy.

The cross-Gram closed forms are evaluated at L = pi: the rescaling
x -> pi*x/L leaves cross-Gram entries, Theta, and operator norms invariant,
so general L is handled by mapping centers onto (0, pi).  The projections of
a function integrate it against a whole basis at once, on one quadrature node
set over [0, L] split at every actuator support endpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .actuators import (
    ActuatorSet,
    Scheme,
    all_breakpoints,
    center_rationals,
    check_uni_count,
    checked_count,
    checked_fraction,
    indicators,
    normalized_indicator_coeff,
)
from .errors import InvalidArgumentError, NumericalFailureError, check_direct_sum
from .spectral import BoundaryCondition, EigenBasis, build_basis, eigenfunctions


@dataclass(frozen=True)
class CrossGram:
    """Cross-Gram matrix between the eigenbasis and the normalised actuators.

    entries[i, j] = (e_{i+1}, u_{j+1})_{L2} = a_i T[i, j] / m_i with u_j the
    unit-norm indicator; rows follow the eigenfunction index, columns the
    actuator index.  Kept as read-only factors a, m and tt, T T^T or its
    diagonal; T and the entries are formed read-only on first read.
    """

    actuators: ActuatorSet
    basis: EigenBasis
    a: np.ndarray
    m: np.ndarray
    tt: np.ndarray

    @functools.cached_property
    def T(self) -> np.ndarray:
        return _trig_table(self.basis.bc, self.actuators)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _frozen(self.a[:, None] * self.T / self.m[:, None])


@dataclass(frozen=True)
class ProjectionData:
    """The cross-Gram, whose factors give Theta, with Theta's spectrum and largest
    off-diagonal magnitude and the operator norm."""

    gram: CrossGram
    theta_eigenvalues: np.ndarray
    vartheta: float
    op_norm: float
    max_offdiag: float


@dataclass(frozen=True)
class SufficientConditionReport:
    """Outcome of the stabilisability margin test at one actuator count."""

    M: int
    alpha_next: float
    op_norm: float
    satisfied: bool
    margin: float


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _trig_table(bc: BoundaryCondition, aset: ActuatorSet) -> np.ndarray:
    """Read-only trig factor T of the cross-Gram of aset, at L = pi.

    T[i, j] = sin(m_i c_j) (Dirichlet, m = 1..M) or cos(m_i c_j) (Neumann,
    m = 0..M-1), which r does not enter.  For mxe and uni, m c_j = pi m n_j / d
    with the n_j and d of actuators.center_rationals, and T is a gather from a
    table of sin(pi p / (2d)), p = 0..4d-1, shifted by d for the cosines.
    """
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(1, aset.M + 1) if dirichlet else np.arange(aset.M)
    if aset.scheme not in (Scheme.MXE, Scheme.UNI):
        mc = np.multiply.outer(m.astype(float), aset.centers * (math.pi / aset.L))
        return _frozen(np.sin(mc) if dirichlet else np.cos(mc))
    n, d = center_rationals(aset.scheme, aset.M)
    # sin on the first half of the first quadrant, cos of the complement on
    # the second, then mirrored: mirrored angles give equal or opposite values
    x = np.pi * np.arange(d + 1) / (2 * d)
    quadrant = np.where(np.arange(d + 1) <= d // 2, np.sin(x), np.cos(x[::-1]))
    half = np.concatenate((quadrant, quadrant[-2:0:-1]))  # sin(pi - x) = sin x
    table = np.concatenate((half, -half))  # sin(x + pi) = -sin x
    p = np.multiply.outer(2 * m, n) + (0 if dirichlet else d)
    return _frozen(table[p - 4 * d * (p // (4 * d))])  # p mod 4d; // is faster than % here


def _trig_factor(bc: BoundaryCondition, aset: ActuatorSet) -> np.ndarray:
    """Read-only T T^T for the trig factor T of mxe or uni, or its diagonal
    where T T^T is exactly diagonal.

    For mxe and uni, (T T^T)_ik = (C(|m_i - m_k|) -+ C(m_i + m_k)) / 2 (- for
    sines, + for cosines) with the exact sums C(p) = sum_j cos(pi p n_j / d)
    (Strang, SIAM Rev. 1999): M at p = 0; for mxe 0 below p = 2M and -M there;
    for uni -1 at even and 0 at odd p.  So T T^T is diag(M/2, ..., M/2, M) for
    Dirichlet and diag(M, M/2, ..., M/2) for Neumann mxe, (M + 1)/2 I for
    Dirichlet uni, and for Neumann uni M at (0, 0), (M - 1)/2 elsewhere on the
    diagonal, -1 between distinct m_i, m_k of equal parity and 0 elsewhere: no
    T, FFT or BLAS.
    """
    M = aset.M
    if aset.scheme is Scheme.MXE:
        tt = np.full(M, M / 2)
        tt[-1 if bc is BoundaryCondition.DIRICHLET else 0] = M
    elif bc is BoundaryCondition.DIRICHLET:
        tt = np.full(M, (M + 1) / 2)
    else:
        tt = np.add.outer(np.arange(M), np.arange(M)) % 2 - 1.0  # -1 where m_i + m_k is even
        np.fill_diagonal(tt, (M - 1) / 2)
        tt[0, 0] = M
    return _frozen(tt)


def assemble_cross_gram(bc: BoundaryCondition, aset: ActuatorSet) -> CrossGram:
    """Assemble the M x M cross-Gram matrix from closed forms, as factors.

    G = a_i T[i, j] / m_i with the trig factor T of _trig_table; for Neumann
    conditions the constant eigenfunction's row has a = sqrt(r/M), m = 1.
    No quadrature is used and nothing is rejected: a singular G, such as the
    one of (nearly) coincident centers, is build_projection's to report.
    """
    M, r = aset.M, aset.r
    delta = r * math.pi / (2 * M)
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(1.0, M + 1 if dirichlet else M)
    row_scale = math.sqrt(8 * M / (r * math.pi**2))
    if not math.isfinite(row_scale):
        raise InvalidArgumentError(f"volume fraction r = {r} is too small for the row scale of G")
    a = row_scale * np.sin(m * delta)
    if not dirichlet:
        a, m = np.append(math.sqrt(r / M), a), np.append(1.0, m)
    basis, a, m = build_basis(bc, aset.L, M), _frozen(a), _frozen(m)
    if aset.scheme in (Scheme.MXE, Scheme.UNI):
        return CrossGram(aset, basis, a, m, _trig_factor(bc, aset))
    T = _trig_table(bc, aset)  # con and custom, with float angles
    gram = CrossGram(aset, basis, a, m, _frozen(T @ T.T))  # BLAS syrk: exactly symmetric
    gram.__dict__["T"] = T  # the cached T: formed once, for T T^T
    return gram


def build_projection(gram: CrossGram) -> ProjectionData:
    """Take the spectrum of Theta = G G^T, vartheta, and the operator norm 1/sqrt(vartheta).

    Theta = (s s^T) o (T T^T) with s > 0.  Where gram.tt is the diagonal of
    T T^T, Theta is diagonal: the spectrum is the sorted s^2 o tt and
    max_offdiag is 0.0, with no M x M array.  For a dense T T^T, or where
    s^2 o tt is not finite, it is the squared singular values of G (numpy's
    SVD), which keep a small vartheta accurate where forming G G^T would
    square the condition number.

    errors.check_direct_sum tests sigma_min/sigma_max of G, the one failure
    test of the cross-Gram: it also catches centers that placement accepts but
    that nearly coincide.
    """
    s, tt = gram.a / gram.m, gram.tt
    if tt.ndim == 1:
        w, max_offdiag = np.sort(s * s * tt), 0.0
    else:
        tt_off = np.abs(tt)
        np.fill_diagonal(tt_off, 0.0)
        w, max_offdiag = None, float((np.multiply.outer(s, s) * tt_off).max())
    if w is None or not np.isfinite(w).all():
        w = np.linalg.svd(gram.entries, compute_uv=False)[::-1] ** 2
    ratio = math.sqrt(w[0] / w[-1]) if w[-1] > 0 else 0.0
    check_direct_sum(
        ratio, "the cross-Gram", "the actuator span does not complement the spectral subspace"
    )
    vartheta = float(w[0])
    return ProjectionData(
        gram=gram,
        theta_eigenvalues=_frozen(w),
        vartheta=vartheta,
        op_norm=vartheta**-0.5,
        max_offdiag=max_offdiag,
    )


def _sinc2(r: float, theta):
    """r (sin(theta)/theta)^2, theta > 0: every closed-form eigenvalue of Theta."""
    return r * (np.sin(theta) / theta) ** 2


def analytic_vartheta(
    bc: BoundaryCondition, scheme: Scheme, M: int, r: float
) -> float | None:
    """Closed-form smallest eigenvalue of Theta, where one is known.

    Covered: mxe under both boundary conditions, uni under Dirichlet (subject
    to M >= r/(1-r)).  Returns None for every other combination; no closed
    form is known there and callers fall back to the numeric spectrum.  With
    delta = r pi/(2M) it is the term of analytic_theta_spectrum at i = M-1 for
    mxe (the extra eigenvalue at M = 1) and at i = M for uni.
    """
    limit = vartheta_limit(r)
    M = checked_count(M)
    if scheme is Scheme.UNI and bc is BoundaryCondition.DIRICHLET:
        check_uni_count(M, r)
        return (M + 1) / M * limit
    if scheme is not Scheme.MXE:
        return None
    if M > 1:
        return float(_sinc2(r, (M - 1) * r * math.pi / (2 * M)))
    return r if bc is BoundaryCondition.NEUMANN else 2.0 * limit


def analytic_theta_spectrum(
    bc: BoundaryCondition, scheme: Scheme, M: int, r: float
) -> np.ndarray | None:
    """Full closed-form Theta spectrum (ascending) for the diagonal cases.

    Each eigenvalue is c r sinc^2(i delta) with delta = r pi/(2M):
    mxe (either bc):  i = 1..M-1 (c = 1), with twice the term i = M for
                      Dirichlet or r, the term i = 0, for Neumann;
    uni (Dirichlet):  i = 1..M with c = (M+1)/M.

    Returns None where no closed form is known.  Raises InvalidArgumentError
    when r is so small that delta rounds to 0.
    """
    if analytic_vartheta(bc, scheme, M, r) is None:
        return None
    delta = r * math.pi / (2 * M)
    if delta == 0.0:
        raise InvalidArgumentError(f"volume fraction r = {r} is too small for delta at M = {M}")
    if scheme is Scheme.UNI:
        return np.sort((M + 1) / M * _sinc2(r, np.arange(1, M + 1) * delta))
    extra = r if bc is BoundaryCondition.NEUMANN else 2.0 * vartheta_limit(r)
    return np.sort(np.append(_sinc2(r, np.arange(1, M) * delta), extra))


def vartheta_limit(r: float) -> float:
    """Common large-M limit of vartheta: r sinc^2(r pi/2) = 4/(r pi^2) sin^2(r pi/2)."""
    r = checked_fraction(r)
    return float(_sinc2(r, r * math.pi / 2))


def op_norm_limit(r: float) -> float:
    """Large-M operator-norm limit sqrt(r) pi / (2 sin(r pi/2)) = vartheta_limit^-1/2."""
    return vartheta_limit(r) ** -0.5


Evaluator = Callable[[np.ndarray], np.ndarray]


def _actuator_family(data: ProjectionData) -> Evaluator:
    aset = data.gram.actuators
    coeff = normalized_indicator_coeff(aset)
    return lambda x: coeff * indicators(aset, x)


def _inner_products(data: ProjectionData, family: Evaluator, f: Evaluator) -> np.ndarray:
    """[(phi_k, f)] for the family phi_1..phi_M, on one node set over [0, L].

    The nodes are split at every support endpoint, and the panel count
    resolves the highest eigenfunction.
    """
    basis = data.gram.basis
    top = basis.M if basis.bc is BoundaryCondition.DIRICHLET else basis.M - 1
    n_panels = quadrature.oscillation_panels(top * math.pi / basis.L, basis.L)
    cuts = all_breakpoints(data.gram.actuators)
    x, w = quadrature.panel_nodes_weights(0.0, basis.L, n_panels, cuts)
    with np.errstate(over="ignore", invalid="ignore"):  # _expansion reports an overflow
        return (w * np.asarray(f(x), dtype=float)) @ family(x)


def _expansion(
    name: str, A: np.ndarray, rhs: np.ndarray, family: Evaluator
) -> tuple[np.ndarray, Evaluator]:
    """The coefficients A^-1 rhs and the evaluator of sum_k coeffs[k] * phi_k,
    a float for scalar x; raises NumericalFailureError, naming the
    coefficients, unless they are finite."""
    coeffs = np.linalg.solve(A, rhs)
    if not np.isfinite(coeffs).all():
        raise NumericalFailureError(f"{name} is not finite; the input overflows")

    def evaluator(x):
        out = family(x) @ coeffs
        return float(out) if np.ndim(x) == 0 else out

    return coeffs, evaluator


def apply_projection(data: ProjectionData, f: Evaluator) -> tuple[np.ndarray, Evaluator]:
    """Apply the oblique projection onto the actuator span to a function.

    f must be a vectorized evaluator on [0, L]; the quadrature splits its
    panels at the support endpoints.
    Returns the coefficient vector alpha (in the normalised-indicator basis)
    and an evaluator of P f = sum_j alpha_j u_j.  G in G alpha = [(e_i, f)]
    passed build_projection's direct-sum test; an f that overflows, so that
    alpha is not finite, raises NumericalFailureError without a numpy warning.
    """
    rhs = _inner_products(data, lambda x: eigenfunctions(data.gram.basis, x), f)
    return _expansion("oblique_coefficients", data.gram.entries, rhs, _actuator_family(data))


def orthogonal_projection_actuators(
    data: ProjectionData, f: Evaluator
) -> tuple[np.ndarray, Evaluator]:
    """Orthogonal projection onto the actuator span, for comparison with P.

    Solves the normal equations N gamma = [(u_j, f)] where N is the Gram
    matrix of the normalised indicators (the identity when no supports
    overlap; overlaps contribute their shared length).  N is singular only
    if G is, which build_projection has ruled out.  The oblique projection's
    residual is never smaller than this one's.  Overflow raises as in
    apply_projection.
    """
    aset = data.gram.actuators
    family = _actuator_family(data)
    rhs = _inner_products(data, family, f)
    lo = aset.centers - aset.half_width
    hi = aset.centers + aset.half_width
    overlap = np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo)
    N = normalized_indicator_coeff(aset) ** 2 * np.maximum(overlap, 0.0)
    np.fill_diagonal(N, 1.0)
    return _expansion("orthogonal_coefficients", N, rhs, family)


def check_sufficient_condition(
    nu: float,
    bc: BoundaryCondition,
    M: int,
    op_norm: float,
    a_bound: float,
    L: float = math.pi,
) -> SufficientConditionReport:
    """Test the stabilisability margin nu*alpha_{M+1} > (6 + 4||P||^2) * a_bound^2.

    a_bound is the caller's bound on the reaction operator norm (the sup of
    |a| is a conservative choice); margin is lhs - rhs.  Both sides are float
    products, not powers, so an overflow raises InvalidArgumentError.
    """
    if not (nu > 0.0 and math.isfinite(nu)):
        raise InvalidArgumentError(f"diffusion must be positive and finite, got {nu}")
    if not (a_bound >= 0.0 and math.isfinite(a_bound)):
        raise InvalidArgumentError(f"a_bound must be nonnegative and finite, got {a_bound}")
    alpha_next = float(build_basis(bc, L, M + 1).alphas[-1])
    margin = nu * alpha_next - (6.0 + 4.0 * op_norm * op_norm) * (a_bound * a_bound)
    if not math.isfinite(margin):
        raise InvalidArgumentError(f"the margin test overflows at nu={nu:g}, a_bound={a_bound:g}")
    return SufficientConditionReport(
        M=int(M),
        alpha_next=alpha_next,
        op_norm=float(op_norm),
        satisfied=margin > 0.0,
        margin=margin,
    )
