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

so vartheta -> 0 means the splitting degenerates.  For the mxe and uni
placements Theta is diagonal with eigenvalues c r sinc^2(theta); those closed
forms, their large-M limit r sinc^2(r pi/2) and the margin test on ||P|| live here.

G[i, j] = s_i T[i, j] with a row scale s > 0 that depends only on r and a
trig factor T, sin or cos of m_i c_j.  For mxe and uni the angles are
rational multiples of pi: T T^T then comes from cosine sums that one FFT
gives, in O(M^2) and without BLAS, and T, when read, is gathered from one
exact-angle sine table; con and custom form T T^T as the BLAS product.
T T^T, |T T^T| off the diagonal and T are kept for the latest (bc, M,
centers), so a sweep over r at one M computes them once; T and G are formed
only when something reads them.  The spectrum of Theta = (s s^T) o (T T^T)
is its sorted diagonal where Weyl's inequality, applied to the factors,
certifies that to 1e-10 relative (mxe, and uni under Dirichlet conditions),
otherwise the squared singular values of G from numpy's SVD; this module
needs no scipy.

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
from .errors import InvalidArgumentError, check_direct_sum
from .spectral import BoundaryCondition, EigenBasis, build_basis, eigenfunctions

# Gershgorin radius over smallest diagonal entry at or below which the
# sorted diagonal of Theta is its spectrum to this relative accuracy.
_WEYL_RTOL = 1e-10


@dataclass(frozen=True)
class CrossGram:
    """Cross-Gram matrix between the eigenbasis and the normalised actuators.

    entries[i, j] = (e_{i+1}, u_{j+1})_{L2} = a_i T[i, j] / m_i with u_j the
    unit-norm indicator; rows follow the eigenfunction index, columns the
    actuator index.  Kept as read-only factors a, m, T T^T, tt_off =
    |T T^T| off the diagonal and its row sums tt_rowsum; the trig factor T
    and the entries are formed read-only on first read.
    """

    actuators: ActuatorSet
    basis: EigenBasis
    a: np.ndarray
    m: np.ndarray
    TT: np.ndarray
    tt_off: np.ndarray
    tt_rowsum: np.ndarray

    @functools.cached_property
    def T(self) -> np.ndarray:
        return _trig_table(*_factor_key(self.basis.bc, self.actuators))

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _frozen(self.a[:, None] * self.T / self.m[:, None])


@dataclass(frozen=True)
class ProjectionData:
    """Assembled projector data: the cross-Gram (whose factors give Theta), the
    spectrum of Theta, the operator norm, and the largest off-diagonal
    magnitude of Theta."""

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


def _factor_key(bc: BoundaryCondition, aset: ActuatorSet) -> tuple:
    """Memo key (bc, scheme, M, cm_bytes) of the trig factor; cm_bytes holds the
    centers on (0, pi), where G is the same, and is empty for mxe and uni."""
    if aset.scheme in (Scheme.MXE, Scheme.UNI):
        return bc, aset.scheme, aset.M, b""
    return bc, aset.scheme, aset.M, (aset.centers * (math.pi / aset.L)).tobytes()


@functools.lru_cache(maxsize=1)
def _trig_table(bc: BoundaryCondition, scheme: Scheme, M: int, cm_bytes: bytes) -> np.ndarray:
    """Read-only trig factor T of the cross-Gram at L = pi.

    T[i, j] = sin(m_i c_j) (Dirichlet, m = 1..M) or cos(m_i c_j) (Neumann,
    m = 0..M-1), which r does not enter.  For mxe and uni, m c_j = pi m n_j / d
    with the n_j and d of actuators.center_rationals, and T is a gather from a
    table of sin(pi p / (2d)), p = 0..4d-1, shifted by d for the cosines.
    """
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(1, M + 1) if dirichlet else np.arange(M)
    if cm_bytes:
        mc = np.multiply.outer(m.astype(float), np.frombuffer(cm_bytes))
        return _frozen(np.sin(mc) if dirichlet else np.cos(mc))
    n, d = center_rationals(scheme, M)
    # sin on the first half of the first quadrant, cos of the complement on
    # the second, then mirrored: mirrored angles give equal or opposite values
    x = np.pi * np.arange(d + 1) / (2 * d)
    quadrant = np.where(np.arange(d + 1) <= d // 2, np.sin(x), np.cos(x[::-1]))
    half = np.concatenate((quadrant, quadrant[-2:0:-1]))  # sin(pi - x) = sin x
    table = np.concatenate((half, -half))  # sin(x + pi) = -sin x
    p = np.multiply.outer(2 * m, n) + (0 if dirichlet else d)
    return _frozen(table[p - 4 * d * (p // (4 * d))])  # p mod 4d; // is faster than % here


@functools.lru_cache(maxsize=1)
def _trig_factor(
    bc: BoundaryCondition, scheme: Scheme, M: int, cm_bytes: bytes
) -> tuple[np.ndarray, ...]:
    """Read-only T T^T for the trig factor T of _trig_table, |T T^T| with a
    zeroed diagonal, and the row sums of the latter.

    For mxe and uni, product to sum gives (T T^T)_ik = (C(|m_i - m_k|) -+
    C(m_i + m_k)) / 2 with C(p) = sum_j cos(p c_j), - for the sines and + for
    the cosines.  C(p), p = 0..2M, is the real part of one FFT of the 0/1
    indicator of the n_j over length 2d, and the Toeplitz and Hankel halves
    are strided views of C: T T^T is exactly symmetric and takes O(M^2) work,
    no BLAS call and no T.  The float angles of con and custom would make the
    sums lose accuracy; they keep the BLAS product T @ T.T.
    """
    if cm_bytes:
        T = _trig_table(bc, scheme, M, cm_bytes)
        TT = T @ T.T  # BLAS syrk: exactly symmetric
    else:
        n, d = center_rationals(scheme, M)
        hits = np.zeros(2 * d)
        hits[n] = 1.0
        C = 0.5 * np.fft.fft(hits)[: 2 * M + 1].real  # the halving is exact
        # C is even: C(|i - k|) is entry M-1-i+k of [C(M-1) .. C(1), C(0) .. C(M-1)]
        even = np.concatenate((C[M - 1 : 0 : -1], C[:M]))
        step = C.itemsize  # C and even are contiguous
        toeplitz = np.ndarray((M, M), buffer=even, offset=(M - 1) * step, strides=(-step, step))
        # m_i + m_k is i + k + 2 for the sines (m = 1..M), i + k for the cosines
        op, first = (np.subtract, 2) if bc is BoundaryCondition.DIRICHLET else (np.add, 0)
        TT = op(toeplitz, np.ndarray((M, M), buffer=C, offset=first * step, strides=(step, step)))
    tt_off = np.abs(TT)
    np.fill_diagonal(tt_off, 0.0)
    return _frozen(TT), _frozen(tt_off), _frozen(tt_off.sum(axis=1))


def assemble_cross_gram(bc: BoundaryCondition, aset: ActuatorSet) -> CrossGram:
    """Assemble the M x M cross-Gram matrix from closed forms, as factors.

    G = a_i T[i, j] / m_i with the trig factor T of _trig_factor; for Neumann
    conditions the constant eigenfunction's row has a = sqrt(r/M), m = 1.
    No quadrature is used and nothing is rejected: a singular G, such as the
    one of (nearly) coincident centers, is build_projection's to report.
    """
    M = aset.M
    factor = _trig_factor(*_factor_key(bc, aset))
    r = aset.r
    delta = r * math.pi / (2 * M)
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(1.0, M + 1 if dirichlet else M)
    row_scale = math.sqrt(8 * M / (r * math.pi**2))
    if not math.isfinite(row_scale):
        raise InvalidArgumentError(f"volume fraction r = {r} is too small for the row scale of G")
    a = row_scale * np.sin(m * delta)
    if not dirichlet:
        a, m = np.append(math.sqrt(r / M), a), np.append(1.0, m)
    basis = build_basis(bc, aset.L, M)
    return CrossGram(aset, basis, _frozen(a), _frozen(m), *factor)


def build_projection(gram: CrossGram) -> ProjectionData:
    """Take the spectrum of Theta = G G^T, vartheta, and the operator norm 1/sqrt(vartheta).

    Since s > 0, |Theta| off the diagonal is (s s^T) o tt_off, and the
    diagonal is s^2 o diag(T T^T); both come from the cross-Gram's factors,
    without forming T or G.  The spectrum is the sorted diagonal when the
    largest Gershgorin radius of Theta, at most s_i max(s) tt_rowsum_i in
    row i, is at most 1e-10 of its smallest diagonal entry: by Weyl's
    inequality every eigenvalue then lies within that radius of a diagonal
    entry.  Otherwise it is the squared singular values of G (numpy's SVD),
    which keep a small vartheta accurate where forming G G^T would square the
    condition number.

    errors.check_direct_sum tests sigma_min/sigma_max of G, the one failure
    test of the cross-Gram: it also catches centers that placement accepts but
    that nearly coincide.
    """
    s = gram.a / gram.m
    radii = s * s.max() * gram.tt_rowsum
    d = s * s * gram.TT.diagonal()
    # radii and d are nonnegative, so their sum is finite exactly when both are
    if np.isfinite(radii + d).all() and radii.max() <= _WEYL_RTOL * d.min():
        w = np.sort(d)
    else:
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
        max_offdiag=float((np.multiply.outer(s, s) * gram.tt_off).max()),
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
    return (w * np.asarray(f(x), dtype=float)) @ family(x)


def _expansion(coeffs: np.ndarray, family: Evaluator) -> Evaluator:
    """Evaluator of sum_k coeffs[k] * phi_k; a float for scalar x."""

    def evaluator(x):
        out = family(x) @ coeffs
        return float(out) if np.ndim(x) == 0 else out

    return evaluator


def apply_projection(data: ProjectionData, f: Evaluator) -> tuple[np.ndarray, Evaluator]:
    """Apply the oblique projection onto the actuator span to a function.

    f must be a vectorized evaluator on [0, L]; the quadrature splits its
    panels at the support endpoints.
    Returns the coefficient vector alpha (in the normalised-indicator basis)
    and an evaluator of P f = sum_j alpha_j u_j.  G in G alpha = [(e_i, f)]
    passed build_projection's direct-sum test.
    """
    rhs = _inner_products(data, lambda x: eigenfunctions(data.gram.basis, x), f)
    alpha = np.linalg.solve(data.gram.entries, rhs)
    return alpha, _expansion(alpha, _actuator_family(data))


def orthogonal_projection_actuators(
    data: ProjectionData, f: Evaluator
) -> tuple[np.ndarray, Evaluator]:
    """Orthogonal projection onto the actuator span, for comparison with P.

    Solves the normal equations N gamma = [(u_j, f)] where N is the Gram
    matrix of the normalised indicators (the identity when no supports
    overlap; overlaps contribute their shared length).  N is singular only
    if G is, which build_projection has ruled out.  The oblique projection's
    residual is never smaller than this one's.
    """
    aset = data.gram.actuators
    family = _actuator_family(data)
    rhs = _inner_products(data, family, f)
    lo = aset.centers - aset.half_width
    hi = aset.centers + aset.half_width
    overlap = np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo)
    N = normalized_indicator_coeff(aset) ** 2 * np.maximum(overlap, 0.0)
    np.fill_diagonal(N, 1.0)
    gamma = np.linalg.solve(N, rhs)
    return gamma, _expansion(gamma, family)


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
