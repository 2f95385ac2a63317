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
placements Theta is diagonal and vartheta has closed forms; those analytic
expressions, their common large-M limit 4/(r pi^2) sin^2(r pi/2), and the
stabilisability margin test built on ||P|| all live here.

The cross-Gram closed forms are evaluated at L = pi: the rescaling
x -> pi*x/L leaves cross-Gram entries, Theta, and operator norms invariant,
so general L is handled by mapping centers onto (0, pi).  The projections of
a function integrate it against a whole basis at once, on one quadrature node
set over [0, L] split at every actuator support endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .actuators import ActuatorSet, Scheme, all_breakpoints, indicators, normalized_indicator_coeff
from .errors import (
    ConstraintViolationError,
    DirectSumFailureError,
    InvalidArgumentError,
    SingularConfigurationError,
)
from .linalg import solve_dense, sym_eigen
from .spectral import BoundaryCondition, EigenBasis, build_basis, eigenfunctions

# Below this, the smallest eigenvalue of Theta is treated as zero: the
# direct sum has failed.  Exact failures (coincident centers) give exact
# zeros; every well-posed configuration in the shipped sweeps keeps
# vartheta above 1e-3.
VARTHETA_THRESHOLD = 1e-13

_DIAG_RTOL = 1e-10


@dataclass(frozen=True)
class CrossGram:
    """Cross-Gram matrix between the eigenbasis and the normalised actuators.

    entries[i, j] = (e_{i+1}, u_{j+1})_{L2} with u_j the unit-norm indicator;
    rows follow the eigenfunction index, columns the actuator index.
    """

    bc: BoundaryCondition
    actuators: ActuatorSet
    basis: EigenBasis
    M: int
    entries: np.ndarray


@dataclass(frozen=True)
class ProjectionData:
    """Assembled projector data: Theta, its spectrum, and the operator norm."""

    gram: CrossGram
    theta: np.ndarray
    theta_eigenvalues: np.ndarray
    vartheta: float
    op_norm: float


@dataclass(frozen=True)
class SufficientConditionReport:
    """Outcome of the stabilisability margin test at one actuator count."""

    nu: float
    M: int
    alpha_next: float
    op_norm: float
    a_bound: float
    satisfied: bool
    margin: float


def _pi_centers(aset: ActuatorSet) -> np.ndarray:
    """Actuator centers mapped onto (0, pi); entries are invariant under this."""
    return aset.centers * (math.pi / aset.L)


def _closed_form_entries(bc: BoundaryCondition, M: int, r: float, cm: np.ndarray) -> np.ndarray:
    """Product-form entries at L = pi: rank-1 frequency factors times center factors."""
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


def assemble_cross_gram(bc: BoundaryCondition, aset: ActuatorSet) -> CrossGram:
    """Assemble the M x M cross-Gram matrix from closed forms (no quadrature).

    Raises SingularConfigurationError for (near-)coincident centers, for
    which two columns coincide and the matrix is exactly singular.
    """
    M = aset.M
    cm = _pi_centers(aset)
    if M > 1 and np.min(np.diff(np.sort(cm))) <= 1e-12:
        raise SingularConfigurationError(
            "coincident actuator centers make the cross-Gram matrix singular"
        )
    G = _closed_form_entries(bc, M, aset.r, cm)
    G.flags.writeable = False
    basis = build_basis(bc, aset.L, M)
    return CrossGram(bc=bc, actuators=aset, basis=basis, M=M, entries=G)


def build_projection(gram: CrossGram) -> ProjectionData:
    """Form Theta, its spectrum, vartheta, and the operator norm 1/sqrt(vartheta).

    Theta is formed explicitly (rather than through singular values of the
    cross-Gram) so the diagonality statements can be asserted entrywise.
    Raises DirectSumFailureError when vartheta is numerically zero.
    """
    G = gram.entries
    theta = G @ G.T
    theta = 0.5 * (theta + theta.T)
    w, _ = sym_eigen(theta)
    vartheta = float(w[0])
    if vartheta <= VARTHETA_THRESHOLD:
        raise DirectSumFailureError(
            f"smallest Theta eigenvalue {vartheta:.3e} is numerically zero; "
            "the actuator span does not complement the spectral subspace"
        )
    theta.flags.writeable = False
    w.flags.writeable = False
    return ProjectionData(
        gram=gram,
        theta=theta,
        theta_eigenvalues=w,
        vartheta=vartheta,
        op_norm=vartheta**-0.5,
    )


def analytic_vartheta(
    bc: BoundaryCondition, scheme: Scheme, M: int, r: float
) -> float | None:
    """Closed-form smallest eigenvalue of Theta, where one is known.

    Covered: mxe under both boundary conditions, uni under Dirichlet (subject
    to M >= r/(1-r)).  Returns None for every other combination; no closed
    form is known there and callers fall back to the numeric spectrum.

    The Neumann mxe value at M = 1 is r, the single entry of Theta = [r].
    """
    if int(M) != M or M < 1:
        raise InvalidArgumentError(f"actuator count must be a positive integer, got {M}")
    if not 0.0 < r < 1.0:
        raise InvalidArgumentError(f"volume fraction must lie in (0, 1), got {r}")
    M = int(M)
    if scheme is Scheme.MXE:
        if M == 1:
            if bc is BoundaryCondition.NEUMANN:
                return r
            return 8.0 / (r * math.pi**2) * math.sin(r * math.pi / 2) ** 2
        s = math.sin((M - 1) * r * math.pi / (2 * M))
        return 4.0 * M**2 / (r * math.pi**2 * (M - 1) ** 2) * s**2
    if scheme is Scheme.UNI and bc is BoundaryCondition.DIRICHLET:
        if M < r / (1.0 - r) * (1.0 - 1e-12):
            raise ConstraintViolationError(
                f"uniform placement requires M >= r/(1-r): M={M} < {r / (1.0 - r):.6g}"
            )
        return 4.0 * (M + 1) / (r * math.pi**2 * M) * math.sin(r * math.pi / 2) ** 2
    return None


def analytic_theta_spectrum(
    bc: BoundaryCondition, scheme: Scheme, M: int, r: float
) -> np.ndarray | None:
    """Full closed-form Theta spectrum (ascending) for the diagonal cases.

    mxe (either bc):  {4M^2/(r pi^2) sin^2(i r pi/(2M))/i^2 : i = 1..M-1}
                      together with 8/(r pi^2) sin^2(r pi/2) for Dirichlet
                      or r for Neumann.
    uni (Dirichlet):  {4M(M+1)/(r pi^2) sin^2(i r pi/(2M))/i^2 : i = 1..M}.

    Returns None where no closed form is known.
    """
    if analytic_vartheta(bc, scheme, M, r) is None:
        return None
    M = int(M)
    if scheme is Scheme.MXE:
        i = np.arange(1, M, dtype=float)
        vals = 4.0 * M**2 / (r * math.pi**2) * np.sin(i * r * math.pi / (2 * M)) ** 2 / i**2
        if bc is BoundaryCondition.NEUMANN:
            extra = r
        else:
            extra = 8.0 / (r * math.pi**2) * math.sin(r * math.pi / 2) ** 2
        return np.sort(np.append(vals, extra))
    i = np.arange(1, M + 1, dtype=float)
    vals = (
        4.0 * M * (M + 1) / (r * math.pi**2) * np.sin(i * r * math.pi / (2 * M)) ** 2 / i**2
    )
    return np.sort(vals)


def vartheta_limit(r: float) -> float:
    """Common large-M limit of vartheta: 4/(r pi^2) sin^2(r pi/2)."""
    if not 0.0 < r < 1.0:
        raise InvalidArgumentError(f"volume fraction must lie in (0, 1), got {r}")
    return 4.0 / (r * math.pi**2) * math.sin(r * math.pi / 2) ** 2


def op_norm_limit(r: float) -> float:
    """Large-M operator-norm limit sqrt(r) pi / (2 sin(r pi/2)) = vartheta_limit^-1/2."""
    return vartheta_limit(r) ** -0.5


Evaluator = Callable[[np.ndarray], np.ndarray]


def _eigen_family(data: ProjectionData) -> Evaluator:
    return lambda x: eigenfunctions(data.gram.basis, x)


def _actuator_family(data: ProjectionData) -> Evaluator:
    aset = data.gram.actuators
    coeff = normalized_indicator_coeff(aset)
    return lambda x: coeff * indicators(aset, x)


def _inner_products(
    data: ProjectionData, family: Evaluator, f: Evaluator, breakpoints, n_panels: int | None
) -> np.ndarray:
    """[(phi_k, f)] for the family phi_1..phi_M, on one node set over [0, L].

    The nodes are split at the caller's breakpoints and at every support
    endpoint; the default panel count resolves the highest eigenfunction.
    """
    basis = data.gram.basis
    if n_panels is None:
        top = basis.M if basis.bc is BoundaryCondition.DIRICHLET else basis.M - 1
        n_panels = quadrature.oscillation_panels(top * math.pi / basis.L, basis.L)
    cuts = (*breakpoints, *all_breakpoints(data.gram.actuators))
    x, w = quadrature.panel_nodes_weights(0.0, basis.L, n_panels, cuts)
    return (w * np.asarray(f(x), dtype=float)) @ family(x)


def _expansion(coeffs: np.ndarray, family: Evaluator) -> Evaluator:
    """Evaluator of sum_k coeffs[k] * phi_k; a float for scalar x."""

    def evaluator(x):
        out = family(x) @ coeffs
        return float(out) if np.ndim(x) == 0 else out

    return evaluator


def apply_projection(
    data: ProjectionData, f: Evaluator, *, breakpoints=(), n_panels: int | None = None
) -> tuple[np.ndarray, Evaluator]:
    """Apply the oblique projection onto the actuator span to a function.

    f must be a vectorized evaluator on [0, L]; pass its known discontinuity
    points through breakpoints so the quadrature splits panels there.
    Returns the coefficient vector alpha (in the normalised-indicator basis)
    and an evaluator of P f = sum_j alpha_j u_j.  The solve G alpha = [(e_i, f)]
    raises through solve_dense if the cross-Gram is singular.
    """
    rhs = _inner_products(data, _eigen_family(data), f, breakpoints, n_panels)
    alpha = solve_dense(data.gram.entries, rhs)
    return alpha, _expansion(alpha, _actuator_family(data))


def apply_adjoint_projection(
    data: ProjectionData, f: Evaluator, *, breakpoints=(), n_panels: int | None = None
) -> tuple[np.ndarray, Evaluator]:
    """Apply the adjoint projection, onto the eigenspace along the actuator
    complement.

    The adjoint of P (onto U_M along E_M-perp) is the oblique projection onto
    E_M along U_M-perp; its coefficients beta in the eigenbasis solve the
    transposed Gram system G^T beta = [(u_j, f)].  Returns beta and an
    evaluator of sum_i beta_i e_i.
    """
    rhs = _inner_products(data, _actuator_family(data), f, breakpoints, n_panels)
    beta = solve_dense(data.gram.entries.T, rhs)
    return beta, _expansion(beta, _eigen_family(data))


def orthogonal_projection_actuators(
    data: ProjectionData, f: Evaluator, *, breakpoints=(), n_panels: int | None = None
) -> tuple[np.ndarray, Evaluator]:
    """Orthogonal projection onto the actuator span, for comparison with P.

    Solves the normal equations N gamma = [(u_j, f)] where N is the Gram
    matrix of the normalised indicators (the identity when supports are
    disjoint; overlaps contribute their shared length).  The oblique
    projection's residual is never smaller than this one's.
    """
    aset = data.gram.actuators
    family = _actuator_family(data)
    rhs = _inner_products(data, family, f, breakpoints, n_panels)
    lo = aset.centers - aset.half_width
    hi = aset.centers + aset.half_width
    overlap = np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo)
    N = normalized_indicator_coeff(aset) ** 2 * np.maximum(overlap, 0.0)
    np.fill_diagonal(N, 1.0)
    gamma = solve_dense(N, rhs)
    return gamma, _expansion(gamma, family)


def check_theta_diagonal(data: ProjectionData) -> tuple[bool, float]:
    """Whether Theta is diagonal to within 1e-10 of its largest diagonal entry.

    Returns (is_diagonal, max_offdiagonal_magnitude).
    """
    theta = data.theta
    off = theta - np.diag(np.diag(theta))
    max_off = float(np.max(np.abs(off))) if theta.size else 0.0
    max_diag = float(np.max(np.abs(np.diag(theta)))) if theta.size else 0.0
    return max_off <= _DIAG_RTOL * max_diag, max_off


def cosine_sum(aset: ActuatorSet, m: int) -> float:
    """Sum over actuators of cos(m * c_k), centers mapped onto (0, pi).

    For the mxe placement this vanishes for every 1 <= m <= 2M - 1; for uni
    it equals 0 for odd m and -1 for even m (and M at m = 0 for any set).
    """
    if int(m) != m or m < 0:
        raise InvalidArgumentError(f"frequency must be a nonnegative integer, got {m}")
    return float(np.sum(np.cos(m * _pi_centers(aset))))


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
    |a| is a conservative choice); margin is lhs - rhs.
    """
    if nu <= 0.0:
        raise InvalidArgumentError(f"diffusion must be positive, got {nu}")
    if a_bound < 0.0:
        raise InvalidArgumentError(f"a_bound must be nonnegative, got {a_bound}")
    alpha_next = float(build_basis(bc, L, M + 1).alphas[-1])
    lhs = nu * alpha_next
    rhs = (6.0 + 4.0 * op_norm**2) * a_bound**2
    return SufficientConditionReport(
        nu=nu,
        M=int(M),
        alpha_next=alpha_next,
        op_norm=float(op_norm),
        a_bound=float(a_bound),
        satisfied=lhs > rhs,
        margin=lhs - rhs,
    )
