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
c r sinc^2(theta); those closed forms, their large-M limit r sinc^2(r pi/2),
the margin test on ||P|| and its inverse at the limit norm live here.

G[i, j] = s_i T[i, j] with a row scale s > 0 that depends only on r and a
trig factor T, sin or cos of m_i c_j.  build_projection takes the spectrum
of Theta = (s s^T) o (T T^T) in O(M) from the closed-form diagonal of T T^T
for mxe and Dirichlet uni, else from the SVD of G; no scipy.
sweep_rows gives a sweep's rows at one r in order, formed a chunk of at most
SWEEP_CHUNK stacked entries at a time; for diagonal shapes one array pass
over a chunk gives the varthetas of its rows; analytic_varthetas gives the
closed forms of a list of counts by another.

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
from typing import Callable, Iterator

import numpy as np

from . import quadrature
from .actuators import (
    ActuatorSet,
    Scheme,
    all_breakpoints,
    center_rationals,
    check_uni_count,
    checked_fraction,
    indicators,
    normalized_indicator_coeff,
    place,
    uni_min_count,
)
from .errors import (
    SIGMA_RATIO_THRESHOLD, DirectSumFailureError, InvalidArgumentError, NumericalFailureError,
    check_direct_sum, check_member, checked_count, checked_positive,
)
from .spectral import BoundaryCondition, EigenBasis, build_basis, eigenfunctions, eigenvalues


@dataclass(frozen=True)
class CrossGram:
    """Cross-Gram matrix between the eigenbasis and the normalised actuators.

    entries[i, j] = (e_{i+1}, u_{j+1})_{L2} = a_i T[i, j] / m_i with u_j the
    unit-norm indicator; rows follow the eigenfunction index, columns the
    actuator index.  Kept as read-only factors a, m and tt, the diagonal of a
    diagonal T T^T or None; T and the entries are formed read-only on read.
    """

    actuators: ActuatorSet
    basis: EigenBasis
    a: np.ndarray
    m: np.ndarray
    tt: np.ndarray | None

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


def _closed_form(bc, scheme) -> bool:
    """Theta is diagonal in closed form: mxe, and Dirichlet uni."""
    return isinstance(bc, BoundaryCondition) and (
        scheme is Scheme.MXE or scheme is Scheme.UNI and bc is BoundaryCondition.DIRICHLET
    )


def _factors(bc: BoundaryCondition, scheme: Scheme, Ms, r: float) -> tuple:
    """The cross-Gram factors of the counts Ms at one r, stacked count after
    count: each count's start and row scale, a and m, and the diagonal tt of
    T T^T for mxe and Dirichlet uni, else None.  One cross-Gram is a stack of
    one count; a sweep stacks many with the same float operations.

    With delta = r pi/(2M), the row of eigen index k has a = row_scale
    sin(k delta), row_scale = sqrt(8M/(r pi^2)), and m = k, for sin(k x),
    k = 1..M (Dirichlet), or cos(k x), k = 0..M-1 (Neumann), whose constant
    row k = 0 has a = sqrt(r/M) and m = 1.  The exact cosine sums make tt
    diag(M/2, ..., M/2, M) (Dirichlet) or diag(M, M/2, ..., M/2) (Neumann)
    for mxe and (M + 1)/2 for Dirichlet uni.
    """
    sizes = np.asarray(Ms)
    starts = np.cumsum(sizes) - sizes
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(float(starts[-1] + sizes[-1])) - np.repeat(starts, sizes)
    m += dirichlet
    with np.errstate(all="ignore"):  # an infinite row scale is the caller's to report
        row_scale = np.sqrt(8 * sizes / (r * math.pi**2))
        a = np.repeat(r * math.pi / (2 * sizes), sizes)  # in place from here: a few M-arrays
        a *= m
        np.sin(a, out=a)
        a *= np.repeat(row_scale, sizes)
    if not dirichlet:
        a[starts], m[starts] = np.sqrt(r / sizes), 1.0
    tt = None
    if _closed_form(bc, scheme):  # (M + 1)/2 for uni, M/2 for mxe
        tt = np.repeat((sizes + (scheme is Scheme.UNI)) / 2, sizes)
        if scheme is Scheme.MXE:
            tt[starts + (sizes - 1) * dirichlet] = sizes  # M at k = M (Dirichlet) or k = 0
    return starts, row_scale, a, m, tt


def assemble_cross_gram(bc: BoundaryCondition, aset: ActuatorSet) -> CrossGram:
    """Assemble the M x M cross-Gram matrix from closed forms, as factors.

    G = a_i T[i, j] / m_i with the trig factor T of _trig_table and the a,
    m and tt of _factors.
    No quadrature is used and nothing is rejected: a singular G, such as the
    one of (nearly) coincident centers, is build_projection's to report.
    """
    M, r = aset.M, aset.r
    _, row_scale, a, m, tt = _factors(bc, aset.scheme, [M], r)
    if not math.isfinite(row_scale[0]):
        raise InvalidArgumentError(f"volume fraction r = {r} is too small for the row scale of G")
    tt = None if tt is None else _frozen(tt)
    return CrossGram(aset, build_basis(bc, aset.L, M), _frozen(a), _frozen(m), tt)


def _max_offdiag(gram: CrossGram, s: np.ndarray) -> float:
    """Theta's largest |s_i s_k (T T^T)_ik|, i != k: 0.0 where gram.tt is kept.

    For Neumann uni, (T T^T)_ik = (C(|m_i - m_k|) + C(m_i + m_k)) / 2 with the
    exact sums C(p) = sum_j cos(pi p j / (M + 1)), -1 at even and 0 at odd
    p > 0 (Strang, SIAM Rev. 1999): -1 between distinct m_i, m_k of equal
    parity, else 0.  So it is the product of the two largest s of one parity,
    or 0.0.  Con and custom read the BLAS T T^T of the cached T.
    """
    if gram.tt is not None:
        return 0.0
    if gram.actuators.scheme is Scheme.UNI:
        tops = (np.sort(s[parity::2])[-2:] for parity in (0, 1))
        return max((float(top[0] * top[1]) for top in tops if top.size == 2), default=0.0)
    T = gram.T
    tt_off = np.abs(T @ T.T)  # BLAS syrk: exactly symmetric
    np.fill_diagonal(tt_off, 0.0)
    return float((np.multiply.outer(s, s) * tt_off).max())


def build_projection(gram: CrossGram) -> ProjectionData:
    """Take the spectrum of Theta = G G^T, vartheta, and the operator norm 1/sqrt(vartheta).

    Theta = (s s^T) o (T T^T) with s > 0.  Where gram.tt is the diagonal of
    T T^T, Theta is diagonal: the spectrum is the sorted s^2 o tt, at most 2r
    as s^2 <= 2r/M and tt <= M, with no M x M array.  Otherwise it is the
    squared singular values of G (numpy's SVD), which keep a small vartheta
    accurate where forming G G^T would square the condition number.

    errors.check_direct_sum tests sigma_min/sigma_max of G, the one failure
    test of the cross-Gram: it also catches centers that placement accepts but
    that nearly coincide.
    """
    s = gram.a / gram.m
    if gram.tt is not None:
        w = np.sort(s * s * gram.tt)
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
        max_offdiag=_max_offdiag(gram, s),
    )


# The most entries a sweep stacks at once, unless one row alone has more.
SWEEP_CHUNK = 2048


def _chunks(Ms):
    """Ms, each checked, in runs of at most SWEEP_CHUNK entries."""
    chunk, size = [], 0
    for M in Ms:
        M = checked_count("actuator count", M)
        if chunk and size + M > SWEEP_CHUNK:
            yield chunk
            chunk, size = [], 0
        chunk.append(M)
        size += M
    if chunk:
        yield chunk


def _stacked_vartheta(bc, scheme, Ms, r, least_M):
    """For each M of Ms at one r, the smallest s^2 o tt, NaN where it is not
    build_projection's vartheta: an M below least_M, a row scale that
    overflows or a failed direct sum."""
    starts, row_scale, a, m, tt = _factors(bc, scheme, Ms, r)
    with np.errstate(all="ignore"):  # NaN rows go row by row
        s = a / m
        w = s * s * tt
        lo, hi = np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)
        ok = np.isfinite(row_scale) & (np.sqrt(lo / hi) > SIGMA_RATIO_THRESHOLD)
        ok &= np.asarray(Ms) >= least_M
    lo[~ok] = np.nan
    return lo.tolist()


def sweep_rows(bc, scheme, L, Ms, r, centers=None) -> Iterator[tuple]:
    """(M, vartheta, op_norm, max_offdiag, failure) of each M in Ms at one r,
    in order, bit for bit those of place, assemble_cross_gram and
    build_projection.

    failure is the row's DirectSumFailureError, without a traceback, and the
    three numbers None, or None.  A chunk of at most SWEEP_CHUNK stacked
    entries, unless one row alone has more, is formed when the reader reaches
    it: for mxe and Dirichlet uni one array pass over it gives every row's
    vartheta.  A row that fails the direct sum, overflows or that placement
    may reject, and every row of other shapes, goes row by row.  A row's
    InvalidArgumentError, or MemoryError, is raised once the rows before it
    are yielded; that of a count that is not a positive integer, once the
    rows of the chunks before its own are.
    """
    stacked = (  # an L in this range keeps the products of place and build_basis normal
        centers is None and isinstance(r, float) and 0.0 < r < 1.0
        and isinstance(L, float) and 2.0**-256 <= L <= 2.0**256 and _closed_form(bc, scheme)
    )
    least = uni_min_count(r) if stacked and scheme is Scheme.UNI else 1
    for chunk in _chunks(Ms):
        if stacked:
            varthetas = _stacked_vartheta(bc, scheme, chunk, r, least)
        else:
            varthetas = [math.nan] * len(chunk)
        for M, vartheta in zip(chunk, varthetas):
            if not math.isnan(vartheta):
                yield M, vartheta, vartheta**-0.5, 0.0, None
                continue
            try:
                data = build_projection(assemble_cross_gram(bc, place(scheme, L, M, r, centers)))
            except DirectSumFailureError as exc:
                # its traceback would keep the row's frames, and their M x M arrays, alive
                yield M, None, None, None, exc.with_traceback(None)
                continue
            yield M, data.vartheta, data.op_norm, data.max_offdiag, None


def _sinc2(r: float, theta):
    """r (sin(theta)/theta)^2, theta > 0: every closed-form eigenvalue of Theta.

    The square is a product, as numpy forms an array's: a numpy scalar's
    ** 2 calls libm pow, which can miss the exact square by an ulp.
    """
    q = np.sin(theta) / theta
    return r * (q * q)


def analytic_vartheta(bc: BoundaryCondition, scheme: Scheme, M: int, r: float) -> float | None:
    """Closed-form smallest eigenvalue of Theta, where one is known.

    Covered: the pairs of _closed_form.  None elsewhere, where callers fall
    back to the numeric spectrum; a uni M below r/(1-r), which placement
    rejects, raises under either condition.  With
    delta = r pi/(2M) it is the term of analytic_theta_spectrum at i = M-1 for
    mxe (the extra eigenvalue at M = 1) and at i = M for uni.
    """
    check_member(BoundaryCondition, bc)
    check_member(Scheme, scheme)
    checked_fraction(r)
    M = checked_count("actuator count", M)
    if scheme is Scheme.UNI:
        check_uni_count(M, r)
    values = analytic_varthetas(bc, scheme, [M], r)
    return None if values is None else values[0]


def analytic_varthetas(bc: BoundaryCondition, scheme: Scheme, Ms, r: float) -> list | None:
    """analytic_vartheta at each count of Ms, by one array pass.

    The counts are ones analytic_vartheta accepts at r, as those of a sweep
    that placed a row at r are, and only r is checked again.  The one closed
    form of the module: analytic_vartheta is this at Ms = [M].
    """
    limit, M = vartheta_limit(r), np.asarray(Ms)
    if not _closed_form(bc, scheme):
        return None
    if scheme is Scheme.UNI:
        return ((M + 1) / M * limit).tolist()
    with np.errstate(all="ignore"):  # theta = 0 at M = 1 is set below
        values = _sinc2(r, (M - 1) * r * math.pi / (2 * M))
    values[M == 1] = r if bc is BoundaryCondition.NEUMANN else 2.0 * limit
    return values.tolist()


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


def _check_margin_inputs(nu: float, a_bound: float) -> None:
    checked_positive("diffusion", nu)
    if not (a_bound >= 0.0 and math.isfinite(a_bound)):
        raise InvalidArgumentError(f"a_bound must be nonnegative and finite, got {a_bound}")


def check_sufficient_condition(
    nu: float, bc: BoundaryCondition, M: int, op_norm: float, a_bound: float, L: float = math.pi
) -> SufficientConditionReport:
    """Test the stabilisability margin nu*alpha_{M+1} > (6 + 4||P||^2) * a_bound^2.

    a_bound is the caller's bound on the reaction operator norm (the sup of
    |a| is a conservative choice); margin is lhs - rhs.  Both sides are float
    products, not powers, so an overflow raises InvalidArgumentError.
    """
    _check_margin_inputs(nu, a_bound)
    M, op_norm = checked_count("actuator count", M), checked_positive("operator norm", op_norm)
    alpha_next = float(eigenvalues(bc, L, M + 1))
    margin = nu * alpha_next - (6.0 + 4.0 * op_norm * op_norm) * (a_bound * a_bound)
    if not math.isfinite(margin):
        raise InvalidArgumentError(f"the margin test overflows at nu={nu:g}, a_bound={a_bound:g}")
    return SufficientConditionReport(
        M=M, alpha_next=alpha_next, op_norm=op_norm, satisfied=margin > 0.0, margin=margin
    )


def closed_form_minimal_M(
    nu: float, bc: BoundaryCondition, scheme: Scheme, r: float, a_bound: float, L: float = math.pi
) -> int | None:
    """The least M, at least uni_min_count(r) for uni, passing the margin test at
    op_norm_limit(r), or None where Theta has no closed form: k = M + 1 (Dirichlet)
    or M is the least above X = (L/pi) sqrt((6 + 4||P||^2)/nu) a_bound.  Near an
    integer X the inverse and the float test may round to different counts."""
    check_member(BoundaryCondition, bc)
    check_member(Scheme, scheme)
    _check_margin_inputs(nu, a_bound)
    L, norm = checked_positive("interval length", L), op_norm_limit(r)
    if not _closed_form(bc, scheme):
        return None
    X = (L / math.pi) * math.sqrt((6.0 + 4.0 * norm**2) / nu) * a_bound
    if not math.isfinite(X):
        raise InvalidArgumentError("L, nu and a_bound overflow the closed-form count")
    least = uni_min_count(r) if scheme is Scheme.UNI else 1
    return max(least, math.floor(X) + (bc is BoundaryCondition.NEUMANN))
