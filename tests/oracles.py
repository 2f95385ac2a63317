"""Reference computations that only the tests use."""

import math

import numpy as np

from oblique_stab.actuators import Scheme, place, uni_min_count
from oblique_stab.errors import DirectSumFailureError
from oblique_stab.projection import (
    _actuator_family,
    _expansion,
    _inner_products,
    analytic_vartheta,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    closed_form_minimal_M,
    op_norm_limit,
    vartheta_limit,
)
from oblique_stab.quadrature import panel_nodes_weights
from oblique_stab.spectral import BoundaryCondition, build_basis, eigenfunctions

# Theta counts as diagonal when no off-diagonal entry exceeds this fraction
# of its largest diagonal entry.
DIAG_RTOL = 1e-10


def cosine_sum(aset, m: int) -> float:
    """Sum over actuators of cos(m * c_k), centers mapped onto (0, pi).

    For the mxe placement this vanishes for every 1 <= m <= 2M - 1; for uni
    it equals 0 for odd m and -1 for even m (and M at m = 0 for any set).
    """
    if int(m) != m or m < 0:
        raise ValueError(f"frequency must be a nonnegative integer, got {m}")
    return float(np.sum(np.cos(m * (aset.centers * (math.pi / aset.L)))))


def exact_angle_trig_table(bc, scheme, M: int) -> np.ndarray:
    """Trig factor T of the mxe or uni cross-Gram at L = pi, gathered from one
    table of sin(pi p / (2d)), p = 0..4d-1, filled from one quadrant.

    T[i, j] = sin(m_i c_j) (Dirichlet, m = 1..M) or cos(m_i c_j) (Neumann,
    m = 0..M-1) with m c_j = pi m n_j / d (n_j = 2j - 1 and d = 2M for mxe,
    n_j = j and d = M + 1 for uni); mirrored angles give equal or opposite
    values bit for bit.
    """
    dirichlet = bc is BoundaryCondition.DIRICHLET
    m = np.arange(1, M + 1) if dirichlet else np.arange(M)
    j = np.arange(1, M + 1)
    n, d = (2 * j - 1, 2 * M) if scheme is Scheme.MXE else (j, M + 1)
    x = np.pi * np.arange(d + 1) / (2 * d)
    quadrant = np.where(np.arange(d + 1) <= d // 2, np.sin(x), np.cos(x[::-1]))
    half = np.concatenate((quadrant, quadrant[-2:0:-1]))
    table = np.concatenate((half, -half))
    p = np.multiply.outer(2 * m, n) + (0 if dirichlet else d)
    return table[p - 4 * d * (p // (4 * d))]


def eval_eigenfunction(basis, i: int, x):
    """Closed-form value of the single eigenfunction e_i at x (scalar or array).

    Written out per index, apart from the family evaluator
    spectral.eigenfunctions, so the two can be compared.
    """
    if int(i) != i or not 1 <= i <= basis.M:
        raise ValueError(f"eigenfunction index must lie in 1..{basis.M}, got {i}")
    arr = np.asarray(x, dtype=float)
    L = basis.L
    if basis.bc is BoundaryCondition.DIRICHLET:
        out = math.sqrt(2.0 / L) * np.sin(i * math.pi * arr / L)
    else:
        amp = math.sqrt(1.0 / L) if i == 1 else math.sqrt(2.0 / L)
        out = amp * np.cos((i - 1) * math.pi * arr / L)
    return float(out) if np.ndim(x) == 0 else out


def apply_adjoint_projection(data, f):
    """The adjoint projection, onto the eigenspace along the actuator complement.

    The adjoint of P (onto U_M along E_M-perp) is the oblique projection onto
    E_M along U_M-perp; its coefficients beta in the eigenbasis solve the
    transposed Gram system G^T beta = [(u_j, f)].  Returns beta and an
    evaluator of sum_i beta_i e_i.
    """
    rhs = _inner_products(data, _actuator_family(data), f)
    return _expansion(
        "adjoint_coefficients", data.gram.entries.T, rhs,
        lambda x: eigenfunctions(data.gram.basis, x),
    )


def trig_gram(gram) -> np.ndarray:
    """T T^T of the cross-Gram's trig factor as an M x M array.

    The diagonal matrix of gram.tt where the cross-Gram keeps it (mxe,
    Dirichlet uni), the BLAS product of gram.T for con and custom, and for
    Neumann uni the closed form from the exact sums C(p) = sum_j cos(pi p j /
    (M + 1)), M at p = 0, -1 at even and 0 at odd p > 0: M at (0, 0),
    (M - 1)/2 elsewhere on the diagonal, -1 between distinct m_i, m_k of equal
    parity and 0 elsewhere.
    """
    if gram.tt is not None:
        return np.diag(gram.tt)
    if gram.actuators.scheme is not Scheme.UNI:
        return gram.T @ gram.T.T
    M = gram.actuators.M
    tt = np.add.outer(np.arange(M), np.arange(M)) % 2 - 1.0  # -1 where m_i + m_k is even
    np.fill_diagonal(tt, (M - 1) / 2)
    tt[0, 0] = M
    return tt


def theta(gram) -> np.ndarray:
    """Theta = G G^T formed from the cross-Gram's factors as (s s^T) o (T T^T)
    with s = a / m > 0; exactly symmetric, since T T^T is."""
    s = gram.a / gram.m
    return np.multiply.outer(s, s) * trig_gram(gram)


def check_theta_diagonal(data) -> tuple[bool, float]:
    """Whether Theta is diagonal to within DIAG_RTOL of its largest diagonal
    entry, and its largest off-diagonal magnitude."""
    max_diag = float(np.max(np.abs(np.diag(theta(data.gram)))))
    return data.max_offdiag <= DIAG_RTOL * max_diag, data.max_offdiag


def eigs_lines(bc, scheme, L, Ms, rs, centers=None):
    """The lines of an `eigs` file after its `# config:` line, and its failure
    message or None, row by row: place, assemble_cross_gram, build_projection,
    analytic_vartheta, vartheta_limit and one %.17g per cell.

    Rows are formed in M-major order, so an InvalidArgumentError is that of
    the first failing row in that order, and listed by (r, M).
    """
    pairs = [(M, r) for M in Ms for r in rs]
    if scheme is Scheme.UNI:
        pairs = [(M, r) for M, r in pairs if M >= uni_min_count(r)] or pairs[:1]
    rows = []
    for M, r in pairs:
        aset = place(scheme, L, M, r, centers=centers)
        try:
            data = build_projection(assemble_cross_gram(bc, aset))
        except DirectSumFailureError as exc:
            rows.append((M, r, (None,) * 5, "direct_sum_failure", f"M={M} r={'%.12g' % r}: {exc}"))
            continue
        ana = analytic_vartheta(bc, scheme, M, r)
        cells = (data.vartheta, ana, data.op_norm, vartheta_limit(r), data.max_offdiag)
        rows.append((M, r, cells, "ok", None))
    rows.sort(key=lambda row: (row[1], row[0]))

    lines = [
        "M,r,vartheta_numeric,vartheta_analytic,op_norm,vartheta_limit,max_offdiag_theta,status"
    ]
    by_r = {}
    for M, r, cells, status, _ in rows:
        if status == "ok":
            by_r.setdefault(r, {})[M] = cells[0]
        text = ",".join("" if x is None else "%.17g" % x for x in cells)
        lines.append(f"{M},{'%.17g' % r},{text},{status}")
    for r in sorted(by_r):
        table = by_r[r]
        for lo, hi in ((10, 20), (50, 60), (110, 120)):
            if lo in table and hi in table:
                slope = (table[hi] - table[lo]) / (hi - lo)
                lines.append(f"# slope r={'%.12g' % r} M[{lo},{hi}]: {'%.17g' % slope}")
    failures = [row[4] for row in rows if row[4] is not None]
    if failures:
        failure = f"{len(failures)} of {len(rows)} sweep rows failed, the first at {failures[0]}"
        return lines, failure
    return lines, None


def suffcond_lines(bc, scheme, L, r, nu, a_bound, max_M):
    """The lines of a `suffcond` file after its `# config:` line, and its
    failure message, with which the run exits 3, or None, by a row-by-row
    search: place, assemble_cross_gram, build_projection and
    check_sufficient_condition at each M from the least that placement
    accepts, up to the first satisfied one.  A failed M is not satisfied,
    and the first one is named in a comment.
    """
    found = failure = None
    for M in range(uni_min_count(r) if scheme is Scheme.UNI else 1, max_M + 1):
        aset = place(scheme, L, M, r)
        try:
            data = build_projection(assemble_cross_gram(bc, aset))
        except DirectSumFailureError as exc:
            failure = failure or f"M={M}: {exc}"
            continue
        report = check_sufficient_condition(nu, bc, M, data.op_norm, a_bound, L)
        if report.satisfied:
            found = report
            break
    count = closed_form_minimal_M(nu, bc, scheme, r, a_bound, L)
    if found is None:
        lines = ["swept_minimal_M=-1", f"# margin test not satisfied for any M <= {max_M}"]
    else:
        lines = [
            f"swept_minimal_M={found.M}",
            f"op_norm_at_minimal_M={'%.17g' % found.op_norm}",
            f"alpha_next={'%.17g' % found.alpha_next}",
            f"margin={'%.17g' % found.margin}",
        ]
    lines.append(f"closed_form_minimal_M={'' if count is None else count}")
    lines.append(f"op_norm_limit={'%.17g' % op_norm_limit(r)}")
    if failure:
        lines.append(f"# first failed {failure}")
        return lines, f"the sweep failed first at {failure}"
    return lines, None


def tridiag_matvec(diag, off, X):
    """T X for the symmetric tridiagonal T = (diag, off) with any entries, such
    as a reaction matrix; X is (n,) or (n, B), multiplied column by column."""
    if X.ndim == 2:
        diag, off = diag[:, None], off[:, None]
    out = diag * X
    out[:-1] += off * X[1:]
    out[1:] += off * X[:-1]
    return out


def reaction_matrix(grid, a_nodes):
    """Symmetrised reaction matrix (M Diag(a) + Diag(a) M) / 2 for nodal a,
    as a (diag, off) pair; R y = (a o M y + M (a o y)) / 2."""
    a = np.asarray(a_nodes, dtype=float)
    if a.shape != (grid.N,):
        raise ValueError(f"reaction values must have shape ({grid.N},), got {a.shape}")
    mdiag, moff = grid.mass
    return mdiag * a, moff * 0.5 * (a[:-1] + a[1:])


def nodal_l2_norm(grid, y) -> float:
    """L2(0, L) norm of the hat interpolant with nodal values y."""
    y = np.asarray(y, dtype=float)
    return math.sqrt(max(float(np.add.reduce(y * tridiag_matvec(*grid.mass, y))), 0.0))


def nodal_samples(op):
    """U and E of the feedback operator op: the plain indicators of
    op.actuators (0 at the support endpoints) and the first M eigenfunctions
    of op.grid.bc at the nodes, each N x M."""
    x, aset = op.grid.nodes[:, None], op.actuators
    c, delta = aset.centers, aset.half_width
    U = ((x > c - delta) & (x < c + delta)).astype(float)
    basis = build_basis(op.grid.bc, op.grid.L, aset.M)
    E = np.column_stack([eval_eigenfunction(basis, i, x[:, 0]) for i in range(1, aset.M + 1)])
    return U, E


def eigh_projection_norm(op) -> float:
    """Discrete projection norm from the symmetric square root of E^T M E.

    With G_E = E^T M E, N_U = U^T M U and A = E^T M U the squared norm is
    the largest eigenvalue of G_E^{1/2} A^{-T} N_U A^{-1} G_E^{1/2}, the
    square root taken from eigh of G_E.
    """
    U, E = nodal_samples(op)
    MU = tridiag_matvec(*op.grid.mass, U)
    G_E = E.T @ tridiag_matvec(*op.grid.mass, E)
    N_U = U.T @ MU
    w, V = np.linalg.eigh(0.5 * (G_E + G_E.T))
    root = (V * np.sqrt(w)) @ V.T
    # A summed in the order of feedback_matrices: the tests compare the two
    # norm formulas, and on an ill-conditioned A a BLAS-summed one moves the
    # norm by more than they allow
    X = np.linalg.solve(np.einsum("ni,nj->ij", E, MU), root)
    S = X.T @ N_U @ X
    return float(np.sqrt(np.linalg.eigvalsh(0.5 * (S + S.T))[-1]))


def project_nodal(op, z):
    """Nodal values of the discrete oblique projection: U P M z."""
    z = np.asarray(z, dtype=float)
    return nodal_samples(op)[0] @ (op.P @ tridiag_matvec(*op.grid.mass, z))


def feedback_apply(op, nu: float, lam: float, R, y):
    """Nodal feedback force f = -U P (-nu S y - R y + lam M y).

    This is the force before multiplication by the mass matrix; the closed
    loop adds M f to the reaction part -R y of the external force.
    """
    y, grid = np.asarray(y, dtype=float), op.grid
    resid = (
        -nu * tridiag_matvec(*grid.stiffness, y)
        - tridiag_matvec(*R, y)
        + lam * tridiag_matvec(*grid.mass, y)
    )
    return -(nodal_samples(op)[0] @ (op.P @ resid))


def low_mode_moments(op, states):
    """Moments m_n = E^T M y_n of the nodal states y_n (the rows of states),
    one row per state; only the interior rows of E and M y enter under
    Dirichlet conditions, the rows the stepper solves for."""
    grid = op.grid
    cut = slice(1, -1) if grid.bc is BoundaryCondition.DIRICHLET else slice(None)
    My = tridiag_matvec(*grid.mass, np.asarray(states, dtype=float).T)
    return (nodal_samples(op)[1][cut].T @ My[cut]).T


def low_mode_step(op, nu: float, lam: float, k: float, m_prev, m):
    """The moments one step after m, by the closed loop's low-mode law.

    The sampled eigenfunctions are eigenvectors of the uniform grid's
    matrices, E^T S = diag(Lambda) E^T M with Lambda = sigma / mu.  Applying
    E^T to the force q = R y + M [U] P (lambda M - nu S - R) y while the
    feedback acts gives E^T q = g m with g = lambda - nu Lambda, whatever the
    reaction, since A P = E^T.  The Crank-Nicolson step with the extrapolated
    force then reads
    (2 + k nu Lambda) m_{n+1} = (2 - k nu Lambda - 3 k g) m_n + k g m_{n-1}.
    """
    grid = op.grid
    j = np.arange(1, op.actuators.M + 1)
    if grid.bc is BoundaryCondition.NEUMANN:
        j = j - 1  # cos((i - 1) pi x / L) is the discrete cosine of index i - 1
    s = np.sin(j * (0.5 * math.pi / (grid.N - 1))) ** 2
    Lam = (4.0 / grid.h) * s / (grid.h - (2.0 * grid.h / 3.0) * s)
    g = lam - nu * Lam
    return ((2.0 - k * nu * Lam - 3.0 * k * g) * m + k * g * m_prev) / (2.0 + k * nu * Lam)


def longdouble_closed_loop(grid, nu: float, a, y0, T: float, k: float, feedback=None):
    """Norms of the closed loop with the static reaction a, in numpy.longdouble.

    a is one value or the values at the nodes.  The recurrence is the nodal
    Crank-Nicolson step of run_closed_loop,
    (2 M + k nu S) z = 4 M y - k (3 q - q_prev) and y_new = z - y, with
    R y = (a o M y + M (a o y)) / 2, q = R y + M U P (K0 y - R y) while the
    feedback acts and q = R y otherwise, K0 = lambda M - nu S, and the ghost
    value q_prev = q on the first step.  M and S are formed from grid.h, and
    each step solves the system (its interior block under Dirichlet
    conditions) by the Thomas algorithm.  On x86-64 Linux longdouble is the
    80-bit extended format, with 11 more bits than float64.
    """
    ld = np.longdouble
    h, k, nu, n = ld(grid.h), ld(k), ld(nu), grid.N
    a = np.asarray(a, dtype=float).astype(ld)

    def tri(inner, end, off):
        d = np.full(n, inner, dtype=ld)
        d[0] = d[-1] = end
        return d, np.full(n - 1, off, dtype=ld)

    mass, stiff = tri(2 * h / 3, h / 3, h / 6), tri(2 / h, 1 / h, -1 / h)
    plus = tuple(2 * m + k * nu * s for m, s in zip(mass, stiff))
    dirichlet = grid.bc is BoundaryCondition.DIRICHLET
    cut = slice(1, -1) if dirichlet else slice(None)
    d, e = plus[0][cut], plus[1][cut]
    piv = d.copy()
    for i in range(1, d.size):
        piv[i] -= e[i - 1] ** 2 / piv[i - 1]

    def thomas(b):
        x = b.copy()
        for i in range(1, x.size):
            x[i] -= e[i - 1] / piv[i - 1] * x[i - 1]
        x[-1] /= piv[-1]
        for i in range(x.size - 2, -1, -1):
            x[i] = (x[i] - e[i] * x[i + 1]) / piv[i]
        return x

    if feedback is not None:
        lam = ld(feedback.lam)
        K0 = tuple(lam * m - nu * s for m, s in zip(mass, stiff))
        P = feedback.operator.P.astype(ld)
        MU = tridiag_matvec(*mass, nodal_samples(feedback.operator)[0].astype(ld))
    y = np.asarray(y0, dtype=float).astype(ld)
    n_steps = int(math.floor(T / float(k) + 1e-9))
    norms = np.empty(n_steps + 1, dtype=ld)
    q_prev = None
    for j in range(n_steps + 1):
        My = tridiag_matvec(*mass, y)
        norms[j] = np.sqrt(y @ My)
        if j == n_steps:
            return norms
        q = (a * My + tridiag_matvec(*mass, a * y)) / 2
        if feedback is not None and feedback.active(j * float(k)):
            q += MU @ (P @ (tridiag_matvec(*K0, y) - q))
        rhs = 4 * My - k * (3 * q - (q if q_prev is None else q_prev))
        q_prev = q
        if dirichlet:
            # z = y on the boundary, where y is nonzero only in y0
            rhs[1] -= plus[1][0] * y[0]
            rhs[-2] -= plus[1][-1] * y[-1]
        y_new = np.zeros(n, dtype=ld)
        y_new[cut] = thomas(rhs[cut]) - y[cut]
        y = y_new


def linspace_panel_edges(a: float, b: float, n_panels: int, breakpoints=()) -> np.ndarray:
    """Panel edges of quadrature.panel_nodes_weights built one piece at a time.

    Each piece between consecutive cuts gets max(1, ceil(n_panels * width /
    (b - a))) equal panels from its own np.linspace call.
    """
    cuts = [a, *sorted(p for p in set(breakpoints) if a < p < b), b]
    pieces = [
        np.linspace(lo, hi, max(1, math.ceil(n_panels * (hi - lo) / (b - a))) + 1)[:-1]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    return np.append(np.concatenate(pieces), b)


def integrate(f, a: float, b: float, *, n_panels: int = 8, breakpoints=()) -> float:
    """Integrate a vectorized callable over [a, b] on the composite rule of
    quadrature.panel_nodes_weights."""
    x, w = panel_nodes_weights(a, b, n_panels, breakpoints)
    return float(w @ np.asarray(f(x), dtype=float))


def minimal_M_by_margin_test(nu: float, bc, r: float, a_bound: float, L: float, least: int) -> int:
    """The least M >= least whose check_sufficient_condition at op_norm_limit(r)
    holds, by doubling and bisection: the float margin never falls as M grows."""
    norm = op_norm_limit(r)

    def holds(M):
        return check_sufficient_condition(nu, bc, M, norm, a_bound, L).satisfied

    if holds(least):
        return least
    lo, hi = least, 2 * least
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi
