"""Hat-function finite elements and the explicit oblique-feedback closed loop.

Space discretization of

    d/dt y = nu y_xx - a(x, t) y - P(-nu y_xx - a y + lambda y),    y(0) = y0,

on (0, L) with homogeneous Dirichlet or Neumann boundary conditions, where P
is the oblique projection onto the actuator span along the complement of the
first M eigenfunctions.  Piecewise-linear elements on a uniform grid give the
weak form

    M dy/dt = -nu S y - R(t) y - M [U] P_M (-nu S - R(t) + lambda M) y,

with mass matrix M, stiffness matrix S, symmetrised reaction matrix
R = (M Diag(a) + Diag(a) M)/2, nodal actuator samples [U], and the discrete
projection coefficient map P_M = A^{-1} [E]^T built from the coupling matrix
A = [E]^T M [U].

Time stepping is Crank-Nicolson with the reaction and feedback treated as an
external force h(y) = -R y + M f.  The implicit force value is replaced by
the linear extrapolation 2 h(y_prev) - h(y_prev2), so each step solves one
symmetric positive definite tridiagonal system with a fixed matrix
2 M + k nu S (its interior block under Dirichlet conditions), factored once
by LAPACK dpttrf and solved by dpttrs.  Both boundary conditions are
homogeneous, so no boundary data enter a step; only the boundary values of
y0, which need not vanish, enter the first Dirichlet step.

One FemGrid from make_grid(bc, L, N) holds the nodes, the mass and stiffness
matrices and the boundary condition.  The feedback operator keeps the grid it
was built on, and the time stepper rejects an operator from another grid.

Tridiagonal matrices are (diag, off) pairs, and one product, _stencil_times,
forms every product with M, S and K0 = lambda M - nu S, (M [U])^T row by row
included: a convolution with the three-point stencil, then the two edge rows.
The feedback operator holds P_M and (M [U])^T (M x N, contiguous), and a run
reads the feedback through P_M alone: k c = P_M (k K0 y - q) with q = k R y,
so no M x N read is formed.  Since (2 M + k nu S) + (2 M - k nu S) = 4 M, a
step solves for z = y_new + y and needs no product with 2 M - k nu S.  No R
is assembled: a run stepped on the nodes forms R y = (a o M y + M (a o y))/2
from nodal values a taken once for a static reaction and drawn from
ReactionField.rows at every step otherwise, and each state's mass product
M y serves its norm, the next right-hand side and R y.  A step costs two
mass products (M y, M (a o y)); about ten elementwise passes, with the force
q scaled by k once and 4 M y + k q_prev - 3 k q formed in place; K0 y and
the P_M and (M [U])^T products while the feedback acts; and one dpttrs
solve, the largest share left.  The oscillating reaction's row costs one
complex product per node instead of a cosine (see oscillating_reaction).

A static reaction with equal values at every node gives R = a M, and on the
uniform grid M and S share their eigenvectors V: discrete sines on the
Dirichlet interior, discrete cosines (with D = diag(1/2, 1, .., 1, 1/2))
under Neumann conditions, M V = D V diag(mu) and S V = D V diag(sigma).
Every run takes step 0 on the nodes.  Such a run stops there, before it
factors anything, and _step_eigenbasis steps the coefficients u = V^{-1} y
of the system from _eigen_system: u_{j+1} = A1 o u_j + A2 o u_{j-1} - g_j Bt
with diagonal A1, A2, the thin Bt ~ V^{-1} D^{-1} M [U] (M x n) and the
read g_j = 3 c_j - c_{j-1}, c_j = Cl u_j[:M] while the feedback acts at
step j and 0 otherwise; step 1 finds c_0 in step 0's force.  With
K = K0 - a M, K V = D V diag(kappa), kappa = (lambda - a) mu - nu sigma.
The sampled eigenfunctions are V[:, :M] up to a scale c, so with
W = (M [U])^T V the coupling is A = diag(c) W[:, :M]^T; V^T D V = diag(omega)
gives P_M K V = W[:, :M]^{-T} [diag(omega o kappa)[:M] 0].  So Cl is one
M x M solve, and the first M coefficients form a closed system:
z_j = (u_j[:M], u_{j-1}[:M]) obeys z_{j+1} = F z_j with one 2M x 2M matrix
F per pair (on_j, on_{j-1}), and the higher ones are a diagonal recurrence
driven by them.  From step 2 on, blocks of at most BLOCK_STEPS steps with
one pair read their forces by one product of z with a cached stack of
Q F^i, g_j = Q z_j (zero for a free pair; row by row where the powers of F
overflow before the state does), spread them by one M x n product, and
cost four elementwise calls on n coefficients a step.  Nothing multiplies
by M, solves or transforms per step: a real FFT per row maps MUt to W, and
y0, step 0's right-hand side and force to the eigenbasis once, snapshots back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .actuators import ActuatorSet, indicators
from .errors import InvalidArgumentError, NumericalFailureError, check_direct_sum
from .linalg import tridiag_factor, tridiag_solve
from .spectral import BoundaryCondition, build_basis, eigenfunctions


@dataclass(frozen=True)
class FemGrid:
    """Hat-function discretisation of (0, L) under boundary condition bc.

    Uniform nodes x_i = (i-1) h, i = 1..N, with h = L/(N-1), and the exact
    mass and stiffness matrices of the hat basis on all N nodes, each a
    (diag, off) pair; no quadrature is involved:

    mass:      diag (h/3, 2h/3, ..., 2h/3, h/3), off-diagonal h/6
    stiffness: diag (1/h, 2/h, ..., 2/h, 1/h), off-diagonal -1/h
    """

    bc: BoundaryCondition
    L: float
    N: int
    h: float
    nodes: np.ndarray
    mass: tuple[np.ndarray, np.ndarray]
    stiffness: tuple[np.ndarray, np.ndarray]


def make_grid(bc: BoundaryCondition, L: float, N: int) -> FemGrid:
    if not (L > 0.0 and math.isfinite(L)):
        raise InvalidArgumentError(f"domain length must be positive and finite, got {L}")
    if int(N) != N or N < 3:
        raise InvalidArgumentError(f"node count must be an integer >= 3, got {N}")
    N = int(N)
    h = L / (N - 1)
    try:
        nodes = np.linspace(0.0, L, N)
    except MemoryError:
        raise InvalidArgumentError(f"{N} nodes need more memory than is available") from None
    mdiag = np.full(N, 2.0 * h / 3.0)
    mdiag[0] = mdiag[-1] = h / 3.0
    moff = np.full(N - 1, h / 6.0)
    sdiag = np.full(N, 2.0 / h)
    sdiag[0] = sdiag[-1] = 1.0 / h
    soff = np.full(N - 1, -1.0 / h)
    for arr in (nodes, mdiag, moff, sdiag, soff):
        arr.flags.writeable = False
    return FemGrid(
        bc=bc, L=L, N=N, h=h, nodes=nodes, mass=(mdiag, moff), stiffness=(sdiag, soff)
    )


def _stencil_times(T: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """T x for a grid matrix T = (diag, off), constant inside, and each row of a
    (B, N) x: one convolution with the stencil (off, diag, off), then the edge rows."""
    if x.ndim == 2:  # rows fill one array; a stacked list of rows stays on the malloc heap
        return np.apply_along_axis(lambda row: _stencil_times(T, row), 1, x)
    diag, off = T
    Tx = np.convolve(x, (off[0], diag[1], off[0]), "same")
    Tx[0] = diag[0] * x[0] + off[0] * x[1]
    Tx[-1] = diag[-1] * x[-1] + off[-1] * x[-2]
    return Tx


# A rotated reaction stream re-evaluates cos and sin at every this many steps.
ROTATION_ANCHOR_STEPS = 64


@dataclass(frozen=True)
class ReactionField:
    """Reaction coefficient a(x, t) sampled at grid nodes.

    values(nodes, t) returns the nodal samples at any time; time_dependent=False
    lets the closed-loop driver evaluate them once instead of at every step.
    rows(nodes, times) yields the samples at each of the uniform times
    times[j] = times[0] + j dt in turn: values(nodes, t) unless the field
    supplies a cheaper stream, which agrees with values to rounding.  A row
    is valid until the next one is drawn.
    """

    values: Callable[[np.ndarray, float], np.ndarray]
    time_dependent: bool
    stream: Callable[[np.ndarray, np.ndarray], Iterator[np.ndarray]] | None = None

    def rows(self, nodes: np.ndarray, times: np.ndarray) -> Iterator[np.ndarray]:
        if self.stream is not None:
            return self.stream(nodes, times)
        return (self.values(nodes, t) for t in times)


def constant_reaction(value: float) -> ReactionField:
    value = float(value)
    return ReactionField(
        values=lambda x, t: np.full_like(np.asarray(x, dtype=float), value),
        time_dependent=False,
    )


def oscillating_reaction(nu: float, L: float) -> ReactionField:
    """Space- and time-dependent reaction -35 nu (pi/L)^2 - 2 |cos(4t) cos(xt) x|.

    Strictly negative everywhere, so the uncontrolled dynamics is unstable
    whenever 35 nu (pi/L)^2 exceeds the first diffusion eigenvalue.

    Its rows turn w = |x| e^{ixt} by the fixed angle x dt from one time to
    the next, one complex product per node instead of a cosine, and yield
    base - 2 |cos 4t| |Re w|.  Every ROTATION_ANCHOR_STEPS steps w is
    re-anchored from cos and sin, and that row is values(x, t) exactly.
    """
    if not (nu > 0.0 and math.isfinite(nu)):
        raise InvalidArgumentError(f"diffusion must be positive and finite, got {nu}")
    base = -35.0 * nu * float(build_basis(BoundaryCondition.DIRICHLET, L, 1).alphas[0])

    def values(x: np.ndarray, t: float) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = arr * t
        np.cos(out, out=out)
        out *= np.cos(4.0 * t)
        out *= arr
        np.abs(out, out=out)
        out *= -2.0
        out += base
        return out

    def stream(x: np.ndarray, times: np.ndarray) -> Iterator[np.ndarray]:
        arr = np.asarray(x, dtype=float)
        angle = arr * (times[1] - times[0] if len(times) > 1 else 0.0)
        turn = np.empty(arr.shape, dtype=complex)
        np.cos(angle, out=turn.real)
        np.sin(angle, out=turn.imag)
        w = np.empty_like(turn)
        row = np.empty_like(arr)
        for j, t in enumerate(times):
            if j % ROTATION_ANCHOR_STEPS:
                w *= turn
                np.abs(w.real, out=row)
                row *= -2.0 * abs(np.cos(4.0 * t))
                row += base
                yield row
            else:
                np.multiply(arr, t, out=angle)
                np.cos(angle, out=w.real)
                np.sin(angle, out=w.imag)
                w *= np.abs(arr)
                yield values(arr, t)

    return ReactionField(values=values, time_dependent=True, stream=stream)


def tabulated_reaction(
    t_values: np.ndarray, x_values: np.ndarray, table: np.ndarray
) -> ReactionField:
    """Reaction given as a table of nodal values, bilinearly interpolated.

    table[i, j] = a(t_values[i], x_values[j]); values are clamped outside the
    tabulated range in both variables.  A single time row gives a
    time-independent field.
    """
    tv = np.atleast_1d(np.asarray(t_values, dtype=float))
    xv = np.asarray(x_values, dtype=float)
    tab = np.atleast_2d(np.asarray(table, dtype=float))
    if not all(np.isfinite(arr).all() for arr in (tv, xv, tab)):
        raise InvalidArgumentError("reaction table coordinates and entries must be finite")
    if xv.ndim != 1 or xv.size < 2 or np.any(np.diff(xv) <= 0.0):
        raise InvalidArgumentError(
            "reaction table needs >= 2 strictly increasing x coordinates"
        )
    if tv.ndim != 1 or tv.size < 1 or np.any(np.diff(tv) <= 0.0):
        raise InvalidArgumentError(
            "reaction table needs strictly increasing time values"
        )
    if tab.shape != (tv.size, xv.size):
        raise InvalidArgumentError(
            f"reaction table shape {tab.shape} does not match "
            f"({tv.size} times, {xv.size} x coordinates)"
        )

    def values(x: np.ndarray, t: float) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if tv.size == 1 or t <= tv[0]:
            row = tab[0]
        elif t >= tv[-1]:
            row = tab[-1]
        else:
            i = int(np.searchsorted(tv, t, side="right"))
            w = (t - tv[i - 1]) / (tv[i] - tv[i - 1])
            row = (1.0 - w) * tab[i - 1] + w * tab[i]
        return np.interp(arr, xv, row)

    return ReactionField(values=values, time_dependent=tv.size > 1)


@dataclass(frozen=True)
class FeedbackOperator:
    """Discrete oblique projection data on a fixed grid, as the closed loop reads it.

    grid:      the grid the operator was built on
    actuators: the actuators, sampled at the nodes as U, and the eigenfunctions as E
    P:         A^{-1} E^T (M x N) with A = E^T M U; the nodal projection of z is U P M z
    MUt:       (M U)^T (M x N, contiguous), the mass stencil applied to each row
               of U^T; nodal steps read by P and spread by MUt
    """

    grid: FemGrid
    actuators: ActuatorSet
    P: np.ndarray
    MUt: np.ndarray


def _samples(grid: FemGrid, aset: ActuatorSet) -> tuple[np.ndarray, ...]:
    """U and E (N x M), (M U)^T (M x N, contiguous) and A = E^T M U, from aset
    and grid.bc's eigenfunctions at the nodes."""
    U = indicators(aset, grid.nodes)
    E = eigenfunctions(build_basis(grid.bc, grid.L, aset.M), grid.nodes)
    MUt = _stencil_times(grid.mass, U.T)
    # einsum sums without BLAS, so A does not depend on the BLAS thread count.
    return U, E, MUt, np.einsum("ni,jn->ij", E, MUt)


def feedback_matrices(grid: FemGrid, aset: ActuatorSet) -> FeedbackOperator:
    """Sample actuators and the eigenfunctions of grid.bc on the grid, invert
    the coupling, and keep P and (M U)^T.

    errors.check_direct_sum tests sigma_min/sigma_max of the coupling matrix
    A = E^T M U, as build_projection tests the continuous cross-Gram.  The coupling
    fails it where the cross-Gram does, and also when an actuator support
    contains too few nodes; refining the mesh resolves the latter.
    """
    if abs(grid.L - aset.L) > 1e-12 * max(grid.L, aset.L):
        raise InvalidArgumentError(
            f"grid length {grid.L} and actuator domain length {aset.L} differ"
        )
    _, E, MUt, A = _samples(grid, aset)
    sv = np.linalg.svd(A, compute_uv=False)
    check_direct_sum(
        sv[-1] / sv[0] if sv[0] > 0 else 0.0,
        "the coupling matrix between sampled actuators and eigenfunctions",
        "refine the mesh so every actuator support contains interior nodes, "
        "or change the placement",
    )
    P = np.linalg.solve(A, E.T)
    for arr in (P, MUt):
        arr.flags.writeable = False
    return FeedbackOperator(grid=grid, actuators=aset, P=P, MUt=MUt)


def discrete_projection_norm(op: FeedbackOperator) -> float:
    """Operator norm of the discrete projection U A^{-1} E^T M in the mass
    inner product of op.grid, with U, E and A sampled again by _samples.

    With the Cholesky factors C C^T = E^T M E and L L^T = U^T M U the norm is
    the largest singular value of L^T A^{-1} C, whose squared singular values
    are the spectrum of A^{-T} (U^T M U) A^{-1} (E^T M E); this is exact for
    the discrete operator.  Raises NumericalFailureError when either Gram
    matrix is not positive definite.
    """
    U, E, MUt, A = _samples(op.grid, op.actuators)
    G_E = E.T @ _stencil_times(op.grid.mass, E.T).T
    try:
        C, L = np.linalg.cholesky(G_E), np.linalg.cholesky(U.T @ MUt.T)
    except np.linalg.LinAlgError:
        raise NumericalFailureError(
            "sampled eigenfunction or actuator Gram matrix is not positive definite"
        ) from None
    return float(np.linalg.norm(L.T @ np.linalg.solve(A, C), 2))


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback operator, shift lambda, and the interval where it is active.

    feed_on=None keeps the feedback on for the whole run; otherwise it acts
    for t0 <= t <= t1 (closed interval) and the free dynamics runs outside.
    """

    operator: FeedbackOperator
    lam: float = 1.0
    feed_on: tuple[float, float] | None = None

    def active(self, t: float | np.ndarray) -> bool | np.ndarray:
        """Whether the feedback acts at time t; elementwise for an array of times."""
        t0, t1 = (-math.inf, math.inf) if self.feed_on is None else self.feed_on
        return (t0 - 1e-9 <= t) & (t <= t1 + 1e-9)


@dataclass(frozen=True)
class ClosedLoopRun:
    """Time series produced by run_closed_loop.

    norms[j] is the L2 norm sqrt(y^T M y) at times[j]; feedback_on[j] records
    whether the feedback force was active when stepping from times[j].
    snapshots[s] is the state at the step nearest to snapshot_times[s], the
    earlier step on a tie; None when no snapshot was asked for.
    """

    times: np.ndarray
    norms: np.ndarray
    feedback_on: np.ndarray
    snapshot_times: tuple[float, ...]
    snapshots: np.ndarray | None


def _trig_sums(x: np.ndarray, dirichlet: bool) -> np.ndarray:
    """sum_i x_i sin(i theta_k) over i, k = 1..N-2 (Dirichlet; x holds the
    interior nodes), or sum_i x_i cos(i theta_k) over i, k = 0..N-1
    (Neumann), along the last axis, with theta_k = k pi / (N-1).

    One real FFT of length 2(N-1) of the odd or even extension of x / 2.
    """
    half = 0.5 * x
    if dirichlet:
        zero = np.zeros(x.shape[:-1] + (1,))
        ext = np.concatenate([zero, -half, zero, half[..., ::-1]], axis=-1)
        return np.ascontiguousarray(np.fft.rfft(ext)[..., 1:-1].imag)
    ext = np.concatenate([x[..., :1], half[..., 1:-1], x[..., -1:], half[..., -2:0:-1]], axis=-1)
    return np.ascontiguousarray(np.fft.rfft(ext).real)


@dataclass(frozen=True)
class _EigenSystem:
    """The eigenbasis system of the module docstring: pi_k = 2 mu + k nu sigma,
    ||y||^2 = sum wmu o u^2, Cl = W[:, :M]^{-T} diag(omega o kappa)[:M] (M x M) and
    Bt = W k / (omega o pi_k) (M x n), with M = 0 without feedback."""

    A1: np.ndarray
    A2: np.ndarray
    pi_k: np.ndarray
    omega: np.ndarray
    wmu: np.ndarray
    Cl: np.ndarray
    Bt: np.ndarray

    def low_block(self, on: bool, on_prev: bool) -> tuple[np.ndarray, np.ndarray]:
        """Q and F, g_j = Q z_j and z_{j+1} = F z_j, for (on_j, on_{j-1}) = (on, on_prev)."""
        M = len(self.Cl)
        Q = np.hstack([(3.0 * on) * self.Cl, -float(on_prev) * self.Cl])
        F = np.block([[np.diag(self.A1[:M]), np.diag(self.A2[:M])], [np.eye(M), np.zeros((M, M))]])
        F[:M] -= self.Bt[:, :M].T @ Q
        return Q, F


def _eigen_system(
    grid: FemGrid, nu: float, a: float, k: float, feedback: FeedbackConfig | None
) -> _EigenSystem:
    """The eigenbasis system of the reaction R = a M on grid with time step k, from
    the transform W = (M U)^T V of the operator's MUt alone; P_M is not read."""
    N, h = grid.N, grid.h
    dirichlet = grid.bc is BoundaryCondition.DIRICHLET
    inner = slice(1, -1) if dirichlet else slice(None)
    # M V = D V diag(mu), S V = D V diag(sigma), sigma = 4 s / h, and V^T D V = diag(omega)
    idx = np.arange(1, N - 1) if dirichlet else np.arange(N)
    s = np.sin(idx * (0.5 * math.pi / (N - 1))) ** 2
    mu = h - (2.0 * h / 3.0) * s
    pi_k = 2.0 * mu + k * nu * (4.0 / h) * s
    omega = np.full(idx.size, 0.5 * (N - 1))
    if not dirichlet:
        omega[[0, -1]] = N - 1.0
    Cl, Bt = np.zeros((0, 0)), np.zeros((0, idx.size))
    if feedback is not None:
        # P_M K V = W[:, :M]^{-T} [diag(omega o kappa)[:M] 0], kappa the eigenvalues of K
        W = _trig_sums(feedback.operator.MUt[:, inner], dirichlet)
        m = len(W)
        kappa = (feedback.lam - a) * mu[:m] - nu * (4.0 / h) * s[:m]
        Cl = np.linalg.solve(W[:, :m].T, np.diag(omega[:m] * kappa))
        Bt = W * (k / (omega * pi_k))
    ka = k * a
    A1, A2 = (4.0 - 3.0 * ka) * mu / pi_k - 1.0, ka * mu / pi_k
    return _EigenSystem(A1, A2, pi_k, omega, omega * mu, Cl, Bt)


# The eigenbasis stepper advances at most this many steps per block.
BLOCK_STEPS = 16


def _blocks(flags: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """(j0, steps) blocks that cover the steps start..stop-1, each at most
    BLOCK_STEPS long, over which the pair (flags[j], flags[j-1]) is constant."""
    cuts = {start, max(start, stop)}
    for c in (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist():
        cuts.update(x for x in (c, c + 1) if start < x < stop)
    cuts = sorted(cuts)
    for a, b in zip(cuts, cuts[1:]):
        for j0 in range(a, b, BLOCK_STEPS):
            yield j0, min(BLOCK_STEPS, b - j0)


def _step_eigenbasis(
    system: _EigenSystem, flags: np.ndarray, u1: np.ndarray, hist: np.ndarray, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, rows) for the states j, j + 1, .. of the run from u1 = u_1 and
    step 1's history term hist (see the module docstring); flags[j] tells
    whether the feedback acts at step j, and the next step overwrites rows."""
    A1, A2, Cl, Bt = system.A1, system.A2, system.Cl, system.Bt
    M = len(Cl)
    # Y holds two states and a block's new ones
    Y = np.empty((BLOCK_STEPS + 2, A1.size))
    acc, tmp = np.empty((2, A1.size))
    # row views and positional out= trim the overhead of the step loop
    ys, mul, add, sub = list(Y), np.multiply, np.add, np.subtract
    Y[0] = u1
    # step 1's history is step 0's force k q_0, feedback included
    np.multiply(A1, Y[0], out=Y[1])
    Y[1] += hist
    if flags[1]:
        Y[1] -= (3.0 * (Cl @ Y[0, :M])) @ Bt
    yield 1, Y[: min(n_steps, 2)]
    stacks: dict[tuple[bool, bool], np.ndarray] = {}
    for j0, steps in _blocks(flags, 2, n_steps):
        pair = bool(flags[j0]), bool(flags[j0 - 1])
        m = M if any(pair) else 0  # a free block reads nothing
        if pair not in stacks:
            read, F = system.low_block(*pair)
            powers = [read[:m]]
            for _ in range(BLOCK_STEPS - 1 if all(pair) else 0):  # a mixed pair lasts one step
                powers.append(powers[-1] @ F)
            stacks[pair] = np.concatenate(powers)
        z = np.concatenate([Y[1, :M], Y[0, :M]])
        g = (stacks[pair][: steps * m] @ z).reshape(steps, m)
        # the powers of F overflow before the state does: read row by row
        single = not np.isfinite(g).all()
        if not single:
            np.matmul(g, Bt[:m], out=Y[2 : steps + 2])
        for r in range(1, steps + 1):
            if single:
                z = np.concatenate([Y[r, :M], Y[r - 1, :M]])
                np.matmul((stacks[pair][:m] @ z).reshape(1, m), Bt[:m], out=Y[r + 1 : r + 2])
            # u_{j+1} = A1 o u_j + A2 o u_{j-1} - g_j Bt, written over its force row
            mul(A1, ys[r], acc)
            add(acc, mul(A2, ys[r - 1], tmp), acc)
            sub(acc, ys[r + 1], ys[r + 1])
        yield j0 + 1, Y[2 : steps + 2]
        Y[:2] = Y[steps : steps + 2]


def run_closed_loop(
    grid: FemGrid,
    nu: float,
    reaction: ReactionField,
    y0: np.ndarray,
    T: float,
    k: float,
    *,
    feedback: FeedbackConfig | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> ClosedLoopRun:
    """Integrate the closed-loop (or free) dynamics on grid from y0 to time T,
    under the boundary condition grid.bc.

    The reaction and feedback enter as the external force
    h(y, t) = -R(t) y + M f(y, t) with f = -U P (K0 y - R(t) y), K0 = lambda M - nu S,
    while the feedback is active and f = 0 otherwise.  Time stepping solves
    (2 M + k nu S) y_new = (2 M - k nu S) y + k (3 h_prev - h_prev2), that is
    Crank-Nicolson with the implicit force value replaced by the
    extrapolation 2 h_prev - h_prev2, with the ghost value h_prev2 := h_prev
    on the first step.  It is solved as
    (2 M + k nu S) z = 4 M y + k (3 h_prev - h_prev2), y_new = z - y.
    Both boundary conditions are homogeneous.  y0 is kept as given at t = 0
    even when it does not vanish on a Dirichlet boundary; the zero boundary
    values are imposed from the first step on, and only the interior block
    of 2 M + k nu S is solved.  Step 0 is taken on the nodes; a static,
    spatially constant reaction is stepped in the eigenbasis of M and S from
    step 1 on (see the module docstring).

    Raises InvalidArgumentError for nu, T or k not positive and finite, a
    non-finite y0, lambda or static reaction value, a snapshot time outside
    [0, T], a feedback window active at no step taken (at none of
    times[:-1]) or a feedback operator from another grid, and
    NumericalFailureError, naming the step and its time, at the first state
    whose norm is not finite.
    """
    for name, x in (("diffusion", nu), ("time step", k), ("final time", T)):
        if not (x > 0.0 and math.isfinite(x)):
            raise InvalidArgumentError(f"{name} must be positive and finite, got {x}")
    snap_times = tuple(float(t) for t in snapshot_times)
    if not all(0.0 <= t <= T for t in snap_times):
        raise InvalidArgumentError(f"snapshot times must lie in [0, {T:g}], got {snap_times}")
    y = np.array(y0, dtype=float)
    if y.shape != (grid.N,):
        raise InvalidArgumentError(f"initial state must have shape ({grid.N},), got {y.shape}")
    if not np.isfinite(y).all():
        raise InvalidArgumentError("initial state must be finite")
    if feedback is not None:
        if not math.isfinite(feedback.lam):
            raise InvalidArgumentError(f"feedback shift must be finite, got {feedback.lam}")
        ours, theirs = ((g.bc.value, g.L, g.N) for g in (grid, feedback.operator.grid))
        if ours != theirs:
            raise InvalidArgumentError(
                f"feedback operator was built on the grid (bc, L, N) = {theirs}, not on {ours}"
            )

    n_steps = T / k + 1e-9
    if n_steps < 1.0:
        raise InvalidArgumentError(f"final time {T} is shorter than one step {k}")
    try:
        n_steps = math.floor(n_steps)
        times = np.arange(n_steps + 1) * k
        norms = np.empty(n_steps + 1)
        feedback_flags = (
            np.zeros(n_steps + 1, dtype=bool) if feedback is None else feedback.active(times)
        )
    except (OverflowError, ValueError, MemoryError):  # T/k is inf or too many to hold
        raise InvalidArgumentError(
            f"{n_steps} time steps (T/k) need more memory than is available"
        ) from None
    if feedback is not None and feedback.feed_on is not None and not feedback_flags[:-1].any():
        # the last state is only recorded, so a window active there alone never acts
        t0, t1 = feedback.feed_on
        where = "starts after" if t0 > T else "acts on no step before"
        raise InvalidArgumentError(
            f"feedback window [{t0:.17g}, {t1:.17g}] {where} the final time {T:.17g}"
        )
    N, nodes, (mdiag, moff), (sdiag, soff) = grid.N, grid.nodes, grid.mass, grid.stiffness

    dirichlet = grid.bc is BoundaryCondition.DIRICHLET
    inner = slice(1, -1) if dirichlet else slice(None)

    a_static = a_const = None
    if not reaction.time_dependent:
        a_static = reaction.values(nodes, 0.0)
        if not np.isfinite(a_static).all():
            raise InvalidArgumentError("static reaction values must be finite")
        if np.all(a_static == a_static[0]):
            # R = a M is diagonal in the eigenbasis of M and S
            a_const = float(a_static[0])

    snap_slots: dict[int, list[int]] = {}
    for s, tt in enumerate(snap_times):
        snap_slots.setdefault(int(np.argmin(np.abs(times - tt))), []).append(s)
    snapshots = np.zeros((len(snap_times), N)) if snap_times else None

    def record(j: int, norm: float) -> list[int]:
        """Store the norm of step j and return the snapshot rows it fills."""
        if not math.isfinite(norm):
            raise NumericalFailureError(
                f"solution norm is {norm} at step {j}, t = {times[j]:.12g}; "
                "the run blew up (reduce the time step or the reaction)"
            )
        norms[j] = norm
        return snap_slots.get(j, [])

    # A blow-up overflows before it produces NaN; record() reports it with
    # the step and its time, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        plus_diag, plus_off = 2.0 * mdiag + k * nu * sdiag, 2.0 * moff + k * nu * soff
        if feedback is not None:
            P, MUt = feedback.operator.P, feedback.operator.MUt
            K0 = tuple(feedback.lam * m - nu * s for m, s in zip(grid.mass, grid.stiffness))
        factor = None if a_const is not None else tridiag_factor(plus_diag[inner], plus_off[inner])
        a_rows = None if a_static is not None else reaction.rows(nodes, times[:-1])

        work = np.empty(N)
        for j in range(n_steps + 1):
            My = _stencil_times(grid.mass, y)
            # sqrt(y^T M y) as numpy's pairwise sum, not a BLAS dot product, does not
            # depend on the BLAS thread count; a non-finite y gives a non-finite norm
            if slots := record(j, math.sqrt(max(float(np.add.reduce(y * My)), 0.0))):
                snapshots[slots] = y
            if j == n_steps:
                break
            a = a_static if a_rows is None else next(a_rows)
            # q = k R y = k (a o M y + M (a o y)) / 2, plus k M [U] c while
            # the feedback acts, k c = P_M (k K0 y - q) with K0 = lambda M - nu S
            np.multiply(a, y, out=work)
            q = _stencil_times(grid.mass, work)
            q += np.multiply(a, My, out=work)
            q *= 0.5 * k
            if feedback_flags[j]:
                q += (P @ (k * _stencil_times(K0, y) - q)) @ MUt
            # rhs = 4 M y + k q_prev - 3 k q, with the ghost q_prev = q at step 0
            rhs = np.multiply(My, 4.0, out=My)
            rhs += kq_prev if j else q
            rhs -= np.multiply(q, 3.0, out=work)
            kq_prev = q
            if j == 0:
                if dirichlet:
                    # z = y0 on the boundary, the only state nonzero there
                    rhs[1] -= plus_off[0] * y[0]
                    rhs[-2] -= plus_off[-1] * y[-1]
                if a_const is not None:
                    break  # the eigenbasis takes over from step 0's right-hand side
            np.subtract(tridiag_solve(factor, rhs[inner]), y[inner], out=rhs[inner])
            if dirichlet:
                rhs[0] = rhs[-1] = 0.0
            y = rhs

        if a_const is not None:
            system = _eigen_system(grid, nu, a_const, k, feedback)
            # step 0's right-hand side, step 1's history term k q_0 and y0
            # (V^{-1} y = V^T D y / omega) go to the eigenbasis
            rows = np.stack([rhs[inner], kq_prev[inner], y[inner]])
            if not dirichlet:
                rows[2, [0, -1]] *= 0.5
            z, hist, yh = _trig_sums(rows, dirichlet) / system.omega
            yh, hist = z / system.pi_k - yh, hist / system.pi_k
            work = np.empty((BLOCK_STEPS, yh.size))  # a block's norm terms
            for j, block in _step_eigenbasis(system, feedback_flags, yh, hist, n_steps):
                sq = np.multiply(system.wmu, block, out=work[: len(block)])
                sq *= block
                vals = np.sqrt(np.add.reduce(sq, axis=1))
                bad = int(np.argmin(np.isfinite(vals)))  # the first non-finite norm, if any
                record(j + bad, float(vals[bad]))
                norms[j : j + len(block)] = vals
                for step, slots in snap_slots.items():
                    if j <= step < j + len(block):
                        snapshots[slots, inner] = _trig_sums(block[step - j], dirichlet)

    for arr in (times, norms, feedback_flags, snapshots):
        if arr is not None:
            arr.flags.writeable = False
    return ClosedLoopRun(times, norms, feedback_flags, snap_times, snapshots)


def log_norm_slope(run: ClosedLoopRun, t0: float, t1: float) -> float:
    """Least-squares slope of ln ||y(t)|| over times[t0, t1]; the exponential
    rate of decay (negative) or growth (positive) on that window."""
    if not t1 > t0:
        raise InvalidArgumentError(f"need t1 > t0, got [{t0}, {t1}]")
    mask = (run.times >= t0 - 1e-12) & (run.times <= t1 + 1e-12)
    if int(np.count_nonzero(mask)) < 2:
        raise InvalidArgumentError(f"window [{t0}, {t1}] contains fewer than two samples")
    vals = run.norms[mask]
    if np.any(vals <= 0.0):
        raise NumericalFailureError("solution norm vanished inside the slope window")
    t = run.times[mask]
    return float(np.polyfit(t, np.log(vals), 1)[0])
