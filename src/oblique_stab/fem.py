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
2 M + k nu S (its interior block under Dirichlet conditions), factored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .actuators import ActuatorSet, indicators
from .errors import (
    DirectSumFailureError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularMatrixError,
)
from .linalg import (
    SpdTridiagFactor,
    SymTridiagonal,
    solve_dense,
    sym_eigen,
    tridiag_combine,
)
from .spectral import BoundaryCondition, build_basis, eigenfunctions


@dataclass(frozen=True)
class FemGrid:
    """Uniform grid x_i = (i-1) h, i = 1..N, with h = L/(N-1)."""

    L: float
    N: int
    h: float
    nodes: np.ndarray


def make_grid(L: float, N: int) -> FemGrid:
    if not (L > 0.0 and math.isfinite(L)):
        raise InvalidArgumentError(f"domain length must be positive and finite, got {L}")
    if int(N) != N or N < 2:
        raise InvalidArgumentError(f"node count must be an integer >= 2, got {N}")
    N = int(N)
    h = L / (N - 1)
    nodes = np.linspace(0.0, L, N)
    nodes.flags.writeable = False
    return FemGrid(L=L, N=N, h=h, nodes=nodes)


@dataclass(frozen=True)
class FemMatrices:
    """Mass and stiffness matrices of the hat basis on a uniform grid."""

    grid: FemGrid
    mass: SymTridiagonal
    stiffness: SymTridiagonal


def assemble_fem(grid: FemGrid) -> FemMatrices:
    """Exact mass and stiffness matrices; no quadrature is involved.

    mass:      diag (h/3, 2h/3, ..., 2h/3, h/3), off-diagonal h/6
    stiffness: diag (1/h, 2/h, ..., 2/h, 1/h), off-diagonal -1/h
    """
    if grid.N < 3:
        raise InvalidArgumentError(f"assembly needs at least 3 nodes, got {grid.N}")
    N, h = grid.N, grid.h
    mdiag = np.full(N, 2.0 * h / 3.0)
    mdiag[0] = mdiag[-1] = h / 3.0
    moff = np.full(N - 1, h / 6.0)
    sdiag = np.full(N, 2.0 / h)
    sdiag[0] = sdiag[-1] = 1.0 / h
    soff = np.full(N - 1, -1.0 / h)
    return FemMatrices(
        grid=grid,
        mass=SymTridiagonal(diag=mdiag, off=moff),
        stiffness=SymTridiagonal(diag=sdiag, off=soff),
    )


def reaction_matrix(fem: FemMatrices, a_nodes: np.ndarray) -> SymTridiagonal:
    """Symmetrised reaction matrix (M Diag(a) + Diag(a) M) / 2 for nodal a."""
    a = np.asarray(a_nodes, dtype=float)
    if a.shape != (fem.grid.N,):
        raise InvalidArgumentError(
            f"reaction values must have shape ({fem.grid.N},), got {a.shape}"
        )
    diag = fem.mass.diag * a
    off = fem.mass.off * 0.5 * (a[:-1] + a[1:])
    return SymTridiagonal(diag=diag, off=off)


@dataclass(frozen=True)
class ReactionField:
    """Reaction coefficient a(x, t) sampled at grid nodes.

    values(nodes, t) returns the nodal samples; time_dependent=False lets the
    closed-loop driver assemble the reaction matrix once.
    """

    values: Callable[[np.ndarray, float], np.ndarray]
    time_dependent: bool
    label: str


def constant_reaction(value: float) -> ReactionField:
    value = float(value)
    return ReactionField(
        values=lambda x, t: np.full_like(np.asarray(x, dtype=float), value),
        time_dependent=False,
        label=f"constant:{value:g}",
    )


def oscillating_reaction(nu: float, L: float) -> ReactionField:
    """Space- and time-dependent reaction -35 nu (pi/L)^2 - 2 |cos(4t) cos(xt) x|.

    Strictly negative everywhere, so the uncontrolled dynamics is unstable
    whenever 35 nu (pi/L)^2 exceeds the first diffusion eigenvalue.
    """
    if nu <= 0.0:
        raise InvalidArgumentError(f"diffusion must be positive, got {nu}")
    base = -35.0 * nu * (math.pi / L) ** 2

    def values(x: np.ndarray, t: float) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        return base - 2.0 * np.abs(np.cos(4.0 * t) * np.cos(arr * t) * arr)

    return ReactionField(values=values, time_dependent=True, label="oscillating")


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

    return ReactionField(values=values, time_dependent=tv.size > 1, label="table")


@dataclass(frozen=True)
class FeedbackOperator:
    """Discrete oblique projection data on a fixed grid.

    U:        N x M nodal samples of the plain indicator functions
    E:        N x M nodal samples of the eigenfunctions
    coupling: A = E^T M U
    P:        A^{-1} E^T, so the nodal projection of z is U P M z
    """

    bc: BoundaryCondition
    actuators: ActuatorSet
    U: np.ndarray
    E: np.ndarray
    coupling: np.ndarray
    P: np.ndarray


def _mat_matvec(T: SymTridiagonal, X: np.ndarray) -> np.ndarray:
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        out[:, j] = T.matvec(X[:, j])
    return out


def feedback_matrices(
    fem: FemMatrices, bc: BoundaryCondition, aset: ActuatorSet
) -> FeedbackOperator:
    """Sample actuators and eigenfunctions on the grid and invert the coupling.

    Raises DirectSumFailureError when the coupling matrix A = E^T M U is
    numerically singular, which happens when an actuator support contains too
    few interior nodes; refining the mesh resolves it.
    """
    grid = fem.grid
    if abs(grid.L - aset.L) > 1e-12 * max(grid.L, aset.L):
        raise InvalidArgumentError(
            f"grid length {grid.L} and actuator domain length {aset.L} differ"
        )
    basis = build_basis(bc, grid.L, aset.M)
    U = indicators(aset, grid.nodes)
    E = eigenfunctions(basis, grid.nodes)
    A = E.T @ _mat_matvec(fem.mass, U)
    try:
        P = solve_dense(A, E.T)
    except SingularMatrixError as exc:
        raise DirectSumFailureError(
            "coupling matrix between sampled actuators and eigenfunctions is "
            "singular; refine the mesh so every actuator support contains "
            "interior nodes, or change the placement"
        ) from exc
    for arr in (U, E, A, P):
        arr.flags.writeable = False
    return FeedbackOperator(bc=bc, actuators=aset, U=U, E=E, coupling=A, P=P)


def project_nodal(fem: FemMatrices, op: FeedbackOperator, z: np.ndarray) -> np.ndarray:
    """Nodal values of the discrete oblique projection: U P M z."""
    z = np.asarray(z, dtype=float)
    return op.U @ (op.P @ fem.mass.matvec(z))


def discrete_projection_norm(fem: FemMatrices, op: FeedbackOperator) -> float:
    """Operator norm of the discrete projection in the mass inner product.

    With G_E = E^T M E and N_U = U^T M U the squared norm is the largest
    eigenvalue of G_E^{1/2} A^{-T} N_U A^{-1} G_E^{1/2}; this is exact for
    the discrete operator, no sampling involved.
    """
    G_E = op.E.T @ _mat_matvec(fem.mass, op.E)
    N_U = op.U.T @ _mat_matvec(fem.mass, op.U)
    w, V = sym_eigen(G_E)
    if w[0] <= 0.0:
        raise NumericalFailureError(
            "sampled eigenfunction Gram matrix is not positive definite"
        )
    root = (V * np.sqrt(w)) @ V.T
    X = solve_dense(op.coupling, root)
    Q = X.T @ N_U @ X
    return float(np.sqrt(sym_eigen(Q)[0][-1]))


def feedback_apply(
    fem: FemMatrices,
    op: FeedbackOperator,
    nu: float,
    lam: float,
    R: SymTridiagonal,
    y: np.ndarray,
) -> np.ndarray:
    """Nodal feedback force f = -U P (-nu S y - R y + lam M y).

    This is the force before multiplication by the mass matrix; the closed
    loop adds M f to the reaction part -R y of the external force.
    """
    y = np.asarray(y, dtype=float)
    resid = -nu * fem.stiffness.matvec(y) - R.matvec(y) + lam * fem.mass.matvec(y)
    return -(op.U @ (op.P @ resid))


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback operator, shift lambda, and the interval where it is active.

    feed_on=None keeps the feedback on for the whole run; otherwise it acts
    for t0 <= t <= t1 (closed interval) and the free dynamics runs outside.
    """

    operator: FeedbackOperator
    lam: float = 1.0
    feed_on: tuple[float, float] | None = None

    def active(self, t: float) -> bool:
        if self.feed_on is None:
            return True
        t0, t1 = self.feed_on
        return t0 - 1e-9 <= t <= t1 + 1e-9


class CrankNicolsonStepper:
    """One fixed-step Crank-Nicolson solve of 2 M dy = -k nu S (y + y_prev) + force.

    The matrix 2 M + k nu S is factored once; under Dirichlet conditions only
    its interior block is solved and the boundary values stay at zero.
    """

    def __init__(
        self, bc: BoundaryCondition, fem: FemMatrices, nu: float, k: float
    ) -> None:
        if nu <= 0.0:
            raise InvalidArgumentError(f"diffusion must be positive, got {nu}")
        if k <= 0.0:
            raise InvalidArgumentError(f"time step must be positive, got {k}")
        self.bc = bc
        self.fem = fem
        self.nu = nu
        self.k = k
        B_plus = tridiag_combine(2.0, fem.mass, k * nu, fem.stiffness)
        self.B_minus = tridiag_combine(2.0, fem.mass, -k * nu, fem.stiffness)
        if bc is BoundaryCondition.DIRICHLET:
            interior = SymTridiagonal(diag=B_plus.diag[1:-1], off=B_plus.off[1:-1])
            self._factor = SpdTridiagFactor(interior)
            self._edge_plus = (float(B_plus.off[0]), float(B_plus.off[-1]))
        else:
            self._factor = SpdTridiagFactor(B_plus)

    def step(
        self,
        y_prev: np.ndarray,
        force: np.ndarray,
        boundary_values: tuple[float, float] = (0.0, 0.0),
    ) -> np.ndarray:
        """Advance one step; force carries k (3 h_prev - h_prev2) and any
        boundary flux contribution, already multiplied by k.

        boundary_values are the Dirichlet values imposed at the new time
        (ignored under Neumann conditions); the matvec of the previous state
        already carries the old boundary coupling.
        """
        rhs = self.B_minus.matvec(y_prev) + force
        if self.bc is BoundaryCondition.DIRICHLET:
            b0, b1 = boundary_values
            y_new = np.empty_like(y_prev)
            y_new[0], y_new[-1] = b0, b1
            inner = rhs[1:-1]
            inner[0] -= self._edge_plus[0] * b0
            inner[-1] -= self._edge_plus[1] * b1
            y_new[1:-1] = self._factor.solve(inner)
            return y_new
        return self._factor.solve(rhs)


@dataclass(frozen=True)
class ClosedLoopRun:
    """Time series produced by run_closed_loop.

    norms[j] is the L2 norm sqrt(y^T M y) at times[j]; feedback_on[j] records
    whether the feedback force was active when stepping from times[j].
    trajectory is (n_steps+1) x N when stored, else None; snapshots holds the
    states nearest to the requested snapshot times.
    """

    bc: BoundaryCondition
    times: np.ndarray
    norms: np.ndarray
    feedback_on: np.ndarray
    final_state: np.ndarray
    trajectory: np.ndarray | None
    snapshot_times: tuple[float, ...]
    snapshots: np.ndarray | None


def nodal_l2_norm(fem: FemMatrices, y: np.ndarray) -> float:
    """L2(0, L) norm of the hat interpolant with nodal values y."""
    y = np.asarray(y, dtype=float)
    return float(np.sqrt(max(y @ fem.mass.matvec(y), 0.0)))


def run_closed_loop(
    bc: BoundaryCondition,
    fem: FemMatrices,
    nu: float,
    reaction: ReactionField,
    y0: np.ndarray,
    T: float,
    k: float,
    *,
    feedback: FeedbackConfig | None = None,
    neumann_flux: Callable[[float], tuple[float, float]] | None = None,
    dirichlet_data: Callable[[float], tuple[float, float]] | None = None,
    store_trajectory: bool = False,
    snapshot_times: tuple[float, ...] = (),
) -> ClosedLoopRun:
    """Integrate the closed-loop (or free) dynamics from y0 to time T.

    The reaction and feedback enter as the external force
    h(y, t) = -R(t) y + M f(y, t) with
    f = -U P (-nu S y - R(t) y + lambda M y) while the feedback is active and
    f = 0 otherwise.  Time stepping replaces the implicit force value by the
    extrapolation 2 h_prev - h_prev2, with the ghost value h_prev2 := h_prev
    on the first step.  y0 is kept as given at t = 0 even when it violates a
    Dirichlet boundary condition; the boundary values are imposed from the
    first step on.

    neumann_flux(t) may supply boundary derivative data (y_x(0,t), y_x(L,t))
    under Neumann conditions, and dirichlet_data(t) boundary values
    (y(0,t), y(L,t)) under Dirichlet conditions; omitted or None means
    homogeneous.
    """
    if T <= 0.0:
        raise InvalidArgumentError(f"final time must be positive, got {T}")
    y = np.array(y0, dtype=float)
    if y.shape != (fem.grid.N,):
        raise InvalidArgumentError(
            f"initial state must have shape ({fem.grid.N},), got {y.shape}"
        )
    if neumann_flux is not None and bc is not BoundaryCondition.NEUMANN:
        raise InvalidArgumentError("boundary flux data requires Neumann conditions")
    if dirichlet_data is not None and bc is not BoundaryCondition.DIRICHLET:
        raise InvalidArgumentError("boundary value data requires Dirichlet conditions")

    n_steps = int(math.floor(T / k + 1e-9))
    if n_steps < 1:
        raise InvalidArgumentError(f"final time {T} is shorter than one step {k}")
    times = np.arange(n_steps + 1) * k
    stepper = CrankNicolsonStepper(bc, fem, nu, k)
    nodes = fem.grid.nodes

    R_static = None
    if not reaction.time_dependent:
        R_static = reaction_matrix(fem, reaction.values(nodes, 0.0))

    def reaction_at(t: float) -> SymTridiagonal:
        if R_static is not None:
            return R_static
        return reaction_matrix(fem, reaction.values(nodes, t))

    def force_terms(state: np.ndarray, t: float) -> tuple[np.ndarray, bool]:
        R = reaction_at(t)
        h = -R.matvec(state)
        active = feedback is not None and feedback.active(t)
        if active:
            f = feedback_apply(fem, feedback.operator, nu, feedback.lam, R, state)
            h = h + fem.mass.matvec(f)
        return h, active

    def flux_vector(t: float) -> np.ndarray | None:
        if neumann_flux is None:
            return None
        g1, g2 = neumann_flux(t)
        G = np.zeros(fem.grid.N)
        G[0] = g1
        G[-1] = -g2
        return G

    norms = np.empty(n_steps + 1)
    feedback_flags = np.zeros(n_steps + 1, dtype=bool)
    trajectory = np.empty((n_steps + 1, fem.grid.N)) if store_trajectory else None
    snap_times = tuple(float(t) for t in snapshot_times)
    snap_index = {
        min(range(n_steps + 1), key=lambda j, tt=tt: abs(times[j] - tt)): s
        for s, tt in enumerate(snap_times)
    }
    snapshots = np.empty((len(snap_times), fem.grid.N)) if snap_times else None

    def record(j: int, state: np.ndarray) -> None:
        norms[j] = nodal_l2_norm(fem, state)
        if trajectory is not None:
            trajectory[j] = state
        if snapshots is not None and j in snap_index:
            snapshots[snap_index[j]] = state

    record(0, y)
    h_prev, feedback_flags[0] = force_terms(y, 0.0)
    h_prev2 = h_prev
    G_prev = flux_vector(0.0)

    for j in range(1, n_steps + 1):
        force = k * (3.0 * h_prev - h_prev2)
        if G_prev is not None:
            G_new = flux_vector(times[j])
            force = force + k * (G_new + G_prev)
            G_prev = G_new
        bvals = dirichlet_data(times[j]) if dirichlet_data is not None else (0.0, 0.0)
        y = stepper.step(y, force, boundary_values=bvals)
        record(j, y)
        if j < n_steps:
            h_new, feedback_flags[j] = force_terms(y, times[j])
            h_prev2, h_prev = h_prev, h_new
        else:
            feedback_flags[j] = feedback is not None and feedback.active(times[j])

    for arr in (times, norms, feedback_flags):
        arr.flags.writeable = False
    if trajectory is not None:
        trajectory.flags.writeable = False
    if snapshots is not None:
        snapshots.flags.writeable = False
    return ClosedLoopRun(
        bc=bc,
        times=times,
        norms=norms,
        feedback_on=feedback_flags,
        final_state=y.copy(),
        trajectory=trajectory,
        snapshot_times=snap_times,
        snapshots=snapshots,
    )


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
