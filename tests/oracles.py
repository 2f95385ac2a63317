"""Reference computations that only the tests use."""

import math

import numpy as np

from oblique_stab.fem import _mass_norm
from oblique_stab.linalg import solve_dense, tridiag_matvec
from oblique_stab.projection import (
    _actuator_family,
    _eigen_family,
    _expansion,
    _inner_products,
)
from oblique_stab.spectral import BoundaryCondition

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
    beta = solve_dense(data.gram.entries.T, rhs)
    return beta, _expansion(beta, _eigen_family(data))


def check_theta_diagonal(data) -> tuple[bool, float]:
    """Whether Theta is diagonal to within DIAG_RTOL of its largest diagonal
    entry, and its largest off-diagonal magnitude."""
    max_diag = float(np.max(np.abs(np.diag(data.gram.theta))))
    return data.max_offdiag <= DIAG_RTOL * max_diag, data.max_offdiag


def nodal_l2_norm(grid, y) -> float:
    """L2(0, L) norm of the hat interpolant with nodal values y."""
    y = np.asarray(y, dtype=float)
    return _mass_norm(y, tridiag_matvec(*grid.mass, y))


def eigh_projection_norm(grid, op) -> float:
    """Discrete projection norm from the symmetric square root of E^T M E.

    With G_E = E^T M E and N_U = U^T M U the squared norm is the largest
    eigenvalue of G_E^{1/2} A^{-T} N_U A^{-1} G_E^{1/2}, the square root
    taken from eigh of G_E.
    """
    G_E = op.E.T @ tridiag_matvec(*grid.mass, op.E)
    N_U = op.U.T @ tridiag_matvec(*grid.mass, op.U)
    w, V = np.linalg.eigh(0.5 * (G_E + G_E.T))
    root = (V * np.sqrt(w)) @ V.T
    X = solve_dense(op.coupling, root)
    S = X.T @ N_U @ X
    return float(np.sqrt(np.linalg.eigvalsh(0.5 * (S + S.T))[-1]))


def project_nodal(grid, op, z):
    """Nodal values of the discrete oblique projection: U P M z."""
    z = np.asarray(z, dtype=float)
    return op.U @ (op.P @ tridiag_matvec(*grid.mass, z))


def feedback_apply(grid, op, nu: float, lam: float, R, y):
    """Nodal feedback force f = -U P (-nu S y - R y + lam M y).

    This is the force before multiplication by the mass matrix; the closed
    loop adds M f to the reaction part -R y of the external force.
    """
    y = np.asarray(y, dtype=float)
    resid = (
        -nu * tridiag_matvec(*grid.stiffness, y)
        - tridiag_matvec(*R, y)
        + lam * tridiag_matvec(*grid.mass, y)
    )
    return -(op.U @ (op.P @ resid))
