"""Reference computations that only the tests use."""

import math

import numpy as np

from oblique_stab.linalg import tridiag_matvec


def cosine_sum(aset, m: int) -> float:
    """Sum over actuators of cos(m * c_k), centers mapped onto (0, pi).

    For the mxe placement this vanishes for every 1 <= m <= 2M - 1; for uni
    it equals 0 for odd m and -1 for even m (and M at m = 0 for any set).
    """
    if int(m) != m or m < 0:
        raise ValueError(f"frequency must be a nonnegative integer, got {m}")
    return float(np.sum(np.cos(m * (aset.centers * (math.pi / aset.L)))))


def project_nodal(fem, op, z):
    """Nodal values of the discrete oblique projection: U P M z."""
    z = np.asarray(z, dtype=float)
    return op.U @ (op.P @ tridiag_matvec(*fem.mass, z))


def feedback_apply(fem, op, nu: float, lam: float, R, y):
    """Nodal feedback force f = -U P (-nu S y - R y + lam M y).

    This is the force before multiplication by the mass matrix; the closed
    loop adds M f to the reaction part -R y of the external force.
    """
    y = np.asarray(y, dtype=float)
    resid = (
        -nu * tridiag_matvec(*fem.stiffness, y)
        - tridiag_matvec(*R, y)
        + lam * tridiag_matvec(*fem.mass, y)
    )
    return -(op.U @ (op.P @ resid))
