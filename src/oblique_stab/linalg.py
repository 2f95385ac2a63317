"""Symmetric tridiagonal matrices as (diag, off) pairs: factor and solve.

Both wrap LAPACK dpttrf and dpttrs, add the domain checks the FEM layer
relies on (shapes, finiteness, positive definiteness) and normalise failures
to the shared exception types.  They are the only scipy users in the
package, and scipy is imported on the first factor or solve, so only closed
loops stepped on the nodes ever load it.  Products with grid matrices are
fem._stencil_times.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError


@functools.cache
def _scipy_linalg():  # its import outweighs the rest of the package's
    import scipy.linalg
    return scipy.linalg


def tridiag_factor(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factor of the SPD tridiagonal (diag, off) by LAPACK dpttrf.

    Factoring costs O(n) and each tridiag_solve costs O(n); time stepping
    factors the implicit matrix once and solves thousands of times.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
        raise InvalidArgumentError(
            f"need n diagonal and n-1 off-diagonal entries, got {d.size} and {e.size}"
        )
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise InvalidArgumentError("tridiagonal entries must be finite")
    fd, fe, info = _scipy_linalg().lapack.dpttrf(d, e)
    if info > 0:
        raise NumericalFailureError(
            f"tridiagonal matrix is not positive definite: pivot {info} is not positive"
        )
    return fd, fe


def tridiag_solve(factor: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve T x = b with the tridiag_factor of T; b is (n,) or (n, B)."""
    d, e = factor
    if b.shape[0] != d.size:
        raise InvalidArgumentError(f"right-hand side length {b.shape[0]} != {d.size}")
    x, info = _scipy_linalg().lapack.dpttrs(d, e, b)
    if info < 0:
        raise InvalidArgumentError(f"dpttrs rejected argument {-info}")
    return x
