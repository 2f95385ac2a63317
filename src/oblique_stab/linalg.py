"""Dense and tridiagonal linear algebra used by the projection and FEM layers.

A thin validation layer over LAPACK drivers: the operations add the domain
checks the callers rely on (finiteness, pivot threshold 1e-14 relative,
positive definiteness) and normalise failures to the shared exception types.
The pivot threshold separates genuinely singular configurations, which
produce exact or near-exact zero pivots, from benign ill-conditioning.  No
other module uses scipy, and this one imports it on the first LU or
tridiagonal factor or solve, so eigs and suffcond never do.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

PIVOT_RTOL = 1e-14


@functools.cache
def _scipy_linalg():  # its import outweighs the rest of the package's
    import scipy.linalg
    return scipy.linalg


def solve_dense(A, B) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting.

    Raises SingularMatrixError when any pivot falls below 1e-14 times the
    Frobenius norm of A; for this library that is the signal that a direct-sum
    splitting fails.
    """
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("A contains non-finite entries")
    rhs = np.asarray(B, dtype=float)
    if rhs.ndim not in (1, 2):
        raise InvalidArgumentError(f"right-hand side must be 1-D or 2-D, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise InvalidArgumentError("right-hand side contains non-finite entries")
    if rhs.shape[0] != arr.shape[0]:
        raise InvalidArgumentError(
            f"incompatible shapes: A is {arr.shape}, B is {rhs.shape}"
        )
    sla = _scipy_linalg()
    with warnings.catch_warnings():
        # An exactly zero pivot makes LAPACK warn before we raise below.
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(arr, check_finite=False)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_RTOL * np.linalg.norm(arr)
    if arr.size and np.min(pivots) <= threshold:
        raise SingularMatrixError(
            f"matrix is numerically singular: pivot {np.min(pivots):.3e} "
            f"below threshold {threshold:.3e}"
        )
    return sla.lu_solve((lu, piv), rhs, check_finite=False)


def tridiag_matvec(diag: np.ndarray, off: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T X for the symmetric tridiagonal T = (diag, off); X is (n,) or (n, B).

    The products are elementwise, so the result does not depend on how many
    threads the BLAS library uses.
    """
    if X.ndim == 2:
        diag, off = diag[:, None], off[:, None]
    out = diag * X
    out[:-1] += off * X[1:]
    out[1:] += off * X[:-1]
    return out


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
        raise NotPositiveDefiniteError(
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
