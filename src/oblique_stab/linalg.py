"""Dense and banded linear algebra used by the projection and FEM layers.

A thin validation layer over LAPACK drivers: the operations add the domain
checks the callers rely on (finiteness, symmetry within 1e-10 relative, pivot
threshold 1e-14 relative, positive definiteness) and normalise failures to the
shared exception types.  The pivot threshold separates genuinely singular
configurations, which produce exact or near-exact zero pivots, from benign
ill-conditioning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

SYMMETRY_RTOL = 1e-10
PIVOT_RTOL = 1e-14


def _as_matrix(A, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def sym_eigen(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Input must be symmetric within 1e-10 relative in the Frobenius norm; the
    decomposition is taken of the symmetrized matrix so the result is exactly
    independent of which triangle carried the rounding noise.
    """
    arr = _as_matrix(A)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {arr.shape}")
    norm = np.linalg.norm(arr)
    skew = np.linalg.norm(arr - arr.T)
    if skew > SYMMETRY_RTOL * max(norm, 1e-300):
        raise InvalidArgumentError(
            f"matrix is not symmetric: asymmetry {skew:.3e} exceeds {SYMMETRY_RTOL:g} relative"
        )
    w, v = np.linalg.eigh(0.5 * (arr + arr.T))
    return w, v


def solve_dense(A, B) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting.

    Raises SingularMatrixError when any pivot falls below 1e-14 times the
    Frobenius norm of A; for this library that is the signal that a direct-sum
    splitting fails.
    """
    arr = _as_matrix(A, "A")
    if arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {arr.shape}")
    rhs = np.asarray(B, dtype=float)
    if rhs.ndim not in (1, 2):
        raise InvalidArgumentError(f"right-hand side must be 1-D or 2-D, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise InvalidArgumentError("right-hand side contains non-finite entries")
    if rhs.shape[0] != arr.shape[0]:
        raise InvalidArgumentError(
            f"incompatible shapes: A is {arr.shape}, B is {rhs.shape}"
        )
    with warnings.catch_warnings():
        # An exactly zero pivot makes LAPACK warn before we raise below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(arr, check_finite=False)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_RTOL * np.linalg.norm(arr)
    if arr.size and np.min(pivots) <= threshold:
        raise SingularMatrixError(
            f"matrix is numerically singular: pivot {np.min(pivots):.3e} "
            f"below threshold {threshold:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.off, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise InvalidArgumentError(
                f"need n diagonal and n-1 off-diagonal entries, got {d.size} and {e.size}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise InvalidArgumentError("tridiagonal entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        if self.n > 1:
            y[:-1] += self.off * x[1:]
            y[1:] += self.off * x[:-1]
        return y


def tridiag_combine(a: float, X: SymTridiagonal, b: float, Y: SymTridiagonal) -> SymTridiagonal:
    """Linear combination a*X + b*Y of two equally sized tridiagonals."""
    if X.n != Y.n:
        raise InvalidArgumentError(f"size mismatch: {X.n} vs {Y.n}")
    return SymTridiagonal(a * X.diag + b * Y.diag, a * X.off + b * Y.off)


class SpdTridiagFactor:
    """Reusable Cholesky factorization of an SPD tridiagonal matrix.

    Factoring costs O(n) and each solve costs O(n); time stepping factors the
    implicit matrix once and solves thousands of times.
    """

    def __init__(self, T: SymTridiagonal):
        ab = np.zeros((2, T.n))
        ab[1, :] = T.diag
        if T.n > 1:
            ab[0, 1:] = T.off
        try:
            self._cb = scipy.linalg.cholesky_banded(ab, lower=False, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        self.n = T.n

    def solve(self, b: np.ndarray) -> np.ndarray:
        rhs = np.asarray(b, dtype=float)
        if rhs.shape[0] != self.n:
            raise InvalidArgumentError(f"right-hand side length {rhs.shape[0]} != {self.n}")
        return scipy.linalg.cho_solve_banded((self._cb, False), rhs, check_finite=False)
