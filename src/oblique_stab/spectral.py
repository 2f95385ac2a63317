"""Laplacian eigenpairs on an interval (0, L), for both boundary condition kinds.

With k = pi/L the closed forms are

    Dirichlet:  alpha_i = (i k)**2,        e_i(x) = sqrt(2/L) * sin(i k x),      i >= 1,
    Neumann:    alpha_i = ((i - 1) k)**2,  e_1(x) = sqrt(1/L),
                                           e_i(x) = sqrt(2/L) * cos((i-1) k x),  i >= 2,

each e_i normalised in L2(0, L).  Indices are 1-based, following the natural
ordering of the spectrum; alpha_1 is the smallest eigenvalue (positive for
Dirichlet, zero for Neumann).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


class BoundaryCondition(enum.Enum):
    """Selector fixing the eigenbasis and the solver's boundary handling."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class EigenBasis:
    """First M Laplacian eigenpairs on (0, L) for one boundary condition.

    alphas is ascending, shape (M,).  Eigenfunctions are kept as closed-form
    evaluators (see eigenfunctions), never as sampled arrays, so inner
    products against them can be computed to quadrature precision at any
    resolution.
    """

    bc: BoundaryCondition
    L: float
    M: int
    alphas: np.ndarray


def build_basis(bc: BoundaryCondition, L: float, M: int) -> EigenBasis:
    """Construct the first M eigenpairs on (0, L)."""
    L = float(L)
    if not math.isfinite(L) or L <= 0.0:
        raise InvalidArgumentError(f"interval length must be positive and finite, got {L}")
    if int(M) != M or M < 1:
        raise InvalidArgumentError(f"eigenpair count must be a positive integer, got {M}")
    M = int(M)
    scale = (math.pi / L) ** 2
    i = np.arange(1, M + 1, dtype=float)
    if bc is BoundaryCondition.DIRICHLET:
        alphas = scale * i**2
    else:
        alphas = scale * (i - 1.0) ** 2
    alphas.flags.writeable = False
    return EigenBasis(bc=bc, L=L, M=M, alphas=alphas)


def _check_index(basis: EigenBasis, i: int) -> None:
    if int(i) != i or not 1 <= i <= basis.M:
        raise InvalidArgumentError(f"eigenfunction index must lie in 1..{basis.M}, got {i}")


def _check_coords(basis: EigenBasis, x: np.ndarray) -> None:
    if x.size and (np.min(x) < 0.0 or np.max(x) > basis.L):
        raise InvalidArgumentError(f"coordinates must lie in [0, {basis.L}]")


def _modes(basis: EigenBasis, i, x) -> np.ndarray:
    """Values of e_i at x for 1-based indices i broadcast against x."""
    arr = np.asarray(x, dtype=float)
    _check_coords(basis, arr)
    L = basis.L
    if basis.bc is BoundaryCondition.DIRICHLET:
        return math.sqrt(2.0 / L) * np.sin(i * math.pi * arr / L)
    amp = np.where(i == 1, math.sqrt(1.0 / L), math.sqrt(2.0 / L))
    return amp * np.cos((i - 1) * math.pi * arr / L)


def eigenfunctions(basis: EigenBasis, x) -> np.ndarray:
    """Values of e_1, ..., e_M at x in [0, L]; shape of x + (M,)."""
    i = np.arange(1, basis.M + 1, dtype=float)
    return _modes(basis, i, np.asarray(x, dtype=float)[..., None])


def eval_eigenfunction(basis: EigenBasis, i: int, x):
    """Pointwise closed-form value of e_i at x (scalar or array), x in [0, L]."""
    _check_index(basis, i)
    out = _modes(basis, i, x)
    return float(out) if np.ndim(x) == 0 else out
