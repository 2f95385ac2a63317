"""Laplacian eigenpairs on an interval (0, L), for both boundary condition kinds.

With k = pi/L the closed forms are

    Dirichlet:  alpha_i = (i k)**2,        e_i(x) = sqrt(2/L) * sin(i k x),      i >= 1,
    Neumann:    alpha_i = ((i - 1) k)**2,  e_1(x) = sqrt(1/L),
                                           e_i(x) = sqrt(2/L) * cos((i-1) k x),  i >= 2,

each e_i normalised in L2(0, L).  Indices are 1-based, following the natural
ordering of the spectrum; alpha_1 is the smallest eigenvalue (positive for
Dirichlet, zero for Neumann).  eigenfunctions evaluates the whole family
e_1, ..., e_M at once, the only way the library samples it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_member, checked_count, checked_positive


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


def eigenvalues(bc: BoundaryCondition, L: float, i) -> np.ndarray:
    """alpha_i at the index i, a number or an array; a bc that is not a member, and an L
    not positive or so small that an alpha overflows, raise InvalidArgumentError."""
    check_member(BoundaryCondition, bc)
    L = checked_positive("interval length", L)
    k = np.asarray(i, dtype=float)
    if bc is BoundaryCondition.NEUMANN:
        k = k - 1.0
    top = max(int(k.max()), 1)
    big = np.finfo(float).max
    scale = (math.pi / L) ** 2 if math.pi / L <= math.sqrt(big) else math.inf  # ** would raise
    if not scale * top**2 <= big:  # the largest alpha below
        raise InvalidArgumentError(f"interval length L = {L} overflows ({top}pi/L)^2")
    return scale * (k * k)


def build_basis(bc: BoundaryCondition, L: float, M: int) -> EigenBasis:
    """Construct the first M eigenpairs on (0, L); raises as eigenvalues does."""
    M = checked_count("eigenpair count", M)
    alphas = eigenvalues(bc, L, np.arange(1.0, M + 1))
    alphas.flags.writeable = False
    return EigenBasis(bc=bc, L=float(L), M=M, alphas=alphas)


def eigenfunctions(basis: EigenBasis, x) -> np.ndarray:
    """Values of e_1, ..., e_M at x in [0, L]; shape of x + (M,)."""
    arr = np.asarray(x, dtype=float)
    L = basis.L
    if arr.size and (np.min(arr) < 0.0 or np.max(arr) > L):
        raise InvalidArgumentError(f"coordinates must lie in [0, {L}]")
    i = np.arange(1, basis.M + 1, dtype=float)
    arr = arr[..., None]
    if basis.bc is BoundaryCondition.DIRICHLET:
        return math.sqrt(2.0 / L) * np.sin(i * math.pi * arr / L)
    amp = np.where(i == 1, math.sqrt(1.0 / L), math.sqrt(2.0 / L))
    return amp * np.cos((i - 1) * math.pi * arr / L)
