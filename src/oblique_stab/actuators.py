"""Indicator actuator families on an interval.

An actuator is the indicator function of an open subinterval
omega_j = (c_j - delta, c_j + delta) of (0, L).  All M actuators of a family
share the half-width delta = r*L/(2*M), so the total support volume is exactly
r*L for every M: the volume fraction r stays fixed while the family is refined.

Placement rules (centers c_1 < ... < c_M):

    mxe:  c_j = (2j - 1) L / (2M)            extremisers of sin(M pi x / L),
    uni:  c_j = j L / (M + 1)                uniform, needs M >= r/(1 - r),
    con:  c_j = (1-r) L/2 + (2j-1) r L/(2M)  packed around the domain center,

plus free placement of user-supplied strictly increasing centers.  Supports
are pairwise disjoint for mxe always, for uni exactly when M >= r/(1 - r), and
for con the neighbouring supports touch (gap zero, still measure-disjoint).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, InvalidArgumentError

# Relative slack for geometric comparisons; placement formulas are exact in
# real arithmetic and only rounding noise has to be absorbed.
_GEOM_RTOL = 1e-12


class Scheme(enum.Enum):
    """Placement rule for the actuator centers."""

    MXE = "mxe"
    UNI = "uni"
    CON = "con"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ActuatorSet:
    """M equal-width indicator actuators on (0, L).

    disjoint records whether consecutive centers keep the distance r*L/M that
    makes the supports (measure-)disjoint; Gram assembly stays valid for
    overlapping custom placements, but the closed-form operator-norm results
    assume this flag.
    """

    L: float
    M: int
    r: float
    scheme: Scheme
    centers: np.ndarray
    half_width: float
    disjoint: bool


def place(
    scheme: Scheme,
    L: float,
    M: int,
    r: float,
    centers: np.ndarray | None = None,
) -> ActuatorSet:
    """Build an ActuatorSet for one of the placement rules.

    centers is only accepted (and required) for Scheme.CUSTOM and must be
    strictly increasing with every support inside (0, L).
    """
    L = float(L)
    if not math.isfinite(L) or L <= 0.0:
        raise InvalidArgumentError(f"interval length must be positive, got {L}")
    if int(M) != M or M < 1:
        raise InvalidArgumentError(f"actuator count must be a positive integer, got {M}")
    M = int(M)
    r = float(r)
    if not 0.0 < r < 1.0:
        raise InvalidArgumentError(f"volume fraction must lie in (0, 1), got {r}")
    delta = r * L / (2 * M)

    j = np.arange(1, M + 1, dtype=float)
    if scheme is Scheme.MXE:
        if centers is not None:
            raise InvalidArgumentError("centers are only accepted for custom placement")
        c = (2 * j - 1) * L / (2 * M)
    elif scheme is Scheme.UNI:
        if centers is not None:
            raise InvalidArgumentError("centers are only accepted for custom placement")
        bound = r / (1.0 - r)
        if M < bound * (1.0 - _GEOM_RTOL):
            raise ConstraintViolationError(
                f"uniform placement requires M >= r/(1-r): M={M} < {bound:.6g} for r={r}"
            )
        c = j * L / (M + 1)
    elif scheme is Scheme.CON:
        if centers is not None:
            raise InvalidArgumentError("centers are only accepted for custom placement")
        c = (1.0 - r) * L / 2.0 + (2 * j - 1) * r * L / (2 * M)
    elif scheme is Scheme.CUSTOM:
        if centers is None:
            raise InvalidArgumentError("custom placement requires explicit centers")
        c = np.asarray(centers, dtype=float)
        if c.ndim != 1 or c.size != M:
            raise InvalidArgumentError(f"expected {M} centers, got shape {c.shape}")
        if c.size > 1 and np.any(np.diff(c) <= 0.0):
            raise InvalidArgumentError("custom centers must be strictly increasing")
    else:  # pragma: no cover - enum is closed
        raise InvalidArgumentError(f"unknown scheme {scheme!r}")

    if c[0] - delta < -_GEOM_RTOL * L or c[-1] + delta > L * (1.0 + _GEOM_RTOL):
        raise InvalidArgumentError(
            f"actuator supports must lie inside (0, {L}): "
            f"first starts at {c[0] - delta:.6g}, last ends at {c[-1] + delta:.6g}"
        )

    if M == 1:
        disjoint = True
    else:
        gap_needed = r * L / M
        disjoint = bool(np.min(np.diff(c)) >= gap_needed * (1.0 - _GEOM_RTOL))

    c = c.copy()
    c.flags.writeable = False
    return ActuatorSet(
        L=L, M=M, r=r, scheme=scheme, centers=c, half_width=delta, disjoint=disjoint
    )


def _check_actuator_index(aset: ActuatorSet, j: int) -> None:
    if int(j) != j or not 1 <= j <= aset.M:
        raise InvalidArgumentError(f"actuator index must lie in 1..{aset.M}, got {j}")


def support_bounds(aset: ActuatorSet, j: int) -> tuple[float, float]:
    """Endpoints (c_j - delta, c_j + delta) of the j-th support, 1-based j."""
    _check_actuator_index(aset, j)
    c = float(aset.centers[j - 1])
    return c - aset.half_width, c + aset.half_width


def all_breakpoints(aset: ActuatorSet) -> list[float]:
    """Sorted support endpoints of every actuator; quadrature split points."""
    pts: list[float] = []
    for j in range(1, aset.M + 1):
        lo, hi = support_bounds(aset, j)
        pts.extend((lo, hi))
    return sorted(pts)


def indicators(aset: ActuatorSet, x) -> np.ndarray:
    """Values of 1_omega_1, ..., 1_omega_M at x; shape of x + (M,).

    Each indicator is 1 strictly inside its open support and 0 elsewhere; the
    endpoints themselves map to 0 (a measure-zero convention; no L2 quantity
    depends on it).
    """
    arr = np.asarray(x, dtype=float)[..., None]
    c = aset.centers
    return ((arr > c - aset.half_width) & (arr < c + aset.half_width)).astype(float)


def normalized_indicator_coeff(aset: ActuatorSet) -> float:
    """Scalar making coeff * 1_omega_j a unit L2 vector: sqrt(M/(r*L))."""
    return math.sqrt(aset.M / (aset.r * aset.L))
