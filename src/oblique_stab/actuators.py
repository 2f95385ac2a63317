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
never overlap for mxe, for uni exactly when M >= r/(1 - r), and for con the
neighbouring supports touch (gap zero, an overlap of measure zero).
all_breakpoints returns the 2M support endpoints as one sorted array, the
points where quadrature splits its panels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_member, checked_count, checked_positive

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

    The supports overlap at most in a point when consecutive centers keep
    the distance r*L/M; Gram assembly stays valid for overlapping custom
    placements, but the closed-form operator-norm results assume they do not.
    """

    L: float
    M: int
    r: float
    scheme: Scheme
    centers: np.ndarray
    half_width: float


def uni_min_count(r: float) -> int:
    """Smallest M that uniform placement accepts: M >= r/(1 - r), r checked."""
    r = checked_fraction(r)
    return math.ceil(r / (1.0 - r) * (1.0 - _GEOM_RTOL))


def checked_fraction(r) -> float:
    """r as a float; raises unless it lies in (0, 1)."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise InvalidArgumentError(f"volume fraction must lie in (0, 1), got {r}")
    return r


def check_uni_count(M: int, r: float) -> None:
    """Raises unless uniform placement accepts M actuators at volume fraction r."""
    if M < uni_min_count(r):
        raise InvalidArgumentError(
            f"uniform placement requires M >= r/(1-r): M={M} < {r / (1.0 - r):.6g} for r={r}"
        )


def center_rationals(scheme: Scheme, M: int) -> tuple[np.ndarray, int]:
    """Integers n_j and d with c_j = n_j L / d: n_j = 2j - 1 and d = 2M for
    mxe, n_j = j and d = M + 1 for uni; place and the cross-Gram read these."""
    j = np.arange(1, M + 1)
    return (2 * j - 1, 2 * M) if scheme is Scheme.MXE else (j, M + 1)


def place(
    scheme: Scheme,
    L: float,
    M: int,
    r: float,
    centers: np.ndarray | None = None,
) -> ActuatorSet:
    """Build an ActuatorSet for one of the placement rules.

    mxe and uni centers are n_j L / d with center_rationals' integers, and
    con centers the mxe ones of (0, r L) shifted by (1 - r) L / 2.
    centers is only accepted (and required) for Scheme.CUSTOM and must be
    finite and strictly increasing with every support inside (0, L).  This is
    the only check of actuator geometry; whether an accepted set splits the
    space with the spectral complement is build_projection's test.
    """
    check_member(Scheme, scheme)
    L = checked_positive("interval length", L)
    M, r = checked_count("actuator count", M), checked_fraction(r)
    delta = r * L / (2 * M)

    if (centers is not None) != (scheme is Scheme.CUSTOM):
        raise InvalidArgumentError("only custom placement takes centers, and it needs them")
    top = {Scheme.MXE: 2 * M - 1, Scheme.UNI: M, Scheme.CON: (2 * M - 1) * r}.get(scheme, 0)
    if not math.isfinite(top * L):  # the largest numerator of c below
        raise InvalidArgumentError(f"interval length L = {L} is too large to place {M} actuators")
    if scheme is Scheme.UNI:
        check_uni_count(M, r)
    if scheme is Scheme.MXE or scheme is Scheme.UNI:
        n, d = center_rationals(scheme, M)
        c = n * L / d
    elif scheme is Scheme.CON:
        n, d = center_rationals(Scheme.MXE, M)
        c = (1.0 - r) * L / 2.0 + n * r * L / d
    else:  # custom
        c = np.asarray(centers, dtype=float)
        if c.ndim != 1 or c.size != M:
            raise InvalidArgumentError(f"expected {M} centers, got shape {c.shape}")
        if not (np.all(np.isfinite(c)) and np.all(np.diff(c) > 0.0)):
            raise InvalidArgumentError("custom centers must be finite and strictly increasing")

    if c[0] - delta < -_GEOM_RTOL * L or c[-1] + delta > L * (1.0 + _GEOM_RTOL):
        raise InvalidArgumentError(
            f"actuator supports must lie inside (0, {L}): "
            f"first starts at {c[0] - delta:.6g}, last ends at {c[-1] + delta:.6g}"
        )

    c = c.copy()
    c.flags.writeable = False
    return ActuatorSet(L=L, M=M, r=r, scheme=scheme, centers=c, half_width=delta)


def all_breakpoints(aset: ActuatorSet) -> np.ndarray:
    """Sorted support endpoints c_j -/+ delta of every actuator; quadrature
    split points."""
    c, delta = aset.centers, aset.half_width
    return np.sort(np.concatenate((c - delta, c + delta)))


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
