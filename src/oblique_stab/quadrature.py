"""Composite 16-point Gauss-Legendre quadrature split at discontinuities.

The integrands of this library are products of Laplacian eigenfunctions and
indicator functions: smooth oscillations at wavenumbers up to M*pi/L, broken
by jump discontinuities at actuator endpoints.  One node set covers [a, b]:
the interval is cut at every breakpoint, each piece gets a share of the panel
budget in proportion to its length (at least one panel), and each panel
carries the 16-point rule.  With the budget scaling with the highest
wavenumber (at least four panels per oscillation period) this integrates
such integrands to near machine precision.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from .errors import InvalidArgumentError

_BASE_X, _BASE_W = np.polynomial.legendre.leggauss(16)


def oscillation_panels(max_wavenumber: float, length: float) -> int:
    """Panel count resolving oscillations exp(i*k*x) with k <= max_wavenumber.

    Four panels per period 2*pi/k over an interval of the given length, with a
    floor of eight panels so low-frequency integrands still get a composite
    rule.
    """
    if length <= 0.0:
        raise InvalidArgumentError(f"interval length must be positive, got {length}")
    periods = max(0.0, max_wavenumber) * length / (2.0 * math.pi)
    return max(8, int(math.ceil(4.0 * periods)))


def panel_nodes_weights(
    a: float, b: float, n_panels: int, breakpoints: Iterable[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b].

    Interior breakpoints cut the interval so that discontinuities land on
    panel boundaries; the n_panels budget is distributed over the pieces in
    proportion to their length, with at least one equal-width panel each.
    """
    if not b > a:
        raise InvalidArgumentError(f"empty interval [{a}, {b}]")
    if n_panels < 1:
        raise InvalidArgumentError(f"need at least one panel, got {n_panels}")
    cuts = [a, *sorted(p for p in set(breakpoints) if a < p < b), b]
    pieces = [
        np.linspace(lo, hi, max(1, math.ceil(n_panels * (hi - lo) / (b - a))) + 1)[:-1]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    edges = np.append(np.concatenate(pieces), b)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * _BASE_X[None, :]).ravel()
    weights = (half[:, None] * _BASE_W[None, :]).ravel()
    return nodes, weights


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    n_panels: int = 8,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate a vectorized callable over [a, b] (see panel_nodes_weights)."""
    x, w = panel_nodes_weights(a, b, n_panels, breakpoints)
    return float(w @ np.asarray(f(x), dtype=float))
