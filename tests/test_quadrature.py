"""Tests for the panel-based Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest

from oblique_stab.actuators import Scheme, all_breakpoints, place, uni_min_count
from oblique_stab.errors import InvalidArgumentError
from oblique_stab.quadrature import (
    _BASE_W,
    _BASE_X,
    oscillation_panels,
    panel_nodes_weights,
)
from oracles import integrate, linspace_panel_edges


def test_polynomial_exactness():
    # polynomials up to degree 31 = 2*16 - 1 integrate exactly on one panel
    val = integrate(lambda x: x**7 - 3 * x**3 + 2, 0.0, 2.0, n_panels=1)
    exact = 2.0**8 / 8 - 3 * 2.0**4 / 4 + 2 * 2.0
    assert val == pytest.approx(exact, rel=1e-14)


def test_oscillatory_integral():
    val = integrate(np.sin, 0.0, math.pi, n_panels=8)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_breakpoints_resolve_kinks():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    smooth = integrate(f, 0.0, 1.0, n_panels=4)
    split = integrate(f, 0.0, 1.0, n_panels=4, breakpoints=(0.3,))
    assert abs(split - exact) < abs(smooth - exact)
    assert split == pytest.approx(exact, rel=1e-14)


def test_nodes_split_at_breakpoints():
    # pieces [0, 0.25] and [0.25, 1] get 1 and 3 of the 4 panels
    x, w = panel_nodes_weights(0.0, 1.0, 4, breakpoints=(0.25, 0.25, 2.0))
    assert x.shape == w.shape == (4 * 16,)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-15)
    assert np.all(x[:16] < 0.25) and np.all(x[16:] > 0.25)
    assert np.sum(w[:16]) == pytest.approx(0.25, rel=1e-15)


def test_oscillation_panels_scale_with_frequency():
    assert oscillation_panels(40, math.pi) > oscillation_panels(4, math.pi)


def test_invalid_interval():
    with pytest.raises(InvalidArgumentError):
        integrate(np.sin, 1.0, 0.0)


@pytest.mark.parametrize("scheme", [Scheme.MXE, Scheme.UNI, Scheme.CON])
@pytest.mark.parametrize("n_panels", [8, 17, 64, 123])
def test_panel_nodes_match_per_piece_linspace(scheme, n_panels):
    # every panel edge is the value np.linspace gives for its piece, bit for bit
    for L in (math.pi, 1.0, 0.37, 12.5):
        for M in (1, 2, 5, 13, 40):
            for r in (0.05, 0.3, 0.7):
                if scheme is Scheme.UNI and M < uni_min_count(r):
                    continue
                cuts = all_breakpoints(place(scheme, L, M, r))
                edges = linspace_panel_edges(0.0, L, n_panels, cuts)
                half = 0.5 * np.diff(edges)
                mid = 0.5 * (edges[:-1] + edges[1:])
                x, w = panel_nodes_weights(0.0, L, n_panels, cuts)
                assert np.array_equal(x, (mid[:, None] + half[:, None] * _BASE_X).ravel())
                assert np.array_equal(w, (half[:, None] * _BASE_W).ravel())
