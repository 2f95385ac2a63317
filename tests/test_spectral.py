"""Tests for the Laplacian eigenpair helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_stab.errors import InvalidArgumentError
from oblique_stab.quadrature import integrate
from oblique_stab.spectral import (
    BoundaryCondition,
    build_basis,
    eigenfunctions,
    eval_eigenfunction,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def test_dirichlet_eigenvalues_reference_interval():
    basis = build_basis(D, math.pi, 6)
    assert np.allclose(basis.alphas, [i * i for i in range(1, 7)], rtol=1e-15)


def test_neumann_eigenvalues_reference_interval():
    basis = build_basis(N, math.pi, 6)
    assert np.allclose(basis.alphas, [(i - 1) ** 2 for i in range(1, 7)], rtol=1e-15)


def test_eigenvalue_rescaling():
    # alpha scales by (pi/L)^2 relative to the reference interval
    L = 2.5
    ref = build_basis(D, math.pi, 4).alphas
    scaled = build_basis(D, L, 4).alphas
    assert np.allclose(scaled, (math.pi / L) ** 2 * np.asarray(ref), rtol=1e-14)


def test_first_neumann_mode_is_constant():
    L = 3.0
    basis = build_basis(N, L, 3)
    x = np.linspace(0.0, L, 11)
    assert np.allclose(eval_eigenfunction(basis, 1, x), 1.0 / math.sqrt(L))


def test_dirichlet_modes_vanish_at_boundary():
    basis = build_basis(D, 1.7, 5)
    for i in (1, 2, 5):
        assert eval_eigenfunction(basis, i, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert eval_eigenfunction(basis, i, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_neumann_modes_have_zero_slope_at_boundary():
    # one-sided difference quotients: O(h) for a zero slope, while the
    # Dirichlet modes of the same wavenumber have slopes of order one
    L, h = 2.0, 1e-7

    def slopes(basis, i):
        e = lambda x: eval_eigenfunction(basis, i, x)
        return (e(h) - e(0.0)) / h, (e(L) - e(L - h)) / h

    neumann = build_basis(N, L, 4)
    dirichlet = build_basis(D, L, 3)
    for i in (2, 3, 4):
        assert max(map(abs, slopes(neumann, i))) <= 1e-5
        assert min(map(abs, slopes(dirichlet, i - 1))) >= 1.0


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("L", [math.pi, 1.0, 2.5])
def test_orthonormality(bc, L):
    basis = build_basis(bc, L, 5)
    for a in (1, 2, 3, 5):
        for b in (1, 2, 3, 5):
            val = integrate(
                lambda x: eval_eigenfunction(basis, a, x) * eval_eigenfunction(basis, b, x),
                0.0,
                L,
                n_panels=32,
            )
            assert val == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_rescale_relates_eigenfunctions_across_lengths():
    # e_i on (0, L) sampled uniformly equals sqrt(pi/L) times e_i on (0, pi)
    L = 2.5
    xs_pi = np.linspace(0.0, math.pi, 13)
    xs_L = np.linspace(0.0, L, 13)
    for bc in (D, N):
        b_pi = build_basis(bc, math.pi, 3)
        b_L = build_basis(bc, L, 3)
        for i in (1, 3):
            lhs = eval_eigenfunction(b_L, i, xs_L)
            rhs = math.sqrt(math.pi / L) * eval_eigenfunction(b_pi, i, xs_pi)
            assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("bc", [D, N])
def test_family_matches_single_eigenfunctions(bc):
    basis = build_basis(bc, 2.5, 5)
    x = np.linspace(0.0, 2.5, 12).reshape(3, 4)
    family = eigenfunctions(basis, x)
    assert family.shape == (3, 4, 5)
    for i in range(1, 6):
        assert np.array_equal(family[..., i - 1], eval_eigenfunction(basis, i, x))
    assert eigenfunctions(basis, 1.0).shape == (5,)
    with pytest.raises(InvalidArgumentError):
        eigenfunctions(basis, np.array([-0.1, 1.0]))


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidArgumentError):
        build_basis(D, -1.0, 3)
    with pytest.raises(InvalidArgumentError):
        build_basis(D, math.pi, 0)
    basis = build_basis(D, math.pi, 3)
    for bad in (0, 4):
        with pytest.raises(InvalidArgumentError):
            eval_eigenfunction(basis, bad, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    bc=st.sampled_from([D, N]),
    L=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    i=st.integers(min_value=1, max_value=12),
)
def test_unit_l2_norm_property(bc, L, i):
    basis = build_basis(bc, L, i)
    val = integrate(
        lambda x: eval_eigenfunction(basis, i, x) ** 2,
        0.0,
        L,
        n_panels=4 * i + 8,
    )
    assert val == pytest.approx(1.0, abs=1e-10)
