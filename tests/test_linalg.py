"""Tests for the tridiagonal factor and solve, and for the general product of
the test oracles that checks them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_stab.errors import InvalidArgumentError, NumericalFailureError
from oblique_stab.linalg import tridiag_factor, tridiag_solve
from oracles import tridiag_matvec

rng = np.random.default_rng(20240817)


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_sym_tridiagonal_matvec():
    diag = np.array([2.0, 3.0, 4.0, 5.0])
    off = np.array([-1.0, 0.5, 1.5])
    dense = _dense(diag, off)
    v = rng.standard_normal(4)
    assert np.allclose(tridiag_matvec(diag, off, v), dense @ v, atol=1e-14)
    # an (n, B) block is multiplied column by column, with the same rounding
    X = rng.standard_normal((4, 3))
    block = tridiag_matvec(diag, off, X)
    assert np.allclose(block, dense @ X, atol=1e-14)
    for j in range(3):
        assert np.array_equal(block[:, j], tridiag_matvec(diag, off, X[:, j]))


def test_tridiag_combine_linearity():
    # a combination of (diag, off) pairs acts as the same combination of products
    d1, o1 = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.5])
    d2, o2 = np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0])
    v = rng.standard_normal(3)
    combined = tridiag_matvec(2 * d1 + 3 * d2, 2 * o1 + 3 * o2, v)
    separate = 2 * tridiag_matvec(d1, o1, v) + 3 * tridiag_matvec(d2, o2, v)
    assert np.allclose(combined, separate, atol=1e-14)


def test_spd_tridiag_solve_matches_dense():
    n = 50
    diag = np.full(n, 2.0) + rng.random(n)
    off = -0.9 * np.ones(n - 1)
    dense = _dense(diag, off)
    b = rng.standard_normal(n)
    x = tridiag_solve(tridiag_factor(diag, off), b)
    assert np.allclose(dense @ x, b, atol=1e-9)


def test_spd_factor_reusable_for_many_right_hand_sides():
    diag = np.array([4.0, 4.0, 4.0, 4.0])
    off = np.array([1.0, 1.0, 1.0])
    factor = tridiag_factor(diag, off)
    dense = _dense(diag, off)
    for _ in range(3):
        b = rng.standard_normal(4)
        assert np.allclose(dense @ tridiag_solve(factor, b), b, atol=1e-12)
    B = rng.standard_normal((4, 5))
    assert np.allclose(dense @ tridiag_solve(factor, B), B, atol=1e-12)


def test_spd_factor_rejects_indefinite():
    # eigenvalues of this matrix straddle zero
    with pytest.raises(NumericalFailureError, match="not positive definite"):
        tridiag_factor(np.array([1.0, -2.0, 1.0]), np.array([0.1, 0.1]))


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        tridiag_factor(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        tridiag_factor(np.array([2.0, np.nan]), np.array([1.0]))
    factor = tridiag_factor(np.array([4.0, 4.0, 4.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        tridiag_solve(factor, np.ones(4))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_spd_tridiag_solve_residual_property(n, seed):
    local = np.random.default_rng(seed)
    off = local.uniform(-1.0, 1.0, n - 1)
    # strict diagonal dominance keeps the matrix SPD
    diag = 2.0 + np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    b = local.standard_normal(n)
    x = tridiag_solve(tridiag_factor(diag, off), b)
    assert np.allclose(tridiag_matvec(diag, off, x), b, atol=1e-8)
