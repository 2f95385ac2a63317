"""Tests for actuator placement and indicator evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_stab.actuators import (
    Scheme,
    all_breakpoints,
    indicators,
    normalized_indicator_coeff,
    place,
    support_bounds,
)
from oblique_stab.errors import ConstraintViolationError, InvalidArgumentError


def _bounds(aset):
    return [support_bounds(aset, j) for j in range(1, aset.M + 1)]


def test_mxe_centers():
    aset = place(Scheme.MXE, math.pi, 4, 0.2)
    expected = [(2 * j - 1) * math.pi / 8 for j in range(1, 5)]
    assert np.allclose(aset.centers, expected)


def test_uni_centers():
    aset = place(Scheme.UNI, math.pi, 3, 0.3)
    expected = [j * math.pi / 4 for j in range(1, 4)]
    assert np.allclose(aset.centers, expected)


def test_con_centers_cluster_in_middle():
    L, M, r = math.pi, 3, 0.5
    aset = place(Scheme.CON, L, M, r)
    lo = (1 - r) * L / 2
    expected = [lo + (2 * j - 1) * r * L / (2 * M) for j in range(1, M + 1)]
    assert np.allclose(aset.centers, expected)
    # supports tile the middle section [lo, lo + r L] with zero gaps
    bounds = _bounds(aset)
    assert bounds[0][0] == pytest.approx(lo)
    assert bounds[-1][1] == pytest.approx(lo + r * L)
    for (_, b0), (a1, _) in zip(bounds, bounds[1:]):
        assert b0 == pytest.approx(a1)


def test_half_width_formula():
    aset = place(Scheme.MXE, 2.0, 5, 0.4)
    assert aset.half_width == pytest.approx(0.4 * 2.0 / 10)


def test_total_support_fraction_is_r():
    for scheme in (Scheme.MXE, Scheme.UNI, Scheme.CON):
        aset = place(scheme, math.pi, 4, 0.25)
        total = sum(b - a for a, b in _bounds(aset))
        assert total == pytest.approx(0.25 * math.pi, rel=1e-12)


def test_uni_constraint_violation_message():
    with pytest.raises(ConstraintViolationError) as exc:
        place(Scheme.UNI, math.pi, 2, 0.9)
    assert "M >= r/(1-r)" in str(exc.value)


def test_uni_boundary_of_constraint_admitted():
    # M = 9 at r = 0.9 sits exactly on the bound and must be accepted
    aset = place(Scheme.UNI, math.pi, 9, 0.9)
    bounds = _bounds(aset)
    assert bounds[0][0] >= -1e-12
    assert bounds[-1][1] <= math.pi + 1e-12


def test_disjointness_flag():
    assert place(Scheme.MXE, math.pi, 5, 0.3).disjoint
    assert place(Scheme.CON, math.pi, 4, 0.5).disjoint
    crowded = place(Scheme.CUSTOM, math.pi, 2, 0.5, centers=(1.4, 1.6))
    assert not crowded.disjoint


def test_custom_placement_roundtrip():
    centers = (0.5, 1.1, 2.9)
    aset = place(Scheme.CUSTOM, math.pi, 3, 0.1, centers=centers)
    assert np.allclose(aset.centers, centers)


def test_custom_placement_requires_increasing_centers():
    with pytest.raises(InvalidArgumentError):
        place(Scheme.CUSTOM, math.pi, 2, 0.1, centers=(1.0, 1.0))


def test_custom_placement_requires_supports_inside_domain():
    with pytest.raises(InvalidArgumentError):
        place(Scheme.CUSTOM, math.pi, 2, 0.5, centers=(0.1, 2.0))


def test_custom_placement_requires_matching_count():
    with pytest.raises(InvalidArgumentError):
        place(Scheme.CUSTOM, math.pi, 3, 0.1, centers=(1.0, 2.0))


def test_centers_only_for_custom():
    with pytest.raises(InvalidArgumentError):
        place(Scheme.MXE, math.pi, 2, 0.1, centers=(1.0, 2.0))


def test_invalid_volume_fraction():
    for r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            place(Scheme.MXE, math.pi, 3, r)


def test_invalid_count_and_length():
    with pytest.raises(InvalidArgumentError):
        place(Scheme.MXE, math.pi, 0, 0.5)
    with pytest.raises(InvalidArgumentError):
        place(Scheme.MXE, -1.0, 3, 0.5)


def test_indicator_is_open_interval():
    aset = place(Scheme.MXE, math.pi, 2, 0.5)
    lo, hi = support_bounds(aset, 1)
    vals = indicators(aset, np.array([lo, 0.5 * (lo + hi), hi]))
    assert vals.shape == (3, 2)
    assert vals[0, 0] == 0.0
    assert vals[1, 0] == 1.0
    assert vals[2, 0] == 0.0
    assert not vals[:, 1].any()


def test_indicator_scalar_input():
    aset = place(Scheme.MXE, math.pi, 1, 0.5)
    assert indicators(aset, float(aset.centers[0])).tolist() == [1.0]
    assert indicators(aset, 0.0).tolist() == [0.0]


def test_normalized_indicator_coefficient():
    L, M, r = math.pi, 4, 0.2
    aset = place(Scheme.MXE, L, M, r)
    assert normalized_indicator_coeff(aset) == pytest.approx(math.sqrt(M / (r * L)))
    mid = float(aset.centers[1])
    val = normalized_indicator_coeff(aset) * indicators(aset, np.array([mid]))[0, 1]
    assert val == pytest.approx(math.sqrt(M / (r * L)))


def test_normalized_indicators_have_unit_l2_norm():
    aset = place(Scheme.UNI, 2.0, 3, 0.3)
    for j in range(1, 4):
        lo, hi = support_bounds(aset, j)
        norm_sq = normalized_indicator_coeff(aset) ** 2 * (hi - lo)
        assert norm_sq == pytest.approx(1.0, rel=1e-12)


def test_breakpoints_sorted_and_complete():
    aset = place(Scheme.UNI, math.pi, 3, 0.3)
    bps = all_breakpoints(aset)
    assert bps == sorted(bps)
    assert len(bps) == 6


def test_actuator_index_bounds_checked():
    aset = place(Scheme.MXE, math.pi, 3, 0.2)
    for j in (0, 4):
        with pytest.raises(InvalidArgumentError):
            support_bounds(aset, j)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.MXE, Scheme.CON]),
    L=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    M=st.integers(min_value=1, max_value=30),
    r=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
def test_supports_disjoint_and_inside_domain(scheme, L, M, r):
    aset = place(scheme, L, M, r)
    bounds = _bounds(aset)
    tol = 1e-9 * L
    assert bounds[0][0] >= -tol
    assert bounds[-1][1] <= L + tol
    for (_, b0), (a1, _) in zip(bounds, bounds[1:]):
        assert b0 <= a1 + tol
    assert aset.disjoint


@settings(max_examples=40, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=30),
    r=st.floats(min_value=0.01, max_value=0.7, allow_nan=False),
)
def test_uni_supports_disjoint_when_admissible(M, r):
    if M < r / (1.0 - r):
        return
    aset = place(Scheme.UNI, math.pi, M, r)
    for (_, b0), (a1, _) in zip(_bounds(aset), _bounds(aset)[1:]):
        assert b0 <= a1 + 1e-9
