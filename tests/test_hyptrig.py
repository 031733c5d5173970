"""Hyperbolic trigonometry: frozen reference values, identities, and
domain validation.

Reference digits were produced by an independent 60-digit evaluation of
the same closed forms and are pinned here to 13+ significant digits,
well past double rounding.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intnorm import (
    DomainError,
    TWO_ARSINH_ONE,
    boundary_length,
    collar_width,
    crossing_arc_length,
)
from intnorm.hyptrig import fermi_distance

# 20-digit values from the extended-precision derivation run.
COLLAR_WIDTH_REFERENCE = {
    0.25: 2.7738896200803702666,
    0.2: 2.9965651211176617037,
    0.1: 3.6890877570706633972,
    0.05: 4.3820787161084268393,
    1e-3: 8.2940496609353607004,
    1e-6: 15.201804919084185556,
}

POSITIVE_WIDTHS = st.floats(min_value=0.05, max_value=5.0,
                            allow_nan=False, allow_infinity=False)
CORE_ADVANCES = st.floats(min_value=0.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("length,expected",
                         sorted(COLLAR_WIDTH_REFERENCE.items()))
def test_collar_width_reference_values(length, expected):
    assert collar_width(length) == pytest.approx(expected, rel=1e-13)


def test_collar_width_extended_agrees_with_double():
    for length in COLLAR_WIDTH_REFERENCE:
        wide = float(collar_width(length, extended=True))
        assert collar_width(length) == pytest.approx(wide, rel=1e-13)
    for args in ((1.0, 2.0), (0.5, -4.0), (3.0, 0.1)):
        wide = float(crossing_arc_length(*args, extended=True))
        assert crossing_arc_length(*args) == pytest.approx(wide, rel=1e-13)
    for args in ((0.2, 1.5), (1e-3, 7.0)):
        wide = float(boundary_length(*args, extended=True))
        assert boundary_length(*args) == pytest.approx(wide, rel=1e-13)
    # the last two, 0.5 and 2.048 apart, round to 0 in the cosh d form
    for p1, p2 in (((0.0, -1.0), (2.0, 1.0)), ((0.3, 0.5), (-1.2, -0.4)),
                   ((0.0, 20.0), (0.0, 20.5)), ((0.0, 20.0), (1e-8, 20.0))):
        wide = float(fermi_distance(p1, p2, extended=True))
        assert fermi_distance(p1, p2) == pytest.approx(wide, rel=1e-13)


def test_extended_mode_returns_50_digit_values():
    assert isinstance(collar_width(0.1, extended=True), mpmath.mpf)
    with mpmath.workdps(60):
        reference = 2 * mpmath.acosh(mpmath.cosh(1) * mpmath.cosh(1))
        value = crossing_arc_length(1.0, 2.0, extended=True)
        assert abs(value - reference) < mpmath.mpf(10) ** -45
        assert fermi_distance((0.0, 0.0), (0.0, 0.0), extended=True) == 0


def test_collar_width_small_length_asymptotics():
    """For tiny lengths the width behaves like log(4/length)."""
    assert abs(collar_width(1e-6) - math.log(4e6)) < 1e-6


def test_collar_width_strictly_decreasing():
    grid = [0.01 * k for k in range(1, 176)]
    values = [collar_width(x) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_crossing_arc_length_reference_values():
    assert crossing_arc_length(1.0, 2.0) == pytest.approx(
        3.0267480131930079196, rel=1e-13)
    assert crossing_arc_length(0.5, 4.0) == pytest.approx(
        4.2481498693019188393, rel=1e-13)


def test_fermi_distance_matches_symmetric_crossing():
    # the arc from (0, -w) to (dt, w) has exactly the crossing length
    assert fermi_distance((0.0, -1.0), (2.0, 1.0)) == pytest.approx(
        crossing_arc_length(1.0, 2.0), rel=1e-12)


def test_boundary_length_reference_values():
    w_02 = collar_width(0.2) - 1.3
    w_01 = collar_width(0.1) - 1.3
    assert boundary_length(0.2, w_02) == pytest.approx(
        0.56384893991308830384, rel=1e-13)
    assert boundary_length(0.1, w_01) == pytest.approx(
        0.54976280177795920187, rel=1e-13)


@given(w=POSITIVE_WIDTHS, dt=CORE_ADVANCES)
@settings(max_examples=120, deadline=None)
def test_crossing_arc_length_identities(w, dt):
    """The crossing length L obeys cosh(L/2) = cosh(w) cosh(dt/2), hence
    cosh(L) = 2 (cosh w cosh(dt/2))^2 - 1, and dominates both the double
    width and the core advance."""
    length = crossing_arc_length(w, dt)
    product = math.cosh(w) * math.cosh(dt / 2.0)
    assert math.cosh(length) == pytest.approx(2.0 * product * product - 1.0,
                                              rel=1e-10)
    assert length >= 2.0 * w - 1e-12
    assert length >= dt - 1e-12


@given(w=POSITIVE_WIDTHS, dt=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_crossing_arc_length_equals_fermi_distance(w, dt):
    direct = fermi_distance((0.0, -w), (dt, w))
    assert crossing_arc_length(w, dt) == pytest.approx(direct, rel=1e-11)


@given(t1=st.floats(-3, 3), s1=st.floats(-3, 3),
       t2=st.floats(-3, 3), s2=st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_fermi_distance_symmetry_and_positivity(t1, s1, t2, s2):
    d12 = fermi_distance((t1, s1), (t2, s2))
    d21 = fermi_distance((t2, s2), (t1, s1))
    assert d12 == pytest.approx(d21, abs=1e-12)
    assert d12 >= 0.0
    if (t1, s1) == (t2, s2):
        assert d12 == 0.0


def test_fermi_distance_core_segment():
    # both points on the core: plain arc length along it
    assert fermi_distance((0.3, 0.0), (1.1, 0.0)) == pytest.approx(
        0.8, rel=1e-12)


def test_crossing_arc_length_monotone_in_both_arguments():
    assert crossing_arc_length(1.0, 2.0) < crossing_arc_length(1.2, 2.0)
    assert crossing_arc_length(1.0, 2.0) < crossing_arc_length(1.0, 2.5)


def test_boundary_length_grows_with_width():
    assert boundary_length(0.2, 1.0) < boundary_length(0.2, 2.0)
    assert boundary_length(0.2, 1.5) == pytest.approx(
        0.2 * math.cosh(1.5), rel=1e-15)


def test_two_arsinh_one_constant():
    assert TWO_ARSINH_ONE == pytest.approx(1.7627471740390860505, rel=1e-15)


# the last two leave the range of double precision: 1/sinh(length/2)
# overflows below about 1e-308, sinh(length/2) above about 1420
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e-320,
                                 2000.0])
def test_collar_width_rejects_bad_lengths(bad):
    with pytest.raises(DomainError):
        collar_width(bad)


def test_collar_width_rejects_a_length_whose_half_is_zero():
    # 5e-324 / 2 rounds to 0, where 1/sinh(length/2) divides by zero
    with pytest.raises(DomainError, match="range of double precision"):
        collar_width(5e-324)
    assert collar_width(5e-324, extended=True) > 0


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_boundary_length_rejects_bad_arguments(bad):
    with pytest.raises(DomainError):
        boundary_length(bad, 1.0)
    with pytest.raises(DomainError):
        boundary_length(0.2, bad)


def test_crossing_arc_length_rejects_bad_arguments():
    with pytest.raises(DomainError):
        crossing_arc_length(-1.0, 1.0)
    with pytest.raises(DomainError):
        crossing_arc_length(0.0, 1.0)
    with pytest.raises(DomainError):
        crossing_arc_length(1.0, math.inf)


def test_crossing_arc_length_even_in_core_advance():
    assert crossing_arc_length(1.0, -2.0) == crossing_arc_length(1.0, 2.0)


def test_fermi_distance_rejects_nonfinite_points():
    with pytest.raises(DomainError):
        fermi_distance((math.nan, 0.0), (1.0, 1.0))


# results past the range of double precision: math's cosh raises
# OverflowError, or a product rounds to inf; finite results keep their bits

def test_crossing_arc_length_refuses_a_value_past_double_range():
    for args in ((1.0, 2000.0), (400.0, 900.0)):
        with pytest.raises(DomainError, match="range of double precision"):
            crossing_arc_length(*args)
    assert crossing_arc_length(1.0, 1400.0) == 2 * math.acosh(
        math.cosh(1.0) * math.cosh(700.0))


def test_boundary_length_refuses_a_value_past_double_range():
    for args in ((0.2, 1000.0), (1e10, 700.0)):
        with pytest.raises(DomainError, match="range of double precision"):
            boundary_length(*args)
    assert boundary_length(0.2, 700.0) == 0.2 * math.cosh(700.0)


def test_fermi_distance_refuses_a_value_past_double_range():
    # sinh(1000) overflows
    with pytest.raises(DomainError, match="range of double precision"):
        fermi_distance((0, 0), (2000, 0))
    assert fermi_distance((0, 0), (700, 0)) == math.acosh(math.cosh(700.0))
    # cosh(400)**2 - sinh(400)**2 would be inf - inf; the distance is 0
    assert fermi_distance((0, 400), (0, 400)) == 0.0
