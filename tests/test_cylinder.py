"""Cylinder arcs: collar construction, winding arithmetic, the crossing
oracle in Fermi coordinates, Dehn twists, and the rewinding move.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intnorm import (
    ArcSpec,
    Cylinder,
    DegenerateInputError,
    DomainError,
    ModeError,
    RejectedInputError,
    RetrySignal,
    RewindInput,
    WidthError,
    arc_length,
    collar_width,
    count_crossings_cyl,
    crossing_count_oracle_cyl,
    dehn_twist_map,
    dehn_twist_winding,
    fermi_to_halfplane,
    halfplane_to_fermi,
    intersection_bounds,
    make_collar,
    rewind_suite_check,
    rewind_winding,
    winding_from_endpoints,
)
from intnorm.cylinder import MAX_ADVANCE, MAX_TRANSLATES, MIN_CORE_LENGTH

from halfplane_reference import crossing_count_oracle_halfplane

CYL = make_collar(0.2, "shrunk")

WINDINGS = st.floats(min_value=-8.0, max_value=8.0,
                     allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------------ collars

def test_make_collar_widths():
    assert CYL.core_length == 0.2
    assert CYL.half_width == pytest.approx(2.9965651211176617037 - 1.3,
                                           rel=1e-13)
    full = make_collar(0.2, "full")
    assert full.half_width == pytest.approx(2.9965651211176617037, rel=1e-13)
    thin = make_collar(0.1, "shrunk")
    assert thin.half_width == pytest.approx(3.6890877570706633972 - 1.3,
                                            rel=1e-13)


def test_make_collar_boundary_circle():
    assert CYL.boundary_circle_length() == pytest.approx(
        0.56384893991308830384, rel=1e-13)


def test_make_collar_mode_errors():
    with pytest.raises(ModeError, match="core_length"):
        make_collar(0.3, "shrunk")
    with pytest.raises(ModeError, match="unknown"):
        make_collar(0.2, "bogus")
    # full mode has no short-core restriction
    wide = make_collar(1.5, "full")
    assert wide.half_width > 0


def test_make_collar_width_and_domain_errors():
    with pytest.raises(WidthError):
        make_collar(0.2, "shrunk", shrink=5.0)
    with pytest.raises(DomainError):
        make_collar(-1.0)
    with pytest.raises(DomainError):
        Cylinder(core_length=0.2, half_width=0.0)


# ------------------------------------------------------------------ windings

def test_winding_from_endpoints_examples():
    assert winding_from_endpoints(CYL, 0.05, 0.57) == pytest.approx(
        2.6, rel=1e-12)
    assert winding_from_endpoints(CYL, 0.05, -0.15) == pytest.approx(
        -1.0, rel=1e-12)
    assert winding_from_endpoints(CYL, 0.0, 0.0) == 0.0


def test_winding_from_endpoints_validates_entry():
    with pytest.raises(DomainError):
        winding_from_endpoints(CYL, 0.2, 0.3)
    with pytest.raises(DomainError):
        winding_from_endpoints(CYL, -0.01, 0.3)
    with pytest.raises(DomainError):
        winding_from_endpoints(CYL, 0.1, math.inf)


def test_arc_spec_validation():
    with pytest.raises(DomainError):
        ArcSpec(entry_t=0.1, winding=1.0, crossing_sign=0)
    with pytest.raises(DomainError):
        ArcSpec(entry_t=0.1, winding=math.inf, crossing_sign=1)
    with pytest.raises(DomainError):
        ArcSpec(entry_t=math.nan, winding=1.0, crossing_sign=1)
    assert ArcSpec(0.1, 2.5, 1).orientation == 1
    assert ArcSpec(0.1, -2.5, 1).orientation == -1
    assert ArcSpec(0.1, 0.0, -1).orientation == 0


def test_arc_length_frozen_value():
    arc = ArcSpec(entry_t=0.0, winding=2.6, crossing_sign=1)
    assert arc_length(CYL, arc) == pytest.approx(3.4644637471629485847,
                                                 rel=1e-13)


@given(wind=WINDINGS)
@settings(max_examples=100, deadline=None)
def test_arc_length_dominates_width_and_advance(wind):
    arc = ArcSpec(entry_t=0.0, winding=wind, crossing_sign=1)
    length = arc_length(CYL, arc)
    assert length >= 2.0 * CYL.half_width - 1e-12
    assert length >= abs(wind) * CYL.core_length - 1e-12


# --------------------------------------------------------- winding window

def test_intersection_bounds_examples():
    assert intersection_bounds(0.0, 2.5, True) == (2, 3, 1)
    assert intersection_bounds(1.7, 1.7, True) == (0, 1, 0)
    assert intersection_bounds(1.2, 0.3, False) == (1, 2, 1)
    assert intersection_bounds(2.5, 0.0, True) == (2, 3, -1)
    assert intersection_bounds(-1.2, 1.3, False) == (0, 1, 1)


def test_intersection_bounds_rejects_nonfinite():
    with pytest.raises(DomainError):
        intersection_bounds(math.nan, 1.0, True)


@given(c=WINDINGS, d=WINDINGS, same=st.booleans())
@settings(max_examples=150, deadline=None)
def test_intersection_bounds_window_shape(c, d, same):
    lo, hi, sign = intersection_bounds(c, d, same)
    x = d - c if same else d + c
    assert hi == lo + 1
    assert lo == math.floor(abs(x))
    assert sign == (0 if x == 0 else math.copysign(1, x))
    # swapping the arcs flips the same-side sign, keeps the opposite one
    lo2, hi2, sign2 = intersection_bounds(d, c, same)
    assert (lo2, hi2) == (lo, hi)
    assert sign2 == (-sign if same else sign)


# ---------------------------------------------------------- crossing oracle

def test_oracle_disjoint_zero_winding_arcs():
    arc1 = ArcSpec(entry_t=0.03, winding=0.0, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.11, winding=0.0, crossing_sign=1)
    rep = crossing_count_oracle_cyl(CYL, arc1, arc2)
    assert rep.count == 0
    assert rep.signs == ()


def test_oracle_frozen_example():
    arc1 = ArcSpec(entry_t=0.03, winding=0.0, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.11, winding=2.5, crossing_sign=1)
    rep = crossing_count_oracle_cyl(CYL, arc1, arc2)
    lo, hi, sign = intersection_bounds(0.0, 2.5, True)
    assert rep.count == 2
    assert lo <= rep.count <= hi
    assert rep.signs == (1,) * rep.count
    assert rep.uniform_sign() == sign
    for t, s in rep.positions:
        assert 0.0 <= t < CYL.core_length
        assert abs(s) <= CYL.half_width + 1e-9


def test_oracle_rejects_identical_arcs():
    arc = ArcSpec(entry_t=0.05, winding=1.2, crossing_sign=1)
    with pytest.raises(DegenerateInputError):
        crossing_count_oracle_cyl(CYL, arc, arc)


def test_oracle_validates_window_pad_and_entry():
    arc1 = ArcSpec(entry_t=0.03, winding=0.0, crossing_sign=1)
    bad_entry = ArcSpec(entry_t=0.25, winding=1.0, crossing_sign=1)
    with pytest.raises(DomainError):
        crossing_count_oracle_cyl(CYL, arc1, bad_entry)


def test_oracle_rejects_huge_windings():
    # accepted at the advance bound, refused just past it, on either arc
    edge = MAX_ADVANCE / CYL.core_length
    arc1 = ArcSpec(entry_t=0.03, winding=0.5, crossing_sign=1)
    for wind in (edge, -edge):
        arc2 = ArcSpec(entry_t=0.11, winding=wind, crossing_sign=-1)
        rep = crossing_count_oracle_cyl(CYL, arc1, arc2)
        lo, hi, sign = intersection_bounds(0.5, wind, False)
        assert lo <= rep.count <= hi
        assert rep.uniform_sign() == sign
        past = ArcSpec(entry_t=0.11, winding=math.nextafter(wind, 2 * wind),
                       crossing_sign=-1)
        for pair in ((arc1, past), (past, arc1)):
            with pytest.raises(DomainError, match="core advance"):
                crossing_count_oracle_cyl(CYL, *pair)


def test_oracle_rejects_more_translates_than_its_bound():
    # on a short core the advance bound leaves the translate count open
    short = Cylinder(core_length=1e-4, half_width=3.0)
    arc1 = ArcSpec(entry_t=0.0, winding=0.5, crossing_sign=1)
    inside = ArcSpec(entry_t=5e-5, winding=0.9 * MAX_TRANSLATES,
                     crossing_sign=-1)
    assert inside.winding * short.core_length < MAX_ADVANCE
    rep = count_crossings_cyl(short, arc1, inside, np.random.default_rng(4))
    lo, hi, sign = intersection_bounds(0.5, inside.winding, False)
    assert lo <= rep.count <= hi
    assert rep.uniform_sign() == sign
    past = ArcSpec(entry_t=5e-5, winding=1.1 * MAX_TRANSLATES,
                   crossing_sign=-1)
    for pair in ((arc1, past), (past, arc1)):
        with pytest.raises(DomainError, match="translates"):
            crossing_count_oracle_cyl(short, *pair)


def test_oracle_rejects_cores_below_its_bound():
    arc1 = ArcSpec(entry_t=0.0, winding=0.5, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.0, winding=-2.5, crossing_sign=1)
    at_edge = Cylinder(core_length=MIN_CORE_LENGTH, half_width=3.0)
    rep = crossing_count_oracle_cyl(at_edge, arc1, arc2)
    assert rep.count in (3, 4)
    assert rep.uniform_sign() == -1
    past = Cylinder(core_length=math.nextafter(MIN_CORE_LENGTH, 0.0),
                    half_width=3.0)
    with pytest.raises(DomainError, match="core length"):
        crossing_count_oracle_cyl(past, arc1, arc2)


def test_oracle_sign_table_matches_winding_rule():
    """All four crossing-sign combinations reproduce the sign of the
    winding difference (same side) / sum (opposite sides), multiplied by
    the first arc's crossing sign."""
    rng = np.random.default_rng(5)
    c_wind, d_wind = 0.3, 2.5
    for eps1 in (1, -1):
        for eps2 in (1, -1):
            arc1 = ArcSpec(entry_t=0.03, winding=c_wind, crossing_sign=eps1)
            arc2 = ArcSpec(entry_t=0.11, winding=d_wind, crossing_sign=eps2)
            same = eps1 == eps2
            lo, hi, sign = intersection_bounds(c_wind, d_wind, same)
            rep = count_crossings_cyl(CYL, arc1, arc2, rng)
            assert lo <= rep.count <= hi, (eps1, eps2)
            assert rep.uniform_sign() == eps1 * sign, (eps1, eps2)


def test_oracle_window_count_respects_negative_windings():
    rng = np.random.default_rng(9)
    arc1 = ArcSpec(entry_t=0.02, winding=-3.4, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.15, winding=1.3, crossing_sign=1)
    lo, hi, sign = intersection_bounds(-3.4, 1.3, True)
    rep = count_crossings_cyl(CYL, arc1, arc2, rng)
    assert lo <= rep.count <= hi
    assert rep.uniform_sign() == sign == 1
    assert lo == 4


@pytest.mark.parametrize("core", [0.05, 0.1, 0.2])
def test_oracle_matches_halfplane_reference(core):
    """Identical counts and signs to the half-plane oracle on seeded
    pairs with |winding| <= 64, where that oracle is right."""
    cyl = make_collar(core, "shrunk")
    rng = np.random.default_rng(int(core * 1000))
    for _ in range(1000):
        c, d = rng.uniform(-64.0, 64.0, 2)
        arc1 = ArcSpec(rng.uniform(0.0, core), c, int(rng.choice([-1, 1])))
        arc2 = ArcSpec(rng.uniform(0.0, core), d, int(rng.choice([-1, 1])))
        ref = crossing_count_oracle_halfplane(cyl, arc1, arc2)
        rep = crossing_count_oracle_cyl(cyl, arc1, arc2)
        assert (rep.count, rep.signs) == (ref.count, ref.signs), (arc1, arc2)
        # the half-plane positions keep only about 5 digits at |w| = 64
        for (t, s), (t_ref, s_ref) in zip(rep.positions, ref.positions):
            assert math.dist((t, s), (t_ref, s_ref)) < 1e-4


@pytest.mark.parametrize("core", [0.05, 0.1, 0.2])
def test_oracle_window_and_sign_up_to_the_advance_bound(core):
    """Window and sign rule on seeded pairs whose core advances spread
    log-uniformly up to MAX_ADVANCE, with both arcs at the bound last."""
    cyl = make_collar(core, "shrunk")
    rng = np.random.default_rng(7 + int(core * 1000))
    edge = MAX_ADVANCE / core
    winds = [tuple(np.exp(rng.uniform(-3.0, math.log(edge), 2))
                   * rng.choice([-1.0, 1.0], 2)) for _ in range(200)]
    winds.append((edge, -edge))
    for c, d in winds:
        eps1 = int(rng.choice([-1, 1]))
        same = bool(rng.random() < 0.5)
        arc1 = ArcSpec(rng.uniform(0.0, core), float(c), eps1)
        arc2 = ArcSpec(rng.uniform(0.0, core), float(d),
                       eps1 if same else -eps1)
        lo, hi, sign = intersection_bounds(float(c), float(d), same)
        rep = count_crossings_cyl(cyl, arc1, arc2, rng)
        assert lo <= rep.count <= hi, (arc1, arc2)
        assert set(rep.signs) <= {eps1 * sign}, (arc1, arc2)


def test_oracle_retries_on_boundary_graze():
    # the perpendicular first arc passes through the second arc's exit
    # point on the boundary s = +w
    arc1 = ArcSpec(entry_t=0.1, winding=0.0, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.05, winding=0.25, crossing_sign=1)
    with pytest.raises(RetrySignal, match="grazes"):
        crossing_count_oracle_cyl(CYL, arc1, arc2)


def test_count_crossings_cyl_recovers_from_overlapping_lifts():
    # same entry, opposite crossing directions: identical lifted circles,
    # resolved by the jitter-and-retry wrapper
    arc1 = ArcSpec(entry_t=0.1, winding=0.0, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.1, winding=0.0, crossing_sign=-1)
    with pytest.raises(RetrySignal):
        crossing_count_oracle_cyl(CYL, arc1, arc2)
    rng = np.random.default_rng(2)
    rep = count_crossings_cyl(CYL, arc1, arc2, rng)
    assert rep.count == 0


# ------------------------------------------------------- half-plane charts

@given(t=st.floats(-5, 5), s=st.floats(-4, 4))
@settings(max_examples=150, deadline=None)
def test_halfplane_roundtrip(t, s):
    x, y = fermi_to_halfplane(t, s)
    assert y > 0
    t2, s2 = halfplane_to_fermi(x, y)
    assert t2 == pytest.approx(t, abs=1e-10)
    assert s2 == pytest.approx(s, abs=1e-8)


def test_halfplane_to_fermi_rejects_lower_half():
    with pytest.raises(DomainError):
        halfplane_to_fermi(1.0, 0.0)
    with pytest.raises(DomainError):
        halfplane_to_fermi(1.0, -0.5)


def test_fermi_core_maps_to_imaginary_axis():
    x, y = fermi_to_halfplane(0.7, 0.0)
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(math.exp(0.7), rel=1e-15)


# ----------------------------------------------------------------- twists

def test_dehn_twist_winding_examples():
    assert dehn_twist_winding(2.3, 1, -2.3) == pytest.approx(0.0, abs=1e-15)
    assert dehn_twist_winding(0.5, -1, 2.0) == pytest.approx(-1.5)
    assert dehn_twist_winding(1.7, 1, 0.0) == 1.7


def test_dehn_twist_winding_validation():
    with pytest.raises(DomainError):
        dehn_twist_winding(1.0, 0, 1.0)
    with pytest.raises(DomainError):
        dehn_twist_winding(math.inf, 1, 1.0)


def test_dehn_twist_inverts_exactly_on_dyadics():
    # dyadic windings and orders make the float addition exact
    for k in (-3072, -511, 257, 4095):
        c = k / 1024.0
        for z in (-2048, 1536, 3072):
            zz = z / 1024.0
            there = dehn_twist_winding(c, 1, zz)
            assert dehn_twist_winding(there, 1, -zz) == c


def test_dehn_twist_map_boundary_action():
    w = CYL.half_width
    t, s = dehn_twist_map(CYL, 3.0, 0.05, -w)
    assert (t, s) == (0.05, -w)
    t, s = dehn_twist_map(CYL, 3.0, 0.05, w)
    assert t == pytest.approx(0.05 + 3.0 * CYL.core_length, rel=1e-12)
    t, _ = dehn_twist_map(CYL, 3.0, 0.05, 0.0)
    assert t == pytest.approx(0.05 + 1.5 * CYL.core_length, rel=1e-12)


def test_dehn_twist_map_agrees_with_winding_arithmetic():
    rng = np.random.default_rng(17)
    w = CYL.half_width
    l = CYL.core_length
    for _ in range(50):
        entry = rng.uniform(0.0, l)
        wind = rng.uniform(-6.0, 6.0)
        z = float(rng.integers(-5, 6))
        eps = int(rng.choice([-1, 1]))
        exit_t = entry + wind * l
        # the entry sits at s = -eps*w, the exit at s = +eps*w
        new_entry, _ = dehn_twist_map(CYL, z, entry, -eps * w)
        new_exit, _ = dehn_twist_map(CYL, z, exit_t, eps * w)
        new_wind = (new_exit - new_entry) / l
        assert new_wind == pytest.approx(
            dehn_twist_winding(wind, eps, z), abs=1e-9)


def test_dehn_twist_map_range_check():
    with pytest.raises(DomainError):
        dehn_twist_map(CYL, 1.0, 0.0, CYL.half_width * 1.01)


# ---------------------------------------------------------------- rewinding

def test_rewind_winding_worked_example():
    inp = RewindInput(kind="gamma", winding=3.4, m_gamma=3, m_delta=7)
    assert rewind_winding(inp, True) == pytest.approx(1.4)
    inp_d = RewindInput(kind="delta", winding=7.2, m_gamma=3, m_delta=7)
    assert rewind_winding(inp_d, True) == pytest.approx(3.2)


def test_rewind_winding_negative_orientation():
    inp = RewindInput(kind="gamma", winding=-3.4, m_gamma=3, m_delta=7)
    assert inp.orientation == -1
    assert rewind_winding(inp, True) == pytest.approx(-1.4)


def test_rewind_input_validation():
    with pytest.raises(DomainError):
        RewindInput(kind="x", winding=1.0, m_gamma=1, m_delta=1)
    with pytest.raises(DomainError):
        RewindInput(kind="gamma", winding=1.0, m_gamma=-1, m_delta=1)
    with pytest.raises(DomainError):
        RewindInput(kind="gamma", winding=1.0, m_gamma=1.5, m_delta=1)


def test_rewind_suite_worked_example():
    rep = rewind_suite_check([3.4, 3.9], [7.2, 7.8], True)
    assert rep.ok
    assert rep.gamma_leads
    assert rep.m_gamma == 3 and rep.m_delta == 7
    assert rep.gamma_rewound == pytest.approx((1.4, 1.9))
    assert rep.delta_rewound == pytest.approx((3.2, 3.8))


def test_rewind_suite_small_windings_untouched():
    rep = rewind_suite_check([0.2, 0.7], [0.1, 0.9], True)
    assert rep.ok
    assert rep.gamma_rewound == (0.2, 0.7)
    assert rep.delta_rewound == (0.1, 0.9)


def test_rewind_suite_delta_leads_on_smaller_minimum():
    rep = rewind_suite_check([3.4], [1.2], True)
    assert not rep.gamma_leads
    assert rep.gamma_rewound == pytest.approx((3.4,))
    assert rep.delta_rewound == pytest.approx((1.2,))
    assert rep.ok


def test_rewind_suite_intermediate_gap():
    rep = rewind_suite_check([2.2], [7.3], True)
    assert rep.gamma_leads
    assert rep.gamma_rewound == pytest.approx((1.2,))
    assert rep.delta_rewound == pytest.approx((3.3,))
    assert rep.ok


def test_rewind_suite_opposite_side_sign_preservation():
    rep = rewind_suite_check([3.4], [7.2], False)
    assert rep.ok  # sum 10.6 -> 4.6, sign preserved


def test_rewind_suite_rejects_wide_families():
    with pytest.raises(RejectedInputError, match="differ by >= 1"):
        rewind_suite_check([0.2, 1.9], [0.5], True)
    with pytest.raises(RejectedInputError, match="empty"):
        rewind_suite_check([], [0.5], True)
    with pytest.raises(RejectedInputError):
        rewind_suite_check([math.nan], [0.5], True)
