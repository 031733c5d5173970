"""Closed-form bound evaluation: general bounds, hyperbolic bounds, the
small-systole profiles, and the collar-constant inequality sweep."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import pytest

from intnorm import (
    BoundReport,
    DomainError,
    SurfaceParams,
    TWO_ARSINH_ONE,
    asymptotic_profile,
    collar_constants_check,
    default_collar_grid,
    default_monotonicity_grid,
    full_bound_report,
    general_bounds,
    hyperbolic_bounds,
    parse_grid,
)
from intnorm.bounds import MAX_GRID_STEPS
from intnorm.seeding import named_stream


# ------------------------------------------------------------ general bounds

def test_general_bounds_square_torus():
    p = SurfaceParams(genus=1, l1=1.0, diameter=math.sqrt(2) / 2, volume=1.0)
    rep = general_bounds(p)
    assert rep.inv_vol == pytest.approx(1.0)
    assert rep.lower_l1d == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert rep.upper_l1sq == pytest.approx(9.0)
    assert rep.hyp_lower is None and rep.hyp_upper is None


def test_general_bounds_scale_like_inverse_area():
    base = general_bounds(SurfaceParams(genus=1, l1=1.0,
                                        diameter=math.sqrt(2) / 2,
                                        volume=1.0))
    doubled = general_bounds(SurfaceParams(genus=1, l1=2.0,
                                           diameter=math.sqrt(2),
                                           volume=4.0))
    assert doubled.inv_vol == pytest.approx(base.inv_vol / 4)
    assert doubled.lower_l1d == pytest.approx(base.lower_l1d / 4)
    assert doubled.upper_l1sq == pytest.approx(base.upper_l1sq / 4)


def test_surface_params_validation():
    with pytest.raises(DomainError, match="twice the diameter"):
        SurfaceParams(genus=1, l1=1.5, diameter=0.7, volume=1.0)
    with pytest.raises(DomainError):
        SurfaceParams(genus=0, l1=1.0, diameter=1.0, volume=1.0)
    with pytest.raises(DomainError):
        SurfaceParams(genus=1, l1=-1.0, diameter=1.0, volume=1.0)
    with pytest.raises(DomainError):
        SurfaceParams(genus=1, l1=1.0, diameter=1.0, volume=math.inf)


def test_admissible_parameters_are_accepted():
    # the 100 tuples that verify's general-bounds check drew at seed 1:
    # l1 in (e^-3, e^0.5), l1 < 2*D and V in (e^-1, e^3), genus 1 to 5
    rng = named_stream(1, "bounds.params")
    for _ in range(100):
        genus = int(rng.integers(1, 6))
        l1 = math.exp(rng.uniform(-3.0, 0.5))
        diameter = 0.5 * l1 * math.exp(rng.uniform(0.01, 2.0))
        volume = math.exp(rng.uniform(-1.0, 3.0))
        p = SurfaceParams(genus=genus, l1=l1, diameter=diameter,
                          volume=volume)
        assert full_bound_report(p).genus == genus


# --------------------------------------------------------- hyperbolic bounds

def test_hyperbolic_bounds_frozen_values():
    hb = hyperbolic_bounds(2, 0.1)
    assert hb.lower == pytest.approx(0.043950493367626138909, rel=1e-12)
    assert hb.upper == pytest.approx(192.7925503140998206, rel=1e-12)
    assert hb.collar_rate == pytest.approx(1.3553486198361061277, rel=1e-12)

    hb3 = hyperbolic_bounds(3, 0.1)
    assert hb3.lower == pytest.approx(0.01503629469569603317, rel=1e-12)
    assert hb3.upper == pytest.approx(241.58510062819964119, rel=1e-12)
    # the collar rate depends on l1 only
    assert hb3.collar_rate == pytest.approx(hb.collar_rate, rel=1e-15)


def test_hyperbolic_bounds_extended_agrees_with_double():
    for s, l1 in ((2, 0.1), (3, 0.01), (5, 1e-4), (2, 0.24)):
        d = hyperbolic_bounds(s, l1)
        e = hyperbolic_bounds(s, l1, extended=True)
        assert d.lower == pytest.approx(e.lower, rel=1e-12)
        assert d.upper == pytest.approx(e.upper, rel=1e-12)
        assert d.collar_rate == pytest.approx(e.collar_rate, rel=1e-12)


def test_hyperbolic_bounds_monotone_in_genus():
    lowers = [hyperbolic_bounds(s, 0.1).lower for s in range(2, 8)]
    uppers = [hyperbolic_bounds(s, 0.1).upper for s in range(2, 8)]
    assert all(a > b for a, b in zip(lowers, lowers[1:]))
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def test_hyperbolic_bounds_ordering_on_a_grid():
    for s in (2, 7, 20):
        for l1 in parse_grid("1e-4:0.25:20", geometric=True):
            hb = hyperbolic_bounds(s, l1)
            assert hb.lower < hb.upper
            assert hb.lower < hb.collar_rate


def test_hyperbolic_bounds_warns_on_long_systole():
    import warnings

    with pytest.warns(UserWarning, match="not a short systole"):
        hyperbolic_bounds(2, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning here would fail the test
        hyperbolic_bounds(2, 0.1)


def test_hyperbolic_bounds_genus_validation():
    with pytest.raises(DomainError):
        hyperbolic_bounds(1, 0.1)
    with pytest.raises(DomainError):
        hyperbolic_bounds(True, 0.1)
    with pytest.raises(DomainError):
        hyperbolic_bounds(2.0, 0.1)


@pytest.mark.parametrize("extended", [False, True])
def test_hyperbolic_bounds_refuse_a_bound_past_double_precision(extended):
    # the upper bound of genus 1e306 overflows to inf in double precision
    with pytest.raises(DomainError, match="range of double precision"):
        hyperbolic_bounds(10 ** 306, 1e-4, extended=extended)
    with pytest.raises(DomainError, match="range of double precision"):
        asymptotic_profile(10 ** 306, (1e-4,), extended=extended)


def test_full_bound_report_populates_hyperbolic_fields():
    p1 = SurfaceParams(genus=1, l1=1.0, diameter=1.0, volume=1.0)
    assert full_bound_report(p1).hyp_lower is None
    p2 = SurfaceParams(genus=2, l1=0.1, diameter=3.0, volume=4 * math.pi)
    rep = full_bound_report(p2)
    assert isinstance(rep, BoundReport)
    assert rep.hyp_lower == pytest.approx(0.043950493367626138909, rel=1e-12)
    assert rep.hyp_upper == pytest.approx(192.7925503140998206, rel=1e-12)
    assert rep.collar_rate == pytest.approx(1.3553486198361061277, rel=1e-12)


# ------------------------------------------------------------------ profiles

def test_asymptotic_profile_frozen_values():
    (row,) = asymptotic_profile(2, [1e-3])
    assert row.lower_profile == pytest.approx(0.028086153030257720208,
                                              rel=1e-12)
    assert row.upper_profile == pytest.approx(15.986138334041371077,
                                              rel=1e-12)
    (deep,) = asymptotic_profile(2, [1e-12])
    assert deep.lower_profile_tail == pytest.approx(0.23250244732264945461,
                                                    rel=1e-12)
    assert deep.upper_profile_tail == pytest.approx(17.140054891711291698,
                                                    rel=1e-12)


def test_asymptotic_profile_tail_limits():
    (deep,) = asymptotic_profile(2, [1e-12])
    assert abs(deep.lower_profile_tail - 0.25) <= 0.1 * 0.25
    assert abs(deep.upper_profile_tail - 18.0) <= 0.05 * 18.0
    (deep3,) = asymptotic_profile(3, [1e-12])
    assert abs(deep3.lower_profile_tail - 1 / 8) <= 0.1 / 8
    assert abs(deep3.upper_profile_tail - 36.0) <= 0.05 * 36.0


def test_asymptotic_profile_tails_increase_as_systole_shrinks():
    grid = parse_grid("1e-2:1e-12:41", geometric=True)
    rows = asymptotic_profile(2, grid)
    lower_tails = [r.lower_profile_tail for r in rows]
    upper_tails = [r.upper_profile_tail for r in rows]
    full_lower = [r.lower_profile for r in rows]
    assert all(a < b for a, b in zip(lower_tails, lower_tails[1:]))
    assert all(a < b for a, b in zip(upper_tails, upper_tails[1:]))
    assert all(a < b for a, b in zip(full_lower, full_lower[1:]))


def test_asymptotic_profile_rejects_out_of_range_grid():
    with pytest.raises(DomainError):
        asymptotic_profile(2, [0.5, 1.0])
    with pytest.raises(DomainError):
        asymptotic_profile(2, [0.0])
    with pytest.raises(DomainError):
        asymptotic_profile(1, [0.1])


def test_asymptotic_profile_extended_mode():
    (d,) = asymptotic_profile(2, [1e-4])
    (e,) = asymptotic_profile(2, [1e-4], extended=True)
    assert d.lower == pytest.approx(e.lower, rel=1e-9)
    assert d.upper == pytest.approx(e.upper, rel=1e-9)
    assert d.lower_profile_tail == pytest.approx(e.lower_profile_tail,
                                                 rel=1e-12)
    assert d.upper_profile_tail == pytest.approx(e.upper_profile_tail,
                                                 rel=1e-12)
    with mpmath.workdps(50):
        l1 = mpmath.mpf(1e-4)
        log_abs = -mpmath.log(l1)
        lower_tail = log_abs / (4 * mpmath.asinh(4 / l1))
        upper_tail = 18 * log_abs / mpmath.asinh(1 / mpmath.sinh(l1 / 2))
    assert e.lower_profile_tail == pytest.approx(float(lower_tail),
                                                 rel=2e-15)
    assert e.upper_profile_tail == pytest.approx(float(upper_tail),
                                                 rel=2e-15)


# ------------------------------------------------------------- collar checks

def test_collar_constants_default_grids_pass():
    rep = collar_constants_check()
    assert rep.ok
    assert rep.points_checked == 1000
    assert rep.mono_points_checked == 1000
    assert rep.min_width_margin == pytest.approx(0.07576808038557026,
                                                 rel=1e-9)
    assert rep.min_boundary_margin == pytest.approx(0.04506361544412363,
                                                    rel=1e-9)
    assert rep.min_mono_decrement > 0.0


def test_collar_constants_spot_values():
    rep = collar_constants_check([0.2, 0.24], [0.1, 0.2])
    assert rep.ok
    assert rep.points_checked == 2
    # 1/(x*cl(x)) at 0.1 and 0.2
    vals = (2.7106972396722122553, 1.6685771201044665611)
    assert rep.min_mono_decrement == pytest.approx(vals[0] - vals[1],
                                                   rel=1e-12)


def test_collar_constants_count_points_of_an_iterator():
    values = [x / 100 for x in range(1, 26)]
    from_iter = collar_constants_check(iter(values), (0.1, 0.2))
    from_tuple = collar_constants_check(tuple(values), (0.1, 0.2))
    assert from_iter.points_checked == from_tuple.points_checked == 25
    assert from_iter == from_tuple


def test_collar_constants_reject_out_of_range_grids():
    with pytest.raises(DomainError):
        collar_constants_check([0.3], None)
    with pytest.raises(DomainError):
        collar_constants_check(None, [2.0])
    with pytest.raises(DomainError):
        collar_constants_check([-0.1], None)


def test_default_grids_cover_their_intervals():
    cg = default_collar_grid(10)
    assert cg[0] == pytest.approx(0.025)
    assert cg[-1] == pytest.approx(0.25)
    mg = default_monotonicity_grid(10)
    assert mg[-1] == pytest.approx(TWO_ARSINH_ONE, rel=1e-15)
    assert all(v > 0 for v in cg + mg)


# ------------------------------------------------------------- grid parsing

def test_parse_grid_arithmetic():
    assert parse_grid("1:2:3") == pytest.approx((1.0, 1.5, 2.0))
    assert parse_grid("0:1:2") == pytest.approx((0.0, 1.0))
    assert parse_grid("5:5:1") == (5.0,)


def test_parse_grid_geometric():
    grid = parse_grid("1e-2:1e-12:11", geometric=True)
    assert len(grid) == 11
    assert grid[0] == pytest.approx(1e-2, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-12, rel=1e-9)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


@pytest.mark.parametrize("bad", ["1:2", "a:2:3", "1:2:0", "1:2:x",
                                 "1:inf:3", ":::"])
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(DomainError):
        parse_grid(bad)


def test_parse_grid_geometric_needs_positive_endpoints():
    with pytest.raises(DomainError):
        parse_grid("0:2:3", geometric=True)
    with pytest.raises(DomainError):
        parse_grid("1:-2:3", geometric=True)


def test_parse_grid_refuses_steps_past_its_bound():
    assert len(parse_grid(f"0:1:{MAX_GRID_STEPS}")) == MAX_GRID_STEPS
    for steps in (MAX_GRID_STEPS + 1, 10 ** 11):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="steps"):
                parse_grid(f"0:1:{steps}", geometric=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before the grid is built
        assert peak < 1e5
