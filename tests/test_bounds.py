"""Closed-form bound evaluation: general bounds, hyperbolic bounds, the
small-systole profiles, and the collar-constant inequality sweep.

The profile and the collar sweep evaluate whole grids over float64
arrays; ``bounds_reference`` keeps the one-point-at-a-time loops, and the
tests below require the same values, bit for bit, and the same refusals.
"""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_reference as reference

from intnorm import (
    BoundReport,
    DomainError,
    HyperbolicBounds,
    SurfaceParams,
    TWO_ARSINH_ONE,
    asymptotic_profile,
    collar_constants_check,
    full_bound_report,
    hyperbolic_bounds,
    parse_grid,
)
from intnorm import bounds as bounds_module
from intnorm import suites
from intnorm.bounds import MAX_GRID_STEPS, _default_collar_grid, \
    _default_monotonicity_grid
from intnorm.seeding import named_stream


# ------------------------------------------------------------ general bounds

def test_general_bounds_square_torus():
    p = SurfaceParams(genus=1, l1=1.0, diameter=math.sqrt(2) / 2, volume=1.0)
    rep = full_bound_report(p)
    assert rep.inv_vol == pytest.approx(1.0)
    assert rep.lower_l1d == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert rep.upper_l1sq == pytest.approx(9.0)
    assert rep.hyp_lower is None and rep.hyp_upper is None


def test_general_bounds_scale_like_inverse_area():
    base = full_bound_report(SurfaceParams(genus=1, l1=1.0,
                                           diameter=math.sqrt(2) / 2,
                                           volume=1.0))
    doubled = full_bound_report(SurfaceParams(genus=1, l1=2.0,
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


# ------------------------------------------------------- the suite's anchors

def _closed_forms(s: int, l1: float) -> dict[str, float]:
    """The theorem's closed forms at genus s and the double l1, evaluated
    with mpmath at 60 significant digits and each rounded once to the
    nearest double: with cl(x) = arsinh(1/sinh(x/2)), the lower bound
    1/((s-1)*l1*(105*s + 4*arsinh(4/l1))), the upper bound
    144 + 18*(s-1)/(l1*cl(l1)), the collar rate 1/(2*l1*cl(l1)), the
    bounds times l1*|log l1|, and the tails |log l1|/(4*(s-1)*arsinh(4/l1))
    and 18*(s-1)*|log l1|/cl(l1)."""
    with mpmath.workdps(60):
        x = mpmath.mpf(l1)
        cl = mpmath.asinh(1 / mpmath.sinh(x / 2))
        asinh_term = mpmath.asinh(4 / x)
        log_abs = -mpmath.log(x)
        lower = 1 / ((s - 1) * x * (105 * s + 4 * asinh_term))
        upper = 144 + 18 * (s - 1) / (x * cl)
        values = {
            "lower": lower, "upper": upper, "collar_rate": 1 / (2 * x * cl),
            "lower_profile": lower * x * log_abs,
            "upper_profile": upper * x * log_abs,
            "lower_profile_tail": log_abs / (4 * (s - 1) * asinh_term),
            "upper_profile_tail": 18 * (s - 1) * log_abs / cl,
        }
        return {name: float(v) for name, v in values.items()}


_PROFILE_FIELDS = ("lower_profile", "upper_profile", "lower_profile_tail",
                   "upper_profile_tail")


@pytest.mark.parametrize("s, l1", list(suites._BOUND_ANCHORS))
def test_each_bound_anchor_is_its_60_digit_closed_form(s, l1):
    """The literals that extended_precision_agreement compares with are
    the 60-digit closed forms rounded once, and the floats that
    hyperbolic_bounds returns in extended precision: there each 50-digit
    value rounds once to the same double."""
    literal = suites._BOUND_ANCHORS[s, l1]
    exact = _closed_forms(s, l1)
    assert literal == tuple(exact[f] for f in HyperbolicBounds._fields)
    assert literal == tuple(hyperbolic_bounds(s, l1, extended=True))


@pytest.mark.parametrize("s, l1", list(suites._PROFILE_ANCHORS))
def test_each_profile_anchor_is_its_60_digit_closed_form(s, l1):
    """The literals that asymptotic_profiles compares with are the
    60-digit closed forms rounded once.  asymptotic_profile in extended
    precision rounds its terms to doubles first and normalizes them in
    double precision.  With the literal's own, each column carries at most
    five roundings, each off by at most 2**-53 relative, and math.log's
    error of under 2**-52 relative: under 7 ulps of the literal in all
    (1 ulp or none at these anchors)."""
    literal = suites._PROFILE_ANCHORS[s, l1]
    exact = _closed_forms(s, l1)
    assert literal == tuple(exact[f] for f in _PROFILE_FIELDS)
    (row,) = asymptotic_profile(s, (l1,), extended=True)
    for field, value in zip(_PROFILE_FIELDS, literal):
        assert abs(getattr(row, field) - value) <= 7 * math.ulp(value)


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
    cg = _default_collar_grid()
    assert len(cg) == 1000
    assert cg[0] == pytest.approx(2.5e-4)
    assert cg[-1] == pytest.approx(0.25)
    mg = _default_monotonicity_grid()
    assert len(mg) == 1000
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


@pytest.mark.parametrize("text, geometric, what", [
    ("1e-300:1e300:3", True, "hi / lo"),      # overflows
    ("1e300:1e-300:3", True, "hi / lo"),      # underflows to 0
    ("1e-310:0.9:3", True, "hi / lo"),        # a subnormal lo
    ("-1e308:1e308:3", False, "hi - lo"),     # overflows
    (f"0:{sys.float_info.max!r}:4", False, "its last point"),  # rounds up
])
def test_parse_grid_refuses_a_grid_past_double_range(text, geometric, what):
    # every point asked for may be a double; what overflows is named
    with pytest.raises(DomainError, match=re.escape(
            f"grid {text!r} cannot be built: {what} leaves the range of "
            "doubles")):
        parse_grid(text, geometric=geometric)


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


# ------------------------------------------- arrays against the scalar loops

_REFUSAL_CASES = [
    # a systole whose half rounds to 0
    ("profile", 2, [0.1, 5e-324]),
    ("collar", [0.1, 5e-324], None),
    ("mono", None, [0.1, 5e-324]),
    # a genus whose upper bound overflows, or that is no float at all
    ("profile", 10 ** 306, [0.1, 1e-4]),
    ("profile", 10 ** 400, [0.1, 1e-4]),
    # values that the checks refuse
    ("profile", 2, [0.1, math.nan]),
    ("collar", [0.1, math.nan], None),
    ("mono", None, [0.1, math.inf]),
    ("profile", 2, [0.1, True]),
    ("collar", [0.1, True], None),
    ("profile", 2, [0.1, "0.1"]),
    ("mono", None, [0.1, "0.1"]),
    ("profile", 2, [0.1, 1.0]),
    ("profile", 2, [0.1, 1]),
    ("profile", 2, [0.1, 10 ** 400]),
    ("collar", [0.1, 0.25000000000000006], None),
    ("collar", [0.1, 0.3, -1.0], None),
    ("mono", None, [0.1, 3.0, 2.0]),
    # iterators, read once: each call makes its own
    ("profile", 2, lambda: iter([0.1, 0.2, 1.5])),
    ("collar", lambda: iter([0.1, 0.26]), None),
    ("mono", None, lambda: iter([1.0, -1.0])),
]


def _outcome(module, case, extended=False):
    kind, a, b = (g() if callable(g) else g for g in case)
    try:
        if kind == "profile":
            return module.asymptotic_profile(a, b, extended=extended)
        return module.collar_constants_check(a, b)
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", _REFUSAL_CASES)
def test_arrays_refuse_as_the_scalar_loops_do(case):
    for extended in (False, True) if case[0] == "profile" else (False,):
        got = _outcome(bounds_module, case, extended)
        assert isinstance(got, tuple) and isinstance(got[0], type)
        assert got == _outcome(reference, case, extended)


def test_an_empty_grid_has_no_rows_whatever_the_genus():
    """A genus past float range is refused at a grid value, as the scalar
    loop refuses it; a grid with no value has no rows."""
    for extended in (False, True):
        assert asymptotic_profile(10 ** 400, (), extended=extended) == () \
            == reference.asymptotic_profile(10 ** 400, (), extended=extended)
        with pytest.raises(DomainError, match="range of double precision"):
            asymptotic_profile(10 ** 400, (0.1,), extended=extended)


def test_arrays_equal_the_scalar_profile_on_a_deep_grid():
    grid = parse_grid("1e-300:0.999:2000", geometric=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (2, 3, 7, 10 ** 6):
            assert (asymptotic_profile(s, grid)
                    == reference.asymptotic_profile(s, grid))
        assert (asymptotic_profile(3, grid[::40], extended=True)
                == reference.asymptotic_profile(3, grid[::40], extended=True))
        # an iterator reads as the list of its values
        assert (asymptotic_profile(2, iter(grid[:5]))
                == reference.asymptotic_profile(2, list(grid[:5])))
        assert asymptotic_profile(2, ()) == ()


def test_arrays_equal_the_scalar_collar_check():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert collar_constants_check() == reference.collar_constants_check()
        deep = parse_grid("1e-300:0.25:3000", geometric=True)
        mono = parse_grid("1e-300:1.7:3000", geometric=True)
        assert (collar_constants_check(deep, mono)
                == reference.collar_constants_check(deep, mono))
        # ints, repeated and unsorted values, and empty grids
        odd = ([0.2, 0.1, 0.1], [1, 0.2, 0.2, 0.05])
        assert (collar_constants_check(*odd)
                == reference.collar_constants_check(*odd))
        assert (collar_constants_check((), ())
                == reference.collar_constants_check((), ()))


@pytest.mark.parametrize("width, grid, count", [
    # every point fails two or three tests
    (lambda m, x: 1.9 + 0 * x, [0.25, 0.01, 0.2], 7),
    # x*cl(x) constant: the one point fails its first test, and each
    # distinct monotone pair fails
    (lambda m, x: 1 / x, [0.1], 3),
])
def test_collar_violations_keep_their_order(monkeypatch, width, grid, count):
    """The violations come point by point, three tests to a point, then
    pair by pair along the sorted monotone grid."""
    for module in (bounds_module, reference):
        monkeypatch.setattr(module, "_collar_width", width)
    mono = [0.5, 0.5, 0.1, 0.25]
    rep = collar_constants_check(grid, mono)
    assert len(rep.violations) == count
    assert rep == reference.collar_constants_check(grid, mono)


def test_a_grid_is_checked_whole_before_it_is_evaluated():
    """The one departure from the scalar loops: a value that the checks
    refuse is refused before any value is evaluated, where the loops
    first met a value, 5e-324, whose evaluation leaves double range."""
    for call in (lambda m: m.asymptotic_profile(2, [5e-324, 2.0]),
                 lambda m: m.collar_constants_check([5e-324, 0.3])):
        with pytest.raises(DomainError, match="must lie in"):
            call(bounds_module)
        with pytest.raises(DomainError, match="range of double precision"):
            call(reference)


@given(grid=st.lists(st.floats(5e-324, 1.0, exclude_max=True), max_size=40),
       collar=st.lists(st.floats(5e-324, 0.25), max_size=40),
       mono=st.lists(st.floats(5e-324, 1.76), max_size=40),
       s=st.integers(2, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_arrays_equal_the_scalar_loops_on_drawn_grids(grid, collar, mono, s):
    def outcomes(module):
        return (_outcome(module, ("profile", s, grid)),
                _outcome(module, ("collar", collar, mono)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcomes(bounds_module) == outcomes(reference)
