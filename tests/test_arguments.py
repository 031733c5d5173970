"""The numeric arguments of the library's entry points, in one table.

Every public numeric argument passes one of two checks, ``errors.real``
and ``errors.integer``, so each is refused in one place with one message
form.  A real is a real number, not a bool, finite in double precision;
an integer is an integer, not a bool.  Each argument is given values that
must be refused with DomainError, and values of other numeric types that
must give the same result as the equal float or int.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np
import pytest

from intnorm import (
    ArcSpec,
    Cylinder,
    DomainError,
    Lattice,
    RejectedInputError,
    SurfaceParams,
    asymptotic_profile,
    best_ratio_search,
    boundary_length,
    class_length,
    collar_constants_check,
    collar_width,
    count_crossings,
    crossing_arc_length,
    dehn_twist_winding,
    enumerate_classes,
    hyperbolic_bounds,
    intersection_bounds,
    intersection_number,
    lemma_sweep,
    make_collar,
    min_length_product,
    named_stream,
    norm_comparison_report,
    rewind_suite_check,
    run_suites,
    segment_bound_check,
    winding_from_endpoints,
)
from intnorm.cylinder import rewind_shift
from intnorm.errors import integer, real
from intnorm.hyptrig import fermi_distance

LAT = Lattice((1.0, 0.0), (0.0, 1.0))
CYL = make_collar(0.2)


def _rng():
    return np.random.default_rng(3)


# (argument, f, good): f(x) calls the entry point with x in the
# argument's place, and good is a value that it takes
REALS = [
    ("collar_width(length)", lambda x: collar_width(x), 1.0),
    ("crossing_arc_length(half_width)",
     lambda x: crossing_arc_length(x, 1.0), 2.0),
    ("crossing_arc_length(delta_t)",
     lambda x: crossing_arc_length(1.0, x), 3.0),
    ("boundary_length(core_length)", lambda x: boundary_length(x, 1.0), 1.0),
    ("boundary_length(half_width)", lambda x: boundary_length(0.1, x), 2.0),
    ("fermi_distance(p1)", lambda x: fermi_distance((x, 0.0), (1.0, 1.0)),
     2.0),
    ("SurfaceParams(l1)", lambda x: SurfaceParams(2, x, 1.0, 1.0), 1.0),
    ("SurfaceParams(diameter)", lambda x: SurfaceParams(2, 1.0, x, 1.0),
     1.0),
    ("SurfaceParams(volume)", lambda x: SurfaceParams(2, 1.0, 1.0, x), 3.0),
    ("hyperbolic_bounds(l1)", lambda x: hyperbolic_bounds(2, x), 1.0),
    ("asymptotic_profile(l1_grid)", lambda x: asymptotic_profile(2, [x]),
     0.5),
    ("collar_constants_check(l_grid)",
     lambda x: collar_constants_check([x], [0.5]), 0.125),
    ("collar_constants_check(monotonicity_grid)",
     lambda x: collar_constants_check([0.125], [x]), 1.0),
    ("Cylinder(core_length)", lambda x: Cylinder(x, 1.0), 1.0),
    ("Cylinder(half_width)", lambda x: Cylinder(1.0, x), 2.0),
    ("make_collar(core_length)", lambda x: make_collar(x, "full"), 1.0),
    ("ArcSpec(entry_t)", lambda x: ArcSpec(x, 1.0, 1), 0.0),
    ("ArcSpec(winding)", lambda x: ArcSpec(0.1, x, 1), 2.0),
    ("winding_from_endpoints(t_in)",
     lambda x: winding_from_endpoints(Cylinder(1.0, 1.0), x, 2.0), 0.0),
    ("winding_from_endpoints(t_out_unwrapped)",
     lambda x: winding_from_endpoints(CYL, 0.1, x), 1.0),
    ("dehn_twist_winding(c_wind)", lambda x: dehn_twist_winding(x, 1, 2.0),
     1.0),
    ("dehn_twist_winding(z)", lambda x: dehn_twist_winding(1.0, -1, x), 2.0),
    ("intersection_bounds(c_wind)",
     lambda x: intersection_bounds(x, 3.5, True), 1.0),
    ("intersection_bounds(d_wind)",
     lambda x: intersection_bounds(1.5, x, False), 3.0),
    ("lemma_sweep(core_length)",
     lambda x: lemma_sweep(x, 3, _rng(), mode="full"), 1.0),
    ("Lattice(e1)", lambda x: Lattice((x, 0.0), (0.0, 1.0)), 2.0),
    ("Lattice(e2)", lambda x: Lattice((1.0, 0.0), (1.0, x)), 3.0),
    ("enumerate_classes(cutoff)",
     lambda x: [a.tolist() for a in enumerate_classes(LAT, x)], 2.0),
    ("best_ratio_search(cutoff)", lambda x: best_ratio_search(LAT, x), 3.0),
    ("segment_bound_check(cutoff)",
     lambda x: segment_bound_check(LAT, x), 3.0),
    ("min_length_product(cutoff)",
     lambda x: min_length_product(LAT, 2, x), 3.0),
    ("class_length(cls)", lambda x: class_length(LAT, (x, 4.0)), 3.0),
    ("norm_comparison_report(h)",
     lambda x: norm_comparison_report(LAT, (1.0, x)), 2.0),
]

INTEGERS = [
    ("SurfaceParams(genus)", lambda n: SurfaceParams(n, 1.0, 1.0, 1.0), 2),
    ("hyperbolic_bounds(s)", lambda n: hyperbolic_bounds(n, 0.5), 2),
    ("asymptotic_profile(s)", lambda n: asymptotic_profile(n, [0.5]), 3),
    ("ArcSpec(crossing_sign)", lambda n: ArcSpec(0.1, 1.0, n), -1),
    ("dehn_twist_winding(crossing_sign)",
     lambda n: dehn_twist_winding(1.0, n, 2.0), 1),
    ("rewind_shift(m_lead)", lambda n: rewind_shift(n, 7, False), 2),
    ("rewind_shift(m_trail)", lambda n: rewind_shift(2, n, False), 7),
    ("lemma_sweep(samples)", lambda n: lemma_sweep(0.2, n, _rng()), 3),
    ("lemma_sweep(first_sign)",
     lambda n: lemma_sweep(0.2, 3, _rng(), first_sign=n), -1),
    ("intersection_number(u)", lambda n: intersection_number((n, 1), (1, 3)),
     2),
    ("intersection_number(v)", lambda n: intersection_number((2, 1), (1, n)),
     3),
    ("min_length_product(n)", lambda n: min_length_product(LAT, n, 3.0), 2),
    ("count_crossings(u)",
     lambda n: count_crossings(LAT, (n, 1), (1, 3), _rng()), 2),
    ("count_crossings(v)",
     lambda n: count_crossings(LAT, (2, 1), (1, n), _rng()), 3),
    ("named_stream(seed)",
     lambda n: named_stream(n, "arguments").random(3).tolist(), 5),
    ("run_suites(seed)", lambda n: run_suites("bounds", n), 1),
]

BAD_REALS = [True, "0.1", None, math.nan, math.inf, -math.inf, 10 ** 400]
BAD_INTEGERS = [True, "1", None, 1.5, np.float64(2.0), math.nan, math.inf]


def _ids(table):
    return [name for name, _, _ in table]


@pytest.mark.parametrize("bad", BAD_REALS, ids=reprlib.repr)
@pytest.mark.parametrize("name, f, good", REALS, ids=_ids(REALS))
def test_a_real_argument_refuses_what_is_no_finite_real(name, f, good, bad):
    with pytest.raises(DomainError):
        f(bad)


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=reprlib.repr)
@pytest.mark.parametrize("name, f, good", INTEGERS, ids=_ids(INTEGERS))
def test_an_integer_argument_refuses_what_is_no_integer(name, f, good, bad):
    with pytest.raises(DomainError):
        f(bad)


@pytest.mark.parametrize("name, f, good", REALS, ids=_ids(REALS))
def test_a_real_argument_takes_any_real_type(name, f, good):
    expected = f(float(good))
    assert f(np.float64(good)) == expected
    if good == int(good):
        assert f(int(good)) == expected
        assert f(np.int64(good)) == expected


@pytest.mark.parametrize("name, f, good", INTEGERS, ids=_ids(INTEGERS))
def test_an_integer_argument_takes_any_integer_type(name, f, good):
    assert f(np.int64(good)) == f(good)


@pytest.mark.parametrize("bad", BAD_REALS, ids=reprlib.repr)
def test_rewind_families_refuse_what_is_no_finite_real(bad):
    # winding data outside the move's preconditions is RejectedInputError
    with pytest.raises(RejectedInputError):
        rewind_suite_check([0.5, bad], [1.5], True)
    with pytest.raises(RejectedInputError):
        rewind_suite_check([0.5], [bad], False)
    assert (rewind_suite_check([np.int64(1)], [np.float64(2.5)], True)
            == rewind_suite_check([1.0], [2.5], True))


def test_the_two_checks_return_plain_python_numbers():
    assert type(real("x", np.float64(0.5))) is float
    assert type(real("x", np.int64(2), positive=True)) is float
    assert type(integer("n", np.int64(2))) is int
    with pytest.raises(DomainError, match=r"^x must be a positive finite "
                                          r"real, got 0$"):
        real("x", 0, positive=True)
    with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
        integer("n", 0, 1)
    # a refused type is a TypeError as well
    with pytest.raises(TypeError, match=r"^n must be an integer, got 1\.5$"):
        integer("n", 1.5)
