"""Cylinder arcs: collar construction, winding arithmetic, the crossing
oracle in Fermi coordinates, Dehn twists, and the rewinding move.
"""

from __future__ import annotations

import math
import tracemalloc
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from intnorm import (
    ArcSpec,
    CrossingReport,
    Cylinder,
    DegenerateInputError,
    DomainError,
    GeometryError,
    ModeError,
    RejectedInputError,
    RetrySignal,
    arc_length,
    collar_width,
    count_crossings_cyl,
    dehn_twist_winding,
    intersection_bounds,
    make_collar,
    rewind_suite_check,
    winding_from_endpoints,
)
import intnorm.cylinder
import intnorm.flat_torus
from intnorm.cylinder import (MAX_ADVANCE, MAX_TRANSLATES, MIN_CORE_LENGTH,
                              MIN_HALF_WIDTH, CrossingBatch,
                              crossing_batch_cyl, crossing_count_oracle_cyl,
                              halfplane_to_fermi, rewind_cell_violations,
                              rewind_shift)
from intnorm.flat_torus import MAX_RETRIES, ROW_CHUNK
from intnorm.hyptrig import SHORT_CORE_THRESHOLD
from intnorm.seeding import named_stream
from intnorm.suites import lemma_sweep, window_violations

from halfplane_reference import (crossing_count_oracle_halfplane,
                                 crossing_count_oracle_loop,
                                 fermi_to_halfplane, translate_hits)

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
    # finite endpoints whose winding is past double range
    with pytest.raises(DomainError, match="^winding must be a finite real, "
                                          "got inf$"):
        winding_from_endpoints(Cylinder(0.1, 1.0), 0.05, 1e308)


def test_arc_spec_validation():
    with pytest.raises(DomainError):
        ArcSpec(entry_t=0.1, winding=1.0, crossing_sign=0)
    with pytest.raises(DomainError):
        ArcSpec(entry_t=0.1, winding=math.inf, crossing_sign=1)
    with pytest.raises(DomainError):
        ArcSpec(entry_t=math.nan, winding=1.0, crossing_sign=1)


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
    # finite windings whose sum overflows to inf
    with pytest.raises(DomainError, match="finite"):
        intersection_bounds(1e308, 1e308, False)
    with pytest.raises(DomainError, match="1e"):
        intersection_bounds(np.array([0.5, 1e308]), np.array([2.0, 1e308]),
                            np.array([True, False]))
    with pytest.raises(DomainError, match="nan"):
        intersection_bounds(np.array([math.nan]), np.array([1.0]),
                            np.array([True]))
    # past 2**62 a difference of windings could leave int64
    for big in (2.0 ** 62, -2.0 ** 62):
        with pytest.raises(DomainError):
            intersection_bounds(np.array([0.0]), np.array([big]),
                                np.array([True]))
        with pytest.raises(DomainError):
            intersection_bounds(big, 0.0, False)
    assert intersection_bounds(0.0, math.nextafter(2.0 ** 62, 0), True).lo \
        == 2 ** 62 - 512


def test_intersection_bounds_over_arrays_is_the_scalar_rule():
    rng = np.random.default_rng(11)
    c, d = rng.uniform(-9.0, 9.0, (2, 500))
    # whole and half windings, where floor and sign turn
    c[:100], d[:100] = np.round(c[:100] * 2) / 2, np.round(d[:100] * 2) / 2
    same = rng.random(500) < 0.5
    wb = intersection_bounds(c, d, same)
    assert all(v.dtype == np.int64 and v.shape == (500,) for v in wb)
    for i in range(500):
        one = intersection_bounds(float(c[i]), float(d[i]), bool(same[i]))
        assert {type(v) for v in one} == {int}
        assert one == (wb.lo[i], wb.hi[i], wb.sign[i])


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


def test_oracle_rejects_half_widths_below_its_bound():
    """On a thinner collar the absolute graze tolerance leaves samples
    stuck however they are jittered; at the bound none is, see the
    oracle's Domain."""
    arc1 = ArcSpec(entry_t=0.03, winding=0.5, crossing_sign=1)
    arc2 = ArcSpec(entry_t=0.11, winding=-2.5, crossing_sign=1)
    at_edge = Cylinder(core_length=0.2, half_width=MIN_HALF_WIDTH)
    rep = crossing_count_oracle_cyl(at_edge, arc1, arc2)
    assert rep.count in (3, 4)
    assert rep.uniform_sign() == -1
    past = Cylinder(core_length=0.2,
                    half_width=math.nextafter(MIN_HALF_WIDTH, 0.0))
    with pytest.raises(DomainError, match="^half-width 0.0009999999999999998 "
                                          "is below the oracle's bound"):
        crossing_count_oracle_cyl(past, arc1, arc2)
    # the thinnest full collar inside the bound
    assert make_collar(15.20180508575082, "full").half_width \
        >= MIN_HALF_WIDTH > make_collar(15.201805085750822,
                                        "full").half_width


@pytest.mark.xfail(strict=True, raises=RetrySignal,
                   reason="ROADMAP item 6: a jitter of at most core_length "
                          "* JITTER_SCALE moves the crossing on the boundary "
                          "by about 1e-9 in s, inside S_TOLERANCE")
def test_arcs_sharing_an_entry_on_the_thinnest_collar_are_counted():
    """Two arcs entering at one point cross on the collar boundary.  On
    wider collars the retries move that crossing out of the graze band
    and the pair counts 3; at MIN_HALF_WIDTH every retry still grazes."""
    arc1, arc2 = ArcSpec(0.0, 0.5, 1), ArcSpec(0.0, -2.5, 1)
    for half_width in (3e-3, 3.0, MIN_HALF_WIDTH):
        rep = count_crossings_cyl(Cylinder(0.2, half_width), arc1, arc2,
                                  np.random.default_rng(3))
        assert rep.count == 3


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


def _outcome(oracle, cyl, arc1, arc2):
    """(count, signs) of an oracle call, or the kind and message of the
    RetrySignal or DomainError that it raised."""
    try:
        rep = oracle(cyl, arc1, arc2)
    except (RetrySignal, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return rep.count, rep.signs


@pytest.mark.parametrize("core", [1e-9, 1e-3, 0.05, 0.1, 0.2])
def test_oracle_matches_the_loop_reference(core):
    """The same counts and signs, or the same refusal, as the oracle that
    solves one translate at a time, on seeded pairs whose windings spread
    log-uniformly up to the advance bound, or on short cores up to the
    translate bound.  Last come a pair at that bound and one past it."""
    cyl = make_collar(core, "shrunk")
    rng = np.random.default_rng(11 + int(core * 1000))
    edge = min(MAX_ADVANCE / core, (MAX_TRANSLATES - 4) / 2.0)
    winds = [tuple(np.exp(rng.uniform(-3.0, math.log(edge), 2))
                   * rng.choice([-1.0, 1.0], 2)) for _ in range(60)]
    winds += [(edge, -edge), (2.0 * edge + 10.0, 0.5)]
    outcomes = []
    for c, d in winds:
        arc1 = ArcSpec(rng.uniform(0.0, core), float(c),
                       int(rng.choice([-1, 1])))
        arc2 = ArcSpec(rng.uniform(0.0, core), float(d),
                       int(rng.choice([-1, 1])))
        ref = _outcome(crossing_count_oracle_loop, cyl, arc1, arc2)
        assert _outcome(crossing_count_oracle_cyl, cyl, arc1,
                        arc2) == ref, (arc1, arc2)
        outcomes.append(ref)
    assert isinstance(outcomes[-2][0], int)
    assert outcomes[-1][0] == "DomainError"


def test_oracle_retry_reasons_match_the_loop_reference():
    graze = (ArcSpec(0.1, 0.0, 1), ArcSpec(0.05, 0.25, 1))
    overlap = (ArcSpec(0.1, 0.0, 1), ArcSpec(0.1, 0.0, -1))
    for arc1, arc2 in (graze, overlap):
        ref = _outcome(crossing_count_oracle_loop, CYL, arc1, arc2)
        assert ref[0] == "RetrySignal"
        assert _outcome(crossing_count_oracle_cyl, CYL, arc1, arc2) == ref


def _batch_matches_loop(cyl, pairs):
    """Solve the pairs as one batch and require each pair's outcome to be
    the loop reference's; returns the outcomes."""
    arrays = [[[getattr(arc, f) for arc in arcs] for arcs in zip(*pairs)]
              for f in ("entry_t", "winding", "crossing_sign")]
    batch = crossing_batch_cyl(cyl, *arrays)
    assert batch.signs.dtype == np.int8
    outcomes = []
    for i, (arc1, arc2) in enumerate(pairs):
        ref = _outcome(crossing_count_oracle_loop, cyl, arc1, arc2)
        got = _outcome(lambda *_: batch.report(i), cyl, arc1, arc2)
        assert got == ref, (i, arc1, arc2)
        outcomes.append(ref)
    return outcomes


def test_batch_of_mixed_runs_matches_the_loop_reference():
    """Pairs with no translate, retries and thousands of short runs
    around them, which span several row chunks."""
    rng = np.random.default_rng(21)
    pairs = []
    for _ in range(5000):
        c, d = rng.uniform(-8.0, 8.0, 2)
        eps = int(rng.choice([-1, 1]))
        pairs.append((ArcSpec(rng.uniform(0.0, 0.2), float(c), eps),
                      ArcSpec(rng.uniform(0.0, 0.2), float(d),
                              int(rng.choice([-1, 1])))))
    # no translate to try: two perpendicular arcs far apart on the core
    empty = (ArcSpec(0.03, 0.0, 1), ArcSpec(0.11, 0.0, 1))
    graze = (ArcSpec(0.1, 0.0, 1), ArcSpec(0.05, 0.25, 1))
    overlap = (ArcSpec(0.1, 0.0, 1), ArcSpec(0.1, 0.0, -1))
    for at, pair in ((0, empty), (1500, empty), (1501, graze),
                     (2500, overlap), (2501, empty)):
        pairs.insert(at, pair)
    pairs.append(empty)
    assert sum(abs(a.winding) + abs(b.winding) for a, b in pairs) \
        > 2 * ROW_CHUNK
    outcomes = _batch_matches_loop(CYL, pairs)
    assert outcomes[0] == outcomes[1500] == outcomes[2501] \
        == outcomes[-1] == (0, ())
    assert outcomes[1501][0] == outcomes[2500][0] == "RetrySignal"
    assert max(o[0] for o in outcomes if o[0] != "RetrySignal") >= 12


def test_batch_with_a_run_near_the_translate_bound():
    """One pair of about 0.9 * MAX_TRANSLATES translates among short ones
    on a short core: several row chunks for one pair, and pairs on both
    sides of it."""
    short = Cylinder(core_length=1e-4, half_width=3.0)
    rng = np.random.default_rng(22)
    pairs = [(ArcSpec(rng.uniform(0.0, 1e-4), float(c), 1),
              ArcSpec(rng.uniform(0.0, 1e-4), float(d), -1))
             for c, d in rng.uniform(-30.0, 30.0, (40, 2))]
    pairs.insert(20, (ArcSpec(1.3e-5, 0.5, 1),
                      ArcSpec(6.1e-5, 0.9 * MAX_TRANSLATES, -1)))
    pairs.insert(0, (ArcSpec(1e-5, 0.0, 1), ArcSpec(8e-5, 0.0, 1)))
    outcomes = _batch_matches_loop(short, pairs)
    assert outcomes[0] == (0, ())
    assert outcomes[21][0] == 0.9 * MAX_TRANSLATES + 1


# The core of the thinnest full collar inside MIN_HALF_WIDTH.
THINNEST_FULL_CORE = 15.20180508575082
# Windings drawn for the pair-alone test reach the advance bound on cores
# down to 0.2 and this many core lengths on shorter ones, so that a batch
# stays far below MAX_TRANSLATES and the test fast.
PAIR_ALONE_WINDINGS = 2000.0
# Row chunk of a few rows, under which the pair-alone test solves its
# batches a second time.
STRADDLING_CHUNK = 3
# Examples that each test of the collar oracle's edge harness draws: 80
# in tier-1, or the budget of the "collar-edge" hypothesis profile
# (pytest --hypothesis-profile=collar-edge, see conftest.py).
EDGE_EXAMPLES = (settings.default.max_examples
                 if settings.get_current_profile_name() == "collar-edge"
                 else 80)


def _arcs(core: float):
    """Arcs (entry_t, winding, crossing_sign) on a collar of this core,
    each winding zero or log-uniform up to the advance bound, and at most
    PAIR_ALONE_WINDINGS."""
    edge = min(MAX_ADVANCE / core, PAIR_ALONE_WINDINGS)
    while edge * core / 2.0 > MAX_ADVANCE / 2.0:
        edge = math.nextafter(edge, 0.0)
    winding = st.one_of(
        st.just(0.0),
        st.floats(math.log(1e-3), math.log(edge)).map(
            lambda u: min(math.exp(u), edge)))
    return st.tuples(st.floats(0.0, core, exclude_max=True), winding,
                     st.sampled_from([-1, 1]))


@st.composite
def _collar_batches(draw):
    """A collar, shrunk or full, of core 1e-9 to 0.2 or the thinnest full
    collar, and 2 to 5 pairs of arcs on it, each winding zero or
    log-uniform up to the advance bound; the draws are steered toward the
    short core, the thin collar, the large advance and the many
    translates."""
    core = draw(st.one_of(
        st.floats(math.log(MIN_CORE_LENGTH), math.log(0.2)).map(math.exp),
        st.just(THINNEST_FULL_CORE)))
    cyl = make_collar(core, "full" if core > 0.2 else
                      draw(st.sampled_from(["shrunk", "full"])))
    arc = _arcs(core)
    pairs = draw(st.lists(st.tuples(arc, arc), min_size=2, max_size=5))
    target(-math.log(core), label="core length down")
    target(-math.log(cyl.half_width), label="half-width down")
    most = max(abs(a[1]) for pair in pairs for a in pair)
    target(most * core / MAX_ADVANCE, label="advance up")
    target(sum(abs(a[1]) for pair in pairs for a in pair),
           label="translates up")
    return cyl, pairs


@given(case=_collar_batches())
@settings(max_examples=EDGE_EXAMPLES, deadline=None, derandomize=True)
# empty (perpendicular arcs far apart), a zero winding against a crossing
# arc, graze and overlap among ordinary pairs
@example(case=(CYL, [((0.03, 0.0, 1), (0.11, 0.0, 1)),
                     ((0.03, 0.0, 1), (0.11, 2.5, 1)),
                     ((0.1, 0.0, 1), (0.05, 0.25, 1)),
                     ((0.1, 0.0, 1), (0.1, 0.0, -1)),
                     ((0.02, -3.4, 1), (0.15, 1.3, 1))]))
# one row overlapping and grazing at once: the overlap names the flag
@example(case=(make_collar(THINNEST_FULL_CORE, "full"),
               [((2.6686220093763775, 0.10157561819430844, 1),
                 (2.668622009376214, 0.10157561819431918, 1)),
                ((4.6239677276396325, 0.1854894285219217, 1),
                 (4.623967727639382, 0.18548942852193817, 1)),
                ((0.0, 0.5, 1), (0.0, -2.5, 1))]))
# slopes one ulp of A inside and outside OVERLAP_TOLERANCE, where the two
# lifts meet at one core point
@example(case=(CYL, [((0.0515325561042142, 4.135733553814221, 1),
                      (0.051532556104292526, 4.135733553813438, 1)),
                     ((0.06523691115879877, 4.9962925177928215, 1),
                      (0.06523691115889113, 4.996292517791899, 1))]))
# the shortest core, at the advance bound, and the thinnest collar there
@example(case=(make_collar(MIN_CORE_LENGTH, "shrunk"),
               [((0.0, 0.5, 1), (5e-10, -PAIR_ALONE_WINDINGS, 1)),
                ((3e-10, 7.25, -1), (9e-10, 7.25, -1))]))
@example(case=(Cylinder(0.2, MIN_HALF_WIDTH),
               [((0.0, 0.5, 1), (0.0, -2.5, 1)),
                ((0.03, 0.5, 1), (0.11, -2.5, 1))]))
def test_a_pair_alone_is_its_slice_of_the_batch(case):
    """A batch of one pair broadcasts its constants where a batch of many
    gathers them per row; both must give the same offsets, int8 signs and
    retry code, bit for bit.  Among the examples, a row that overlaps and
    grazes at once and slopes at the edge of OVERLAP_TOLERANCE, where the
    last bit of A decides.  Both are solved again in row chunks of a few
    rows, so that a pair's runs, its hits and its first flagged row fall
    in different chunks; the batch must not change.  A pair of identical
    arcs, which the draws can give, is refused alone, and the first such
    pair refuses the batch, named by its index; the other pairs are then
    compared without them."""
    cyl, pairs = case
    arrays = np.array([[[arc[f] for arc in arcs] for arcs in zip(*pairs)]
                       for f in range(3)], dtype=float)
    alone = [_batch_or_refusal(cyl, *arrays[:, :, i:i + 1])
             for i in range(len(pairs))]
    refused = [i for i, one in enumerate(alone)
               if not isinstance(one, CrossingBatch)]
    if refused:
        assert {alone[i] for i in refused} \
            == {("DegenerateInputError", "arcs are identical", 0)}
        assert _batch_or_refusal(cyl, *arrays) \
            == alone[refused[0]][:2] + (refused[0],)
        arrays = np.delete(arrays, refused, axis=2)
    batches = []
    for chunk in (ROW_CHUNK, STRADDLING_CHUNK):
        with patch.object(intnorm.flat_torus, "ROW_CHUNK", chunk):
            batch = crossing_batch_cyl(cyl, *arrays)
            batches.append([v.tolist() for v in batch])
            for i in range(arrays.shape[2]):
                one = crossing_batch_cyl(cyl, *arrays[:, :, i:i + 1])
                lo, hi = batch.offsets[i:i + 2].tolist()
                assert one.offsets.tolist() == [0, hi - lo], (chunk, i)
                assert one.signs.dtype == batch.signs.dtype == np.int8
                assert one.signs.tolist() == batch.signs[lo:hi].tolist(), \
                    (chunk, i)
                assert one.retry.tolist() == batch.retry[i:i + 1].tolist(), \
                    (chunk, i)
    assert batches[0] == batches[1]


def _batch_or_refusal(cyl: Cylinder, *arrays):
    """``crossing_batch_cyl`` on the arrays, or the type, message and
    ``pair`` of the error that refuses them."""
    try:
        return crossing_batch_cyl(cyl, *arrays)
    except GeometryError as exc:
        return type(exc).__name__, str(exc), exc.pair


def _share_an_end(cyl: Cylinder, arc1: ArcSpec, arc2: ArcSpec) -> bool:
    """Whether the two arcs end at one point of a boundary circle, up to
    1e-9 core lengths.  There they cross on the boundary, and on a wide
    collar the oracle and the loop reference can round that crossing
    apart (see the xfail examples of the order test)."""
    def ends(arc):
        u = arc.entry_t / cyl.core_length
        return (-arc.crossing_sign, u), (arc.crossing_sign, u + arc.winding)
    return any(side1 == side2 and abs((u1 - u2 + 0.5) % 1.0 - 0.5) <= 1e-9
               for (side1, u1), (side2, u2) in product(ends(arc1),
                                                       ends(arc2)))


@st.composite
def _collar_pairs(draw):
    """A collar, shrunk or full, of core 1e-6 to 3, and two arcs on it
    that do not end at one boundary point, each winding zero or
    log-uniform up to the advance bound, of either sign; the draws are
    steered toward the short core and the many translates."""
    core = math.exp(draw(st.floats(math.log(1e-6), math.log(3.0))))
    cyl = make_collar(core, "full" if core >= SHORT_CORE_THRESHOLD else
                      draw(st.sampled_from(["shrunk", "full"])))
    arcs = [ArcSpec(t, c * draw(st.sampled_from([-1.0, 1.0])), eps)
            for t, c, eps in (draw(_arcs(core)), draw(_arcs(core)))]
    assume(not _share_an_end(cyl, *arcs))
    target(-math.log(core), label="core length down")
    target(abs(arcs[0].winding) + abs(arcs[1].winding),
           label="translates up")
    return cyl, *arcs


@given(case=_collar_pairs())
@settings(max_examples=EDGE_EXAMPLES, deadline=None, derandomize=True)
# Two arcs sharing their entry on a wide collar meet on its boundary, at
# s = w exactly.  The error of s there, about 1e-9 at w = 6.4 and 5e-9 at
# w = 7.1, passes S_TOLERANCE: the reference grazes where the oracle
# counts the crossing, or misses it where the oracle counts it.
@example(case=(Cylinder(0.0018277172411480466, 6.390981930714686),
               ArcSpec(0.0, -2.718281828459045, -1),
               ArcSpec(0.0, 4.4816890703380645, -1))).xfail(
    raises=AssertionError, reason="a crossing on the boundary escapes "
                                  "S_TOLERANCE on a wide collar")
@example(case=(Cylinder(0.0009118819655545162, 7.086294378443406),
               ArcSpec(0.0, -4.4816890703380645, -1),
               ArcSpec(0.0, 2.718281828459045, -1))).xfail(
    raises=AssertionError, reason="a crossing on the boundary escapes "
                                  "S_TOLERANCE on a wide collar")
def test_a_pairs_signs_come_in_translate_order(case):
    """Along the translates k of the loop reference, the crossings' t runs
    one way: the translates of the second arc's geodesic are disjoint
    lines, which the first arc crosses in the order of k.  The oracle
    reports the reference's count and its signs in the order of k, or its
    RetrySignal."""
    cyl, arc1, arc2 = case
    try:
        hits = translate_hits(cyl, arc1, arc2)
    except RetrySignal as exc:
        ref = "RetrySignal", str(exc)
    else:
        steps = np.diff([t for _, t, _ in hits])
        assert (steps >= 0.0).all() or (steps <= 0.0).all()
        ref = len(hits), tuple(sign for _, _, sign in hits)
    assert _outcome(crossing_count_oracle_cyl, cyl, arc1, arc2) == ref


def test_batch_translates_are_bounded(monkeypatch):
    """A perpendicular first arc 0.4 core lengths past the second arc's
    entry tries exactly n translates against a second winding n; a batch
    of such pairs is solved at MAX_TRANSLATES and refused one translate
    past it."""
    windings = (3.0, 5.0, 4.0)
    arrays = ([[0.11] * 3, [0.03] * 3], [[0.0] * 3, list(windings)],
              [[1] * 3, [1] * 3])
    monkeypatch.setattr(intnorm.cylinder, "MAX_TRANSLATES", 12)
    batch = crossing_batch_cyl(CYL, *arrays)
    assert np.diff(batch.offsets).tolist() == [3, 5, 4]
    monkeypatch.setattr(intnorm.cylinder, "MAX_TRANSLATES", 11)
    with pytest.raises(DomainError, match="^12 deck translates to try "
                                          "exceed the oracle's bound 11$"):
        crossing_batch_cyl(CYL, *arrays)


# tracemalloc peak allowed for a call at MAX_TRANSLATES: its 1 MB of int8
# signs, in chunks and joined, and the temporaries of one row chunk.
BOUND_PEAK = 8 << 20


def test_one_pair_at_the_translate_bound_is_solved():
    """The perpendicular first arc of ``test_batch_translates_are_bounded``
    against a second winding of a million on a short core: one pair
    alone tries as many translates as the bound allows and is solved,
    with a crossing at each, within BOUND_PEAK; and one translate more is
    refused before any row is built."""
    short = Cylinder(core_length=1e-4, half_width=3.0)
    n = 1_000_000
    entry_t, signs = [[5.5e-5], [1.5e-5]], [[1], [1]]
    tracemalloc.start()
    try:
        batch = crossing_batch_cyl(short, entry_t, [[0.0], [float(n)]],
                                   signs)
        solved = tracemalloc.get_traced_memory()[1]
        count, seen = batch.offsets[1], set(batch.signs.tolist())
        del batch
        tracemalloc.reset_peak()
        with pytest.raises(DomainError, match=f"^{n + 1} deck translates to "
                                              "try exceed the oracle's "
                                              f"bound {n}$"):
            crossing_batch_cyl(short, entry_t, [[0.0], [n + 1.0]], signs)
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lo, hi, sign = intersection_bounds(0.0, float(n), True)
    assert lo <= count <= hi
    assert seen == {sign}
    assert solved < BOUND_PEAK
    assert refused < 1 << 20


def test_ten_pairs_at_the_translate_bound_are_solved():
    """Ten pairs of the perpendicular first arc against a second winding
    of 100,000 on a short core: MAX_TRANSLATES in all, a crossing at each,
    solved within the one pair's BOUND_PEAK."""
    short = Cylinder(core_length=1e-4, half_width=3.0)
    n = 100_000
    tracemalloc.start()
    try:
        batch = crossing_batch_cyl(short, [[5.5e-5] * 10, [1.5e-5] * 10],
                                   [[0.0] * 10, [float(n)] * 10],
                                   [[1] * 10, [1] * 10])
        solved = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 10 * n == MAX_TRANSLATES
    assert np.diff(batch.offsets).tolist() == [n] * 10
    assert set(batch.signs.tolist()) == {intersection_bounds(0.0, float(n),
                                                             True).sign}
    assert solved < BOUND_PEAK


@pytest.mark.parametrize("n", [0, ROW_CHUNK, ROW_CHUNK + 1])
def test_a_pair_alone_at_a_chunk_edge_is_its_slice_of_the_batch(n):
    """The perpendicular first arc of ``test_batch_translates_are_bounded``
    tries exactly n translates, with a crossing at each: none, one row
    chunk, and one row past it.  Alone, its floats broadcast into one
    piece or two; in a batch, between two ordinary pairs, its rows come
    from the chunks by their pair index.  Both give the same offsets,
    int8 signs and retry code, and the report of the one-pair oracle."""
    short = Cylinder(core_length=1e-4, half_width=3.0)
    entry_t = np.array([[2e-5, 5.5e-5, 1e-5], [7e-5, 1.5e-5, 9e-5]])
    winding = np.array([[0.5, 0.0, -3.25], [-2.5, float(n), 40.5]])
    signs = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
    if n == 0:  # the first arc sits past the second's one lift
        entry_t[:, 1], winding[1, 1] = (5.5e-5, 1.5e-5), 0.0
    batch = crossing_batch_cyl(short, entry_t, winding, signs)
    one = crossing_batch_cyl(short, entry_t[:, 1:2], winding[:, 1:2],
                             signs[:, 1:2])
    lo, hi = batch.offsets[1:3].tolist()
    assert one.offsets.tolist() == [0, hi - lo] == [0, n]
    assert one.signs.dtype == batch.signs.dtype == np.int8
    assert one.signs.tolist() == batch.signs[lo:hi].tolist()
    assert one.retry.tolist() == batch.retry[1:2].tolist() == [0]
    arcs = [ArcSpec(*v) for v in zip(entry_t[:, 1], winding[:, 1],
                                     signs[:, 1].astype(int).tolist())]
    assert crossing_count_oracle_cyl(short, *arcs) == batch.report(1)


def test_an_unflagged_pair_makes_one_batch_call(monkeypatch):
    """Both one-pair entry points of the collar oracle reach it through
    one ``crossing_batch_cyl`` call for a pair that no lift flags, and
    ``count_crossings_cyl`` takes no uniform from its stream."""
    real, calls = crossing_batch_cyl, []

    def recorded(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(intnorm.cylinder, "crossing_batch_cyl", recorded)
    arc1, arc2 = ArcSpec(0.03, 1.0, 1), ArcSpec(0.11, 4.2, -1)
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    expected = real(CYL, *intnorm.cylinder._one_pair(arc1, arc2)).report(0)
    assert expected.count > 0
    for call in (lambda: crossing_count_oracle_cyl(CYL, arc1, arc2),
                 lambda: count_crossings_cyl(CYL, arc1, arc2, rng)):
        del calls[:]
        assert call() == expected
        assert len(calls) == 1
    assert rng.random(4).tolist() == replay.random(4).tolist()


@pytest.mark.parametrize("arc2, seed, report, jittered", [
    # identical lifts, crossing in opposite directions
    (ArcSpec(0.1, 0.0, -1), 2, CrossingReport(0, ()), 0.10000005232242686),
    # the perpendicular first arc through the second arc's exit point
    (ArcSpec(0.05, 0.25, 1), 3, CrossingReport(1, (1,)),
     0.05000001712983343)])
def test_a_flagged_pair_alone_is_retried_as_before(monkeypatch, arc2, seed,
                                                   report, jittered):
    """A flagged pair alone is solved again from one uniform of its
    stream: the entries of each call, the report and the next draw are
    pinned to the values the batched oracle gave before lone pairs took
    their constants as floats."""
    real, calls = crossing_batch_cyl, []

    def recorded(*args):
        calls.append(np.asarray(args[1]).tolist())
        return real(*args)
    monkeypatch.setattr(intnorm.cylinder, "crossing_batch_cyl", recorded)
    arc1 = ArcSpec(0.1, 0.0, 1)
    rng = np.random.default_rng(seed)
    assert count_crossings_cyl(CYL, arc1, arc2, rng) == report
    assert calls == [[[0.1], [arc2.entry_t]], [[0.1], [jittered]]]
    assert rng.random() == {2: 0.2984911434141233,
                            3: 0.2368105065960997}[seed]


def test_batch_refusal_names_the_first_pair_outside_the_domain():
    """Pair 1's second arc advances 600 core lengths and pair 2's first
    arc enters past the core: pair 1, the first in pair order, names the
    refusal, as the one-pair oracle on it alone would."""
    entry_t = [[0.03, 0.03, 0.3], [0.11, 0.11, 0.11]]
    winding = [[0.5, 0.5, 0.5], [2.5, 3000.0, 2.5]]
    signs = [[1, 1, 1], [1, 1, 1]]
    with pytest.raises(DomainError, match="^core advance 600.0 of winding "
                                          "3000.0 exceeds"):
        crossing_batch_cyl(CYL, entry_t, winding, signs)


def test_the_batch_names_the_first_pair_outside_either_domain():
    """Pair 1's windings would leave the window's domain and pair 2's
    second arc advances 600 core lengths: pair 1 comes first, refused for
    the advance of its first arc, as every winding past the window's
    domain is; a batch inside the domain is solved.  An arc entering
    past the core and advancing 600 core lengths is refused for its
    entry."""
    entry_t = [[0.03, 0.03, 0.03], [0.11, 0.11, 0.11]]
    winding = [[0.5, 1e308, 0.5], [2.5, 1e308, 3000.0]]
    signs = [[1, 1, 1], [1, 1, 1]]
    assert _batch_or_refusal(CYL, entry_t, winding, signs) == (
        "DomainError", "core advance 2.0000000000000002e+307 of winding "
                       "1e+308 exceeds the oracle's bound 400.0", 1)
    crossing_batch_cyl(CYL, *([v[:1] for v in rows]
                              for rows in (entry_t, winding, signs)))
    assert _batch_or_refusal(CYL, [[0.03], [0.3]], [[0.5], [3000.0]],
                             [[1], [1]]) == (
        "DomainError", "entry_t must lie in [0, 0.2), got 0.3", 0)


@pytest.mark.parametrize("identical, outside", [(3, 7), (7, 3)])
def test_the_first_pair_with_identical_arcs_or_an_arc_outside_is_refused(
        identical, outside):
    """Among 20 pairs of about 98,000 translates each, past the call's
    bound, one pair of identical arcs and one with an entry past the
    core: the earlier of the two is refused, named by its index, before
    any row is built, and identical arcs stay refused as identical when
    both enter past the core.  Without the two, the call's translates
    are refused, and that error names no pair."""
    cyl = make_collar(1e-3, "full")
    n = 20
    entries = np.array([[1e-4] * n, [9e-4] * n])
    windings = np.array([[49_000.0] * n, [-49_000.0] * n])
    signs = np.ones((2, n))
    assert _batch_or_refusal(cyl, entries, windings, signs)[1:] == (
        "1960000 deck translates to try exceed the oracle's bound 1000000",
        None)
    entries[:, identical], windings[:, identical] = 5e-4, 49_000.0
    entries[1, outside] = 0.5
    tracemalloc.start()
    try:
        refusal = _batch_or_refusal(cyl, entries, windings, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refusal == (("DegenerateInputError", "arcs are identical",
                        identical) if identical < outside else
                       ("DomainError", "entry_t must lie in [0, 0.001), "
                                       "got 0.5", outside))
    assert peak < 1 << 20
    entries[:, identical] = 1.5
    assert _batch_or_refusal(cyl, entries, windings, signs) == refusal


def test_batch_past_its_translate_bound_is_refused_before_its_rows():
    # 20 pairs of about 98,000 translates each
    cyl = make_collar(1e-3, "full")
    n = 20
    entries = [[1e-4] * n, [9e-4] * n]
    windings = [[49_000.0] * n, [-49_000.0] * n]
    assert 98_000 * n > intnorm.cylinder.MAX_TRANSLATES
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="translates to try exceed "
                                              "the oracle's bound"):
            crossing_batch_cyl(cyl, entries, windings, [[1] * n, [1] * n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_count_crossings_cyl_draws_one_uniform_a_retry(monkeypatch):
    """Under a graze tolerance this wide these pairs graze the collar
    boundary.  The first try takes no draw; each retry takes the next
    uniform of the stream and adds it to the second arc's own entry, and
    a pair still grazing after MAX_RETRIES of them raises with the reason
    of its flag."""
    monkeypatch.setattr(intnorm.cylinder, "S_TOLERANCE", 0.02)
    monkeypatch.setattr(intnorm.cylinder, "JITTER_SCALE", 0.01)
    real, calls = intnorm.cylinder.crossing_batch_cyl, []

    def recorded(*args):
        calls.append(np.asarray(args[1]).tolist())
        return real(*args)
    monkeypatch.setattr(intnorm.cylinder, "crossing_batch_cyl", recorded)
    cyl = make_collar(0.2, "shrunk")
    pairs = ((ArcSpec(0.179, -0.5, 1), ArcSpec(0.194, -6.08, -1)),
             (ArcSpec(0.195, -3.71, -1), ArcSpec(0.159, -1.82, 1)))
    rng, replay = np.random.default_rng(7), np.random.default_rng(7)
    stuck = 0
    for scale in (0.01, 1e-12):
        monkeypatch.setattr(intnorm.cylinder, "JITTER_SCALE", scale)
        for arc1, arc2 in pairs:
            del calls[:]
            try:
                count_crossings_cyl(cyl, arc1, arc2, rng)
                assert 1 < len(calls) <= 1 + MAX_RETRIES
            except RetrySignal as exc:
                # no jitter this small leaves the graze
                assert scale == 1e-12
                assert str(exc) == "crossing grazes the collar boundary"
                assert len(calls) == 1 + MAX_RETRIES
                stuck += 1
            assert calls[0] == [[arc1.entry_t], [arc2.entry_t]]
            for entry_t in calls[1:]:
                jitter = replay.uniform(0.0, 0.2 * scale)
                assert entry_t == [[arc1.entry_t],
                                   [(arc2.entry_t + jitter) % 0.2]]
    assert stuck
    assert rng.random(4).tolist() == replay.random(4).tolist()


def test_batch_with_a_retried_pair():
    batch = crossing_batch_cyl(CYL, [[0.03, 0.03, 0.05], [0.11, 0.1, 0.15]],
                               [[0.0, 1.0, 1.2], [2.5, 4.2, -0.7]],
                               [[1, 1, 1], [1, -1, -1]])
    reports = [batch.report(i) for i in range(3)]
    for i, one in enumerate((
            CrossingBatch(np.array([0, 0]), np.zeros(0, np.int8),
                          np.zeros(1, np.int8)),
            CrossingBatch(np.array([0, 3]), np.array([-1, 1, -1], np.int8),
                          np.zeros(1, np.int8)))):
        changed = batch.with_pair(i, one)
        assert changed.signs.dtype == batch.signs.dtype == np.int8
        assert changed.offsets[-1] == len(changed.signs)
        assert [changed.report(j) for j in range(3)] == \
            reports[:i] + [one.report(0)] + reports[i + 1:]
    flagged = batch._replace(retry=np.array([0, 2, 0], dtype=np.int8))
    with pytest.raises(RetrySignal):
        flagged.report(1)
    one = CrossingBatch(batch.offsets[1:3] - batch.offsets[1],
                        batch.signs[batch.offsets[1]:batch.offsets[2]],
                        np.zeros(1, np.int8))
    assert flagged.with_pair(1, one).report(1) == reports[1]


def test_window_violations_judges_each_pair_once():
    """One pair at the top of its window passes; a count past it, a
    crossing of the wrong sign and a flagged pair, judged stuck with the
    reason of its flag, are told apart."""
    batch = CrossingBatch(offsets=np.array([0, 3, 7, 9, 9]),
                          signs=np.array([1, 1, 1, 1, 1, 1, 1, 1, -1]),
                          retry=np.array([0, 0, 0, 1], dtype=np.int8))
    wb = intersection_bounds(np.array([0.0, 0.0, 0.0, 0.0]),
                             np.array([2.5, 6.2, 1.5, 7.0]),
                             np.array([True, True, True, True]))
    assert window_violations(batch, wb, 1) == {
        1: ["count 4 outside window [6, 7]"],
        2: ["signs (1, -1) not uniformly 1"],
        3: ["stuck (overlapping geodesic lifts)"],
    }
    # the first arc's sign may differ pair by pair
    assert window_violations(batch, wb, np.array([-1, 1, 1, 1]))[0] == [
        "signs (1, 1, 1) not uniformly -1"]


# ------------------------------------------------------------ the sweep

def _reference_sweep(core_length, samples, rng, first_sign):
    """``lemma_sweep`` one sample at a time: five scalar draws and one
    ``count_crossings_cyl`` call per sample, whose jitters come from a
    child stream of rng made at the start, as lemma_sweep's do.  It
    judges each count with its own scalar verdict, so that it stays
    independent of the ``window_violations`` that it checks.  Returns its
    records and violations, its largest count, and how many samples asked
    the oracle for a retry."""
    cyl = make_collar(core_length, "shrunk")
    jitters = rng.spawn(1)[0]
    records, violations, max_count, retries = [], [], 0, 0
    for _ in range(samples):
        c_wind = rng.uniform(-8.0, 8.0)
        d_wind = rng.uniform(-8.0, 8.0)
        same_side = bool(rng.random() < 0.5)
        t1 = rng.uniform(0.0, core_length)
        t2 = rng.uniform(0.0, core_length)
        arc1 = ArcSpec(t1, c_wind, first_sign)
        arc2 = ArcSpec(t2, d_wind, first_sign if same_side else -first_sign)
        wb = intersection_bounds(c_wind, d_wind, same_side)
        label = (f"(c={c_wind!r}, d={d_wind!r}, "
                 f"{'same' if same_side else 'opposite'}, "
                 f"eps1={first_sign})")
        vs = []
        try:
            crossing_count_oracle_cyl(cyl, arc1, arc2)
        except RetrySignal:
            retries += 1
        try:
            rep = count_crossings_cyl(cyl, arc1, arc2, jitters)
        except RetrySignal as exc:
            vs.append(f"stuck ({exc}) at {label}")
            rep = None
        if rep is not None:
            max_count = max(max_count, rep.count)
            if not wb.lo <= rep.count <= wb.hi:
                vs.append(f"count {rep.count} outside window "
                          f"[{wb.lo}, {wb.hi}] at {label}")
            expected = first_sign * wb.sign
            if rep.count and expected and any(s != expected
                                              for s in rep.signs):
                vs.append(f"signs {rep.signs} not uniformly {expected} "
                          f"at {label}")
        for arc in (arc1, arc2):
            length = arc_length(cyl, arc)
            lower = max(2.0 * cyl.half_width,
                        abs(arc.winding) * core_length)
            if length < lower - 1e-9:
                vs.append(f"arc length {length!r} below floor {lower!r} "
                          f"at {label}")
        violations += vs
        records.append({
            "c_wind": c_wind, "d_wind": d_wind, "same_side": same_side,
            "entry_1": t1, "entry_2": t2, "first_sign": first_sign,
            "count": None if rep is None else rep.count,
            "window": [wb.lo, wb.hi],
            "expected_sign": first_sign * wb.sign,
            "signs": None if rep is None else list(rep.signs),
            "ok": not vs,
        })
    return records, violations, max_count, retries


def _sweeps_agree(seed, core, first_sign, samples):
    """Run lemma_sweep and the reference on one named stream each; both
    must give the same records and violations and leave their streams at
    the same place.  Returns the reference's records and retry count."""
    rng = named_stream(seed, "cylinder.sweep")
    ref_rng = named_stream(seed, "cylinder.sweep")
    res = lemma_sweep(core, samples, rng, first_sign=first_sign,
                      collect_records=True)
    records, violations, max_count, retries = _reference_sweep(
        core, samples, ref_rng, first_sign)
    assert list(res.records) == records
    # plain Python values only, as JSON and the messages need them
    assert {type(v) for r in res.records for v in r.values()} <= {
        int, float, bool, list, type(None)}
    assert {type(s) for r in res.records for s in r["signs"] or ()} \
        <= {int}
    assert list(res.violations) == violations
    assert res.max_count == max_count
    assert rng.random(8).tolist() == ref_rng.random(8).tolist()
    return records, retries


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_matches_a_sample_by_sample_sweep(seed):
    # 1500 samples span a block boundary
    for core, first_sign in ((0.05, 1), (0.2, -1)):
        records, _ = _sweeps_agree(seed, core, first_sign, 1500)
        assert all(r["ok"] for r in records)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_keeps_the_stream_through_retries(seed, monkeypatch):
    """A graze tolerance this wide flags some samples.  Their jittered
    retries draw from the stream, and every later sample must still see
    the draws that a sample-by-sample sweep gives it."""
    monkeypatch.setattr(intnorm.cylinder, "S_TOLERANCE", 0.02)
    monkeypatch.setattr(intnorm.cylinder, "JITTER_SCALE", 0.01)
    records, retries = _sweeps_agree(seed, 0.2, 1, 1500)
    assert retries > 5
    # some retries succeed after a jitter, and some stay stuck
    assert any(r["count"] is None for r in records)
    assert sum(r["count"] is not None for r in records) > 1500 - retries


# ------------------------------------------------------- half-plane charts

@given(t=st.floats(-5, 5), s=st.floats(-4, 4))
@example(t=0.3, s=1.06e-8)
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
    # a finite winding and order whose sum is past double range
    with pytest.raises(DomainError, match="^winding must be a finite real, "
                                          "got inf$"):
        dehn_twist_winding(1e308, 1, 1e308)


def test_dehn_twist_inverts_exactly_on_dyadics():
    # dyadic windings and orders make the float addition exact
    for k in (-3072, -511, 257, 4095):
        c = k / 1024.0
        for z in (-2048, 1536, 3072):
            zz = z / 1024.0
            there = dehn_twist_winding(c, 1, zz)
            assert dehn_twist_winding(there, 1, -zz) == c


def dehn_twist_map(cyl: Cylinder, z: float, t: float,
                   s: float) -> tuple[float, float]:
    """Coordinate action of the order-z Dehn twist on Fermi coordinates:
    (t, s) |-> (t + z * core_length * (w + s) / (2w), s).  Fixes the s = -w
    boundary pointwise and advances the s = +w boundary by z full turns.
    The reference that the winding arithmetic of ``dehn_twist_winding`` is
    held to."""
    w = cyl.half_width
    if abs(s) > w * (1.0 + 1e-12):
        raise DomainError(f"|s| = {abs(s)} exceeds the half-width {w}")
    return t + z * cyl.core_length * (w + s) / (2.0 * w), s


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

def test_rewind_shift_worked_examples():
    # (m_lead, m_trail) = (3, 7): the leader loses 2 turns, the trailer
    # 2 + (7 - 3 - 2) = 4
    assert rewind_shift(3, 7, True) == 2
    assert rewind_shift(3, 7, False) == 4
    assert rewind_shift(2, 7, True) == 1
    assert rewind_shift(2, 7, False) == 4
    # m = 0: a family whose minimal winding is below 1 keeps it
    assert rewind_shift(0, 0, True) == 0
    assert rewind_shift(0, 0, False) == 0
    assert rewind_shift(0, 3, False) == 1


def test_rewind_suite_negative_orientation():
    rep = rewind_suite_check([-3.4, -3.9], [-7.2], True)
    assert rep.ok
    assert rep.gamma_rewound == pytest.approx((-1.4, -1.9))
    assert rep.delta_rewound == pytest.approx((-3.2,))


def test_rewind_cells_pass_far_beyond_the_grid():
    # the verify grid stops at 12; the cells repeat in shape beyond it
    for m_lead, m_trail, s_lead, s_trail, same_side in product(
            range(41), range(41), (1, -1), (1, -1), (True, False)):
        if m_lead <= m_trail:
            assert rewind_cell_violations(
                m_lead, m_trail, s_lead, s_trail, same_side) == []


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
