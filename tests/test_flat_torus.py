"""Flat-torus lattice machinery: exact intersection algebra, certified
enumeration, extremal-ratio searches, and the geodesic crossing oracle.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intnorm import (
    CrossingReport,
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    IntegerClass,
    Lattice,
    RetrySignal,
    best_ratio_search,
    class_length,
    count_crossings,
    enumerate_classes,
    intersection_number,
    k_real,
    min_length_product,
    norm_comparison_report,
    segment_bound_check,
    systole,
    torus_diameter,
)
from intnorm import flat_torus
from intnorm.flat_torus import crossing_count_oracle, reduced_basis

import torus_reference as dense

SQUARE = Lattice(e1=(1.0, 0.0), e2=(0.0, 1.0))
HEX = Lattice.from_string("1,0,1/2,0.8660254037844386")

# the bases the fast searches and the crossing oracle are held to their
# references on, exact and as floats
BASES = [
    "1,0,0,1", "1,0,1/2,0.8660254037844386", "2,0,1,3", "1,0,1/2,7/8",
    # orientation reversed
    "0,1,1,0", "1,0,0,-1", "1/2,0.8660254037844386,1,0", "1,3,2,0",
    "1,0,93.3,0.98"]

SMALL_INTS = st.integers(min_value=-50, max_value=50)
CLASS_PAIRS = st.tuples(SMALL_INTS, SMALL_INTS)


# ---------------------------------------------------------------- lattices

def test_lattice_determinant_and_orientation():
    assert SQUARE.det == 1.0
    assert SQUARE.covolume == 1.0
    flipped = Lattice(e1=(0.0, 1.0), e2=(1.0, 0.0))
    assert flipped.det == -1.0
    assert flipped.covolume == 1.0


def test_lattice_rejects_degenerate_basis():
    with pytest.raises(DegenerateInputError):
        Lattice(e1=(1.0, 2.0), e2=(2.0, 4.0))
    with pytest.raises(DegenerateInputError, match="linearly dependent"):
        Lattice(e1=(1e-170, 3e-170), e2=(2e-170, 6e-170))
    with pytest.raises(DomainError):
        Lattice(e1=(math.nan, 0.0), e2=(0.0, 1.0))
    # independent bases whose determinant underflows, is subnormal (1e-320
    # and 1e-310, whose inverses overflow) or overflows
    for scale in (1e-170, 1e-160, 1e-155, 1e200):
        with pytest.raises(DomainError, match="double precision"):
            Lattice(e1=(scale, 0.0), e2=(0.0, scale))
    assert Lattice(e1=(1e-150, 0.0), e2=(0.0, 1e-150)).covolume == 1e-300


def test_from_string_decimal_and_rational():
    lat = Lattice.from_string("1, 0, 1/2, 4/5")
    assert lat.e1 == (1.0, 0.0)
    assert lat.e2 == (0.5, 0.8)
    assert lat.exact == (Fraction(1), Fraction(0), Fraction(1, 2),
                         Fraction(4, 5))


@pytest.mark.parametrize("text", ["1,0,2", "1,0,x,1", "", "1;0;0;1"])
def test_from_string_rejects_malformed_input(text):
    with pytest.raises(DomainError):
        Lattice.from_string(text)


def test_from_string_rejects_dependent_columns():
    with pytest.raises(DegenerateInputError):
        Lattice.from_string("1,0,2,0")
    # dependence is decided on the given entries: these are dependent,
    # though their floats give a determinant of 2.2e-16
    with pytest.raises(DegenerateInputError, match="linearly dependent"):
        Lattice.from_string("1,1/3,5,5/3")
    # and these independent, though the float of 1e-400 is 0.0
    with pytest.raises(DomainError, match="normal range"):
        Lattice.from_string("1,0,0,1e-400")


def test_length_sq_exact_rational_gram():
    lat = Lattice.from_string("1,0,1/2,1/3")
    assert dense.length_sq_exact(lat, (1, 2)) == Fraction(40, 9)
    assert dense.length_sq_exact(SQUARE, (1, 2)) is None


# ------------------------------------------------------ intersection algebra

def test_intersection_number_examples():
    assert intersection_number((1, 0), (0, 1)) == 1
    assert intersection_number((3, 1), (1, 2)) == 5
    assert intersection_number((1, 2), (3, 1)) == -5
    assert intersection_number((2, 4), (1, 2)) == 0


def test_intersection_number_is_exact_at_large_magnitude():
    big = 10 ** 9
    assert intersection_number((big, 1), (1, big)) == big * big - 1
    assert intersection_number((big, big - 1), (big - 1, big)) == 2 * big - 1


def test_intersection_number_rejects_non_integers():
    with pytest.raises(TypeError):
        intersection_number((1.5, 0), (0, 1))


@given(u=CLASS_PAIRS, v=CLASS_PAIRS)
@settings(max_examples=150, deadline=None)
def test_intersection_antisymmetry(u, v):
    assert intersection_number(u, v) == -intersection_number(v, u)
    assert intersection_number(u, u) == 0


@given(u=CLASS_PAIRS, v=CLASS_PAIRS, w=CLASS_PAIRS, m=SMALL_INTS)
@settings(max_examples=150, deadline=None)
def test_intersection_bilinearity(u, v, w, m):
    uw = (u[0] + m * w[0], u[1] + m * w[1])
    assert intersection_number(uw, v) == (
        intersection_number(u, v) + m * intersection_number(w, v))


# ------------------------------------------------------- reduction, lengths

def test_reduced_basis_unskews():
    lat = Lattice(e1=(1.0, 0.0), e2=(10.3, 1.0))
    c1, c2 = reduced_basis(lat)
    v1 = lat.embed(c1)
    v2 = lat.embed(c2)
    assert math.hypot(*v1) <= math.hypot(*v2)
    assert v1[0] * v2[0] + v1[1] * v2[1] <= 0.0
    assert math.hypot(*v1) == pytest.approx(systole(lat), rel=1e-12)
    assert abs(intersection_number(c1, c2)) == 1  # still a basis
    assert math.hypot(*v2) == pytest.approx(math.hypot(0.3, 1.0), rel=1e-12)


def test_reduced_basis_names_the_vector_out_of_range():
    with pytest.raises(DomainError, match=r"squared length inf of e1"):
        reduced_basis(Lattice(e1=(1e200, 0.0), e2=(0.0, 1e-200)))
    # a subnormal squared length, whose inverse would overflow
    with pytest.raises(DomainError, match=r"squared length 1e-320 of e1"):
        reduced_basis(Lattice(e1=(1e-160, 0.0), e2=(1e150, 1.0)))


def test_systole_examples():
    assert systole(SQUARE) == pytest.approx(1.0, rel=1e-15)
    assert systole(Lattice(e1=(1.0, 0.0), e2=(0.5, 2.0))) == pytest.approx(
        1.0, rel=1e-15)
    assert systole(HEX) == pytest.approx(1.0, rel=1e-12)


def test_torus_diameter_square_and_hex():
    assert torus_diameter(SQUARE) == pytest.approx(math.sqrt(2) / 2,
                                                   rel=1e-12)
    assert torus_diameter(HEX) == pytest.approx(1 / math.sqrt(3), rel=1e-7)


def test_class_length_accepts_real_classes():
    assert class_length(SQUARE, (3, 4)) == pytest.approx(5.0)
    assert class_length(SQUARE, (0.5, 0.5)) == pytest.approx(
        math.sqrt(0.5), rel=1e-15)


# ------------------------------------------------------------- enumeration

def test_enumerate_classes_square_counts():
    # one class of each of the 10 pairs {v, -v} of nonzero classes
    classes, lengths = enumerate_classes(SQUARE, 2.5)
    assert classes.shape[0] == 10
    assert np.all(lengths <= 2.5 + 1e-9)
    assert np.all(lengths > 0)
    as_set = {tuple(row) for row in classes}
    assert not as_set & {(-a, -b) for a, b in as_set}

    prim, _ = enumerate_classes(SQUARE, 2.5, primitive_only=True)
    assert prim.shape[0] == 8
    as_set = {tuple(row) for row in prim}
    assert (0, 2) not in as_set and (2, 0) not in as_set
    assert (1, 0) in as_set and (2, 1) in as_set


def test_enumerate_classes_monotone_in_cutoff():
    small, _ = enumerate_classes(SQUARE, 2.0)
    large, _ = enumerate_classes(SQUARE, 3.0)
    small_set = {tuple(r) for r in small}
    large_set = {tuple(r) for r in large}
    assert small_set < large_set


def test_enumerate_classes_lengths_match_embedding():
    classes, lengths = enumerate_classes(HEX, 3.0)
    for row, length in zip(classes, lengths):
        assert class_length(HEX, tuple(row)) == pytest.approx(
            float(length), rel=1e-12)


def test_enumerate_classes_rejects_bad_cutoff():
    with pytest.raises(DomainError):
        enumerate_classes(SQUARE, 0.0)
    with pytest.raises(DomainError):
        enumerate_classes(SQUARE, math.inf)


def test_enumerate_classes_refuses_pathological_boxes():
    # about 3e9 classes below the cutoff, in any basis
    thin = Lattice(e1=(1.0, 0.0), e2=(0.0, 1e-7))
    with pytest.raises(DomainError, match="too large"):
        enumerate_classes(thin, 10.0)
    # coefficients in the given basis past 2**31
    with pytest.raises(DomainError, match="coefficient"):
        enumerate_classes(Lattice.from_string("1,0,1e12,1"), 1.0)


def test_enumeration_box_is_taken_in_the_reduced_basis():
    # the box in the given basis would hold 37.8M cells
    skewed = Lattice.from_string("1,0,10000.5,1")
    classes, lengths = enumerate_classes(skewed, 16.0)
    # the same lattice in its reduced basis has as many classes
    assert classes.shape[0] == enumerate_classes(
        Lattice.from_string("1,0,1/2,1"), 16.0)[0].shape[0] == 398
    assert np.all(lengths <= 16.0 * (1 + 1e-12))
    with pytest.raises(DomainError, match="too large"):
        dense.enumerate_classes_box(skewed, 16.0)


@pytest.mark.parametrize("text", [
    "1,0,0,1", "1,0,1/2,0.8660254037844386", "1,0,93.3,0.98",
    "1,0,0,-1", "1.1,0.3,-0.2,0.9", "0.3,1.7,-2.2,0.4"])
def test_enumeration_keeps_the_class_set_of_the_given_basis_box(text):
    lat = Lattice.from_string(text)
    for cutoff in (0.9, 2.0, 7.5, 20.0):
        for primitive_only in (False, True):
            new = enumerate_classes(lat, cutoff,
                                    primitive_only=primitive_only)
            old = dense.enumerate_classes_box(
                lat, cutoff, canonical=True, primitive_only=primitive_only)
            assert np.array_equal(new[0], old[0])
            assert new[1].tobytes() == old[1].tobytes()
            # v and -v have the same length, bit for bit
            both = dense.enumerate_classes_box(
                lat, cutoff, primitive_only=primitive_only)[1]
            assert (np.sort(both).tobytes()
                    == np.sort(np.repeat(new[1], 2)).tobytes())
    l1 = systole(lat)
    assert l1 == dense.enumerate_classes_box(lat, 1.5 * l1)[1].min()


# ----------------------------------------------------------------- searches

def test_best_ratio_square_reaches_real_supremum():
    res = best_ratio_search(SQUARE, 5.0)
    assert res.ratio == pytest.approx(k_real(SQUARE), rel=1e-15)
    u, v = res.pair
    assert abs(intersection_number(u, v)) >= 1


def test_best_ratio_hexagonal():
    res = best_ratio_search(HEX, 10.0)
    assert res.ratio == pytest.approx(2 / math.sqrt(3), rel=1e-9)
    assert res.ratio <= k_real(HEX) * (1 + 1e-12)


def test_best_ratio_never_exceeds_real_supremum():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10:
        m = rng.uniform(-1.5, 1.5, size=4)
        if abs(m[0] * m[3] - m[1] * m[2]) < 0.3:
            continue
        lat = Lattice(e1=(m[0], m[1]), e2=(m[2], m[3]))
        res = best_ratio_search(lat, 10.0 * systole(lat))
        assert res.ratio <= k_real(lat) * (1 + 1e-12)
        checked += 1


def test_best_ratio_scale_equivariance():
    doubled = Lattice(e1=(2.0, 0.0), e2=(0.0, 2.0))
    res = best_ratio_search(doubled, 10.0)
    assert res.ratio == pytest.approx(0.25, rel=1e-15)
    assert k_real(doubled) == pytest.approx(0.25, rel=1e-15)


def test_best_ratio_empty_cutoff():
    with pytest.raises(EmptySearchError):
        best_ratio_search(SQUARE, 0.5)


def test_min_length_product_square():
    res = min_length_product(SQUARE, 2, 10.0)
    assert res.product == pytest.approx(2.0, rel=1e-12)
    u, v = res.pair
    assert abs(intersection_number(u, v)) == 2


def test_min_length_product_matches_exhaustive_recount():
    lat = Lattice(e1=(1.0, 0.2), e2=(-0.3, 1.4))
    res = min_length_product(lat, 3, 8.0)
    classes, lengths = enumerate_classes(lat, 8.0)
    best = math.inf
    for i in range(classes.shape[0]):
        for j in range(classes.shape[0]):
            if abs(intersection_number(classes[i], classes[j])) == 3:
                best = min(best, float(lengths[i] * lengths[j]))
    assert res.product == pytest.approx(best, rel=1e-12)


def test_min_length_product_input_validation():
    with pytest.raises(DegenerateInputError):
        min_length_product(SQUARE, 0, 10.0)
    with pytest.raises(DomainError):
        min_length_product(SQUARE, -1, 10.0)
    with pytest.raises(CutoffTooSmallError):
        min_length_product(SQUARE, 50, 2.0)
    with pytest.raises(EmptySearchError):
        min_length_product(SQUARE, 1, 0.5)


# ------------------------------------------- fast searches vs dense tables

def _same_results(lat, cutoff, products=(1, 2, 3, 5, 8)):
    """The O(N) searches and the dense reference agree exactly: ratios,
    pairs, reports and products, compared by repr, which tells float bits
    apart."""
    def outcome(search, *args):
        try:
            return repr(search(lat, *args))
        except (DomainError, EmptySearchError) as exc:
            return f"{type(exc).__name__}: {exc}"

    for name in ("best_ratio_search", "segment_bound_check"):
        fast = outcome(getattr(flat_torus, name), cutoff)
        assert fast == outcome(getattr(dense, name), cutoff), (name, cutoff)
    for n in products:
        fast = outcome(flat_torus.min_length_product, n, cutoff)
        assert fast == outcome(dense.min_length_product, n, cutoff), n


@pytest.mark.parametrize("text", BASES)
def test_fast_searches_match_dense_tables(text):
    for lat in (Lattice.from_string(text),
                Lattice(Lattice.from_string(text).e1,
                        Lattice.from_string(text).e2)):
        l1 = systole(lat)
        for multiple in (0.5, 1.0, 1.3, 2.5, 6.0, 14.0):
            _same_results(lat, multiple * l1)


@given(m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       exact=st.booleans(), multiple=st.floats(1.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_fast_searches_match_dense_tables_on_random_bases(m, exact,
                                                          multiple):
    if abs(m[0] * m[3] - m[1] * m[2]) < 0.05 * (1 + sum(x * x for x in m)):
        return
    text = ",".join(repr(x) for x in m)
    lat = Lattice.from_string(text) if exact else \
        Lattice(e1=(m[0], m[1]), e2=(m[2], m[3]))
    _same_results(lat, multiple * systole(lat), products=(1, 4))


@given(i=st.lists(st.integers(0, 30), max_size=60), data=st.data())
@settings(max_examples=100, deadline=None)
def test_distinct_pairs_are_the_unique_keys(i, data):
    j = data.draw(st.lists(st.integers(0, 30), min_size=len(i),
                           max_size=len(i)))
    i, j = np.array(i, np.int64), np.array(j, np.int64)
    got = flat_torus._distinct_pairs(31, i, j)
    keep = i != j
    key = np.unique(np.minimum(i, j)[keep] * 31 + np.maximum(i, j)[keep])
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(got, (key // 31, key % 31)))


def test_torus_and_verify_do_not_import_numpy_ma():
    """numpy.ma costs about 13 ms of start-up; np.unique's hash path
    imported it in every run."""
    code = ("import io, sys, contextlib\n"
            "from intnorm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['torus', '--lattice', '1,0,1/2,0.8660254037844386'])\n"
            "    main(['verify', '--suite', 'torus', '--seed', '1'])\n"
            "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   capture_output=True)


def test_searches_build_no_pair_tables():
    # about 4k classes: one dense float64 table alone is 128 MB
    tracemalloc.start()
    try:
        best_ratio_search(HEX, 60.0)
        segment_bound_check(HEX, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_searches_refuse_more_candidate_pairs_than_their_bound(
        monkeypatch):
    monkeypatch.setattr(flat_torus, "_MAX_SEARCH_PAIRS", 10)
    with pytest.raises(DomainError, match="candidate pairs"):
        best_ratio_search(SQUARE, 10.0)
    with pytest.raises(DomainError, match="candidate pairs"):
        segment_bound_check(SQUARE, 10.0)


# ------------------------------------------------------------ segment bound

def test_segment_bound_square():
    rep = segment_bound_check(SQUARE, 3.0)
    assert rep.systole == pytest.approx(1.0)
    assert rep.nine_bound_ok
    assert rep.sine_bound == pytest.approx(1.0)
    assert rep.sine_bound_ok
    assert rep.max_normalized == pytest.approx(1.0, rel=1e-12)
    assert rep.pairs_checked > 0


def test_segment_bound_consistent_with_ratio_search():
    lat = Lattice(e1=(1.1, 0.3), e2=(-0.2, 0.9))
    cutoff = 10.0 * systole(lat)
    rep = segment_bound_check(lat, cutoff)
    best = best_ratio_search(lat, cutoff)
    l1 = systole(lat)
    assert rep.max_normalized == pytest.approx(l1 * l1 * best.ratio,
                                               rel=1e-12)


# --------------------------------------------------------- norm comparison

def test_norm_comparison_square_is_tight():
    rep = norm_comparison_report(SQUARE, (3.0, 4.0))
    assert rep.stable == pytest.approx(5.0)
    assert rep.l2 == pytest.approx(5.0)
    assert rep.two_sided_ok


def test_norm_comparison_scales_with_covolume():
    lat = Lattice(e1=(2.0, 0.0), e2=(0.0, 2.0))
    rep = norm_comparison_report(lat, (1.0, 0.0))
    assert rep.stable == pytest.approx(2.0)
    assert rep.l2 == pytest.approx(1.0)
    assert rep.two_sided_ok


# ----------------------------------------------------------- crossing oracle

def test_crossing_oracle_square_example():
    rep = crossing_count_oracle(SQUARE, (3, 1), (1, 2), (0.37, 0.41))
    assert rep.count == 5
    assert rep.signs == (1,) * 5
    assert rep.uniform_sign() == 1


def test_crossing_oracle_sign_flips_with_order():
    rep = crossing_count_oracle(SQUARE, (1, 2), (3, 1), (0.37, 0.41))
    assert rep.count == 5
    assert rep.uniform_sign() == -1


def test_crossing_oracle_rejects_degenerate_classes():
    with pytest.raises(DegenerateInputError):
        crossing_count_oracle(SQUARE, (0, 0), (1, 0), (0.1, 0.1))
    with pytest.raises(DegenerateInputError):
        crossing_count_oracle(SQUARE, (2, 4), (1, 2), (0.1, 0.1))


def test_count_crossings_matches_formula_on_random_classes():
    rng = np.random.default_rng(11)
    lat = Lattice(e1=(1.0, 0.1), e2=(0.2, 1.3))
    checked = 0
    while checked < 25:
        a, b, c, d = rng.integers(-4, 5, size=4)
        u, v = (int(a), int(b)), (int(c), int(d))
        n = (0 if u == (0, 0) or v == (0, 0)
             else intersection_number(u, v))
        if n == 0:
            continue
        rep = count_crossings(lat, u, v, rng)
        assert rep.count == abs(n)
        assert rep.uniform_sign() == (1 if n > 0 else -1)
        checked += 1


def test_count_crossings_orientation_reversal():
    flipped = Lattice(e1=(0.0, 1.0), e2=(1.0, 0.0))
    rng = np.random.default_rng(3)
    rep = count_crossings(flipped, (1, 0), (0, 1), rng)
    assert rep.count == 1
    # intersection is a basis-level invariant, independent of how the
    # basis sits in the plane
    assert rep.uniform_sign() == 1


def test_crossing_report_uniform_sign_rejects_mixed():
    rep = CrossingReport(count=2, signs=(1, -1))
    with pytest.raises(ValueError, match="mixed"):
        rep.uniform_sign()
    empty = CrossingReport(count=0, signs=())
    assert empty.uniform_sign() == 0


# ---------------------------------------- crossing oracle vs box reference

def _crossing_outcome(oracle, lat, u, v, offset):
    """The report's repr, or RetrySignal."""
    try:
        return repr(oracle(lat, u, v, offset))
    except RetrySignal:
        return "RetrySignal"


def _lattice_point(lat, frac):
    return (frac[0] * lat.e1[0] + frac[1] * lat.e2[0],
            frac[0] * lat.e1[1] + frac[1] * lat.e2[1])


@pytest.mark.parametrize("text", BASES)
def test_crossing_oracle_matches_box_reference(text):
    rng = np.random.default_rng(17)
    exact = Lattice.from_string(text)
    for lat in (exact, Lattice(exact.e1, exact.e2)):
        checked = 0
        while checked < 60:
            a, b, c, d = (int(x) for x in rng.integers(-12, 13, size=4))
            if a * d - b * c == 0:
                continue
            # offsets in the fundamental domain, and some lattice steps out
            offset = _lattice_point(lat, rng.uniform(-3.0, 4.0, size=2))
            outcome = _crossing_outcome(crossing_count_oracle, lat, (a, b),
                                        (c, d), offset)
            assert outcome == _crossing_outcome(
                dense.crossing_count_oracle_box, lat, (a, b), (c, d),
                offset), ((a, b), (c, d), offset)
            checked += 1
        # crossings forced near a seam, at a lattice translate of the
        # v-segment: within the seam tolerance both oracles must retry, and
        # within rounding of its edge they must agree
        shift = _lattice_point(lat, (2, -1))
        tol = flat_torus.SEAM_TOLERANCE
        for u, v in (((3, 1), (1, 2)), ((2, -5), (7, 3))):
            (ux, uy), (vx, vy) = lat.embed(u), lat.embed(v)

            def near(t, s):
                return (t * ux - s * vx + shift[0], t * uy - s * vy + shift[1])
            for t, s in ((5e-10, 0.5), (-5e-10, 0.5), (0.5, 1.0 - 5e-10)):
                for oracle in (crossing_count_oracle,
                               dense.crossing_count_oracle_box):
                    assert _crossing_outcome(oracle, lat, u, v, near(t, s)) \
                        == "RetrySignal", (oracle.__name__, u, v, t, s)
            for k in range(-6, 7):
                step = k * 3e-17
                for t, s in ((-tol + step, 0.5), (1.0 + tol + step, 0.5),
                             (0.5, -tol + step), (0.5, 1.0 + tol + step)):
                    outcome = _crossing_outcome(crossing_count_oracle, lat, u,
                                                v, near(t, s))
                    assert outcome == _crossing_outcome(
                        dense.crossing_count_oracle_box, lat, u, v,
                        near(t, s)), (u, v, t, s)


@given(m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       exact=st.booleans(), u=st.tuples(st.integers(-20, 20),
                                         st.integers(-20, 20)),
       v=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       frac=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
@settings(max_examples=200, deadline=None)
def test_crossing_oracle_matches_box_reference_on_random_bases(m, exact, u,
                                                               v, frac):
    assume(abs(m[0] * m[3] - m[1] * m[2])
           >= 0.05 * (1 + sum(x * x for x in m)))
    assume(intersection_number(u, v) != 0)
    text = ",".join(repr(x) for x in m)
    lat = Lattice.from_string(text) if exact else \
        Lattice(e1=(m[0], m[1]), e2=(m[2], m[3]))
    offset = _lattice_point(lat, frac)
    assert _crossing_outcome(crossing_count_oracle, lat, u, v, offset) == \
        _crossing_outcome(dense.crossing_count_oracle_box, lat, u, v, offset)


def test_crossing_oracle_on_a_skewed_basis():
    # the box window of this pair holds 69.6M translates: gigabytes of arrays
    lat = Lattice.from_string("1,0,10000.5,1")
    u, v = (40, -7), (13, 51)
    tracemalloc.start()
    try:
        rep = crossing_count_oracle(lat, u, v,
                                    _lattice_point(lat, (0.37, 0.41)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert intersection_number(u, v) == 2131
    assert rep.count == 2131
    assert rep.uniform_sign() == 1
    assert peak < 8e6


def test_count_crossings_matches_formula_on_a_skewed_basis():
    lat = Lattice.from_string("1,0,93.3,0.98")
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 50:
        a, b, c, d = (int(x) for x in rng.integers(-30, 31, size=4))
        n = a * d - b * c
        if n == 0:
            continue
        rep = count_crossings(lat, (a, b), (c, d), rng)
        assert rep.count == abs(n)
        assert rep.uniform_sign() == (1 if n > 0 else -1)
        checked += 1


def test_crossing_oracle_refuses_past_its_candidate_bound():
    bound = flat_torus.MAX_CROSSING_CANDIDATES
    offset = (0.37, 0.41)

    def size(u, v):
        return abs(u[0]) + abs(v[0]) + abs(intersection_number(u, v))

    # accepted at the bound and refused one past it, with the size in
    # |Int| (a parallelogram of one row) ...
    u, inside, past = (1, 0), (0, bound - 1), (0, bound)
    assert (size(u, inside), size(u, past)) == (bound, bound + 1)
    assert crossing_count_oracle(SQUARE, u, inside, offset).count == bound - 1
    with pytest.raises(DomainError, match="translates"):
        crossing_count_oracle(SQUARE, u, past, offset)
    # ... and in the rows of thin parallelograms with |Int| = 1
    p, q = bound // 2, (bound + 1) // 3
    inside, past = ((p - 1, 1), (p, 1)), ((q, 1), (2 * q - 1, 2))
    assert (size(*inside), size(*past)) == (bound, bound + 1)
    assert crossing_count_oracle(SQUARE, *inside, offset).count == 1
    with pytest.raises(DomainError, match="translates"):
        crossing_count_oracle(SQUARE, *past, offset)
    # refused before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="translates"):
            crossing_count_oracle(SQUARE, (10**6, 1), (1, 10**6), offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_thin_parallelogram_at_the_candidate_bound_is_solved_in_chunks():
    """The accepted thin pair of the test above: |Int| = 1 over 2,479,998
    rows, so its cost is rows, not translates, and a call holds the
    temporaries of one ROW_CHUNK of them."""
    u, v = (1_239_999, 1), (1_240_000, 1)
    assert abs(u[0]) + abs(v[0]) + abs(intersection_number(u, v)) \
        == flat_torus.MAX_CROSSING_CANDIDATES
    tracemalloc.start()
    try:
        rep = crossing_count_oracle(SQUARE, u, v, (0.37, 0.41))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == CrossingReport(1, (-1,))
    assert peak < 3 << 20


@pytest.mark.parametrize("pairs, c", [(1, 2_479_999), (4, 619_999)])
def test_rows_of_translates_at_the_candidate_bound_are_solved_in_chunks(
        pairs, c):
    """One row of 2,479,999 translates, or four pairs of one row of
    619,999 each: a call holds one row index per translate, 8 bytes, and
    the temporaries of one ROW_CHUNK of translates."""
    u, v = (1, 0), (0, c)
    assert pairs * (1 + c) == flat_torus.MAX_CROSSING_CANDIDATES
    tracemalloc.start()
    try:
        batch = flat_torus.crossing_batch(SQUARE, [u] * pairs, [v] * pairs,
                                          [(0.37, 0.41)] * pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.diff(batch.offsets).tolist() == [c] * pairs
    assert np.unique(batch.signs).tolist() == [1]
    assert not batch.retry.any()
    assert peak < 32 << 20


def test_crossing_batch_refuses_past_its_candidate_bound_before_its_rows(
        monkeypatch):
    """|a| + |c| + |Int| is bounded over a whole batch, not pair by pair:
    two pairs of 1,300,000 candidates each are refused before any row is
    built, and a small bound is met exactly and refused one past it."""
    u, v, offset = (1, 0), (0, 1_299_999), (0.37, 0.41)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^2600000 candidate translates "
                                              "of a batch exceed the bound "
                                              "2480000$"):
            flat_torus.crossing_batch(SQUARE, [u, u], [v, v],
                                      [offset, offset])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 1 + 0 + 5 and 1 + 0 + 6 candidates
    monkeypatch.setattr(flat_torus, "MAX_CROSSING_CANDIDATES", 12)
    batch = flat_torus.crossing_batch(SQUARE, [u, u], [(0, 5), (0, 5)],
                                      [offset, offset])
    assert np.diff(batch.offsets).tolist() == [5, 5]
    with pytest.raises(DomainError, match="^13 candidate translates"):
        flat_torus.crossing_batch(SQUARE, [u, u], [(0, 5), (0, 6)],
                                  [offset, offset])


def test_crossing_oracle_refuses_unresolvable_crossings():
    # |Int| = 1 with classes of length 1e9 or 1e400, and an offset 1e12
    # away: double precision cannot place the crossings on the segments
    with pytest.raises(DomainError, match="known only to within"):
        crossing_count_oracle(SQUARE, (1, 10**9), (1, 10**9 + 1), (0.5, 0.5))
    with pytest.raises(DomainError, match="known only to within"):
        crossing_count_oracle(SQUARE, (1, 10**400), (1, 10**400 + 1),
                              (0.5, 0.5))
    with pytest.raises(DomainError, match="known only to within"):
        crossing_count_oracle(SQUARE, (3, 1), (1, 2), (1e12, 0.5))


# ------------------------------------------- batches and the retry driver

def _recording(monkeypatch, module, name):
    """Wrap module.name so that the arguments of every call are kept."""
    real, calls = getattr(module, name), []

    def recorded(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, recorded)
    return calls


def test_count_crossings_draws_two_uniforms_a_try(monkeypatch):
    """Under a seam tolerance this wide most offsets graze a seam: every
    try, the first included, takes the next two uniforms of the stream as
    its offset, and a pair still stuck after MAX_RETRIES retries raises
    with the reason of its flag."""
    monkeypatch.setattr(flat_torus, "SEAM_TOLERANCE", 0.06)
    calls = _recording(monkeypatch, flat_torus, "crossing_batch")
    lat = Lattice.from_string("1,0,1/2,7/8")
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    tries, outcomes = [], set()
    for u, v in (((3, 1), (1, 2)), ((2, -5), (7, 3)), ((1, 0), (0, 1)),
                 ((4, 1), (-1, 3))) * 3:
        del calls[:]
        try:
            rep = count_crossings(lat, u, v, rng)
            assert rep.count == abs(intersection_number(u, v))
            outcomes.add("counted")
        except RetrySignal as exc:
            assert str(exc) == "crossing within tolerance of a base-point seam"
            assert len(calls) == 1 + flat_torus.MAX_RETRIES
            outcomes.add("stuck")
        tries.append(len(calls))
        for _, _, _, offsets in calls:
            f1, f2 = replay.random(2).tolist()
            assert offsets == [(f1 * lat.e1[0] + f2 * lat.e2[0],
                                f1 * lat.e1[1] + f2 * lat.e2[1])]
    assert outcomes == {"counted", "stuck"}
    assert 1 in tries and any(1 < t < 1 + flat_torus.MAX_RETRIES
                              for t in tries)
    assert rng.random(4).tolist() == replay.random(4).tolist()


def _outcome(report):
    """The repr of report(), or the RetrySignal that it raised."""
    try:
        return repr(report())
    except RetrySignal as exc:
        return f"RetrySignal: {exc}"


def _one_pair_outcome(lat, u, v, offset):
    return _outcome(lambda: crossing_count_oracle(lat, u, v, offset))


@pytest.mark.parametrize("chunk", [flat_torus.ROW_CHUNK, 1, 3])
@pytest.mark.parametrize("text", BASES)
def test_batch_matches_one_pair_calls(text, chunk, monkeypatch):
    """A batch of mixed pairs, some of them flagged at a seam, gives each
    pair the outcome of its own call, and the retry driver re-solves the
    flagged ones alone, in pair order, from fresh offsets of its stream;
    a pair still flagged after MAX_RETRIES keeps the outcome of its last
    try.  The batch is solved also in row chunks of one and three rows,
    which split pairs, rows and their translates across chunks; the
    outcomes of the one-pair calls, at the default chunk, must not
    change."""
    monkeypatch.setattr(flat_torus, "SEAM_TOLERANCE", 0.01)
    lat = Lattice.from_string(text)
    rng = np.random.default_rng(29)
    us, vs, offsets = [], [], []
    while len(us) < 120:
        a, b, c, d = (int(x) for x in rng.integers(-9, 10, size=4))
        if a * d - b * c == 0:
            continue
        us.append((a, b))
        vs.append((c, d))
        offsets.append(_lattice_point(lat, rng.uniform(-1.0, 2.0, size=2)))
    expected = [_one_pair_outcome(lat, *p) for p in zip(us, vs, offsets)]
    assert sum(e.startswith("RetrySignal") for e in expected) > 5
    with monkeypatch.context() as patched:
        patched.setattr(flat_torus, "ROW_CHUNK", chunk)
        batch = flat_torus.crossing_batch(lat, np.array(us), np.array(vs),
                                          np.array(offsets))
    assert batch.signs.dtype == np.int8
    assert [_outcome(lambda: batch.report(i))
            for i in range(len(us))] == expected
    # the driver against one-pair calls of the oracle, in pair order
    batch = flat_torus.count_crossings_batch(lat, us, vs, offsets,
                                             np.random.default_rng(31))
    replay = np.random.default_rng(31)
    retried = []
    for i, outcome in enumerate(expected):
        for _ in range(flat_torus.MAX_RETRIES):
            if not outcome.startswith("RetrySignal"):
                break
            outcome = _one_pair_outcome(
                lat, us[i], vs[i], flat_torus.random_offset(lat, replay))
        retried.append(outcome)
        assert _outcome(lambda: batch.report(i)) == outcome
    assert any(o.startswith("RetrySignal") for o in retried)
