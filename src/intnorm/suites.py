"""Verification suites: every closed-form statement in the library is
re-checked here against brute force, exact arithmetic, or literal
60-digit values, over seeded random samples and dense grids.

Each check is a plain function of the seed that returns
``(cases, violations)``: how many cases it ran and one message per failed
case.  A suite is an ordered list of named checks, and one runner turns it
into a ``SuiteReport``: a ``CheckOutcome`` per check and the violations of
all checks, capped at 25 with a count of the rest.  An empty list means
every check passed.  Sample sizes are fixed in the checks.  All randomness
is drawn from named Philox streams keyed by the seed, one stream per
sampling check (``rewind_grid`` decides its 728 cells exactly and draws
none), so a fixed seed reproduces the identical report byte for byte.
The oracle checks solve their pairs in batches; a collar pair that
needs a retry is solved again on its own, in pair order, with its
perturbations drawn from a child stream (``rng.spawn(1)[0]``), so the
samples do not depend on the retries.  One-pair calls such as
``count_crossings`` draw from the generator they are given.

The verdicts that the command line also reports are written once here:
``ratio_violations``, ``norm_violations``, ``ordering_violations``, and
``window_violations`` for a batch of pairs, which judges the window
sweeps block by block, ``cylinder --arcs-json`` in one call and the torus
oracle lattice by lattice, window [|Int|, |Int|]; a collar pair still
flagged after its retries fails it as stuck.  ``intnorm torus`` alone
judges ``segment_violations``, which ``ratio_violations`` implies.

The bounds suite compares the double-precision hyperbolic bounds and
profiles at a few (genus, l1) anchors with literal doubles: the theorem's
closed forms at 60 digits, each rounded once (``_BOUND_ANCHORS``,
``_PROFILE_ANCHORS``).  An error in the one expression that both
precisions of ``bounds`` share therefore shows, and ``verify`` never
imports mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import cylinder as cyl_mod
from . import flat_torus as torus_mod
from .errors import DomainError, GeometryError, RetrySignal, integer
from .hyptrig import _crossing_arc_length
from .seeding import check_seed, named_stream


@dataclass(frozen=True)
class CheckOutcome:
    """One named check: how many cases ran and how many failed."""

    name: str
    cases: int
    failures: int


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[CheckOutcome, ...]
    violations: tuple[str, ...]


Check = Callable[[int], tuple[int, list[str]]]

_MAX_REPORTED = 25


def _run_checks(suite: str, seed: int,
                checks: Sequence[tuple[str, Check]]) -> SuiteReport:
    """Run the named checks in order and collect their outcomes; each
    violation counts as one failure of the check that reported it."""
    seed = check_seed(seed)
    outcomes: list[CheckOutcome] = []
    violations: list[str] = []
    for name, check in checks:
        cases, vs = check(seed)
        outcomes.append(CheckOutcome(name, cases, len(vs)))
        violations += vs
    extra = len(violations) - _MAX_REPORTED
    if extra > 0:
        violations = violations[:_MAX_REPORTED] + [f"... and {extra} more"]
    return SuiteReport(suite=suite, seed=seed, checks=tuple(outcomes),
                       violations=tuple(violations))


# ---------------------------------------------------------------------------
# flat torus


def ratio_violations(lat: torus_mod.Lattice, ratio: float) -> list[str]:
    """A ratio searched on the lattice may not exceed k_real beyond the
    rounding of its basis; passing it implies ``segment_violations``."""
    k = torus_mod.k_real(lat)
    if not torus_mod.within_rounding(lat, ratio, k):
        return [f"best ratio {ratio!r} exceeds k_real = {k!r}"]
    return []


def segment_violations(seg: torus_mod.SegmentBoundReport) -> list[str]:
    """The normalized products stay at most 9 and at most the sine bound
    l1^2/covolume.  Implied by ``ratio_violations``: the largest product
    is l1^2 times the best ratio, and l1^2/covolume <= 2/sqrt(3) < 9."""
    vs = []
    if not seg.nine_bound_ok:
        vs.append(f"segment bound 9 violated: max {seg.max_normalized!r}")
    if not seg.sine_bound_ok:
        vs.append(f"angle bound violated: max {seg.max_normalized!r} > "
                  f"{seg.sine_bound!r}")
    return vs


def norm_violations(h, rep: torus_mod.NormComparison) -> list[str]:
    """The stable and L2 norms of class h bound each other both ways."""
    if not rep.two_sided_ok:
        return [f"norm comparison failed for class {tuple(h)}: "
                f"stable={rep.stable!r}, l2={rep.l2!r}"]
    return []


def random_lattice(rng) -> torus_mod.Lattice:
    """Random well-conditioned lattice: side lengths within a factor e of
    1, basis angle bounded away from 0 and pi, random overall rotation,
    and either orientation."""
    r1 = math.exp(rng.uniform(-0.5, 0.5))
    r2 = math.exp(rng.uniform(-0.5, 0.5))
    theta = rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    e1 = (r1 * math.cos(rot), r1 * math.sin(rot))
    e2 = (flip * r2 * math.cos(rot + theta), flip * r2 * math.sin(rot + theta))
    return torus_mod.Lattice(e1, e2)


def _random_primitive_class(lat: torus_mod.Lattice,
                            rng) -> torus_mod.IntegerClass:
    """Random primitive class with coefficients in [-8, 8] and length at
    most 15."""
    for _ in range(10_000):
        a = int(rng.integers(-8, 9))
        b = int(rng.integers(-8, 9))
        if a == 0 and b == 0:
            continue
        g = math.gcd(a, b)
        cls = torus_mod.IntegerClass(a // g, b // g)
        if torus_mod.class_length(lat, cls) <= 15.0:
            return cls
    raise GeometryError("failed to sample a short primitive class")


def _lattices(seed: int) -> list[torus_mod.Lattice]:
    """The 20 random lattices that the torus checks share."""
    rng = named_stream(seed, "torus.lattices")
    return [random_lattice(rng) for _ in range(20)]


def _basis(lat: torus_mod.Lattice) -> str:
    return f"basis {lat.e1}, {lat.e2}"


_SQUARE = torus_mod.Lattice((1.0, 0.0), (0.0, 1.0))
_HEXAGONAL = torus_mod.Lattice((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def _ratio_value(seed: int) -> tuple[int, list[str]]:
    """The search never exceeds k_real, and attains it on the square and
    hexagonal lattices."""
    named = [(None, lat) for lat in _lattices(seed)]
    named += [("square", _SQUARE), ("hexagonal", _HEXAGONAL)]
    vs: list[str] = []
    cases = 0
    for name, lat in named:
        ratio = torus_mod.best_ratio_search(
            lat, 30.0 * torus_mod.systole(lat)).ratio
        cases += 1
        vs += [f"{v} for {_basis(lat)}" for v in ratio_violations(lat, ratio)]
        if name is not None:
            cases += 1
            k = torus_mod.k_real(lat)
            if abs(ratio - k) > 1e-12 * k:
                vs.append(f"search ratio {ratio!r} misses k_real {k!r} "
                          f"on the {name} lattice")
    return cases, vs


def _oracle_equivalence(seed: int) -> tuple[int, list[str]]:
    """Straight-line crossing counts match |a*d - b*c|, with its sign.

    Each pair draws its two classes and then, unless they are parallel,
    its offset from one stream, as ``count_crossings`` would.  The pairs
    of a lattice are solved in one batch and judged by ``window_violations``
    with the window [|Int|, |Int|] and the sign of Int."""
    rng = named_stream(seed, "torus.oracle")
    vs: list[str] = []
    cases = 0
    for lat in _lattices(seed):
        pairs = []
        for _ in range(25):
            u = _random_primitive_class(lat, rng)
            v = _random_primitive_class(lat, rng)
            n = torus_mod.intersection_number(u, v)
            if n:
                pairs.append((u, v, torus_mod.random_offset(lat, rng), n))
        if not pairs:
            continue
        us, ws, offsets, n = (list(x) for x in zip(*pairs))
        cases += len(pairs)
        batch = torus_mod.crossing_batch(lat, us, ws, offsets)
        size = np.abs(n)
        for i, window in window_violations(batch, cyl_mod.WindingBounds(
                size, size, np.sign(n)), 1).items():
            vs += [f"oracle {v} for {tuple(us[i])} x {tuple(ws[i])} on "
                   f"{_basis(lat)}" for v in window]
    return cases, vs


def _norm_comparison(seed: int) -> tuple[int, list[str]]:
    """Two-sided stable-norm comparison on random real classes."""
    lats = _lattices(seed)
    rng = named_stream(seed, "torus.norm")
    vs: list[str] = []
    cases = 0
    while cases < 100:
        lat = lats[cases % len(lats)]
        h = torus_mod.RealClass(rng.uniform(-5.0, 5.0),
                                rng.uniform(-5.0, 5.0))
        if abs(h.x) + abs(h.y) < 1e-3:
            continue
        cases += 1
        vs += [f"{v} on {_basis(lat)}" for v in norm_violations(
            h, torus_mod.norm_comparison_report(lat, h))]
    return cases, vs


def _scale_equivariance(seed: int) -> tuple[int, list[str]]:
    """Scaling the lattice by 2 scales lengths by 2 and ratios by 1/4."""
    lats = _lattices(seed)[:3]
    vs: list[str] = []
    for lat in lats:
        big = torus_mod.Lattice((2.0 * lat.e1[0], 2.0 * lat.e1[1]),
                                (2.0 * lat.e2[0], 2.0 * lat.e2[1]))
        sys_small = torus_mod.systole(lat)
        if abs(torus_mod.systole(big) - 2.0 * sys_small) > 1e-12 * sys_small:
            vs.append(f"systole not doubled for {_basis(lat)}")
        diam_small = torus_mod.torus_diameter(lat)
        if abs(torus_mod.torus_diameter(big) - 2.0 * diam_small) \
                > 1e-12 * diam_small:
            vs.append(f"diameter not doubled for {_basis(lat)}")
        r_small = torus_mod.best_ratio_search(lat, 20.0 * sys_small).ratio
        r_big = torus_mod.best_ratio_search(big, 40.0 * sys_small).ratio
        if abs(r_big - 0.25 * r_small) > 1e-12 * r_small:
            vs.append(f"ratio not quartered for {_basis(lat)}")
    return len(lats), vs


def _search_completeness(seed: int) -> tuple[int, list[str]]:
    """The perpendicular pair search keeps every pair that the full N x N
    table of |Int| / (l_i * l_j) puts in the tie band of its maximum, on
    the square and hexagonal lattices at 8 systoles: 60 and 72 classes,
    30 and 21 pairs in the band.  Those pairs are exactly perpendicular,
    which the search keeps however narrow a wrong |Int| makes its window,
    so such a fault fails ``ratio_value`` alone.  Random lattices are
    left out: the one pair of their band is short of perpendicular, and
    that window drops it."""
    named = [("square", _SQUARE), ("hexagonal", _HEXAGONAL)]
    vs: list[str] = []
    for name, lat in named:
        classes, lengths = torus_mod.enumerate_classes(
            lat, 8.0 * torus_mod.systole(lat), primitive_only=True)
        i, j = torus_mod._near_perpendicular_pairs(lat, classes, lengths)
        a, b = classes[:, 0], classes[:, 1]
        table = (np.abs(np.outer(a, b) - np.outer(b, a))
                 / np.outer(lengths, lengths))
        bi, bj = np.nonzero(np.triu(table >= table.max() * (1.0 - 1e-14), 1))
        kept = set(zip(i.tolist(), j.tolist()))
        missed = sum(p not in kept for p in zip(bi.tolist(), bj.tolist()))
        if missed:
            vs.append(f"pair search misses {missed} of {bi.size} pairs in "
                      f"the tie band of the full table on the {name} "
                      "lattice")
    return len(named), vs


def _systole_and_diameter(seed: int) -> tuple[int, list[str]]:
    """The systole and diameter of the square and hexagonal lattices take
    their closed forms, 1 and sqrt(2)/2, and 1 and 1/sqrt(3).  Both meet
    Hermite's bound systole^2 <= (2/sqrt(3)) covolume, the hexagonal one
    with equality, and pi diameter^2 >= covolume: the discs of radius the
    diameter about the lattice points cover the plane.  Scaling alone
    (``scale_equivariance``) cannot see a systole or diameter off by a
    constant factor."""
    named = [("square", _SQUARE, math.sqrt(2.0) / 2.0, False),
             ("hexagonal", _HEXAGONAL, 1.0 / math.sqrt(3.0), True)]
    vs: list[str] = []
    for name, lat, diameter, densest in named:
        sys_len = torus_mod.systole(lat)
        diam = torus_mod.torus_diameter(lat)
        on = f"on the {name} lattice"
        if abs(sys_len - 1.0) > 1e-12:
            vs.append(f"systole {sys_len!r} is not 1 {on}")
        if abs(diam - diameter) > 1e-12 * diameter:
            vs.append(f"diameter {diam!r} is not {diameter!r} {on}")
        square = sys_len * sys_len
        hermite = 2.0 / math.sqrt(3.0) * lat.covolume
        if square > hermite * (1.0 + 1e-12) or (
                densest and square < hermite * (1.0 - 1e-12)):
            vs.append(f"systole^2 {square!r} breaks Hermite's bound "
                      f"{hermite!r} {on}")
        disc = math.pi * diam * diam
        if disc < lat.covolume * (1.0 - 1e-12):
            vs.append(f"pi diameter^2 {disc!r} is below the covolume "
                      f"{lat.covolume!r} {on}")
    return 4 * len(named), vs


_TORUS_CHECKS = (
    ("ratio_value", _ratio_value),
    ("oracle_equivalence", _oracle_equivalence),
    ("norm_comparison", _norm_comparison),
    ("scale_equivariance", _scale_equivariance),
    ("search_completeness", _search_completeness),
    ("systole_and_diameter", _systole_and_diameter),
)


def torus_suite(seed: int) -> SuiteReport:
    """All flat-torus invariants: exact ratio value, oracle equivalence,
    norm comparison, scale equivariance, the completeness of the
    perpendicular pair search, and the closed forms and bounds of the
    systole and diameter."""
    return _run_checks("torus", seed, _TORUS_CHECKS)


# ---------------------------------------------------------------------------
# cylinder


def window_violations(batch: cyl_mod.CrossingBatch,
                      wb: cyl_mod.WindingBounds,
                      first_sign: int | np.ndarray
                      ) -> dict[int, list[str]]:
    """The one verdict of the winding rule, over the pairs of a batch and
    their window arrays: each count lies in [lo, hi], and every crossing
    carries the window's sign times the first arc's crossing sign (one,
    or one per pair).  A pair still flagged, which has no crossings to
    judge, fails as stuck, with the reason of its flag.  Returns the
    messages of the failing pairs, by pair index in increasing order."""
    counts = np.diff(batch.offsets)
    expected = first_sign * wb.sign
    owner = np.arange(len(counts)).repeat(counts)
    inside = (wb.lo <= counts) & (counts <= wb.hi)
    mixed = (np.bincount(owner[batch.signs != expected[owner]],
                         minlength=len(counts)) > 0) & (expected != 0)
    vs: dict[int, list[str]] = {}
    for i in (~inside | mixed | (batch.retry != 0)).nonzero()[0].tolist():
        try:
            rep = batch.report(i)
        except RetrySignal as exc:
            vs[i] = [f"stuck ({exc})"]
            continue
        vs[i] = []
        if not inside[i]:
            vs[i].append(f"count {rep.count} outside window "
                         f"[{wb.lo[i]}, {wb.hi[i]}]")
        if mixed[i]:
            vs[i].append(f"signs {rep.signs} not uniformly {expected[i]}")
    return vs


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a winding-versus-oracle sweep on one cylinder."""

    samples: int
    violations: tuple[str, ...]
    max_count: int
    records: Optional[tuple[dict, ...]] = None


# Samples that lemma_sweep draws and solves at once.
_SWEEP_BLOCK = 1024


def lemma_sweep(core_length: float, samples: int, rng, *,
                mode: str = "shrunk", first_sign: int = 1,
                collect_records: bool = False) -> SweepResult:
    """Sample random arc pairs on one cylinder and confront the oracle
    count and signs with the winding-number window and sign rule.

    The first arc crosses with sign ``first_sign`` (the stated window/sign
    rule is for +1; with -1 every crossing sign flips); the second arc
    enters from the same or the opposite side, alternating randomly.
    Each sample also checks the arc-length lower bounds
    max(2*half_width, |winding|*core_length).

    Each sample draws five uniforms from ``rng``: the windings c and d in
    [-8, 8), the side (the same one below 1/2) and the two entry positions
    in [0, core_length).  Blocks of samples are drawn and solved at once
    by ``cylinder.count_crossings_cyl_batch``, and judged at once: one
    ``cylinder.intersection_bounds`` call over the block's windings and
    one ``window_violations`` call over its crossings.  A sample that
    needs a retry is solved again on its own, in sample order, with the
    jitters of ``count_crossings_cyl`` drawn from a child stream,
    ``rng.spawn(1)[0]``, made once per call, so the samples that ``rng``
    gives do not depend on the retries.
    """
    samples = integer("samples", samples, 0)
    first_sign = cyl_mod._crossing_sign("first_sign", first_sign)
    cyl = cyl_mod.make_collar(core_length, mode)
    core_length = cyl.core_length
    jitters = rng.spawn(1)[0]
    violations: list[str] = []
    records: list[dict] = []
    max_count = 0
    done = 0
    while done < samples:
        u = rng.random((min(_SWEEP_BLOCK, samples - done), 5))
        done += len(u)
        winds = -8.0 + 16.0 * u[:, :2].T
        same_side = u[:, 2] < 0.5
        entries = core_length * u[:, 3:].T
        signs = np.array([np.full(len(u), first_sign),
                          np.where(same_side, first_sign, -first_sign)])
        batch = cyl_mod.count_crossings_cyl_batch(cyl, entries, winds, signs,
                                                  jitters)

        wb = cyl_mod.intersection_bounds(*winds, same_side)
        window = window_violations(batch, wb, first_sign)
        advance = np.abs(winds) * core_length
        length = _crossing_arc_length(np, cyl.half_width, advance)
        lower = np.maximum(2.0 * cyl.half_width, advance)
        short = length < lower - 1e-9
        failed = short.any(axis=0)
        failed[list(window)] = True
        max_count = max(max_count, int(np.diff(batch.offsets)[
            batch.retry == 0].max(initial=0)))

        c_winds, d_winds = winds.tolist()
        sides = same_side.tolist()
        t1s, t2s = entries.tolist()
        los, his = wb.lo.tolist(), wb.hi.tolist()
        expected = (first_sign * wb.sign).tolist()
        for i in range(len(u)) if collect_records else \
                failed.nonzero()[0].tolist():
            vs: list[str] = []
            if failed[i]:
                label = (f"(c={c_winds[i]!r}, d={d_winds[i]!r}, "
                         f"{'same' if sides[i] else 'opposite'}, "
                         f"eps1={first_sign})")
                vs += [f"{v} at {label}" for v in window.get(i, ())]
                vs += [f"arc length {length[j, i].item()!r} below floor "
                       f"{lower[j, i].item()!r} at {label}"
                       for j in (0, 1) if short[j, i]]
                violations += vs
            if collect_records:
                rep = None if batch.retry[i] else batch.report(i)
                records.append({
                    "c_wind": c_winds[i], "d_wind": d_winds[i],
                    "same_side": sides[i],
                    "entry_1": t1s[i], "entry_2": t2s[i],
                    "first_sign": first_sign,
                    "count": None if rep is None else rep.count,
                    "window": [los[i], his[i]],
                    "expected_sign": expected[i],
                    "signs": None if rep is None else list(rep.signs),
                    "ok": not vs,
                })
    return SweepResult(samples=samples, violations=tuple(violations),
                       max_count=max_count,
                       records=tuple(records) if collect_records else None)


def _winding_window_and_sign(seed: int) -> tuple[int, list[str]]:
    """The main sweep, first arc crossing positively, on three cores."""
    rng = named_stream(seed, "cylinder.sweep")
    vs: list[str] = []
    cases = 0
    for length, n in ((0.05, 3333), (0.1, 3333), (0.2, 3334)):
        res = lemma_sweep(length, n, rng)
        cases += n
        vs += [f"[core {length}] {v}" for v in res.violations]
    return cases, vs


def _flipped_sign_convention(seed: int) -> tuple[int, list[str]]:
    """The sweep with the first arc crossing negatively."""
    rng = named_stream(seed, "cylinder.flipped")
    res = lemma_sweep(0.1, 1_000, rng, first_sign=-1)
    return res.samples, [f"[flipped] {v}" for v in res.violations]


def _rewind_grid(seed: int) -> tuple[int, list[str]]:
    """The rewind move decided exactly on every cell m_lead <= m_trail <=
    12, for each orientation of each family and both sides; it draws no
    random numbers."""
    vs: list[str] = []
    cases = 0
    for m_lead, m_trail, s_lead, s_trail, same_side in product(
            range(13), range(13), (1, -1), (1, -1), (True, False)):
        if m_lead > m_trail:
            continue
        cases += 1
        vs += [f"cell ({m_lead}, {m_trail}, {s_lead:+d}, {s_trail:+d}, "
               f"{'same' if same_side else 'opposite'}): {v}"
               for v in cyl_mod.rewind_cell_violations(
                   m_lead, m_trail, s_lead, s_trail, same_side)]
    return cases, vs


_CYLINDER_CHECKS = (
    ("winding_window_and_sign", _winding_window_and_sign),
    ("flipped_sign_convention", _flipped_sign_convention),
    ("rewind_grid", _rewind_grid),
)


def cylinder_suite(seed: int) -> SuiteReport:
    """All cylinder invariants: the winding window and sign rule against
    the crossing oracle (both crossing conventions), and the rewind move
    decided exactly cell by cell."""
    return _run_checks("cylinder", seed, _CYLINDER_CHECKS)


# ---------------------------------------------------------------------------
# bounds


# The hyperbolic bounds (lower, upper, collar_rate) of the theorem at
# five (genus s, systole l1) anchors, and their normalized profiles
# (lower_profile, upper_profile, lower_profile_tail, upper_profile_tail)
# at two, from the closed forms with cl(x) = arsinh(1/sinh(x/2)):
#   lower  1/((s-1)*l1*(105*s + 4*arsinh(4/l1)))
#   upper  144 + 18*(s-1)/(l1*cl(l1))
#   rate   1/(2*l1*cl(l1))
#   the profiles lower and upper times l1*|log l1|, and the tails
#   |log l1|/(4*(s-1)*arsinh(4/l1)) and 18*(s-1)*|log l1|/cl(l1).
# Each is the value at the double l1, evaluated with mpmath at 60
# significant digits (mp.dps = 60, l1 = mpf(l1)) and rounded once to the
# nearest double, written as its shortest repr.  They are literals, not
# evaluations through bounds._hyperbolic, so that an error in that one
# expression cannot move both sides of the comparison.
_BOUND_ANCHORS = {
    (2, 0.1): (0.04395049336762614, 192.79255031409983, 1.355348619836106),
    (3, 0.1): (0.015036294695696032, 241.58510062819963, 1.355348619836106),
    (2, 1e-3): (4.065887092977074, 2314.2305551387367, 60.28418208718713),
    (5, 0.01): (0.045311324336352564, 1345.7091046492765, 8.345202115619976),
    (20, 0.25): (9.959298825843235e-05, 637.1703086153673, 0.721009223121882),
}
_PROFILE_ANCHORS = {
    (2, 1e-3): (0.02808615303025772, 15.986138334041371,
                0.19215544637598175, 14.991421573867944),
    (3, 1e-4): (0.012786487506145463, 31.42296415742002,
                0.10197650896059346, 31.29033525606356),
}


def _extended_precision_agreement(seed: int) -> tuple[int, list[str]]:
    """The double-precision hyperbolic bounds agree, to 1e-6 relative,
    with their 60-digit values at the anchors of ``_BOUND_ANCHORS``."""
    fields = bounds_mod.HyperbolicBounds._fields
    vs: list[str] = []
    for (s, l1), exact in _BOUND_ANCHORS.items():
        db = bounds_mod.hyperbolic_bounds(s, l1)
        for field, d, e in zip(fields, db, exact):
            if abs(d - e) > 1e-6 * abs(e):
                vs.append(f"{field}({s}, {l1}) drifts from extended "
                          f"precision: {d!r} vs {e!r}")
    return len(_BOUND_ANCHORS) * len(fields), vs


def ordering_violations(s: int, l1: float, hb) -> list[str]:
    """hb.lower < hb.collar_rate at genus s and systole l1, for a
    ``HyperbolicBounds`` or a ``ProfileRow``.  This holds for all s >= 2
    and l1 > 0: it means 2*cl(l1) < (s - 1)*(105*s + 4*asinh(4/l1)), and
    cl(x) = asinh(1/sinh(x/2)) < asinh(2/x) < asinh(4/x) as sinh(y) > y,
    while the right-hand side grows with s from 210 + 4*asinh(4/l1)."""
    if not hb.lower < hb.collar_rate:
        return [f"lower {hb.lower!r} not below the collar rate "
                f"{hb.collar_rate!r} at (s={s}, l1={l1!r})"]
    return []


def _bound_ordering(seed: int) -> tuple[int, list[str]]:
    """The lower bound stays below the collar rate across the (genus, l1)
    grid, and decreases strictly in the genus, as its denominator grows."""
    genera = range(2, 21)
    grid = bounds_mod.parse_grid("1e-4:0.25:50", geometric=True)
    vs: list[str] = []
    cases = 0
    for s in genera:
        for l1 in grid:
            cases += 1
            vs += ordering_violations(s, l1,
                                      bounds_mod.hyperbolic_bounds(s, l1))
    for l1 in (0.1, 0.01):
        values = [bounds_mod.hyperbolic_bounds(s, l1).lower for s in genera]
        cases += len(values)
        if any(a <= b for a, b in zip(values, values[1:])):
            vs.append(f"lower bound not strictly decreasing in the "
                      f"genus at l1={l1}")
    return cases, vs


def _asymptotic_profiles(seed: int) -> tuple[int, list[str]]:
    """Tail profiles monotone with the stated limits, the full lower
    profile monotone, and the profiles within 1e-9 relative of their
    60-digit values at the anchors of ``_PROFILE_ANCHORS``."""
    vs: list[str] = []
    profile_grid = bounds_mod.parse_grid("1e-2:1e-12:51", geometric=True)
    rows = bounds_mod.asymptotic_profile(2, profile_grid)
    for a, b in zip(rows, rows[1:]):
        if not a.lower_profile_tail < b.lower_profile_tail:
            vs.append(f"lower tail profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
        if not a.upper_profile_tail < b.upper_profile_tail:
            vs.append(f"upper tail profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
        if not a.lower_profile < b.lower_profile:
            vs.append(f"full lower profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
    last = rows[-1]
    if abs(last.lower_profile_tail - 0.25) > 0.10 * 0.25:
        vs.append(f"lower tail profile {last.lower_profile_tail!r} at "
                  f"l1=1e-12 not within 10% of 0.25")
    if abs(last.upper_profile_tail - 18.0) > 0.05 * 18.0:
        vs.append(f"upper tail profile {last.upper_profile_tail!r} at "
                  f"l1=1e-12 not within 5% of 18")
    for (s, l1), exact in _PROFILE_ANCHORS.items():
        (row,) = bounds_mod.asymptotic_profile(s, (l1,))
        for field, e in zip(("lower_profile", "upper_profile",
                             "lower_profile_tail", "upper_profile_tail"),
                            exact):
            if abs(getattr(row, field) - e) > 1e-9 * e:
                vs.append(f"{field} at (s={s}, l1={l1}) drifts from "
                          "extended precision")
    return len(rows) + len(_PROFILE_ANCHORS), vs


def _collar_constants(seed: int) -> tuple[int, list[str]]:
    """The collar-width inequalities on their default full ranges."""
    rep = bounds_mod.collar_constants_check()
    return (rep.points_checked + rep.mono_points_checked,
            list(rep.violations))


_BOUNDS_CHECKS = (
    ("extended_precision_agreement", _extended_precision_agreement),
    ("bound_ordering", _bound_ordering),
    ("asymptotic_profiles", _asymptotic_profiles),
    ("collar_constants", _collar_constants),
)


def bounds_suite(seed: int) -> SuiteReport:
    """All bound-formula invariants: agreement with the 60-digit anchors,
    ordering across the (genus, l1) grid, profile monotonicity and
    limits, and the collar constants on their full ranges."""
    return _run_checks("bounds", seed, _BOUNDS_CHECKS)


# ---------------------------------------------------------------------------
# front door


SUITES = {
    "torus": torus_suite,
    "cylinder": cylinder_suite,
    "bounds": bounds_suite,
}


def run_suites(name: str, seed: int) -> tuple[SuiteReport, ...]:
    """Run one named suite, or all of them."""
    if name == "all":
        return tuple(SUITES[key](seed) for key in ("torus", "cylinder",
                                                   "bounds"))
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; expected torus, cylinder, bounds, "
            "or all")
    return (SUITES[name](seed),)
