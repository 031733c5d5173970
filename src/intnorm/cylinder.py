"""Hyperbolic cylinders around short closed geodesics: winding numbers of
crossing arcs, floor bounds on their intersection numbers, Dehn twists,
and the rewinding moves that shorten large windings.

Model
-----
A cylinder of core length l is the upper half-plane modulo z |-> exp(l)*z,
with the core geodesic on the imaginary axis.  Fermi coordinates (t, s)
(arc length t along the core, signed perpendicular distance s) map to the
half-plane point exp(t) * (tanh s, sech s); the cylinder keeps |s| less
than the half-width.

An arc crossing the cylinder is specified by its entry position on the
core circle, its crossing sign (+1 when it crosses the core in the
direction of increasing s) and its winding number: the signed number of
core lengths the arc advances between its two boundary endpoints.  Two
such arcs cross each other a number of times pinned, up to an additive 1,
by the floor of the difference (entering from the same side) or the sum
(opposite sides) of their windings, and every crossing carries the same
sign.  ``crossing_count_oracle_cyl`` verifies this with no winding
arithmetic at all.  In Fermi coordinates each arc is one equation,
A*tanh(s) = B*sinh(t - m), and a deck translate of the universal cover
only shifts t by a multiple of l, so the oracle intersects the first arc
with each translate of the second whose t-interval overlaps it, in closed
form.  A pair whose lifts overlap, or that grazes the collar boundary, is
flagged, and retried with a jittered entry by ``retry_flagged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    ModeError,
    RejectedInputError,
    integer,
    real,
)
from .flat_torus import GRAZE, OVERLAP, CrossingBatch, CrossingReport, \
    _rows, _solve_rows, retry_flagged
from .hyptrig import SHORT_CORE_THRESHOLD, SHRINK_MARGIN, boundary_length, \
    collar_width, crossing_arc_length

# Domain of the crossing oracle: the core advance |winding| * core_length
# of each arc, the core length and the half-width (measured, see
# crossing_batch_cyl), and the deck translates one call tries,
# about |w1| + |w2| a pair, which the advance does not bound on a short
# core.  MAX_TRANSLATES bounds time, not memory: at it, with a crossing
# at every translate, one pair takes 0.02-0.03 s and ten pairs of
# 100,000 translates 0.04-0.05 s, at tracemalloc peaks of 2.5 and 3.4
# MB, mostly the int8 signs, 1 MB held in chunks and 1 MB joined (Intel
# Xeon, 2 vCPUs, numpy 2.4).
MAX_ADVANCE = 400.0
MIN_CORE_LENGTH = 1e-9
MIN_HALF_WIDTH = 1e-3
MAX_TRANSLATES = 1_000_000

# Fermi distance from the collar boundary |s| = half_width within which a
# crossing raises RetrySignal.
S_TOLERANCE = 1e-9

# Two lifts whose core crossings lie within this fraction of the core
# length of each other, with slopes equal to this relative tolerance,
# count as one geodesic.
OVERLAP_TOLERANCE = 1e-13

# Jitter scale for retry perturbations of entry positions, as a fraction
# of the core length.
JITTER_SCALE = 1e-6


@dataclass(frozen=True)
class Cylinder:
    """Hyperbolic cylinder: core geodesic length and collar half-width."""

    core_length: float
    half_width: float

    def __post_init__(self):
        for name in ("core_length", "half_width"):
            object.__setattr__(self, name, real(name, getattr(self, name),
                                                positive=True))

    def boundary_circle_length(self) -> float:
        return boundary_length(self.core_length, self.half_width)


def make_collar(core_length: float, mode: str = "shrunk") -> Cylinder:
    """Build the collar cylinder around a closed geodesic.

    mode 'full' uses the full embedded-collar half-width
    collar_width(core_length); mode 'shrunk' subtracts SHRINK_MARGIN = 1.3
    from it and requires core_length < SHORT_CORE_THRESHOLD = 0.25.  There
    collar_width exceeds 1.95, so the shrunk width stays above 0.65 and
    the boundary circles short.
    """
    if mode not in ("full", "shrunk"):
        raise ModeError(f"unknown collar mode {mode!r}")
    core_length = real("core_length", core_length, positive=True)
    w = collar_width(core_length)
    if mode == "shrunk":
        if core_length >= SHORT_CORE_THRESHOLD:
            raise ModeError(
                f"shrunk mode needs core_length < {SHORT_CORE_THRESHOLD}, "
                f"got {core_length}")
        w -= SHRINK_MARGIN
    return Cylinder(core_length=core_length, half_width=w)


@dataclass(frozen=True)
class ArcSpec:
    """Geodesic arc crossing a cylinder from boundary to boundary.

    entry_t is the Fermi position of the entry point on the core circle,
    winding the signed advance along the core in units of the core length,
    crossing_sign +1 or -1 according to the direction in which the arc
    crosses the core.
    """

    entry_t: float
    winding: float
    crossing_sign: int

    def __post_init__(self):
        for name, check in (("crossing_sign", _crossing_sign),
                            ("winding", real), ("entry_t", real)):
            object.__setattr__(self, name, check(name, getattr(self, name)))


def _crossing_sign(name: str, value) -> int:
    sign = integer(name, value)
    if sign not in (-1, 1):
        raise DomainError(f"{name} must be +1 or -1, got {sign}")
    return sign


def winding_from_endpoints(cyl: Cylinder, t_in: float,
                           t_out_unwrapped: float) -> float:
    """Winding number (t_out_unwrapped - t_in) / core_length of an arc
    whose endpoints sit at core positions t_in and, after unwrapping the
    covering, t_out_unwrapped; DomainError past double range."""
    t_in = real("t_in", t_in)
    t_out_unwrapped = real("t_out_unwrapped", t_out_unwrapped)
    if not (0.0 <= t_in < cyl.core_length):
        raise DomainError(
            f"t_in must lie in [0, {cyl.core_length}), got {t_in}")
    return real("winding", (t_out_unwrapped - t_in) / cyl.core_length)


def arc_length(cyl: Cylinder, arc: ArcSpec) -> float:
    """Length of the geodesic arc: crossing_arc_length of the cylinder's
    half-width at core advance |winding| * core_length.  At least
    max(2 * half_width, |winding| * core_length)."""
    return crossing_arc_length(cyl.half_width,
                               abs(arc.winding) * cyl.core_length)


class WindingBounds(NamedTuple):
    lo: int
    hi: int
    sign: int


def intersection_bounds(c_wind: float | np.ndarray,
                        d_wind: float | np.ndarray,
                        same_side: bool | np.ndarray) -> WindingBounds:
    """Crossing-count window and common sign for two arcs with the given
    windings, entering from the same side or from opposite sides.

    With x = d_wind - c_wind (same side) or d_wind + c_wind (opposite),
    the count lies in [floor|x|, floor|x| + 1] and every crossing carries
    sign(x).  The sign statement is for the convention in which the first
    arc crosses the core positively; reversing both crossing directions
    flips it.  The rule is written once in plain operators: floats give
    Python ints, equal-shape numpy arrays give int64 arrays.  Windings
    that are not finite or reach 2**62, where x could overflow or leave
    int64, are refused with DomainError.
    """
    arrays = isinstance(c_wind, np.ndarray)
    if not arrays:
        c_wind, d_wind = real("c_wind", c_wind), real("d_wind", d_wind)
    inside = (abs(c_wind) < 2.0 ** 62) & (abs(d_wind) < 2.0 ** 62)
    if not (inside.all() if arrays else inside):
        c, d = (c_wind[~inside][0].item(), d_wind[~inside][0].item()) \
            if arrays else (c_wind, d_wind)
        raise DomainError(f"windings {c!r} and {d!r} must be finite and "
                          "below 2**62")
    x = d_wind + (1 - 2 * same_side) * c_wind
    lo = abs(x) // 1
    lo = lo.astype(np.int64) if arrays else int(lo)
    return WindingBounds(lo, lo + 1, (x > 0) * 1 - (x < 0) * 1)


def dehn_twist_winding(c_wind: float, crossing_sign: int, z: float) -> float:
    """Winding number after a Dehn twist of order z around the core:
    c_wind + crossing_sign * z, DomainError past double range.  In
    particular z = -crossing_sign * c_wind kills the winding."""
    return real("winding", real("c_wind", c_wind) + _crossing_sign(
        "crossing_sign", crossing_sign) * real("z", z))


# ---------------------------------------------------------------------------
# universal-cover crossing oracle


def halfplane_to_fermi(x: float, y: float) -> tuple[float, float]:
    """Fermi coordinates (t, s) of x + iy = exp(t) * (tanh s, sech s).
    Not exported: only the benchmark under bench/ calls it."""
    if y <= 0.0:
        raise DomainError(f"point must lie in the upper half-plane, y={y}")
    # x/y = sinh s keeps s near 0, where r/y = cosh s rounds to 1
    return math.log(math.hypot(x, y)), math.asinh(x / y)


def _fermi_arcs(cyl: Cylinder, entry_t: np.ndarray, winding: np.ndarray,
                crossing_sign: np.ndarray):
    """(A, B, m, |D|/2) of every arc, for the core advance
    D = winding * core_length: the arc is the part with |s| < w of the
    geodesic A*tanh(s) = B*sinh(t - m), with A = sinh(D/2),
    B = crossing_sign*tanh(w) and m = entry_t + D/2, and it spans t
    within |D|/2 of m.  Row 0 holds the first arcs, row 1 the second.
    Where an arc leaves the oracle's domain, an entry outside [0, l) or
    a core advance |D| above MAX_ADVANCE, ``_refuse_first_pair`` refuses
    the first pair that breaks a pair rule."""
    l = cyl.core_length
    half = winding * l / 2.0
    h = np.abs(half)
    inside = (0.0 <= entry_t) & (entry_t < l) & (h <= MAX_ADVANCE / 2.0)
    if not inside.all():
        _refuse_first_pair(l, entry_t, winding, crossing_sign, inside)
    return (np.sinh(half), crossing_sign * math.tanh(cyl.half_width),
            entry_t + half, h)


def _refuse_first_pair(l, entry_t, winding, crossing_sign, inside=None):
    """Refuse the first pair, if any, in pair order, whose arcs are
    identical (DegenerateInputError) or, where ``inside`` marks the arcs
    inside the domain, that has an arc outside it (DomainError for its
    first such arc, entry before advance), named by the error's ``pair``.
    Identical arcs share their slope, so the oracle tests them only where
    an arc is outside or two slopes agree, off its common path."""
    identical = ((entry_t[0] == entry_t[1]) & (winding[0] == winding[1])
                 & (crossing_sign[0] == crossing_sign[1]))
    refused = identical if inside is None else identical | ~inside.all(0)
    if not refused.any():
        return
    i = int(refused.argmax())
    if identical[i]:
        exc = DegenerateInputError("arcs are identical")
    else:
        arc = (~inside[:, i]).argmax()
        e, c = entry_t[arc, i].item(), winding[arc, i].item()
        exc = DomainError(
            f"entry_t must lie in [0, {l}), got {e}" if not 0.0 <= e < l
            else f"core advance {2.0 * abs(c * l / 2.0)!r} of winding "
                 f"{c!r} exceeds the oracle's bound {MAX_ADVANCE}")
    exc.pair = i
    raise exc


def crossing_count_oracle_cyl(cyl: Cylinder, arc1: ArcSpec,
                              arc2: ArcSpec) -> CrossingReport:
    """Count the crossings of two arcs inside the cylinder by intersecting,
    in Fermi coordinates on the universal cover, the first arc with every
    deck translate of the second that can meet it.

    Arc i is the part with |s| < w of the geodesic A_i*tanh(s) =
    B_i*sinh(t - m_i) and spans t within |D_i|/2 of m_i (see
    ``_fermi_arcs``).  A deck translate k shifts t by k*l, so it can meet
    the first arc only if their t-intervals overlap,
    |m2 + k*l - m1| <= (|D1| + |D2|)/2; exactly those k are tried.  With
    x = t - m1, d = m2 + k*l - m1, P = B2*A1 and Q = B1*A2, translate k
    meets the first geodesic where e^(2x) = (P*e^d - Q) / (P*e^-d - Q).
    A crossing lies inside both arcs exactly when |s| < w there.  Its sign
    compares the slopes, A1*B2*cosh(x - d) - A2*B1*cosh(x), negated to
    match the orientation of the half-plane model.  No winding arithmetic
    enters.  The signs are reported in the order of k, which is the order
    of the crossings along the core, one way or the other.  The call is
    ``crossing_batch_cyl`` on one pair, which states the domain.

    Raises RetrySignal when the two lifts overlap (the same core point and
    slope, where numerator and denominator both vanish) or a crossing lies
    within S_TOLERANCE of |s| = w; the caller should jitter an entry
    position and retry (see ``count_crossings_cyl``).  Of several such
    translates, the one with the least k names the reason.

    Not exported: only the benchmark under bench/ calls it.
    """
    return crossing_batch_cyl(cyl, *_one_pair(arc1, arc2)).report(0)


def _one_pair(arc1: ArcSpec, arc2: ArcSpec) -> np.ndarray:
    """The entry positions, windings and crossing signs of two arcs, as
    the (3, 2, 1) arguments of a batch of one pair."""
    return np.array((arc1.entry_t, arc2.entry_t, arc1.winding, arc2.winding,
                     arc1.crossing_sign, arc2.crossing_sign),
                    dtype=float).reshape(3, 2, 1)


def crossing_batch_cyl(cyl: Cylinder, entry_t, winding,
                       crossing_sign) -> CrossingBatch:
    """The oracle of ``crossing_count_oracle_cyl`` on n arc pairs at once,
    and its one gate.  Each argument has shape (2, n): row 0 for the first
    arc of each pair, row 1 for the second.  Each pair's run of translates
    first..last is solved by ``_solve_rows``, each test of the one-pair
    oracle a mask over a chunk's rows, with the same float expressions in
    a batch of one pair as in a batch of many, so that both give the same
    bits.  RetrySignal is not raised but flagged per pair.

    A pair's signs come in row order, the order of k, and that is the
    order of its crossings along the core, one way or the other.  The
    translates of the second arc's geodesic cross the core at one angle,
    so no two meet: two that met would bound a triangle with the core
    whose angles sum to more than pi.  The first arc, a geodesic too,
    crosses these disjoint lines in the order of k, and its t is monotone
    along it.

    Domain.  Before any row is built, the batch refuses with DomainError
    first a core length below MIN_CORE_LENGTH = 1e-9 or a half-width
    below MIN_HALF_WIDTH = 1e-3; then the first pair, in pair order, whose
    arcs are identical (DegenerateInputError) or that has an arc with an
    entry outside [0, core_length) or a core advance |winding| *
    core_length above MAX_ADVANCE = 400, named by the error's ``pair``
    (see ``_refuse_first_pair``); then more than MAX_TRANSLATES =
    1,000,000 translates in the whole call, about |w1| + |w2| a pair,
    which the advance leaves open on a short core.
    Measured against the window and sign rule and
    against a 60-digit evaluation of the same model:
    - advances up to 480 on cores 0.05, 0.1 and 0.2 give no violation.
      P*e^d reaches e^(1.5*advance), which overflows past an advance of
      about 473; at advances up to 500, crossings go missing.
    - a wide half-width sets no limit: w = 462 at core 0.2 is clean.  A
      thin one does, as S_TOLERANCE is absolute and no jitter moves a
      crossing out of its band: of ``lemma_sweep``'s samples on full
      collars, 2 in 100,000 stay stuck at w = 4.5e-6 and 18,763 in 20,000
      at w = 9.2e-10, none in 200,000 at w = 1e-3.  At w = 1e-3 a pair
      that crosses on the boundary can stay stuck:
      ArcSpec(0.0, 0.5, 1) and ArcSpec(0.0, -2.5, 1), which share their
      entry, still graze on Cylinder(0.2, 1e-3) after every retry of
      ``count_crossings_cyl``, as a jitter of at most core_length *
      JITTER_SCALE moves that crossing by about 1e-9 in s; at half-widths
      3e-3 and 3.0 the pair counts 3.
    - the core length does.  e^d keeps d only to about 1e-16, so a crossing
      that close to an arc end can land on the wrong side of it, at a rate
      of roughly 1e-16/core_length per pair: 4 wrong pairs in 1000 at core
      1e-14, 1 in 2000 at 1e-13 and at 1e-12, none in 1000 at 1e-9.
    At MAX_TRANSLATES, with a crossing at every translate, one pair takes
    0.02-0.03 s and a batch of ten pairs 0.04-0.05 s.
    """
    l, w = cyl.core_length, cyl.half_width
    if l < MIN_CORE_LENGTH:
        raise DomainError(f"core length {l!r} is below the oracle's bound "
                          f"{MIN_CORE_LENGTH}")
    if w < MIN_HALF_WIDTH:
        raise DomainError(f"half-width {w!r} is below the oracle's bound "
                          f"{MIN_HALF_WIDTH}")
    entry_t, winding, crossing_sign = (
        np.asarray(v, dtype=float) for v in (entry_t, winding, crossing_sign))
    arcs = _fermi_arcs(cyl, entry_t, winding, crossing_sign)
    count = arcs[0].shape[1]
    if count == 1:
        # a batch of one pair has no pair index: its constants are floats,
        # broadcast into every row
        arcs = [v.ravel().tolist() for v in arcs]
    (a1, a2), (b1, b2), (m1, m2), (h1, h2) = arcs
    p, q = b2 * a1, b1 * a2
    # lifts can overlap only where their slopes agree, as identical arcs' do
    same_slope = (np.abs(p - q)
                  <= OVERLAP_TOLERANCE * (np.abs(p) + np.abs(q)))
    check_overlap = np.count_nonzero(same_slope) > 0
    if check_overlap:
        _refuse_first_pair(l, entry_t, winding, crossing_sign)
    base = m1 - m2
    first = np.ceil((base - h1 - h2) / l)
    runs = np.floor((base + h1 + h2) / l) - first + 1
    total = runs.sum()
    if total > MAX_TRANSLATES:
        raise DomainError(f"{int(total)} deck translates to try exceed "
                          f"the oracle's bound {MAX_TRANSLATES}")
    # tanh(s) comes from the equation of the flatter arc: its B and A, and
    # whether it is the second arc, whose equation is in x - d
    flat = np.abs(a1) >= np.abs(a2)
    (b, a), shift = np.where(flat, (b1, a1), (b2, a2)), ~flat

    def solve(r, i):
        pi, qi = _rows(p, i), _rows(q, i)
        # A ratio that is not positive and finite makes x, tau and s NaN
        # or infinite.  Then |tau| < 1, the graze test and s <= w all
        # fail, so no row needs masking before the tests; the NaNs and
        # infinities are no errors.
        with np.errstate(all="ignore"):
            d = _rows(m2, i) + (r + _rows(first, i)) * l - _rows(m1, i)
            num = pi * np.exp(d) - qi
            den = pi * np.exp(-d) - qi
            x = 0.5 * np.log(num / den)
            s = np.abs(np.arctanh(_rows(b, i) * np.sinh(
                x - d * _rows(shift, i)) / _rows(a, i)))
            graze = np.abs(s - w) <= S_TOLERANCE
            hit = (s <= w).nonzero()[0]
        overlap = check_overlap and \
            (np.abs(d) <= OVERLAP_TOLERANCE * l) & _rows(same_slope, i)
        code = None
        if np.count_nonzero(graze) or np.count_nonzero(overlap):
            code = np.where(overlap, OVERLAP, np.where(graze, GRAZE, 0))
        # a crossing is positive where A1*B2*cosh(x - d) < A2*B1*cosh(x)
        x, d, i_hit = x[hit], d[hit], None if i is None else i[hit]
        signs = (_rows(p, i_hit) * np.cosh(x - d)
                 < _rows(q, i_hit) * np.cosh(x)).astype(np.int8) * 2 - 1
        return ((i, i_hit, signs, code),)

    return _solve_rows(runs.astype(np.int64).reshape(-1), solve)


def count_crossings_cyl_batch(cyl: Cylinder, entry_t, winding, crossing_sign,
                              rng) -> CrossingBatch:
    """``crossing_batch_cyl`` with each flagged pair solved again on its
    own, in pair order, its second entry position moved from its own value
    by a uniform jitter in (0, core_length * JITTER_SCALE) drawn from rng;
    see ``retry_flagged``.  Only the batch call can be refused: a retry
    moves an entry within [0, core_length) and tries the translates of
    one pair of the batch, no more than it tried."""
    l = cyl.core_length

    def jittered(i: int) -> CrossingBatch:
        (t1, t2), (w1, w2), (s1, s2) = np.asarray(
            (entry_t, winding, crossing_sign), dtype=float)[:, :, i].tolist()
        t2 = (t2 + rng.uniform(0.0, l * JITTER_SCALE)) % l
        return crossing_batch_cyl(cyl, [[t1], [t2]], [[w1], [w2]],
                                  [[s1], [s2]])

    return retry_flagged(
        crossing_batch_cyl(cyl, entry_t, winding, crossing_sign), jittered)


def count_crossings_cyl(cyl: Cylinder, arc1: ArcSpec, arc2: ArcSpec,
                        rng) -> CrossingReport:
    """Run the cylinder crossing oracle, perturbing the second arc's entry
    position by a uniform jitter in (0, core_length * JITTER_SCALE)
    whenever a near-degenerate configuration flags the pair, at most
    MAX_RETRIES times, and then RetrySignal: one uniform of rng per
    retry, each added to the original entry."""
    return count_crossings_cyl_batch(cyl, *_one_pair(arc1, arc2),
                                     rng).report(0)


# ---------------------------------------------------------------------------
# rewinding


def rewind_shift(m_lead: int, m_trail: int, leads: bool) -> int:
    """Whole turns the rewinding move takes off each winding of a family:
    max(m_lead - 1, 0) for the leading family, plus max(m_trail - m_lead -
    2, 0) for the trailing one.  m_lead <= m_trail are the floors of the
    two families' minimal absolute windings."""
    m_lead = integer("m_lead", m_lead, 0)
    m_trail = integer("m_trail", m_trail, 0)
    shift = max(m_lead - 1, 0)
    if not leads:
        shift += max(m_trail - m_lead - 2, 0)
    return shift


@dataclass(frozen=True)
class RewindReport:
    """Outcome of rewinding two winding families against each other."""

    same_side: bool
    gamma_leads: bool
    m_gamma: int
    m_delta: int
    gamma_rewound: tuple[float, ...]
    delta_rewound: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sign(x: float) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def _check_family(name: str, winds: Sequence[float]) -> tuple[float, ...]:
    try:
        winds = tuple(real(f"{name} winding", v) for v in winds)
    except DomainError as exc:
        raise RejectedInputError(str(exc)) from None
    if len(winds) == 0:
        raise RejectedInputError(f"{name} winding list is empty")
    lo, hi = min(winds), max(winds)
    if hi - lo >= 1.0:
        raise RejectedInputError(
            f"{name} windings {lo} and {hi} differ by >= 1; arcs of "
            "one simple closed geodesic cannot do that")
    if lo < 0.0 < hi and min(abs(v) for v in winds) >= 1.0:
        raise RejectedInputError(
            f"{name} windings of absolute value >= 1 must share one "
            f"orientation, got {winds}")
    return winds


# The reference collar of rewind_suite_check: the shrunk collar of core
# length 0.2 and the length of its boundary circle.
_REWIND_COLLAR = make_collar(0.2, "shrunk")
_REWIND_CIRCLE = _REWIND_COLLAR.boundary_circle_length()


def rewind_suite_check(gamma_winds: Sequence[float],
                       delta_winds: Sequence[float],
                       same_side: bool) -> RewindReport:
    """Rewind two families of windings against each other and check the
    structural guarantees of the move.

    Preconditions (RejectedInputError): within each family the windings
    differ pairwise by less than 1, and share an orientation as soon as
    the smallest absolute winding reaches 1.

    Checks reported as violations: the leading family rewinds to absolute
    value below 3 and the trailing one below 5; for every cross pair the
    sign of x = (delta - gamma) (same side) or (delta + gamma) (opposite
    sides) is unchanged; and each rewound winding, traded for a loop along
    the boundary circle of the reference shrunk collar of core length
    0.2, is strictly shorter than the arc it replaces.

    The family with the smaller minimal absolute winding leads (gamma on
    a tie), and each winding v moves sign(v) * ``rewind_shift`` turns
    toward zero.  The preconditions imply all three rules.  A family with
    floor m >= 1 of its minimal absolute winding has one orientation
    sigma and sigma*v in [m, m + 2); at m = 0 it lies in (-2, 2) and is
    not shifted.  With g = m_trail - m_lead, the leading family lands
    within 3 and the trailing one within 5 (in [3, 5) for m_lead >= 1
    and g >= 3).  No shift exceeds its family's m, and x moves by a whole
    number c that is 0 or has the sign of x with |c| < |x|.  Five
    reference boundary circles (2.82) are shorter than the collar's width
    2w (3.39), the shortest crossing arc.

    ``rewind_cell_violations`` decides the rules on each cell, and
    verify's ``rewind_grid`` runs it on every cell with m_trail <= 12.
    That covers every shape: what a cell decides depends on (m_lead,
    m_trail) only through min(m_lead, 2) and min(g, 3), except for the
    length margin, which grows with m as the crossing arc lengthens.

    Kept for test c05, the cylinder demo and bench/ only; no suite calls it.
    """
    gamma_winds = _check_family("gamma", gamma_winds)
    delta_winds = _check_family("delta", delta_winds)

    min_g = min(abs(v) for v in gamma_winds)
    min_d = min(abs(v) for v in delta_winds)
    m_gamma = int(math.floor(min_g))
    m_delta = int(math.floor(min_d))
    gamma_leads = min_g <= min_d
    m_lead, m_trail = sorted((m_gamma, m_delta))

    violations: list[str] = []
    rewound = []
    w, l = _REWIND_COLLAR.half_width, _REWIND_COLLAR.core_length
    for name, winds, leads in (("gamma", gamma_winds, gamma_leads),
                               ("delta", delta_winds, not gamma_leads)):
        shift = rewind_shift(m_lead, m_trail, leads)
        role, bound = ("leading", 3) if leads else ("trailing", 5)
        rewound.append(tuple(v - _sign(v) * shift for v in winds))
        for v, v_new in zip(winds, rewound[-1]):
            if not abs(v_new) < bound:
                violations.append(
                    f"{role} {name} arc rewound to {v_new}, |.| >= {bound}")
            if not (abs(v_new) * _REWIND_CIRCLE
                    < crossing_arc_length(w, abs(v) * l)):
                violations.append(
                    f"rewound {name} winding {v_new} as a boundary loop is "
                    f"not shorter than the original arc of winding {v}")
    gamma_new, delta_new = rewound

    for cg, cg_new in zip(gamma_winds, gamma_new):
        for dl, dl_new in zip(delta_winds, delta_new):
            before = intersection_bounds(cg, dl, same_side).sign
            after = intersection_bounds(cg_new, dl_new, same_side).sign
            if before != after:
                violations.append(
                    f"sign of the winding {'difference' if same_side else 'sum'}"
                    f" flipped on pair ({cg}, {dl}): {before} -> {after}")

    return RewindReport(same_side=same_side, gamma_leads=gamma_leads,
                        m_gamma=m_gamma, m_delta=m_delta,
                        gamma_rewound=gamma_new, delta_rewound=delta_new,
                        violations=tuple(violations))


def rewind_cell_violations(m_lead: int, m_trail: int, sigma_lead: int,
                           sigma_trail: int, same_side: bool) -> list[str]:
    """Decide the three rules of ``rewind_suite_check`` for every input in
    one cell: the floors m_lead <= m_trail of the two families' minimal
    absolute windings, their orientations sigma, and the side.

    A family spans sigma*[m, m + 2), or (-2, 2) at m = 0, and moves by
    -sigma*s with s from ``rewind_shift``.  Spans are held in quarter
    turns with each open end pulled a quarter inward, which decides every
    comparison of a sum of two ends with whole turns as the open end
    does.  The rewound spans must lie within 3 (leading) and 5
    (trailing); a cross difference or sum x = trail -/+ lead moves by
    c = sigma_trail*s_trail -/+ sigma_lead*s_lead and keeps its sign iff
    c = 0 or its span misses [0, c]; and the largest rewound |v| times
    the reference boundary circle must be below the family's shortest
    arc, at winding m (a sufficient test).  The spans assume one
    orientation, which a family with m = 0 need not have, so a shift
    there is a violation too.
    """
    spans = []
    violations: list[str] = []
    for role, m, sigma, bound in (("leading", m_lead, sigma_lead, 3),
                                  ("trailing", m_trail, sigma_trail, 5)):
        s = rewind_shift(m_lead, m_trail, role == "leading")
        if m == 0 and s:
            violations.append(f"{role} family with m = 0 shifted by {s}; "
                              "it may mix orientations")
        lo, hi = (4 * m, 4 * m + 7) if m else (-7, 7)
        lo, hi = (lo, hi) if sigma > 0 else (-hi, -lo)
        spans.append((lo, hi, sigma * s))
        new_lo, new_hi = lo - 4 * sigma * s, hi - 4 * sigma * s
        if not -4 * bound < new_lo <= new_hi < 4 * bound:
            violations.append(f"{role} windings shifted by {s} can "
                              f"rewind to |.| >= {bound}")
        sup = -(-max(-new_lo, new_hi) // 4)
        shortest = crossing_arc_length(_REWIND_COLLAR.half_width,
                                       m * _REWIND_COLLAR.core_length)
        if not sup * _REWIND_CIRCLE < shortest:
            violations.append(
                f"{role} windings rewound up to |{sup}| as boundary loops "
                f"are not certified shorter than the arc {shortest}")

    (l_lo, l_hi, l_move), (t_lo, t_hi, t_move) = spans
    if same_side:
        x_lo, x_hi, c = t_lo - l_hi, t_hi - l_lo, t_move - l_move
    else:
        x_lo, x_hi, c = t_lo + l_lo, t_hi + l_hi, t_move + l_move
    if c and x_lo <= 4 * max(c, 0) and x_hi >= 4 * min(c, 0):
        violations.append(
            f"the winding {'difference' if same_side else 'sum'} can "
            f"change sign under the shift {c}")
    return violations
