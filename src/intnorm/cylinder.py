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
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateInputError,
    DomainError,
    ModeError,
    RejectedInputError,
    RetrySignal,
    WidthError,
)
from .flat_torus import CrossingReport
from .hyptrig import boundary_length, collar_width, crossing_arc_length

# Domain of the crossing oracle: the core advance |winding| * core_length
# of each arc, the core length (measured, see crossing_count_oracle_cyl),
# and the number of deck translates tried, about |w1| + |w2|, which the
# advance does not bound on a short core.  The oracle spends 2 to 5 us per
# translate, so MAX_TRANSLATES keeps one call under about half a second.
MAX_ADVANCE = 400.0
MIN_CORE_LENGTH = 1e-9
MAX_TRANSLATES = 100_000

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

# Default collar-shrinking parameters: trimming the full half-width by
# SHRINK_MARGIN keeps the boundary circles short relative to the width
# for every core length below SHORT_CORE_THRESHOLD.
SHRINK_MARGIN = 1.3
SHORT_CORE_THRESHOLD = 0.25


@dataclass(frozen=True)
class Cylinder:
    """Hyperbolic cylinder: core geodesic length and collar half-width."""

    core_length: float
    half_width: float

    def __post_init__(self):
        for name in ("core_length", "half_width"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v <= 0:
                raise DomainError(f"{name} must be positive, got {v!r}")
        object.__setattr__(self, "core_length", float(self.core_length))
        object.__setattr__(self, "half_width", float(self.half_width))

    def boundary_circle_length(self) -> float:
        return boundary_length(self.core_length, self.half_width)


def make_collar(core_length: float, mode: str = "shrunk", *,
                shrink: float = SHRINK_MARGIN,
                short_threshold: float = SHORT_CORE_THRESHOLD) -> Cylinder:
    """Build the collar cylinder around a closed geodesic.

    mode 'full' uses the full embedded-collar half-width
    collar_width(core_length); mode 'shrunk' subtracts ``shrink`` from it
    and requires core_length < short_threshold, which keeps the shrunk
    width comfortably positive and the boundary circles short.
    """
    if mode not in ("full", "shrunk"):
        raise ModeError(f"unknown collar mode {mode!r}")
    w = collar_width(core_length)
    if mode == "shrunk":
        if core_length >= short_threshold:
            raise ModeError(
                f"shrunk mode needs core_length < {short_threshold}, "
                f"got {core_length}")
        w -= shrink
        if w <= 0.0:
            raise WidthError(
                f"shrunk width {w} is not positive for "
                f"core_length={core_length}, shrink={shrink}")
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
        if self.crossing_sign not in (-1, 1):
            raise DomainError(
                f"crossing_sign must be +1 or -1, got {self.crossing_sign!r}")
        if not math.isfinite(self.winding):
            raise DomainError(f"winding must be finite, got {self.winding!r}")
        if not math.isfinite(self.entry_t):
            raise DomainError(f"entry_t must be finite, got {self.entry_t!r}")

    @property
    def orientation(self) -> int:
        """Sign of the winding: +1, -1, or 0 for a perpendicular arc."""
        return _sign(self.winding)


def winding_from_endpoints(cyl: Cylinder, t_in: float,
                           t_out_unwrapped: float) -> float:
    """Winding number (t_out_unwrapped - t_in) / core_length of an arc
    whose endpoints sit at core positions t_in and, after unwrapping the
    covering, t_out_unwrapped."""
    if not (0.0 <= t_in < cyl.core_length):
        raise DomainError(
            f"t_in must lie in [0, {cyl.core_length}), got {t_in}")
    if not math.isfinite(t_out_unwrapped):
        raise DomainError("t_out_unwrapped must be finite")
    return (t_out_unwrapped - t_in) / cyl.core_length


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


def intersection_bounds(c_wind: float, d_wind: float,
                        same_side: bool) -> WindingBounds:
    """Crossing-count window and common sign for two arcs with the given
    windings, entering from the same side or from opposite sides.

    With x = d_wind - c_wind (same side) or d_wind + c_wind (opposite),
    the count lies in [floor|x|, floor|x| + 1] and every crossing carries
    sign(x).  The sign statement is for the convention in which the first
    arc crosses the core positively; reversing both crossing directions
    flips it.
    """
    for name, v in (("c_wind", c_wind), ("d_wind", d_wind)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    x = d_wind - c_wind if same_side else d_wind + c_wind
    lo = int(math.floor(abs(x)))
    return WindingBounds(lo=lo, hi=lo + 1, sign=_sign(x))


def dehn_twist_winding(c_wind: float, crossing_sign: int, z: float) -> float:
    """Winding number after a Dehn twist of order z around the core:
    c_wind + crossing_sign * z.  In particular z = -crossing_sign * c_wind
    kills the winding."""
    if crossing_sign not in (-1, 1):
        raise DomainError(
            f"crossing_sign must be +1 or -1, got {crossing_sign!r}")
    if not (math.isfinite(c_wind) and math.isfinite(z)):
        raise DomainError("c_wind and z must be finite")
    return c_wind + crossing_sign * z


def dehn_twist_map(cyl: Cylinder, z: float, t: float,
                   s: float) -> tuple[float, float]:
    """Coordinate action of the order-z Dehn twist on Fermi coordinates:
    (t, s) |-> (t + z * core_length * (w + s) / (2w), s).  Fixes the s = -w
    boundary pointwise and advances the s = +w boundary by z full turns."""
    w = cyl.half_width
    if abs(s) > w * (1.0 + 1e-12):
        raise DomainError(f"|s| = {abs(s)} exceeds the half-width {w}")
    return t + z * cyl.core_length * (w + s) / (2.0 * w), s


# ---------------------------------------------------------------------------
# universal-cover crossing oracle


def fermi_to_halfplane(t: float, s: float) -> tuple[float, float]:
    """Fermi coordinates to upper half-plane: exp(t) * (tanh s, sech s)."""
    r = math.exp(t)
    return r * math.tanh(s), r / math.cosh(s)


def halfplane_to_fermi(x: float, y: float) -> tuple[float, float]:
    """Inverse of fermi_to_halfplane on the open upper half-plane."""
    if y <= 0.0:
        raise DomainError(f"point must lie in the upper half-plane, y={y}")
    r = math.hypot(x, y)
    t = math.log(r)
    s = math.copysign(math.acosh(max(r / y, 1.0)), x)
    return t, s


def _fermi_arc(cyl: Cylinder,
               arc: ArcSpec) -> tuple[float, float, float, float]:
    """(A, B, m, |D|/2) for the core advance D = winding * core_length: the
    arc is the part with |s| < w of the geodesic A*tanh(s) = B*sinh(t - m),
    with A = sinh(D/2), B = crossing_sign*tanh(w) and m = entry_t + D/2,
    and it spans t within |D|/2 of m."""
    l = cyl.core_length
    if not (0.0 <= arc.entry_t < l):
        raise DomainError(
            f"entry_t must lie in [0, {l}), got {arc.entry_t}")
    half = arc.winding * l / 2.0
    if abs(half) > MAX_ADVANCE / 2.0:
        raise DomainError(
            f"core advance {2.0 * abs(half)!r} of winding {arc.winding!r} "
            f"exceeds the oracle's bound {MAX_ADVANCE}")
    return (math.sinh(half), arc.crossing_sign * math.tanh(cyl.half_width),
            arc.entry_t + half, abs(half))


def crossing_count_oracle_cyl(cyl: Cylinder, arc1: ArcSpec,
                              arc2: ArcSpec) -> CrossingReport:
    """Count the crossings of two arcs inside the cylinder by intersecting,
    in Fermi coordinates on the universal cover, the first arc with every
    deck translate of the second that can meet it.

    Arc i is the part with |s| < w of the geodesic A_i*tanh(s) =
    B_i*sinh(t - m_i) and spans t within |D_i|/2 of m_i (see
    ``_fermi_arc``).  A deck translate k shifts t by k*l, so it can meet
    the first arc only if their t-intervals overlap,
    |m2 + k*l - m1| <= (|D1| + |D2|)/2; exactly those k are tried.  With
    x = t - m1, d = m2 + k*l - m1, P = B2*A1 and Q = B1*A2, translate k
    meets the first geodesic where e^(2x) = (P*e^d - Q) / (P*e^-d - Q).
    A crossing lies inside both arcs exactly when |s| < w there.  Its sign
    compares the slopes, A1*B2*cosh(x - d) - A2*B1*cosh(x), negated to
    match the orientation of the half-plane model.  No winding arithmetic
    enters.  Positions are reported in Fermi coordinates with the core
    position reduced to [0, core_length).

    Domain, refused with DomainError: a core advance
    |winding| * core_length above MAX_ADVANCE = 400 on either arc, and a
    core length below MIN_CORE_LENGTH = 1e-9.  Measured against the window
    and sign rule and against a 60-digit evaluation of the same model:
    - advances up to 480 on cores 0.05, 0.1 and 0.2 give no violation.
      P*e^d reaches e^(1.5*advance), which overflows past an advance of
      about 473; at advances up to 500, crossings go missing.
    - the half-width sets no limit: w = 462 at core 0.2 is clean.
    - the core length does.  e^d keeps d only to about 1e-16, so a crossing
      that close to an arc end can land on the wrong side of it, at a rate
      of roughly 1e-16/core_length per pair: 4 wrong pairs in 1000 at core
      1e-14, 1 in 2000 at 1e-13 and at 1e-12, none in 1000 at 1e-9.
    On a short core the advance leaves the number of translates, about
    |w1| + |w2|, open, so more than MAX_TRANSLATES = 100,000 are refused
    too; a call at that bound takes about 0.5 s.

    Raises RetrySignal when the two lifts overlap (the same core point and
    slope, where numerator and denominator both vanish) or a crossing lies
    within S_TOLERANCE of |s| = w; the caller should jitter an entry
    position and retry (see ``count_crossings_cyl``).
    """
    if arc1 == arc2:
        raise DegenerateInputError("arcs are identical")
    l, w = cyl.core_length, cyl.half_width
    if l < MIN_CORE_LENGTH:
        raise DomainError(f"core length {l!r} is below the oracle's bound "
                          f"{MIN_CORE_LENGTH}")
    a1, b1, m1, h1 = _fermi_arc(cyl, arc1)
    a2, b2, m2, h2 = _fermi_arc(cyl, arc2)
    first = math.ceil((m1 - m2 - h1 - h2) / l)
    last = math.floor((m1 - m2 + h1 + h2) / l)
    if last - first + 1 > MAX_TRANSLATES:
        raise DomainError(f"{last - first + 1} deck translates to try "
                          f"exceed the oracle's bound {MAX_TRANSLATES}")
    p, q = b2 * a1, b1 * a2
    hits: list[tuple[float, tuple[float, float], int]] = []
    for k in range(first, last + 1):
        d = m2 + k * l - m1
        if (abs(d) <= OVERLAP_TOLERANCE * l
                and abs(p - q) <= OVERLAP_TOLERANCE * (abs(p) + abs(q))):
            raise RetrySignal("overlapping geodesic lifts")
        num = p * math.exp(d) - q
        den = p * math.exp(-d) - q
        if den == 0.0 or num / den <= 0.0:
            continue
        x = 0.5 * math.log(num / den)
        # tanh(s) from the flatter of the two arcs
        tau = (b1 * math.sinh(x) / a1 if abs(a1) >= abs(a2)
               else b2 * math.sinh(x - d) / a2)
        if abs(tau) >= 1.0:
            continue
        s = math.atanh(tau)
        if abs(abs(s) - w) <= S_TOLERANCE:
            raise RetrySignal("crossing grazes the collar boundary")
        if abs(s) > w:
            continue
        cross = a1 * b2 * math.cosh(x - d) - a2 * b1 * math.cosh(x)
        t = m1 + x
        hits.append((t, (t % l, s), 1 if cross < 0 else -1))
    hits.sort(key=lambda h: h[0])
    return CrossingReport(count=len(hits),
                          signs=tuple(h[2] for h in hits),
                          positions=tuple(h[1] for h in hits))


def count_crossings_cyl(cyl: Cylinder, arc1: ArcSpec, arc2: ArcSpec, rng, *,
                        max_retries: int = 8) -> CrossingReport:
    """Run the cylinder crossing oracle, perturbing the second arc's entry
    position by a uniform jitter in (0, core_length * 1e-6) whenever a
    near-degenerate configuration raises RetrySignal."""
    candidate = arc2
    last = None
    for _ in range(max_retries + 1):
        try:
            return crossing_count_oracle_cyl(cyl, arc1, candidate)
        except RetrySignal as exc:
            last = exc
            jitter = rng.uniform(0.0, cyl.core_length * JITTER_SCALE)
            candidate = replace(
                arc2, entry_t=(arc2.entry_t + jitter) % cyl.core_length)
    raise RetrySignal(
        f"still degenerate after {max_retries} retries") from last


# ---------------------------------------------------------------------------
# rewinding


@dataclass(frozen=True)
class RewindInput:
    """One arc's data for the rewinding move.

    kind is 'gamma' or 'delta' (which of the two curve families the arc
    belongs to), winding its winding number, and m_gamma / m_delta the
    floors of the minimal absolute windings of the two families.
    """

    kind: str
    winding: float
    m_gamma: int
    m_delta: int

    def __post_init__(self):
        if self.kind not in ("gamma", "delta"):
            raise DomainError(f"kind must be 'gamma' or 'delta', "
                              f"got {self.kind!r}")
        if not math.isfinite(self.winding):
            raise DomainError("winding must be finite")
        for name in ("m_gamma", "m_delta"):
            m = getattr(self, name)
            if not isinstance(m, int) or m < 0:
                raise DomainError(f"{name} must be a non-negative integer, "
                                  f"got {m!r}")

    @property
    def orientation(self) -> int:
        """Sign of the winding: +1, -1, or 0."""
        return _sign(self.winding)


def rewind_winding(inp: RewindInput, gamma_leads: bool) -> float:
    """Rewound winding number of one arc.

    When the gamma family leads (its minimal absolute winding is the
    smaller), gamma arcs lose orientation * max(m_gamma - 1, 0) and delta
    arcs additionally lose orientation * max(m_delta - m_gamma - 2, 0);
    with the delta family leading the roles swap.
    """
    if gamma_leads:
        m_lead, m_trail = inp.m_gamma, inp.m_delta
        leads = inp.kind == "gamma"
    else:
        m_lead, m_trail = inp.m_delta, inp.m_gamma
        leads = inp.kind == "delta"
    shift = max(m_lead - 1, 0)
    if not leads:
        shift += max(m_trail - m_lead - 2, 0)
    return inp.winding - inp.orientation * shift


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


def _check_family(name: str, winds: Sequence[float]) -> None:
    if len(winds) == 0:
        raise RejectedInputError(f"{name} winding list is empty")
    for v in winds:
        if not math.isfinite(v):
            raise RejectedInputError(f"{name} winding {v!r} is not finite")
    for i, vi in enumerate(winds):
        for vj in winds[i + 1:]:
            if abs(vi - vj) >= 1.0:
                raise RejectedInputError(
                    f"{name} windings {vi} and {vj} differ by >= 1; arcs of "
                    "one simple closed geodesic cannot do that")
    if min(abs(v) for v in winds) >= 1.0:
        signs = {_sign(v) for v in winds}
        if len(signs) > 1:
            raise RejectedInputError(
                f"{name} windings of absolute value >= 1 must share one "
                f"orientation, got {tuple(winds)}")


def rewind_suite_check(gamma_winds: Sequence[float],
                       delta_winds: Sequence[float],
                       same_side: bool, *,
                       core_length: float = 0.2) -> RewindReport:
    """Rewind two families of windings against each other and check the
    structural guarantees of the move.

    Preconditions (RejectedInputError): within each family the windings
    differ pairwise by less than 1, and share an orientation as soon as
    the smallest absolute winding reaches 1.

    Checks reported as violations: the leading family rewinds to absolute
    value below 3 and the trailing one below 5; for every cross pair the
    sign of (delta - gamma) (same side) or (delta + gamma) (opposite
    sides) is unchanged; and each rewound winding, traded for a loop along
    the boundary circle of the reference shrunk collar with the given core
    length, is strictly shorter than the arc it replaces.
    """
    gamma_winds = tuple(float(v) for v in gamma_winds)
    delta_winds = tuple(float(v) for v in delta_winds)
    _check_family("gamma", gamma_winds)
    _check_family("delta", delta_winds)

    min_g = min(abs(v) for v in gamma_winds)
    min_d = min(abs(v) for v in delta_winds)
    m_gamma = int(math.floor(min_g))
    m_delta = int(math.floor(min_d))
    gamma_leads = min_g <= min_d

    def rewound(kind: str, v: float) -> float:
        inp = RewindInput(kind=kind, winding=v, m_gamma=m_gamma,
                          m_delta=m_delta)
        return rewind_winding(inp, gamma_leads)

    gamma_new = tuple(rewound("gamma", v) for v in gamma_winds)
    delta_new = tuple(rewound("delta", v) for v in delta_winds)

    violations: list[str] = []
    lead_name, lead_new = (("gamma", gamma_new) if gamma_leads
                           else ("delta", delta_new))
    trail_name, trail_new = (("delta", delta_new) if gamma_leads
                             else ("gamma", gamma_new))
    for v in lead_new:
        if not abs(v) < 3.0:
            violations.append(
                f"leading {lead_name} arc rewound to {v}, |.| >= 3")
    for v in trail_new:
        if not abs(v) < 5.0:
            violations.append(
                f"trailing {trail_name} arc rewound to {v}, |.| >= 5")

    for cg, cg_new in zip(gamma_winds, gamma_new):
        for dl, dl_new in zip(delta_winds, delta_new):
            before = dl - cg if same_side else dl + cg
            after = dl_new - cg_new if same_side else dl_new + cg_new
            if _sign(before) != _sign(after):
                violations.append(
                    f"sign of the winding {'difference' if same_side else 'sum'}"
                    f" flipped on pair ({cg}, {dl}): "
                    f"{_sign(before)} -> {_sign(after)}")

    cyl = make_collar(core_length, "shrunk")
    circle = cyl.boundary_circle_length()
    for name, winds, winds_new in (("gamma", gamma_winds, gamma_new),
                                   ("delta", delta_winds, delta_new)):
        for v, v_new in zip(winds, winds_new):
            arc = ArcSpec(entry_t=0.0, winding=v, crossing_sign=1)
            if not abs(v_new) * circle < arc_length(cyl, arc):
                violations.append(
                    f"rewound {name} winding {v_new} as a boundary loop is "
                    f"not shorter than the original arc of winding {v}")

    return RewindReport(same_side=same_side, gamma_leads=gamma_leads,
                        m_gamma=m_gamma, m_delta=m_delta,
                        gamma_rewound=gamma_new, delta_rewound=delta_new,
                        violations=tuple(violations))
