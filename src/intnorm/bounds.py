"""Closed-form bounds on the intersection-to-length ratio of a surface.

Three families of estimates are evaluated and cross-checked here:

* general bounds valid in any curvature, in terms of the volume V, the
  homological systole l1 and the diameter D: the ratio is at least 1/V,
  at least 1/(2*l1*D), and at most 9/l1**2;
* bounds for closed hyperbolic surfaces of genus s >= 2 in terms of l1
  alone: lower 1/((s-1)*l1*(105*s + 4*arsinh(4/l1))) and upper
  144 + 18*(s-1)/(l1*cl(l1)) with cl the full collar half-width, plus the
  collar crossing rate 1/(2*l1*cl(l1)) arising when a dual curve must
  traverse the systole's collar;
* the small-systole asymptotics: both hyperbolic bounds, multiplied by
  l1*|log l1|, stay pinned between positive constants, the normalized
  lower bound approaching 1/(4*(s-1)) and the normalized upper bound
  approaching 18*(s-1).

``collar_constants_check`` verifies the numeric inequalities about the
collar half-width that the cylinder machinery relies on (shrunk collars
are wide relative to their boundary circles, and x*cl(x) is increasing),
on dense grids.

The hyperbolic bounds and profiles share one expression of (s, l1) over
the ``hyptrig`` backends; ``extended=True`` evaluates it in mpmath and
returns floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Sequence

from .cylinder import SHRINK_MARGIN
from .errors import DomainError
from .hyptrig import TWO_ARSINH_ONE, _boundary_length, _collar_width, \
    _extended


def _require_positive(name: str, value: float) -> float:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite real, "
                          f"got {value!r}")
    return float(value)


def _require_genus(value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"genus must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"genus must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SurfaceParams:
    """Abstract surface parameters: genus, homological systole length l1,
    diameter, and volume.  A closed geodesic realizing l1 fits through any
    pair of points, so l1 <= 2 * diameter is enforced on input."""

    genus: int
    l1: float
    diameter: float
    volume: float

    def __post_init__(self):
        _require_genus(self.genus, 1)
        object.__setattr__(self, "l1", _require_positive("l1", self.l1))
        object.__setattr__(self, "diameter",
                           _require_positive("diameter", self.diameter))
        object.__setattr__(self, "volume",
                           _require_positive("volume", self.volume))
        if self.l1 > 2.0 * self.diameter:
            raise DomainError(
                f"l1 = {self.l1} exceeds twice the diameter "
                f"{self.diameter}; no closed surface does that")


class HyperbolicBounds(NamedTuple):
    lower: float
    upper: float
    collar_rate: float


@dataclass(frozen=True)
class BoundReport:
    """Every bound value evaluated for one parameter tuple.  The
    hyperbolic fields are None when only the general bounds apply
    (genus 1, or parameters outside the hyperbolic regime)."""

    genus: int
    l1: float
    diameter: float
    volume: float
    inv_vol: float
    lower_l1d: float
    upper_l1sq: float
    hyp_lower: Optional[float] = None
    hyp_upper: Optional[float] = None
    collar_rate: Optional[float] = None


def general_bounds(p: SurfaceParams) -> BoundReport:
    """Evaluate the any-curvature bounds 1/V, 1/(2*l1*D), 9/l1**2.

    The sandwich 1/(2*l1*D) <= 9/l1**2 follows from l1 <= 2D, which
    SurfaceParams enforces.
    """
    inv_vol = 1.0 / p.volume
    lower_l1d = 1.0 / (2.0 * p.l1 * p.diameter)
    upper_l1sq = 9.0 / (p.l1 * p.l1)
    return BoundReport(genus=p.genus, l1=p.l1, diameter=p.diameter,
                       volume=p.volume, inv_vol=inv_vol,
                       lower_l1d=lower_l1d, upper_l1sq=upper_l1sq)


def _hyperbolic(m, s: int, l1):
    """(lower, upper, collar_rate, cl(l1), arsinh(4/l1)) over backend m."""
    cl = _collar_width(m, l1)
    asinh_term = m.asinh(4 / l1)
    lower = 1 / ((s - 1) * l1 * (105 * s + 4 * asinh_term))
    upper = 144 + 18 * (s - 1) / (l1 * cl)
    return lower, upper, 1 / (2 * l1 * cl), cl, asinh_term


def _hyperbolic_terms(s: int, l1: float, extended: bool) -> tuple:
    """``_hyperbolic`` as finite floats, in either precision.

    lower < upper needs no check: lower < 1/(210*l1) and
    upper > 18/(l1*cl(l1)), and cl < 750 on every l1 that collar_width
    accepts, far below the 3,780 that the reverse order needs.
    """
    try:
        terms = (tuple(map(float, _extended(_hyperbolic, s, l1)))
                 if extended else _hyperbolic(math, s, l1))
    except OverflowError:  # a genus too large for a float, in double
        terms = (math.inf,)
    if math.inf in terms:  # all positive, so inf is the one value past range
        raise DomainError(f"hyperbolic bounds at s={s}, l1={l1} leave "
                          "the range of double precision")
    return terms


def hyperbolic_bounds(s: int, l1: float, *,
                      extended: bool = False) -> HyperbolicBounds:
    """Bounds on the ratio for a closed hyperbolic surface of genus s with
    homological systole l1.

    Returns (lower, upper, collar_rate) where collar_rate is the value
    1/(2*l1*cl(l1)) governing curves forced to traverse the systole's
    collar.  Warns (without failing) when l1 >= 2*arsinh(1): such a
    systole is not short, and the collar-based estimates carry no content
    there.
    """
    _require_genus(s, 2)
    l1 = _require_positive("l1", l1)
    if l1 >= TWO_ARSINH_ONE:
        warnings.warn(
            f"l1 = {l1} is not a short systole (>= 2*arsinh(1) = "
            f"{TWO_ARSINH_ONE:.6f}); the collar-based bounds degenerate",
            stacklevel=2)
    return HyperbolicBounds(*_hyperbolic_terms(s, l1, extended)[:3])


def full_bound_report(p: SurfaceParams, *,
                      extended: bool = False) -> BoundReport:
    """General bounds plus, for genus >= 2, the hyperbolic bounds."""
    report = general_bounds(p)
    if p.genus < 2:
        return report
    hb = hyperbolic_bounds(p.genus, p.l1, extended=extended)
    return replace(report, hyp_lower=hb.lower, hyp_upper=hb.upper,
                   collar_rate=hb.collar_rate)


class ProfileRow(NamedTuple):
    """One grid point of the small-systole sweep.

    lower_profile / upper_profile are the full bounds normalized by
    l1 * |log l1|; the tail columns drop the terms that vanish in the
    l1 -> 0 limit (the 105*s constant in the lower bound, the additive
    144 in the upper bound) and are the columns whose limits are
    1/(4*(s-1)) and 18*(s-1).
    """

    l1: float
    lower: float
    upper: float
    collar_rate: float
    lower_profile: float
    upper_profile: float
    lower_profile_tail: float
    upper_profile_tail: float


def asymptotic_profile(s: int, l1_grid: Sequence[float], *,
                       extended: bool = False) -> tuple[ProfileRow, ...]:
    """Evaluate the hyperbolic bounds and their normalized profiles over a
    grid of systole lengths in (0, 1).

    Values >= 1 are rejected: |log l1| changes sign there and the
    normalization becomes meaningless.
    """
    _require_genus(s, 2)
    rows = []
    for raw in l1_grid:
        l1 = _require_positive("l1 grid value", raw)
        if l1 >= 1.0:
            raise DomainError(
                f"profile grid values must lie in (0, 1), got {l1}")
        lower, upper, rate, cl, asinh_term = _hyperbolic_terms(s, l1,
                                                               extended)
        log_abs = -math.log(l1)
        scale = l1 * log_abs
        rows.append(ProfileRow(
            l1=l1,
            lower=lower,
            upper=upper,
            collar_rate=rate,
            lower_profile=lower * scale,
            upper_profile=upper * scale,
            lower_profile_tail=log_abs / (4.0 * (s - 1) * asinh_term),
            upper_profile_tail=18.0 * (s - 1) * log_abs / cl,
        ))
    return tuple(rows)


@dataclass(frozen=True)
class CollarCheckReport:
    """Result of the collar-constant inequality sweep."""

    points_checked: int
    mono_points_checked: int
    min_width_margin: float
    min_boundary_margin: float
    min_mono_decrement: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def default_collar_grid(n: int = 1000) -> tuple[float, ...]:
    """n evenly spaced points in (0, 0.25], endpoint included."""
    return tuple(0.25 * (i + 1) / n for i in range(n))


def default_monotonicity_grid(n: int = 1000) -> tuple[float, ...]:
    """n evenly spaced points in (0, 2*arsinh(1)], endpoint included."""
    return tuple(TWO_ARSINH_ONE * (i + 1) / n for i in range(n))


def collar_constants_check(
        l_grid: Optional[Iterable[float]] = None,
        monotonicity_grid: Optional[Iterable[float]] = None,
) -> CollarCheckReport:
    """Verify the collar-width inequalities backing the shrunk-collar
    constructions, on a grid in (0, 0.25]:

    * 2*(cl(x) - 1.3) > 5 * x * cosh(cl(x) - 1.3): a shrunk collar is
      wider than five of its boundary circles;
    * x*cosh(cl(x) - 1.3) > 1/2: each boundary circle is longer than 1/2,
      and so longer than 2x, the chain's other end, since x <= 0.25;
    * cl(x) > 1.95: room to shrink by 1.3 and keep half the margin;

    and, on a second grid in (0, 2*arsinh(1)], that 1/(x*cl(x)) is
    strictly decreasing, i.e. x*cl(x) is increasing.
    """
    if l_grid is None:
        l_grid = default_collar_grid()
    if monotonicity_grid is None:
        monotonicity_grid = default_monotonicity_grid()

    violations: list[str] = []
    points = 0
    width_margin = math.inf
    boundary_margin = math.inf
    for raw in l_grid:
        points += 1
        x = _require_positive("collar grid value", raw)
        if x > 0.25:
            raise DomainError(
                f"collar grid values must lie in (0, 0.25], got {x}")
        cl = _collar_width(math, x)
        w = cl - SHRINK_MARGIN
        circle = _boundary_length(math, x, w)
        width_margin = min(width_margin, 2.0 * w - 5.0 * circle)
        boundary_margin = min(boundary_margin, circle - 0.5)
        if not 2.0 * w > 5.0 * circle:
            violations.append(
                f"2*(cl({x}) - 1.3) = {2 * w} fails to exceed five "
                f"boundary circles {5 * circle}")
        if not circle > 0.5:
            violations.append(
                f"boundary circle {circle} at core length {x} is not "
                "longer than 1/2")
        if not cl > 1.95:
            violations.append(
                f"collar half-width {cl} at core length {x} "
                "is not above 1.95")

    mono = sorted(_require_positive("monotonicity grid value", v)
                  for v in monotonicity_grid)
    for v in mono:
        if v > TWO_ARSINH_ONE * (1.0 + 1e-12):
            raise DomainError(
                "monotonicity grid values must lie in (0, 2*arsinh(1)], "
                f"got {v}")
    mono_decrement = math.inf
    values = [1.0 / (x * _collar_width(math, x)) for x in mono]
    for x_prev, x_next, f_prev, f_next in zip(mono, mono[1:],
                                              values, values[1:]):
        if x_next == x_prev:
            continue
        mono_decrement = min(mono_decrement, f_prev - f_next)
        if not f_prev > f_next:
            violations.append(
                f"1/(x*cl(x)) failed to decrease between {x_prev} and "
                f"{x_next}: {f_prev} -> {f_next}")

    return CollarCheckReport(
        points_checked=points,
        mono_points_checked=len(mono),
        min_width_margin=width_margin,
        min_boundary_margin=boundary_margin,
        min_mono_decrement=mono_decrement,
        violations=tuple(violations))


# Most steps of a grid.  A step costs about 1.4 us and 33 bytes to parse,
# and a row of the bounds table about 5 us in double precision (120 us in
# extended) and 200 bytes of JSON, so a bounds run at the bound takes
# about 3 s and writes about 20 MB (12 s in extended precision).
MAX_GRID_STEPS = 100_000


def parse_grid(text: str, *, geometric: bool = False) -> tuple[float, ...]:
    """Parse a grid specification "lo:hi:steps" into a tuple of floats,
    evenly spaced either arithmetically or (with geometric=True)
    geometrically.  steps = 1 yields just lo; more than MAX_GRID_STEPS
    are refused before anything is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(
            f"grid must look like 'lo:hi:steps', got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"unparseable grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("grid endpoints must be finite")
    if steps < 1:
        raise DomainError(f"grid needs at least one step, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise DomainError(f"grid of {steps} steps is beyond the bound of "
                          f"{MAX_GRID_STEPS}")
    if steps == 1:
        return (lo,)
    if geometric:
        if lo <= 0 or hi <= 0:
            raise DomainError(
                "geometric grids need positive endpoints, got "
                f"{lo} and {hi}")
        ratio = math.log(hi / lo) / (steps - 1)
        return tuple(lo * math.exp(ratio * i) for i in range(steps))
    step = (hi - lo) / (steps - 1)
    return tuple(lo + step * i for i in range(steps))
