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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, integer, quote, real
from .hyptrig import ARRAYS, SHRINK_MARGIN, TWO_ARSINH_ONE, \
    _boundary_length, _collar_width, _evaluate, _extended, _over_array


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
        object.__setattr__(self, "genus", integer("genus", self.genus, 1))
        for name in ("l1", "diameter", "volume"):
            object.__setattr__(self, name, real(name, getattr(self, name),
                                                positive=True))
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


def _hyperbolic(m, s: int, l1):
    """(lower, upper, collar_rate, cl(l1), arsinh(4/l1)) over backend m."""
    cl = _collar_width(m, l1)
    asinh_term = m.asinh(4 / l1)
    lower = 1 / ((s - 1) * l1 * (105 * s + 4 * asinh_term))
    upper = 144 + 18 * (s - 1) / (l1 * cl)
    return lower, upper, 1 / (2 * l1 * cl), cl, asinh_term


def _hyperbolic_terms(s: int, l1, extended: bool) -> tuple:
    """``_hyperbolic`` as finite floats, in either precision, at one l1
    or over a float64 array of them.

    An array is evaluated at once in double precision, through
    ``hyptrig._over_array``, and value by value in extended precision.

    lower < upper needs no check: lower < 1/(210*l1) and
    upper > 18/(l1*cl(l1)), and cl < 750 on every l1 that collar_width
    accepts, far below the 3,780 that the reverse order needs.
    """
    if isinstance(l1, np.ndarray):
        def one(s, x):
            return _hyperbolic_terms(s, x, extended)
        terms = (np.array([one(s, x) for x in l1.tolist()]).T if extended
                 else _over_array(_hyperbolic, one, s, l1))
        return tuple(np.reshape(terms, (5, -1)))  # (5, n), also at n = 0
    try:
        terms = (tuple(map(float, _extended(_hyperbolic, s, l1)))
                 if extended else _hyperbolic(math, s, l1))
    except (OverflowError, ZeroDivisionError):  # a genus too large for a
        terms = (math.inf,)  # float, or l1/2 rounds to 0, in double
    if math.inf in terms:  # all positive, so inf is the one value past range
        raise DomainError(f"hyperbolic bounds at s={quote(s)}, "
                          f"l1={l1} leave the range of double precision")
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
    s = integer("genus", s, 2)
    l1 = real("l1", l1, positive=True)
    if l1 >= TWO_ARSINH_ONE:
        warnings.warn(
            f"l1 = {l1} is not a short systole (>= 2*arsinh(1) = "
            f"{TWO_ARSINH_ONE:.6f}); the collar-based bounds degenerate",
            stacklevel=2)
    return HyperbolicBounds(*_hyperbolic_terms(s, l1, extended)[:3])


def full_bound_report(p: SurfaceParams) -> BoundReport:
    """The any-curvature bounds 1/V, 1/(2*l1*D) and 9/l1**2, plus, for
    genus >= 2, the hyperbolic bounds.

    The sandwich 1/(2*l1*D) <= 9/l1**2 follows from l1 <= 2D, which
    SurfaceParams enforces.
    """
    hyperbolic = () if p.genus < 2 else hyperbolic_bounds(p.genus, p.l1)
    return BoundReport(p.genus, p.l1, p.diameter, p.volume, 1.0 / p.volume,
                       1.0 / (2.0 * p.l1 * p.diameter), 9.0 / (p.l1 * p.l1),
                       *hyperbolic)


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


def _float_grid(grid: Iterable, check, accepted) -> np.ndarray:
    """A grid as a float64 array, checked as a whole before any of it is
    evaluated.

    ``check(value)`` checks one value and returns it as a float;
    ``accepted(x)`` marks the float64 values that it passes.  A grid of
    Python floats is checked at once, any other value by value: either
    way the first value refused in grid order is refused by ``check``.
    """
    values = list(grid)
    if set(map(type, values)) <= {float}:
        x = np.array(values, dtype=np.float64)
        refused = np.flatnonzero(~accepted(x))
        if refused.size:
            check(values[refused[0]])
        return x
    return np.array([check(v) for v in values], dtype=np.float64)


def _profile_value(raw) -> float:
    l1 = real("l1 grid value", raw, positive=True)
    if l1 >= 1.0:
        raise DomainError(
            f"profile grid values must lie in (0, 1), got {l1}")
    return l1


def asymptotic_profile(s: int, l1_grid: Sequence[float], *,
                       extended: bool = False) -> tuple[ProfileRow, ...]:
    """Evaluate the hyperbolic bounds and their normalized profiles over a
    grid of systole lengths in (0, 1).

    Values >= 1 are rejected: |log l1| changes sign there and the
    normalization becomes meaningless.  The grid is evaluated at once,
    over float64 arrays, bit for bit as one value at a time.
    """
    s = integer("genus", s, 2)
    l1 = _float_grid(l1_grid, _profile_value, lambda x: (x > 0) & (x < 1.0))
    if not l1.size:  # no rows, whatever the genus
        return ()
    lower, upper, rate, cl, asinh_term = _hyperbolic_terms(s, l1, extended)
    log_abs = -ARRAYS.log(l1)
    scale = l1 * log_abs
    columns = (l1, lower, upper, rate, lower * scale, upper * scale,
               log_abs / (4.0 * (s - 1) * asinh_term),
               18.0 * (s - 1) * log_abs / cl)
    return tuple(map(ProfileRow._make,
                     zip(*(column.tolist() for column in columns))))


def _collar_value(raw) -> float:
    x = real("collar grid value", raw, positive=True)
    if x > 0.25:
        raise DomainError(
            f"collar grid values must lie in (0, 0.25], got {x}")
    return x


def _collar_widths(x: np.ndarray) -> np.ndarray:
    """cl over a float64 array, refused as collar_width refuses the first
    value that leaves double range."""
    return _over_array(_collar_width, lambda v: _evaluate(
        _collar_width, "length", False, v), x)


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


def _default_collar_grid() -> tuple[float, ...]:
    """1000 evenly spaced points in (0, 0.25], endpoint included."""
    return tuple(0.25 * (i + 1) / 1000 for i in range(1000))


def _default_monotonicity_grid() -> tuple[float, ...]:
    """1000 evenly spaced points in (0, 2*arsinh(1)], endpoint included."""
    return tuple(TWO_ARSINH_ONE * (i + 1) / 1000 for i in range(1000))


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

    Each grid is evaluated at once, over float64 arrays, bit for bit as
    one point at a time.  The violations come point by point, three tests
    to a point, then pair by pair along the sorted second grid.
    """
    if l_grid is None:
        l_grid = _default_collar_grid()
    if monotonicity_grid is None:
        monotonicity_grid = _default_monotonicity_grid()

    x = _float_grid(l_grid, _collar_value, lambda x: (x > 0) & (x <= 0.25))
    cl = _collar_widths(x)
    w = cl - SHRINK_MARGIN
    circle = _boundary_length(ARRAYS, x, w)
    # the three tests of each point, in their order, point by point
    failed = ~np.stack([2.0 * w > 5.0 * circle, circle > 0.5, cl > 1.95],
                       axis=1)
    violations: list[str] = []
    for i, test in np.argwhere(failed).tolist():
        xi, wi, ci, cli = (x[i].item(), w[i].item(), circle[i].item(),
                           cl[i].item())
        violations.append((
            f"2*(cl({xi}) - 1.3) = {2 * wi} fails to exceed five "
            f"boundary circles {5 * ci}",
            f"boundary circle {ci} at core length {xi} is not "
            "longer than 1/2",
            f"collar half-width {cli} at core length {xi} "
            "is not above 1.95")[test])

    mono = np.sort(_float_grid(
        monotonicity_grid,
        lambda v: real("monotonicity grid value", v, positive=True),
        lambda x: (x > 0) & (x < math.inf)))
    beyond = np.flatnonzero(mono > TWO_ARSINH_ONE * (1.0 + 1e-12))
    if beyond.size:
        raise DomainError(
            "monotonicity grid values must lie in (0, 2*arsinh(1)], "
            f"got {mono[beyond[0]].item()}")
    values = 1.0 / (mono * _collar_widths(mono))
    distinct = mono[1:] != mono[:-1]
    decrement = values[:-1] - values[1:]
    for i in np.flatnonzero(distinct & ~(values[:-1] > values[1:])).tolist():
        violations.append(
            f"1/(x*cl(x)) failed to decrease between {mono[i].item()} and "
            f"{mono[i + 1].item()}: {values[i].item()} -> "
            f"{values[i + 1].item()}")

    def least(a):
        return a.min(initial=math.inf).item()
    return CollarCheckReport(
        points_checked=x.size,
        mono_points_checked=mono.size,
        min_width_margin=least(2.0 * w - 5.0 * circle),
        min_boundary_margin=least(circle - 0.5),
        min_mono_decrement=least(decrement[distinct]),
        violations=tuple(violations))


# Most steps of a grid.  A step costs about 0.2 us and 33 bytes to parse,
# and a row of the bounds table about 2 us to evaluate in double precision
# (140 us in extended) and 240 bytes of JSON, so a bounds run at the bound
# takes about 3 s and 105 MB and writes 24 MB (17 s in extended
# precision), most of it in the JSON encoder (Intel Xeon, 2 vCPUs).
MAX_GRID_STEPS = 100_000


def _unbuildable_grid(text: str, what: str) -> DomainError:
    return DomainError(f"grid {text!r} cannot be built: {what} leaves the "
                       "range of doubles")


def parse_grid(text: str, *, geometric: bool = False) -> tuple[float, ...]:
    """Parse a grid specification "lo:hi:steps" into a tuple of floats,
    evenly spaced either arithmetically or (with geometric=True)
    geometrically.  steps = 1 yields just lo; more than MAX_GRID_STEPS
    steps, or a grid whose hi / lo (geometric), hi - lo or last point
    leaves the range of doubles, are refused before anything is built."""
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
    lo, hi = real("grid endpoint", lo), real("grid endpoint", hi)
    steps = integer("grid steps", steps, 1)
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
        span = hi / lo
        if not 0.0 < span < math.inf:
            raise _unbuildable_grid(text, "hi / lo")
        ratio = math.log(span) / (steps - 1)

        def point(i):
            return lo * math.exp(ratio * i)
    else:
        span = hi - lo
        if not math.isfinite(span):
            raise _unbuildable_grid(text, "hi - lo")
        step = span / (steps - 1)

        def point(i):
            return lo + step * i
    # the points run monotonically from lo to the last one, which can
    # still round past the largest double
    if not math.isfinite(point(steps - 1)):
        raise _unbuildable_grid(text, "its last point")
    return tuple(map(point, range(steps)))
