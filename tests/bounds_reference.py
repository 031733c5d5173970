"""Reference small-systole profile and collar-constant sweep, one Python
iteration per grid point.

Each point is checked, then evaluated through the scalar ``math``
backend, before the next point is read.  The tests require
``intnorm.bounds.asymptotic_profile`` and ``collar_constants_check``,
which evaluate a whole grid at once over float64 arrays, to return
exactly what these return, float bits included, and to refuse what these
refuse with the same message.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from intnorm import DomainError, TWO_ARSINH_ONE
from intnorm.bounds import CollarCheckReport, ProfileRow, \
    _default_collar_grid, _default_monotonicity_grid, _hyperbolic_terms
from intnorm.cylinder import SHRINK_MARGIN
from intnorm.errors import integer, real
from intnorm.hyptrig import _boundary_length, _collar_width, _evaluate


def asymptotic_profile(s: int, l1_grid: Sequence[float], *,
                       extended: bool = False) -> tuple[ProfileRow, ...]:
    integer("genus", s, 2)
    rows = []
    for raw in l1_grid:
        l1 = real("l1 grid value", raw, positive=True)
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


def collar_constants_check(
        l_grid: Optional[Iterable[float]] = None,
        monotonicity_grid: Optional[Iterable[float]] = None,
) -> CollarCheckReport:
    if l_grid is None:
        l_grid = _default_collar_grid()
    if monotonicity_grid is None:
        monotonicity_grid = _default_monotonicity_grid()

    violations: list[str] = []
    points = 0
    width_margin = math.inf
    boundary_margin = math.inf
    for raw in l_grid:
        points += 1
        x = real("collar grid value", raw, positive=True)
        if x > 0.25:
            raise DomainError(
                f"collar grid values must lie in (0, 0.25], got {x}")
        cl = _evaluate(_collar_width, "length", False, x)
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

    mono = sorted(real("monotonicity grid value", v, positive=True)
                  for v in monotonicity_grid)
    for v in mono:
        if v > TWO_ARSINH_ONE * (1.0 + 1e-12):
            raise DomainError(
                "monotonicity grid values must lie in (0, 2*arsinh(1)], "
                f"got {v}")
    mono_decrement = math.inf
    values = [1.0 / (x * _evaluate(_collar_width, "length", False, x))
              for x in mono]
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
