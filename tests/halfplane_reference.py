"""Reference cylinder crossing oracles: one in the upper half-plane
model, and the Fermi-coordinate oracle as a loop over deck translates.
The chart ``fermi_to_halfplane`` lifts Fermi coordinates to the
half-plane for the first.

In the half-plane oracle both arcs are lifted to half-plane geodesic
segments and the lift of the first is intersected, circle against circle,
with every deck translate of the lift of the second.  The lift places arc
endpoints at scale exp(core advance), so it loses its digits at large
windings; at core 0.2 it is right for |winding| <= 64.  The tests compare
the Fermi-coordinate oracle of ``intnorm.cylinder`` against it in that
range.

The loop oracle solves the same equations as ``intnorm.cylinder``, one
translate at a time in scalar floats.  It reads the oracle's bounds and
tolerances from ``intnorm.cylinder`` at call time, so the tests hold the
vectorised oracle to it on the whole domain, for one pair or for many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from intnorm import cylinder as cyl_mod
from intnorm import (
    ArcSpec,
    CrossingReport,
    Cylinder,
    DegenerateInputError,
    DomainError,
    RetrySignal,
    halfplane_to_fermi,
)

# Angular tolerance around lifted-segment endpoints; an intersection this
# close to an endpoint (or a tangency) raises RetrySignal.
ANGLE_TOLERANCE = 1e-9


def fermi_to_halfplane(t: float, s: float) -> tuple[float, float]:
    """Fermi coordinates to upper half-plane: exp(t) * (tanh s, sech s)."""
    r = math.exp(t)
    return r * math.tanh(s), r / math.cosh(s)


class _Region(Enum):
    OUT = 0
    EDGE = 1
    IN = 2


@dataclass(frozen=True)
class _Geodesic:
    """Half-plane geodesic segment on the circle |z - center| = radius,
    between the polar angles a0 and a1 (both in (0, pi))."""

    center: float
    radius: float
    a0: float
    a1: float

    def translated(self, shift_t: float) -> "_Geodesic":
        f = math.exp(shift_t)
        return _Geodesic(self.center * f, self.radius * f, self.a0, self.a1)

    def classify(self, x: float, y: float) -> _Region:
        phi = math.atan2(y, x - self.center)
        lo, hi = min(self.a0, self.a1), max(self.a0, self.a1)
        if phi <= lo - ANGLE_TOLERANCE or phi >= hi + ANGLE_TOLERANCE:
            return _Region.OUT
        if phi < lo + ANGLE_TOLERANCE or phi > hi - ANGLE_TOLERANCE:
            return _Region.EDGE
        return _Region.IN

    def tangent(self, x: float, y: float) -> tuple[float, float]:
        phi = math.atan2(y, x - self.center)
        d = 1.0 if self.a1 > self.a0 else -1.0
        return -math.sin(phi) * d, math.cos(phi) * d


def _lift(cyl: Cylinder, arc: ArcSpec) -> _Geodesic:
    l, w = cyl.core_length, cyl.half_width
    if not (0.0 <= arc.entry_t < l):
        raise DomainError(
            f"entry_t must lie in [0, {l}), got {arc.entry_t}")
    if abs(arc.winding) * l > 100.0:
        raise DomainError(
            "winding too large for a stable half-plane lift")
    eps = arc.crossing_sign
    x0, y0 = fermi_to_halfplane(arc.entry_t, -eps * w)
    x1, y1 = fermi_to_halfplane(arc.entry_t + arc.winding * l, eps * w)
    # x0 and x1 have opposite signs, so the chord is never vertical
    cx = ((x1 * x1 + y1 * y1) - (x0 * x0 + y0 * y0)) / (2.0 * (x1 - x0))
    r = math.hypot(x0 - cx, y0)
    return _Geodesic(center=cx, radius=r,
                     a0=math.atan2(y0, x0 - cx), a1=math.atan2(y1, x1 - cx))


def _circle_meet(g1: _Geodesic, g2: _Geodesic):
    scale = max(g1.radius, g2.radius)
    if abs(g1.center - g2.center) <= 1e-13 * scale:
        if abs(g1.radius - g2.radius) <= 1e-13 * scale:
            raise RetrySignal("overlapping geodesic lifts")
        return None
    x = (g1.radius ** 2 - g2.radius ** 2 + g2.center ** 2 - g1.center ** 2) \
        / (2.0 * (g2.center - g1.center))
    ysq = g1.radius ** 2 - (x - g1.center) ** 2
    if ysq <= 0.0:
        return None
    return x, math.sqrt(ysq)


def crossing_count_oracle_halfplane(cyl: Cylinder, arc1: ArcSpec,
                                    arc2: ArcSpec, *,
                                    window_pad: int = 2) -> CrossingReport:
    """Count the crossings of two arcs inside the cylinder by lifting both
    to the upper half-plane and intersecting the lift of the first with
    the deck translates |k| <= ceil(|w1| + |w2|) + window_pad of the lift
    of the second.  Raises RetrySignal on tangential, overlapping, or
    endpoint-grazing configurations."""
    if arc1 == arc2:
        raise DegenerateInputError("arcs are identical")
    if window_pad < 1:
        raise DomainError(f"window_pad must be >= 1, got {window_pad}")
    g1 = _lift(cyl, arc1)
    g2 = _lift(cyl, arc2)
    window = (int(math.ceil(abs(arc1.winding) + abs(arc2.winding)))
              + window_pad)
    hits: list[tuple[float, int]] = []
    for k in range(-window, window + 1):
        g2k = g2.translated(k * cyl.core_length)
        pt = _circle_meet(g1, g2k)
        if pt is None:
            continue
        x, y = pt
        r1 = g1.classify(x, y)
        r2 = g2k.classify(x, y)
        if r1 is _Region.OUT or r2 is _Region.OUT:
            continue
        if r1 is _Region.EDGE or r2 is _Region.EDGE:
            raise RetrySignal("crossing grazes a lifted-segment endpoint")
        t1x, t1y = g1.tangent(x, y)
        t2x, t2y = g2k.tangent(x, y)
        cross = t1x * t2y - t1y * t2x
        if abs(cross) <= 1e-12:
            raise RetrySignal("tangential crossing")
        t, _ = halfplane_to_fermi(x, y)
        hits.append((t, 1 if cross > 0 else -1))
    hits.sort(key=lambda h: h[0])
    return CrossingReport(count=len(hits), signs=tuple(h[1] for h in hits))


def _fermi_arc(cyl: Cylinder,
               arc: ArcSpec) -> tuple[float, float, float, float]:
    """(A, B, m, |D|/2) of one arc, as in ``cylinder._fermi_arcs``."""
    l = cyl.core_length
    if not (0.0 <= arc.entry_t < l):
        raise DomainError(
            f"entry_t must lie in [0, {l}), got {arc.entry_t}")
    half = arc.winding * l / 2.0
    if abs(half) > cyl_mod.MAX_ADVANCE / 2.0:
        raise DomainError(
            f"core advance {2.0 * abs(half)!r} of winding {arc.winding!r} "
            f"exceeds the oracle's bound {cyl_mod.MAX_ADVANCE}")
    return (math.sinh(half), arc.crossing_sign * math.tanh(cyl.half_width),
            arc.entry_t + half, abs(half))


def crossing_count_oracle_loop(cyl: Cylinder, arc1: ArcSpec,
                               arc2: ArcSpec) -> CrossingReport:
    """``cylinder.crossing_count_oracle_cyl`` with one scalar solve per
    deck translate: same domain, errors and RetrySignal reasons."""
    if arc1 == arc2:
        raise DegenerateInputError("arcs are identical")
    l, w = cyl.core_length, cyl.half_width
    if l < cyl_mod.MIN_CORE_LENGTH:
        raise DomainError(f"core length {l!r} is below the oracle's bound "
                          f"{cyl_mod.MIN_CORE_LENGTH}")
    a1, b1, m1, h1 = _fermi_arc(cyl, arc1)
    a2, b2, m2, h2 = _fermi_arc(cyl, arc2)
    first = math.ceil((m1 - m2 - h1 - h2) / l)
    last = math.floor((m1 - m2 + h1 + h2) / l)
    if last - first + 1 > cyl_mod.MAX_TRANSLATES:
        raise DomainError(f"{last - first + 1} deck translates to try "
                          f"exceed the oracle's bound "
                          f"{cyl_mod.MAX_TRANSLATES}")
    p, q = b2 * a1, b1 * a2
    tol = cyl_mod.OVERLAP_TOLERANCE
    hits: list[tuple[float, int]] = []
    for k in range(first, last + 1):
        d = m2 + k * l - m1
        if abs(d) <= tol * l and abs(p - q) <= tol * (abs(p) + abs(q)):
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
        if abs(abs(s) - w) <= cyl_mod.S_TOLERANCE:
            raise RetrySignal("crossing grazes the collar boundary")
        if abs(s) > w:
            continue
        cross = a1 * b2 * math.cosh(x - d) - a2 * b1 * math.cosh(x)
        hits.append((m1 + x, 1 if cross < 0 else -1))
    hits.sort(key=lambda h: h[0])
    return CrossingReport(count=len(hits), signs=tuple(h[1] for h in hits))
