"""Hyperbolic trigonometry for collars around short closed geodesics.

Each closed form is one private expression ``_f(m, ...)`` over a backend
``m``: ``math`` by default, or mpmath at ``EXTENDED_DPS`` significant
digits with ``extended=True``, which returns an ``mpf``.  The tests back
the frozen reference values with the extended mode; ``bounds`` reuses the
expressions, and ``suites`` evaluates ``_crossing_arc_length`` over numpy
arrays (``np.acosh`` needs numpy 2).
"""

from __future__ import annotations

import math

import mpmath

from .errors import DomainError

# Digits used by the extended-precision mode.
EXTENDED_DPS = 50

# Width threshold of the collar lemma: a primitive closed geodesic shorter
# than 2*arsinh(1) has an embedded collar of half-width collar_width(l).
TWO_ARSINH_ONE = 2.0 * math.asinh(1.0)


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _extended(expr, *args):
    """Evaluate ``expr`` over mpmath at EXTENDED_DPS digits."""
    with mpmath.workdps(EXTENDED_DPS):
        return expr(mpmath, *(mpmath.mpf(a) for a in args))


def _collar_width(m, length):
    # float64 runs out of range where 1/sinh(length/2) overflows (length
    # below about 1e-308, or length/2 rounds to 0) or sinh itself
    # overflows (length above 1420)
    try:
        width = m.asinh(1 / m.sinh(length / 2))
    except (OverflowError, ZeroDivisionError):
        width = m.inf
    if not m.isfinite(width):
        raise DomainError(f"collar width of length {length!r} is outside "
                          "the range of double precision")
    return width


def _fermi_distance(m, t1, s1, t2, s2):
    arg = m.cosh(s1) * m.cosh(s2) * m.cosh(t2 - t1) - m.sinh(s1) * m.sinh(s2)
    # rounding can push the argument a hair below 1 for coincident points
    return m.acosh(max(arg, 1))


def _crossing_arc_length(m, half_width, delta_t):
    return 2 * m.acosh(m.cosh(half_width) * m.cosh(delta_t / 2))


def _boundary_length(m, core_length, half_width):
    return core_length * m.cosh(half_width)


def collar_width(length: float, *, extended: bool = False):
    """Half-width arsinh(1/sinh(length/2)) of the embedded collar around a
    closed geodesic of the given length.

    Strictly decreasing in the length; behaves like log(4/length) as the
    geodesic shrinks.  Raises DomainError where the float64 value is not
    finite.
    """
    _require_positive("length", float(length))
    if extended:
        return _extended(_collar_width, length)
    return _collar_width(math, length)


def fermi_distance(p1, p2, *, extended: bool = False):
    """Distance between two points given in Fermi coordinates (t, s).

    t is arc length along the core geodesic, s the signed perpendicular
    distance from it.  cosh d = cosh s1 cosh s2 cosh(t2 - t1) - sinh s1 sinh s2.
    Kept only for the benchmark under bench/; suites must not call it.
    """
    t1, s1 = p1
    t2, s2 = p2
    for name, v in (("t1", t1), ("s1", s1), ("t2", t2), ("s2", s2)):
        _require_finite(name, float(v))
    if extended:
        return _extended(_fermi_distance, t1, s1, t2, s2)
    return _fermi_distance(math, t1, s1, t2, s2)


def crossing_arc_length(half_width: float, delta_t: float, *,
                        extended: bool = False):
    """Length 2*arcosh(cosh(half_width) * cosh(delta_t/2)) of the geodesic
    arc crossing a collar of the given half-width between boundary points
    whose core positions differ by delta_t.

    Equals fermi_distance((0, -half_width), (delta_t, half_width)); always
    at least max(2*half_width, |delta_t|).
    """
    _require_positive("half_width", float(half_width))
    _require_finite("delta_t", float(delta_t))
    if extended:
        return _extended(_crossing_arc_length, half_width, delta_t)
    return _crossing_arc_length(math, half_width, delta_t)


def boundary_length(core_length: float, half_width: float, *,
                    extended: bool = False):
    """Length core_length * cosh(half_width) of one boundary circle of the
    collar of the given half-width around a core geodesic."""
    _require_positive("core_length", float(core_length))
    _require_positive("half_width", float(half_width))
    if extended:
        return _extended(_boundary_length, core_length, half_width)
    return _boundary_length(math, core_length, half_width)
