"""Hyperbolic trigonometry for collars around short closed geodesics.

Each closed form is one private expression ``_f(m, ...)`` over a backend
``m``: ``math`` by default, or mpmath at ``EXTENDED_DPS`` significant
digits with ``extended=True``, which returns an ``mpf``.  The tests back
the frozen reference values with the extended mode; ``bounds`` reuses the
expressions, and ``suites`` evaluates ``_crossing_arc_length`` over numpy
arrays (``np.acosh`` needs numpy 2).

A third backend, ``ARRAYS``, evaluates an expression once over float64
arrays, bit for bit as ``math`` evaluates it on each element: ``bounds``
runs its grids through it with ``_over_array``.  Its arithmetic is
numpy's, whose +, -, * and / round as Python floats do.  Its functions
apply ``math``'s to each element, not numpy's ufuncs: on x86-64 with
AVX-512, numpy's SIMD sinh, asinh, cosh and acosh differ from libm in the
last bits on 15-30% of 200,000 arguments.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import mpmath
import numpy as np

from .errors import DomainError, real

# Digits used by the extended-precision mode.
EXTENDED_DPS = 50

# Width threshold of the collar lemma: a primitive closed geodesic shorter
# than 2*arsinh(1) has an embedded collar of half-width collar_width(l).
TWO_ARSINH_ONE = 2.0 * math.asinh(1.0)


def _extended(expr, *args):
    """Evaluate ``expr`` over mpmath at EXTENDED_DPS digits."""
    with mpmath.workdps(EXTENDED_DPS):
        return expr(mpmath, *(mpmath.mpf(a) for a in args))


def _per_element(f):
    """math's ``f`` applied to each element of a 1-d float64 array."""
    def apply(a):
        return np.fromiter(map(f, a.tolist()), np.float64, a.size)
    return apply


ARRAYS = SimpleNamespace(
    sinh=_per_element(math.sinh), asinh=_per_element(math.asinh),
    cosh=_per_element(math.cosh), log=_per_element(math.log), inf=math.inf,
    isfinite=lambda a: bool(np.isfinite(a).all()))


def _over_array(expr, *args):
    """``expr`` over float64 arrays through ``ARRAYS``, or None where a
    value leaves the range of double precision.  The caller then evaluates
    each value alone, so that the scalar path's refusal names the first.

    numpy's overflow and division by zero give inf here without a
    warning; an inf anywhere in the result counts as out of range.
    """
    try:
        with np.errstate(divide="ignore", over="ignore"):
            out = expr(ARRAYS, *args)
    except (OverflowError, DomainError):
        return None
    return out if np.isfinite(out).all() else None


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


def _evaluate(expr, names: str, extended: bool, *args):
    """``expr`` at ``args`` over mpmath with ``extended``, else over
    ``math``, refused with DomainError where that value is not finite:
    math's cosh raises OverflowError, a product rounds to inf, or
    cosh*cosh - sinh*sinh to inf - inf."""
    if extended:
        return _extended(expr, *args)
    try:
        value = expr(math, *args)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise DomainError(f"{expr.__name__[1:].replace('_', ' ')} at ({names}) = "
                      f"{args!r} is outside the range of double precision")


def _fermi_distance(m, t1, s1, t2, s2):
    return 2 * m.asinh(m.hypot(m.sinh((s2 - s1) / 2), m.sqrt(m.cosh(s1))
                               * m.sqrt(m.cosh(s2)) * m.sinh((t2 - t1) / 2)))


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
    length = real("length", length, positive=True)
    return _evaluate(_collar_width, "length", extended, length)


def fermi_distance(p1, p2, *, extended: bool = False):
    """Distance between two points given in Fermi coordinates (t, s).

    t is arc length along the core geodesic, s the signed perpendicular
    distance from it.  sinh(d/2)^2 = sinh((s2 - s1)/2)^2 + cosh s1 cosh s2
    sinh((t2 - t1)/2)^2, a sum that does not cancel as cosh d would.
    Not exported: only the benchmark under bench/ calls it.
    """
    (t1, s1), (t2, s2) = p1, p2
    t1, s1, t2, s2 = (real(name, v) for name, v in (
        ("t1", t1), ("s1", s1), ("t2", t2), ("s2", s2)))
    return _evaluate(_fermi_distance, "t1, s1, t2, s2", extended,
                     t1, s1, t2, s2)


def crossing_arc_length(half_width: float, delta_t: float, *,
                        extended: bool = False):
    """Length 2*arcosh(cosh(half_width) * cosh(delta_t/2)) of the geodesic
    arc crossing a collar of the given half-width between boundary points
    whose core positions differ by delta_t.

    Equals fermi_distance((0, -half_width), (delta_t, half_width)); always
    at least max(2*half_width, |delta_t|).  Raises DomainError where the
    float64 value is not finite, as do fermi_distance and boundary_length.
    """
    half_width = real("half_width", half_width, positive=True)
    delta_t = real("delta_t", delta_t)
    return _evaluate(_crossing_arc_length, "half_width, delta_t", extended,
                     half_width, delta_t)


def boundary_length(core_length: float, half_width: float, *,
                    extended: bool = False):
    """Length core_length * cosh(half_width) of one boundary circle of the
    collar of the given half-width around a core geodesic."""
    core_length = real("core_length", core_length, positive=True)
    half_width = real("half_width", half_width, positive=True)
    return _evaluate(_boundary_length, "core_length, half_width", extended,
                     core_length, half_width)
