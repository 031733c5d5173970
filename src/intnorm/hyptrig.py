"""Hyperbolic trigonometry for collars around short closed geodesics.

Each closed form is one private expression ``_f(m, ...)`` over a backend
``m``: ``math`` by default, or with ``extended=True`` a private mpmath
context at ``EXTENDED_DPS`` significant digits, which returns an ``mpf``
of mpmath's global context.  The private context is built on the first
extended call, so a process that never asks for one does not import
mpmath, and its precision is its own: ``mpmath.mp`` never changes, in
this thread or in any other.  The extended mode serves
``bounds --precision extended``, ``extended=True`` and the tests that
back the frozen reference values; ``verify`` does not call it.
``bounds`` reuses the expressions, and ``suites`` evaluates
``_crossing_arc_length`` over numpy arrays (``np.acosh`` needs numpy 2).

A third backend, ``ARRAYS``, evaluates an expression once over float64
arrays, bit for bit as ``math`` evaluates it on each element: ``bounds``
runs its grids through it with ``_over_array``.  Its arithmetic is
numpy's, whose +, -, * and / round as Python floats do.  Its functions
apply ``math``'s to each element, not numpy's ufuncs: on x86-64 with
AVX-512, numpy's SIMD sinh, asinh, cosh and acosh differ from libm in the
last bits on 15-30% of 200,000 arguments.

An expression is a pure formula: it uses of its backend only the
functions it names, and never refuses a value.  The two evaluators
refuse one that leaves the range of double precision: ``_evaluate`` at
one point, ``_over_array`` over float64 arrays.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, real

# Digits used by the extended-precision mode.
EXTENDED_DPS = 50

# Width threshold of the collar lemma: a primitive closed geodesic shorter
# than 2*arsinh(1) has an embedded collar of half-width collar_width(l).
TWO_ARSINH_ONE = 2.0 * math.asinh(1.0)

# Collar-shrinking parameters: trimming the full half-width by
# SHRINK_MARGIN keeps the boundary circles short relative to the width
# for every core length below SHORT_CORE_THRESHOLD
# (bounds.collar_constants_check).
SHRINK_MARGIN = 1.3
SHORT_CORE_THRESHOLD = 0.25


@functools.cache
def _extended_backend():
    """The mpmath context at EXTENDED_DPS digits, and the constructor of
    global-context ``mpf``s from a value's ``_mpf_``."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = EXTENDED_DPS
    return ctx, mpmath.mp.make_mpf


def _extended(expr, *args):
    """Evaluate ``expr`` at EXTENDED_DPS digits: an ``mpf``, or a tuple of
    them, of mpmath's global context, bit for bit the value that the
    global context would give at EXTENDED_DPS digits."""
    ctx, make_mpf = _extended_backend()
    value = expr(ctx, *map(ctx.mpf, args))
    if isinstance(value, tuple):
        return tuple(make_mpf(v._mpf_) for v in value)
    return make_mpf(value._mpf_)


def _per_element(f):
    """math's ``f`` applied to each element of a 1-d float64 array."""
    def apply(a):
        return np.fromiter(map(f, a.tolist()), np.float64, a.size)
    return apply


ARRAYS = SimpleNamespace(
    sinh=_per_element(math.sinh), asinh=_per_element(math.asinh),
    cosh=_per_element(math.cosh), log=_per_element(math.log))


def _over_array(expr, one, *args):
    """``expr`` over float64 arrays through ``ARRAYS``; or, where a value
    leaves the range of double precision, ``one`` at each value of the
    last argument in turn, whose refusal names the first.

    numpy's overflow and division by zero give inf here without a
    warning; an inf anywhere in the result counts as out of range.
    """
    try:
        with np.errstate(divide="ignore", over="ignore"):
            out = expr(ARRAYS, *args)
        if np.isfinite(out).all():
            return out
    except OverflowError:  # a Python int too large for a float
        pass
    *fixed, values = args  # a column per value where ``one`` gives tuples
    return np.array([one(*fixed, v) for v in values.tolist()]).T


def _collar_width(m, length):
    # float64 runs out of range where 1/sinh(length/2) overflows (length
    # below about 1e-308, or length/2 rounds to 0) or sinh itself
    # overflows (length above 1420)
    return m.asinh(1 / m.sinh(length / 2))


def _evaluate(expr, names: str, extended: bool, *args):
    """``expr`` at ``args`` over mpmath with ``extended``, else over
    ``math``, refused with DomainError where that value is not finite:
    math's sinh or cosh raises OverflowError, a division by a value that
    rounds to 0 raises ZeroDivisionError, a product rounds to inf, or
    cosh*cosh - sinh*sinh to inf - inf."""
    if extended:
        return _extended(expr, *args)
    try:
        value = expr(math, *args)
    except (OverflowError, ZeroDivisionError):
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
