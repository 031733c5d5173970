"""Exception types shared by the geometry modules, the two checks
through which every numeric argument of the library passes, and the one
way their messages quote a value."""

import math
import numbers
import reprlib
import sys


class GeometryError(ValueError):
    """Base class for invalid geometric input.  ``pair`` is the index of
    the arc pair that ``cylinder.crossing_batch_cyl`` refuses, None for
    every other error."""

    pair = None


class DomainError(GeometryError):
    """Numeric argument outside a function's domain."""


class NumberTypeError(DomainError, TypeError):
    """Numeric argument of the wrong type, a TypeError as well."""


class DegenerateInputError(GeometryError):
    """Input collapses the construction: zero or proportional homology
    classes, identical arcs, a rank-deficient lattice basis."""


class ModeError(GeometryError):
    """Collar mode incompatible with the requested core length."""


class EmptySearchError(GeometryError):
    """The search radius contains no candidate classes."""


class CutoffTooSmallError(EmptySearchError):
    """No pair with the requested intersection number inside the cutoff."""


class RejectedInputError(GeometryError):
    """Winding data violates the simple-curve preconditions."""


class RetrySignal(RuntimeError):
    """A crossing oracle hit a near-degenerate configuration.

    Not an input error: the caller is expected to re-randomize the free
    parameter (base-point offset, entry position) and try again.
    """


def quote(value) -> str:
    """``value`` quoted short for an error message, by ``reprlib.repr``.
    An int with more digits than Python converts to a string
    (``sys.get_int_max_str_digits``) is quoted by its sign and that
    limit, without a conversion, which would raise ValueError."""
    try:
        return reprlib.repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return (f"{'-' if value < 0 else ''}<an integer of more than "
                f"{sys.get_int_max_str_digits()} digits>")


def real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, or DomainError unless it is a real number,
    not a bool, finite in double precision and, if ``positive``, > 0."""
    x, error = value, DomainError
    if type(x) is not float:  # the common case skips the ABC test
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            x, error = math.nan, NumberTypeError
        else:
            try:
                x = float(x)
            except OverflowError:
                x = math.inf
    if math.isfinite(x) and (not positive or x > 0.0):
        return x
    raise error(f"{name} must be a {'positive ' if positive else ''}finite "
                f"real, got {quote(value)}")


def integer(name: str, value, minimum=None) -> int:
    """``value`` as an int, or DomainError unless it is an integer, not a
    bool, and at least ``minimum`` where one is given."""
    if type(value) is not int:  # the common case skips the ABC test
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise NumberTypeError(f"{name} must be an integer, "
                                  f"got {quote(value)}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, "
                          f"got {quote(value)}")
    return value
