"""Exception types shared by the geometry modules."""


class GeometryError(ValueError):
    """Base class for invalid geometric input."""


class DomainError(GeometryError):
    """Numeric argument outside a function's domain."""


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
