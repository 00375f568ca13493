"""Exception types raised by the geometry layers.

Every failure mode gets its own class so callers can tell apart bad
numbers, degenerate figures and genuinely infeasible requests.
"""


class GeometryError(ValueError):
    """Base class for all geometry failures."""


class InvalidPointError(GeometryError):
    """Coordinates do not satisfy the model membership equation."""


class OutOfModelError(GeometryError):
    """Disk coordinates on or outside the unit circle."""


class DegenerateInputError(GeometryError):
    """Coincident points, identical curves or collapsed figures."""


class DomainError(GeometryError):
    """Arguments outside the supported range of an operation."""


class InfeasibleInputError(GeometryError):
    """Six lengths whose ratio-sum relation residual is too large."""


class InfeasibleGeometryError(GeometryError):
    """No figure realizes the request (Heron radicand, sine bound)."""


class InfeasibleAreaError(GeometryError):
    """Target area outside the attainable range of a base."""
