"""Exception types shared across the toolkit."""


class GeometryError(Exception):
    """Base class for geometric and numerical failures."""


class CharacteristicPointError(GeometryError):
    """The tangent plane coincides with the horizontal plane; no adapted frame exists."""


class DegenerateParametrizationError(GeometryError):
    """The coordinate tangents (f_u, f_v) fail to span a plane."""


class NonTransverseError(GeometryError):
    """A curve tangent has no f3 component (b = 0), so limit quantities are undefined."""


class NonFiniteError(GeometryError, ValueError):
    """A point coordinate or frame coefficient is not finite (say, a chart value overflowed)."""


class DomainViolationError(GeometryError):
    """A parameter value lies outside the existence domain of a profile."""


class QuadratureError(GeometryError):
    """Adaptive integration could not reach the requested tolerance."""
