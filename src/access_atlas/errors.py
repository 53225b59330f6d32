"""Exception types shared across the toolkit.

Every error raised by this package derives from AccessAtlasError, so callers
can catch the whole family at once. The CLI maps errors to exit codes by
pipeline stage, not by type.
"""


class AccessAtlasError(Exception):
    """Base class for all errors raised by access_atlas."""


class DomainError(AccessAtlasError):
    """An argument violates a documented precondition."""


class DegenerateGeometry(AccessAtlasError):
    """A polygon is structurally invalid (too few vertices, zero area, ...)."""


class SchemaError(AccessAtlasError):
    """An input file violates its declared schema."""


class RangeError(AccessAtlasError):
    """A parsed value lies outside its allowed range."""


class SnapError(AccessAtlasError):
    """No road node lies within the snapping radius of a point.

    distance_m is the distance from the point to its nearest node.
    """

    def __init__(self, message: str, distance_m: float):
        super().__init__(message)
        self.distance_m = distance_m


class EmptyTableError(AccessAtlasError):
    """Every tract was dropped; no rows remain to analyze."""


class ConstantColumnError(AccessAtlasError):
    """A variable has zero variance and cannot be standardized."""


class NumericalError(AccessAtlasError):
    """An iterative numerical routine failed to converge."""


class ConfigError(AccessAtlasError):
    """A run configuration is invalid."""
