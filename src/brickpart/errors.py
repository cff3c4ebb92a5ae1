"""Exception types shared across the package."""


class BrickError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(BrickError):
    """Interval constructed with lo >= hi (zero or negative length)."""


class DimensionMismatch(BrickError):
    """Objects of different ambient dimensions were combined."""


class BrickOutsideParent(BrickError):
    """Bricks strictly outside the parent; `members` holds their indices, ascending."""

    def __init__(self, message: str, members: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.members = members


class BadAxis(BrickError):
    """Axis index outside 1..d."""


class BadCodimension(BrickError):
    """Number of free axes outside 1..d-1."""


class QueryOutsideParent(BrickError):
    """A flat's fixed coordinate lies outside the parent brick."""


class BadK(BrickError):
    """Parameter k below the family's minimum."""


class ConstructionInvalid(BrickError):
    """A generator's self-verification failed; signals an implementation bug."""


class ResourceLimit(BrickError):
    """A search ran out of its node budget, flat counts would pass their cell cap
    or numpy 2's limit of 64 array axes, or validation its cap on box corners."""


class ParseError(BrickError):
    """Malformed partition document."""


class BadDimensionForFormat(BrickError):
    """Export format does not support the partition's dimension."""
