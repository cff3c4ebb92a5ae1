"""Exception types shared across the package.

Each error about an input or a parameter (an unusable document, a bad k,
axis, codimension, query or export format) is also a `ValueError`; the CLI
exits 2 on a `ValueError` and 1 on any other `BrickError`.
"""


class BrickError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(BrickError, ValueError):
    """Interval constructed with lo >= hi (zero or negative length)."""


class DimensionMismatch(BrickError, ValueError):
    """Objects of different ambient dimensions were combined."""


class BrickOutsideParent(BrickError):
    """Bricks strictly outside the parent; `members` holds their indices, ascending."""

    def __init__(self, message: str, members: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.members = members


class BadAxis(BrickError, ValueError):
    """Axis index outside 1..d."""


class BadCodimension(BrickError, ValueError):
    """Number of free axes outside 1..d-1."""


class QueryOutsideParent(BrickError, ValueError):
    """A flat's fixed coordinate lies outside the parent brick."""


class BadK(BrickError, ValueError):
    """Parameter k below the family's minimum."""


class ConstructionInvalid(BrickError):
    """A generator's self-verification failed; signals an implementation bug."""


class ResourceLimit(BrickError):
    """A search ran out of its node budget, flat counts would pass their cell cap
    or numpy 2's limit of 64 array axes, or a corner reader its cap on box corners."""


class ParseError(BrickError, ValueError):
    """Malformed partition document."""


class BadDimensionForFormat(BrickError, ValueError):
    """Export format does not support the partition's dimension."""
