"""Exception types shared across the package.

One refusal type per kind of input: a bad parameter raises a plain `ValueError`
("<field>: <reason>" from an API refusing a named field, reported under the
field's flag); a bad document raises `ParseError` naming its place, and only
`parse_document` raises it; a resource cap raises `ResourceLimit`; an internal
bug raises `ConstructionInvalid`; a float coordinate or any non-integer count
or axis, as in Python, `TypeError`. The CLI exits 2 on a `ValueError`
(`ParseError` is one), 1 on any other `BrickError`.
"""


class BrickError(Exception):
    """Base class for all errors raised by this package."""


class BrickOutsideParent(BrickError):
    """Bricks strictly outside the parent; `members` holds their indices, ascending."""

    def __init__(self, message: str, members: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.members = members


class ConstructionInvalid(BrickError):
    """A generator's self-verification failed; signals an implementation bug."""


class ResourceLimit(BrickError):
    """A search ran out of its node budget, flat counts would pass their cell cap
    or numpy 2's limit of 64 array axes, or a corner reader its cap on box corners."""


class ParseError(BrickError, ValueError):
    """Malformed partition document."""
