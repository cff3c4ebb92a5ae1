"""Exact geometric primitives: rational scalars, closed intervals, bricks,
and the compressed breakpoint grids everything downstream is evaluated on.

Every coordinate is a `fractions.Fraction`; no operation in this package
introduces floating point. Bricks are closed sets ("intersects" always means
nonempty intersection of closed sets), and intervals are nondegenerate by
construction.

Coordinates are compared once, when `build_grid` compresses each axis to the
ranks of its sorted distinct endpoints and every member to an integer index
box. Cover counts then come from one source, `_corners`: the members' signed
index-box corners over some of the axes. It has a dense reader, `cell_counts`
(a summed-area table over a projection: the flat counts), and a sparse one,
`first_bad_cell` (the first point where the corners do not cancel: validation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BrickOutsideParent, DegenerateInterval, DimensionMismatch, ParseError, ResourceLimit
)

Point = tuple[Fraction, ...]
ScalarLike = Fraction | int | str
IndexBox = tuple[tuple[int, int], ...]  # half-open (lo, hi) cell-index range per axis


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce ints, Fractions, and strings ("3", "0.5", "2/7") to exact scalars.

    Strings follow the document grammar of `parse_scalar`. Floats are
    rejected: they would silently break exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "floating-point coordinates are not allowed; pass Fraction, int, or str"
        )
    if isinstance(value, str):
        return parse_scalar(value)
    return Fraction(value)


def _decimal_places(den: int) -> int | None:
    """Digits needed for a terminating decimal, or None if non-terminating."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def format_scalar(x: ScalarLike) -> str:
    """Canonical text form of an exact scalar.

    Integers render bare ("3"), rationals whose denominator divides a power
    of ten as terminating decimals ("0.5"), everything else as "p/q".
    """
    x = as_scalar(x)
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    places = _decimal_places(den)
    if places is None:
        return f"{num}/{den}"
    digits = abs(num) * 10**places // den
    whole, frac = divmod(digits, 10**places)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(places).rstrip('0')}"


# -digits, -digits.digits or -digits/digits with a nonzero denominator
_SCALAR = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+)|/(0*[1-9][0-9]*))?")
MAX_SCALAR_DIGITS = 4300  # Python's default int <-> str limit, so format_scalar's too


def parse_scalar(text: str) -> Fraction:
    """Inverse of format_scalar: "3", "-0.25" or "p/q" with q nonzero.

    Anything else (a "+" sign, spaces, an exponent, "_") or a digit run longer
    than MAX_SCALAR_DIGITS raises ParseError.
    """
    match = _SCALAR.fullmatch(text)
    if match is None or max(len(run or "") for run in match.groups()) > MAX_SCALAR_DIGITS:
        raise ParseError(f"not an integer, decimal or p/q scalar: {text[:40]!r}")
    sign, whole, frac, den = match.groups()
    num, den = int(whole), int(den or 1)
    if frac:
        num, den = num * 10 ** len(frac) + int(frac), 10 ** len(frac)
    return Fraction(-num if sign else num, den)


@dataclass(frozen=True)
class Interval:
    """Closed nondegenerate interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_scalar(self.lo))
        object.__setattr__(self, "hi", as_scalar(self.hi))
        if self.lo >= self.hi:
            raise DegenerateInterval(
                f"need lo < hi, got [{format_scalar(self.lo)}, {format_scalar(self.hi)}]"
            )

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: ScalarLike) -> bool:
        return self.lo <= as_scalar(x) <= self.hi

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def __repr__(self) -> str:
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"


@dataclass(frozen=True)
class Brick:
    """Product of closed intervals: an axis-aligned box with nonempty interior."""

    sides: tuple[Interval, ...]

    def __post_init__(self) -> None:
        sides = tuple(self.sides)
        if not sides:
            raise DimensionMismatch("a brick needs at least one side")
        object.__setattr__(self, "sides", sides)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[ScalarLike]]) -> "Brick":
        """Build from [(lo, hi), ...] pairs, one per axis."""
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for s in self.sides:
            v *= s.length
        return v

    def as_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(s.as_pair() for s in self.sides)

    def contains_point(self, point: Sequence[ScalarLike]) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, brick has dimension {self.dim}"
            )
        return all(s.contains(c) for s, c in zip(self.sides, point))

    def corners(self) -> Iterator[Point]:
        yield from product(*(s.as_pair() for s in self.sides))

    def replace_side(self, axis_index: int, interval: Interval) -> "Brick":
        """Copy with the 0-based axis_index side replaced."""
        sides = list(self.sides)
        sides[axis_index] = interval
        return Brick(tuple(sides))

    def translate(self, offset: Sequence[ScalarLike]) -> "Brick":
        if len(offset) != self.dim:
            raise DimensionMismatch("offset dimension differs from brick dimension")
        return Brick(
            tuple(
                Interval(s.lo + as_scalar(o), s.hi + as_scalar(o))
                for s, o in zip(self.sides, offset)
            )
        )

    def __repr__(self) -> str:
        return "x".join(repr(s) for s in self.sides)


@dataclass(frozen=True)
class BreakpointGrid:
    """A brick set compressed to rank space.

    axes[a] holds the sorted distinct endpoints on axis a, parent's included;
    the open boxes between consecutive ones are the elementary cells.
    boxes[i][a] = (rank of lo, rank of hi) is member i's half-open cell-index
    range on axis a, and the member covers exactly the cells inside its box.
    """

    axes: tuple[tuple[Fraction, ...], ...]
    boxes: tuple[IndexBox, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of elementary cells per axis."""
        return tuple(len(a) - 1 for a in self.axes)

    def cell_midpoint(self, axis_index: int, i: int) -> Fraction:
        a = self.axes[axis_index]
        return (a[i] + a[i + 1]) / 2

    def midpoint(self, cell: Sequence[int]) -> Point:
        """Exact midpoint representative of an elementary cell."""
        return tuple(self.cell_midpoint(a, i) for a, i in enumerate(cell))


def build_grid(parent: Brick, bricks: Iterable[Brick]) -> BreakpointGrid:
    """Compress a brick set inside a parent to rank space.

    Sorts the distinct endpoints of each axis (the parent's included) and maps
    every brick to its integer index box; a box that passes the parent's ranks
    on some axis raises BrickOutsideParent, which carries every such index.
    """
    bricks = tuple(bricks)
    for idx, b in enumerate(bricks):
        if b.dim != parent.dim:
            raise DimensionMismatch(f"brick {idx} has dimension {b.dim}, parent has {parent.dim}")
    axes, spans = [], []
    for a in range(parent.dim):
        # each endpoint is keyed by its (numerator, denominator) pair, which
        # hashes and compares much faster than a Fraction
        ends = [
            (s.lo.as_integer_ratio(), s.hi.as_integer_ratio())
            for s in (b.sides[a] for b in (parent, *bricks))
        ]
        axis = sorted(Fraction(*r) for r in set(chain.from_iterable(ends)))
        rank = {x.as_integer_ratio(): i for i, x in enumerate(axis)}
        axes.append(tuple(axis))
        spans.append([(rank[lo], rank[hi]) for lo, hi in ends])
    parent_box, *boxes = zip(*spans)
    # every brick is inside iff the parent's ranks are each axis's extremes
    if any(pair != (0, len(axis) - 1) for pair, axis in zip(parent_box, axes)):
        leaves = [[lo < p or hi > q for (lo, hi), (p, q) in zip(box, parent_box)] for box in boxes]
        outside = tuple(idx for idx, out in enumerate(leaves) if any(out))
        idx, a = outside[0], leaves[outside[0]].index(True)
        side, pside = bricks[idx].sides[a], parent.sides[a]
        raise BrickOutsideParent(
            f"brick {idx} axis {a + 1} interval {side!r} leaves parent {pside!r}", outside
        )
    return BreakpointGrid(tuple(axes), tuple(boxes))


_MAX_CORNERS = 1 << 23  # signed corners first_bad_cell may hold


def _corners(grid: BreakpointGrid, axes: Sequence[int]) -> Iterator:
    """Yield the number of the members' signed index-box corners over the
    given 0-based axes (ascending), then their coordinate columns (int32) and
    signs (int8). A half-open box's indicator is the sum of [v <= p] over its
    corners v, signed -1 per hi end taken; corners with a hi end at the
    grid's far side lie past every cell and are dropped."""
    axes, d = list(axes), len(grid.shape)
    ends = chain.from_iterable(chain.from_iterable(grid.boxes))
    # fromiter is 3x faster than np.array; int32 holds the ranks of up to 2^30 boxes
    boxes = np.fromiter(ends, np.int32, 2 * d * len(grid.boxes)).reshape(-1, d, 2)[:, axes]
    lo, hi = boxes[:, :, 0], boxes[:, :, 1]
    inner = hi < np.array(grid.shape)[axes]  # the axes whose hi end is inside the grid
    yield sum(int(n) << j for j, n in enumerate(np.bincount(inner.sum(axis=1))))

    owner, sign, coords = np.arange(len(boxes), dtype=np.int32), np.ones(len(boxes), np.int8), []
    for a in range(len(axes)):  # each corner so far, then its twin at hi on axis a
        twin = inner[owner, a]
        for i in range(len(coords)):  # one column at a time
            coords[i] = np.concatenate([coords[i], coords[i][twin]])
        coords.append(np.concatenate([lo[owner, a], hi[owner[twin], a]]))
        owner, sign = np.concatenate([owner, owner[twin]]), np.concatenate([sign, -sign[twin]])
    del boxes, lo, hi, inner, owner, twin
    yield coords, sign


def cell_counts(grid: BreakpointGrid, axes: Sequence[int]) -> np.ndarray:
    """Members covering each cell of the grid's projection onto the given
    0-based axes (ascending), as an int32 array in C order: the members'
    signed corners scattered into it and summed along each axis in turn (a
    summed-area table). The array holds every cell of the projection, so
    `min_flat_count` caps the projections it asks for.
    """
    _, (coords, sign) = _corners(grid, axes)
    counts = np.zeros(tuple(grid.shape[a] for a in axes), dtype=np.int32)
    np.add.at(counts, tuple(coords), sign)
    for a in range(counts.ndim):
        np.cumsum(counts, axis=a, dtype=np.int32, out=counts)
    return counts


def first_bad_cell(grid: BreakpointGrid) -> tuple[int, ...] | None:
    """The lexicographically first cell not covered exactly once, or None.

    E, the members' signed corners minus the parent's origin, sums over the
    points <= a cell to its cover count minus one, so the boxes tile the grid
    iff E is zero at every point. Otherwise the first point with E != 0 is
    the first bad cell: every point <= it lies before it. Raises
    ResourceLimit, before building any corner array, above _MAX_CORNERS.
    """
    corners = _corners(grid, range(len(grid.shape)))
    count = next(corners) + 1  # and the parent's origin
    if count > _MAX_CORNERS:
        raise ResourceLimit(f"validation over {count} corners exceeds the cap of {_MAX_CORNERS}")
    ((coords, sign),) = corners  # runs the generator to its end, releasing its boxes
    for i in range(len(coords)):  # indexed: no loop variable keeps an old column alive
        coords[i] = np.append(coords[i], np.int32(0))
    order = np.lexsort(coords[::-1])  # axis 0 the primary key
    for i in range(len(coords)):  # one column at a time: no second copy of them all
        coords[i] = coords[i][order]
    sign = np.append(sign, np.int8(-1))[order]
    del order
    new = np.logical_or.reduce([c[1:] != c[:-1] for c in coords])
    starts = np.flatnonzero(np.concatenate([[True], new]))  # each distinct point's first
    # summed in int64: int8 signs would wrap at 128 members on one corner
    bad = np.flatnonzero(np.add.reduceat(sign, starts, dtype=np.int64))
    return None if len(bad) == 0 else tuple(int(c[starts[bad[0]]]) for c in coords)
