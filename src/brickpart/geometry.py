"""Exact geometric primitives: rational scalars, closed intervals, bricks,
and the compressed breakpoint grids everything downstream is evaluated on.

Every coordinate is a `fractions.Fraction`; no operation in this package
introduces floating point, and `ratio_renderer` alone writes numbers as text,
at any length (the int <-> str digit limit is a rule on input). Bricks are
closed sets ("intersects" always means nonempty intersection of closed sets),
and intervals are nondegenerate by construction.

Coordinates are compared once, in integers, when `build_grid` compresses each
axis to the ranks of its distinct endpoints, sorted by floor(x·2^64) (Fractions
break ties), and every member to an integer index box; `Interval` checks lo < hi
by cross-multiplication. The boxes are one read-only int32 array of shape
(members, d, 2) that every reader slices. Cover counts then come from one
source, `_corners`: the members' signed index-box corners over some of the
axes, written into one array by one doubling step per axis, so in O(d) numpy
calls. It has a dense reader, `cell_counts` (a summed-area table over a
projection: the flat counts), and a sparse one, `first_bad_cell` (the first
point where the corners, less the parent's origin, do not cancel:
validation). The origin is the least point, so after the sort it is the
first group's or a gap of its own, and it is never appended as a corner.
"""

from __future__ import annotations

import decimal
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BrickOutsideParent, ResourceLimit

Point = tuple[Fraction, ...]
ScalarLike = Fraction | int | str


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce ints, Fractions, and strings ("3", "0.5", "2/7") to exact scalars.

    Strings follow `parse_scalar`'s grammar, and bad text raises its ValueError.
    Floats raise TypeError: they would silently break exactness.
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


def ratio_renderer(places: int) -> Callable[[int, int], str]:
    """Decimal text of num/den (den > 0, reduced or not) at the given places and
    any length, rounded half up: floor(num/den·10^p + 1/2) = (2·num·10^p + den) // (2·den)."""
    unit = 10**places

    def render(num: int, den: int) -> str:
        quantized = (2 * num * unit + den) // (2 * den)
        try:
            if not places:  # a whole number: the quotient's own digits, sign and all
                return f"{quantized}"
            whole, frac = divmod(abs(quantized), unit)
            return f"{'-' if quantized < 0 else ''}{whole}.{str(frac).zfill(places)}"
        except ValueError:  # str() refused an int past the limit; Decimal has none
            digits = str(decimal.Decimal(quantized)).zfill(places + 1 + (quantized < 0))
            return f"{digits[:-places]}.{digits[-places:]}" if places else digits

    return render


_whole = ratio_renderer(0)  # integers, the common case, and the terms of p/q


def format_scalar(x: ScalarLike) -> str:
    """Canonical text form of an exact scalar, by `ratio_renderer`.

    Integers render bare ("3"), rationals whose denominator divides a power
    of ten as terminating decimals ("0.5"), everything else as "p/q".
    """
    num, den = as_scalar(x).as_integer_ratio()
    if den == 1:
        return _whole(num, 1)
    places = _decimal_places(den)
    if places is None:
        return f"{_whole(num, 1)}/{_whole(den, 1)}"
    return ratio_renderer(places)(num, den)


# -digits, -digits.digits or -digits/digits with a nonzero denominator
_SCALAR = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+)|/(0*[1-9][0-9]*))?")
MAX_SCALAR_DIGITS = 4300  # Python's default int <-> str limit; export caps decimal places at it


def parse_scalar(text: str) -> Fraction:
    """Inverse of format_scalar: "3", "-0.25" or "p/q" with q nonzero.

    Anything else (a "+" sign, spaces, an exponent, "_") or a digit run over the
    interpreter's int <-> str limit raises ValueError; the document reader locates it.
    """
    match = _SCALAR.fullmatch(text)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if match is None or (  # no digit run is longer than the text
        limit and len(text) > limit and max(len(run or "") for run in match.groups()) > limit
    ):
        raise ValueError(f"not an integer, decimal or p/q scalar: {text[:40]!r}")
    sign, whole, frac, den = match.groups()
    if frac is None:
        return Fraction(int(sign + whole), int(den or 1))
    if limit and len(text) > limit:  # each digit run is within the limit, maybe not both
        num = int(whole) * 10 ** len(frac) + int(frac)
        return Fraction(-num if sign else num, 10 ** len(frac))
    return Fraction(int(text.replace(".", "")), 10 ** len(frac))  # every digit in one int()


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed nondegenerate interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            object.__setattr__(self, "lo", as_scalar(self.lo))
            object.__setattr__(self, "hi", as_scalar(self.hi))
        (p, q), (r, t) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        if p * t >= r * q:  # lo >= hi, as denominators are positive
            raise ValueError(
                f"need lo < hi, got [{format_scalar(self.lo)}, {format_scalar(self.hi)}]"
            )

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: ScalarLike) -> bool:
        return self.lo <= as_scalar(x) <= self.hi

    def __repr__(self) -> str:
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"


@dataclass(frozen=True, slots=True)
class Brick:
    """Product of closed intervals: an axis-aligned box with nonempty interior."""

    sides: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if type(self.sides) is not tuple:
            object.__setattr__(self, "sides", tuple(self.sides))
        if not self.sides:
            raise ValueError("a brick needs at least one side")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[ScalarLike]]) -> "Brick":
        """Build from [(lo, hi), ...] pairs, one per axis."""
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @property
    def dim(self) -> int:
        return len(self.sides)

    def contains_point(self, point: Sequence[ScalarLike]) -> bool:
        if len(point) != self.dim:
            raise ValueError(
                f"point has {len(point)} coordinates, brick has dimension {self.dim}"
            )
        return all(s.contains(c) for s, c in zip(self.sides, point))

    def replace_side(self, axis_index: int, interval: Interval) -> "Brick":
        """Copy with the 0-based axis_index side replaced."""
        sides = list(self.sides)
        sides[axis_index] = interval
        return Brick(tuple(sides))

    def translate(self, offset: Sequence[ScalarLike]) -> "Brick":
        if len(offset) != self.dim:
            raise ValueError("offset dimension differs from brick dimension")
        return Brick(
            tuple(
                Interval(s.lo + as_scalar(o), s.hi + as_scalar(o))
                for s, o in zip(self.sides, offset)
            )
        )

    def __repr__(self) -> str:
        return "x".join(repr(s) for s in self.sides)


@dataclass(frozen=True, eq=False)
class BreakpointGrid:
    """A brick set compressed to rank space.

    axes[a] holds the sorted distinct endpoints on axis a, parent's included;
    the open boxes between consecutive ones are the elementary cells.
    boxes, a read-only C-order int32 array of shape (members, d, 2), holds member
    i's half-open cell-index range on axis a, (rank of lo, rank of hi), at [i, a].
    """

    axes: tuple[tuple[Fraction, ...], ...]
    boxes: np.ndarray

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
            raise ValueError(f"brick {idx} has dimension {b.dim}, parent has {parent.dim}")
    # the parent's box first; int32 holds the ranks of up to 2^30 boxes
    axes, boxes = [], np.empty((1 + len(bricks), parent.dim, 2), np.int32)
    for a in range(parent.dim):
        # x <= y gives floor(x·2^64) <= floor(y·2^64), so (that floor, x) sorts as x does,
        # comparing Fractions only on equal floors, so |x - y| < 2^-64; ratios hash fast
        xs = [x for b in (parent, *bricks) for x in (b.sides[a].lo, b.sides[a].hi)]
        ratios = [x.as_integer_ratio() for x in xs]
        value = dict(zip(ratios, xs))  # each distinct ratio -> a member's own Fraction
        axis = sorted(((p << 64) // q, x, (p, q)) for (p, q), x in value.items())
        rank = {r: i for i, (_, _, r) in enumerate(axis)}
        axes.append(tuple(x for _, x, _ in axis))
        boxes[:, a] = np.reshape([rank[r] for r in ratios], (-1, 2))  # (lo, hi) rows
    parent_box, boxes = boxes[0], boxes[1:]
    leaves = (boxes[:, :, 0] < parent_box[:, 0]) | (boxes[:, :, 1] > parent_box[:, 1])
    outside = tuple(np.flatnonzero(leaves.any(axis=1)).tolist())
    if outside:
        idx, a = outside[0], int(leaves[outside[0]].argmax())
        side, pside = bricks[idx].sides[a], parent.sides[a]
        raise BrickOutsideParent(
            f"brick {idx} axis {a + 1} interval {side!r} leaves parent {pside!r}", outside
        )
    boxes.flags.writeable = False  # the partition caches its grid
    return BreakpointGrid(tuple(axes), boxes)


# A corner costs one int32 coordinate per axis, so `_corners` over j axes
# refuses more than corner_cap(j) signed corners: a constant byte budget
# above three axes, and 2^23 corners at up to three.
_MAX_CORNERS = 1 << 23
_GATHER = 1 << 16  # corner coordinates copied by one numpy call in _corners


def corner_cap(axes: int) -> int:
    """The most signed corners that `_corners` builds over this many axes."""
    return _MAX_CORNERS * 3 // max(3, axes)


def _corners(
    grid: BreakpointGrid, axes: list[int], refusal: str, spare: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The members' signed index-box corners over the given 0-based axes
    (ascending): their coordinates, one int32 row per axis, and their int8
    signs. A half-open box's indicator is the sum of [v <= p] over its
    corners v, signed -1 per hi end taken; corners with a hi end at the
    grid's far side lie past every cell and are dropped. Raises ResourceLimit,
    before building any corner array, with `refusal` formatted with the total
    and the cap, when they and `spare` more (validation's parent origin) pass
    the cap above.
    """
    inner = grid.boxes[:, axes, 1] < np.array(grid.shape, np.int32)[axes]
    count = sum(int(n) << j for j, n in enumerate(np.bincount(inner.sum(axis=1))))
    if count + spare > (cap := corner_cap(len(axes))):
        raise ResourceLimit(refusal.format(count + spare, cap))
    n, coords, sign = len(inner), np.empty((len(axes), count), np.int32), np.ones(count, np.int8)
    owner = np.empty(count, np.int32)  # each corner's member
    coords[:, :n], owner[:n] = grid.boxes[:, axes, 0].T, np.arange(n)
    step = max(1, _GATHER // len(axes))  # twins copied per gather
    for a, axis in enumerate(axes):  # each corner so far, then its twin at hi on axis a
        twin = np.flatnonzero(inner[owner[:n], a])
        end = n + len(twin)
        for i in range(0, len(twin), step):  # a temporary of at most _GATHER coordinates
            part = twin[i:i + step]
            coords[:, n + i:n + i + len(part)] = coords[:, part]
        owner[n:end], sign[n:end] = owner[twin], -sign[twin]
        coords[a, n:end] = grid.boxes[owner[n:end], axis, 1]
        n = end
    return coords, sign


def cell_counts(grid: BreakpointGrid, axes: Sequence[int]) -> np.ndarray:
    """Members covering each cell of the grid's projection onto the given
    0-based axes (ascending), as an int32 array in C order: the members'
    signed corners scattered into it and summed along each axis in turn (a
    summed-area table). The array holds every cell of the projection, so
    `min_flat_count` caps the projections it asks for; `_corners` caps the
    corners.
    """
    axes = list(axes)
    coords, sign = _corners(grid, axes, "flat counts over {} corners exceed the cap of {}")
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
    the first bad cell: every point <= it lies before it. `_corners` caps
    the corners, the parent's origin counted.
    """
    axes = list(range(len(grid.shape)))
    refusal = "validation over {} corners exceeds the cap of {}"
    coords, sign = _corners(grid, axes, refusal, spare=1)  # and the parent's origin
    order = np.lexsort(coords[::-1])  # axis 0 the primary key
    for row in coords:  # one row at a time: no second copy of them all
        row[:] = row[order]
    sign = sign[order]
    del order
    if coords[:, 0].any():  # no member corner at the origin, the least point: E is -1 there
        return (0,) * len(axes)
    sign[0] -= 1  # the parent's origin
    new = (coords[:, 1:] != coords[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate([[True], new]))  # each distinct point's first
    # summed in int64: int8 signs would wrap at 128 members on one corner
    bad = np.flatnonzero(np.add.reduceat(sign, starts, dtype=np.int64))
    return None if len(bad) == 0 else tuple(coords[:, starts[bad[0]]].tolist())
