"""Partition construction, validation, refinement, and the parent-boundary
incidence statistics used by the slicing lower-bound diagnostics.

Validation is a complete exact check: over the joint breakpoint grid, every
elementary cell must contain exactly one member's closed brick at its
midpoint. A closed brick contains a cell midpoint iff it covers the whole
cell, as no endpoint falls strictly inside a cell. Building the partition's
grid (once, shared with the flat counts) finds members outside the parent;
`geometry.first_bad_cell` then finds the first cell not covered exactly once
from the members' signed index-box corners, with no cell array. The members
covering that cell and the boundary incidences are array expressions over
the grid's read-only int32 index boxes, returned as Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import BrickOutsideParent, ConstructionInvalid
from .geometry import BreakpointGrid, Brick, Interval, Point, build_grid, first_bad_cell


@dataclass(frozen=True)
class BrickPartition:
    """A parent brick together with members intended to tile it exactly.

    Construction checks only cheap structural facts (nonempty members,
    uniform dimension, one printable label per member when labels are given);
    geometric validity is established by `validate`. The compressed grid is
    built on first use and kept with the partition.
    """

    parent: Brick
    members: tuple[Brick, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("a partition needs at least one member")
        dim = self.parent.dim
        for m in members:
            if len(m.sides) != dim:
                raise ValueError(f"member dimension {m.dim} differs from parent dimension {dim}")
        object.__setattr__(self, "members", members)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(members):
                raise ValueError(f"labels: {len(labels)} labels for {len(members)} members")
            for i, label in enumerate(labels):
                if not (isinstance(label, str) and label.isprintable()):  # no OBJ line injection
                    raise ValueError(f"labels[{i}]: expected printable text, got {label!r}")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.parent.dim

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def grid(self) -> BreakpointGrid:
        return build_grid(self.parent, self.members)


class FailureKind(Enum):
    OVERLAP = "overlap"
    GAP = "gap"
    OUTSIDE_PARENT = "outside_parent"


@dataclass(frozen=True)
class Failure:
    """One validation failure with an exact witness.

    Gap/overlap failures carry the lexicographically first failing cell's
    midpoint; overlap failures additionally carry the covering member
    indices, outside-parent failures the offending member index.
    """

    kind: FailureKind
    point: Point | None = None
    members: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[Failure, ...] = ()


def validate(P: BrickPartition) -> ValidationReport:
    """Exact cover check of a partition's members against its parent.

    Members outside the parent, found while the partition's grid is built,
    are each an OutsideParent failure, in member order. Otherwise every
    elementary cell of the grid must lie in exactly one member: a cell in none
    is a Gap, in two or more an Overlap (the first failing cell in
    lexicographic order reported, with the members covering it).

    Raises ResourceLimit, before building any corner array, when the members'
    signed corners pass the cap that geometry._corners states.
    """
    try:
        grid = P.grid
    except BrickOutsideParent as e:
        return ValidationReport(
            False, tuple(Failure(FailureKind.OUTSIDE_PARENT, None, (i,)) for i in e.members)
        )
    cell = first_bad_cell(grid)
    if cell is None:
        return ValidationReport(True)
    lo, hi = grid.boxes[:, :, 0], grid.boxes[:, :, 1]
    covering = tuple(np.flatnonzero(((lo <= cell) & (cell < hi)).all(axis=1)).tolist())
    kind = FailureKind.GAP if not covering else FailureKind.OVERLAP
    return ValidationReport(False, (Failure(kind, grid.midpoint(cell), covering),))


def cut(b: Brick, axis: int, n: int) -> list[Brick]:
    """Split b into n equal-length pieces along the 1-based axis.

    Point i is (p·t·(n-i) + r·q·i)/(q·t·n), lo = p/q, hi = r/t; n = 1 returns [a copy of b].
    """
    if not 1 <= axis <= b.dim:
        raise ValueError(f"axis {axis} outside 1..{b.dim}")
    if n < 1:
        raise ValueError("piece count must be >= 1")
    side = b.sides[axis - 1]
    (p, q), (r, t) = side.lo.as_integer_ratio(), side.hi.as_integer_ratio()
    points = [Fraction(p * t * (n - i) + r * q * i, q * t * n) for i in range(n + 1)]
    return [
        b.replace_side(axis - 1, Interval(points[i], points[i + 1])) for i in range(n)
    ]


def refine(
    P: BrickPartition, plan: Iterable[tuple[int, int, int]]
) -> BrickPartition:
    """Replace planned members with their cut pieces, keeping member order.

    plan entries are (member_index, axis, pieces) with 0-based distinct
    member indices and 1-based axes. The result is validated before return
    (which builds and keeps its grid);
    a failure means a bug in the caller's partition and raises
    ConstructionInvalid. Labeled members pass their label to pieces as
    "label.1", "label.2", ...
    """
    plan = list(plan)
    by_index = {i: (axis, n) for i, axis, n in plan}
    if len(by_index) != len(plan):
        raise ValueError("plan member indices must be distinct")
    for i, _, _ in plan:
        if not 0 <= i < len(P.members):
            raise ValueError(f"plan index {i} outside 0..{len(P.members) - 1}")

    new_members: list[Brick] = []
    new_labels: list[str] = []
    for i, b in enumerate(P.members):
        axis, n = by_index.get(i, (None, 1))
        new_members.extend([b] if axis is None else cut(b, axis, n))
        if P.labels is not None:
            label = P.labels[i]
            new_labels.extend([label] if n == 1 else [f"{label}.{j}" for j in range(1, n + 1)])

    refined = BrickPartition(
        P.parent, tuple(new_members), tuple(new_labels) if P.labels is not None else None
    )
    report = validate(refined)
    if not report.valid:
        raise ConstructionInvalid(
            f"refinement produced an invalid partition: {report.failures[0]}"
        )
    return refined


@dataclass(frozen=True)
class IncidenceReport:
    """Boundary incidence f(b) per member, its sum F, and alpha.

    f(b) counts the parent boundary hyperplanes touched by b (0..2d);
    alpha is the number of members with f(b) = 4, the quantity of interest
    in three dimensions.
    """

    per_member: tuple[int, ...]
    total: int
    alpha: int


def boundary_incidence(P: BrickPartition) -> IncidenceReport:
    """Count, per member, the parent boundary hyperplanes it touches (index box
    ends at rank 0 or at the last rank); raises BrickOutsideParent for strays."""
    f = tuple((P.grid.boxes == [(0, n) for n in P.grid.shape]).sum(axis=(1, 2)).tolist())
    return IncidenceReport(f, sum(f), f.count(4))
