"""Piercing and slicing numbers via exact enumeration over grid cells.

A flat (axis-parallel line, plane, ...) meets a member iff on every fixed
axis its coordinate lies in the member's closed interval. Evaluating flats at
elementary-cell midpoints attains the global minimum over all flats: a flat
whose fixed coordinates sit on breakpoints meets a superset of the members
met by the flat of any adjacent cell, and flats strictly inside a cell meet
exactly the cell midpoint's members.

The flat counts over one choice of fixed axes are `cell_counts` on the
partition's grid, from the same signed corners `validate` reads, and
geometry._corners caps them, so a partition that was never validated cannot
ask for more; the projections are capped too: their cells (_MAX_FLAT_CELLS)
and their axes (_MAX_FLAT_AXES, numpy 2's limit of 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import index

import numpy as np

from .errors import ResourceLimit
from .geometry import as_scalar, cell_counts, format_scalar
from .partition import BrickPartition


@dataclass(frozen=True)
class FlatQuery:
    """An axis-parallel flat: free axes plus exact coordinates on the rest.

    Axes are 1-based ints (by operator.index: a float, Fraction or str axis
    raises TypeError); free and fixed axes must partition 1..d. One free axis
    is a line, d-1 free axes a hyperplane. fixed_coords takes (axis, coord)
    pairs in any order, kept sorted by axis, each coord coerced by as_scalar.
    """

    free_axes: tuple[int, ...]
    fixed_coords: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        free = tuple(sorted({index(a) for a in self.free_axes}))
        fixed = tuple(sorted((index(a), as_scalar(c)) for a, c in self.fixed_coords))
        if not free:
            raise ValueError("a flat needs at least one free axis")
        if not fixed:
            raise ValueError("a flat needs at least one fixed axis")
        axes = sorted(free + tuple(a for a, _ in fixed))
        if axes != list(range(1, len(axes) + 1)):
            raise ValueError("free and fixed axes must partition 1..d")
        object.__setattr__(self, "free_axes", free)
        object.__setattr__(self, "fixed_coords", fixed)

    @property
    def dim(self) -> int:
        return len(self.free_axes) + len(self.fixed_coords)


def hit_members(P: BrickPartition, q: FlatQuery) -> tuple[int, ...]:
    """Indices of members whose closed brick the flat meets."""
    if q.dim != P.dim:
        raise ValueError(f"query dimension {q.dim} differs from partition's {P.dim}")
    for a, c in q.fixed_coords:
        if not P.parent.sides[a - 1].contains(c):
            raise ValueError(
                f"axis {a} coordinate {format_scalar(c)} outside parent {P.parent.sides[a - 1]!r}"
            )
    return tuple(
        i
        for i, b in enumerate(P.members)
        if all(b.sides[a - 1].contains(c) for a, c in q.fixed_coords)
    )


def count_intersections(P: BrickPartition, q: FlatQuery) -> int:
    """Number of members met by the flat (closed-set semantics)."""
    return len(hit_members(P, q))


@dataclass
class FlatProfile:
    """Exact per-flat counts for every free-axis choice of a given size.

    counts maps each free-axes tuple to the array of member counts over the
    fixed axes' elementary cells (C-ordered, one entry per cell combination).
    The witness is the first flat attaining the minimum, in enumeration order
    (free-axis choices ascending, cells lexicographic), and reproduces the
    minimum when re-evaluated with count_intersections.
    """

    minimum: int
    witness: FlatQuery
    counts: dict[tuple[int, ...], np.ndarray]


_MAX_FLAT_CELLS = 1 << 26  # int32 counts kept by one profile: 256 MiB
_MAX_FLAT_AXES = 64  # numpy 2's array rank limit


def min_flat_count(P: BrickPartition, free_axis_count: int) -> FlatProfile:
    """Minimum member count over all axis-parallel flats with the given
    number of free axes, computed at elementary-cell midpoints.

    Raises ResourceLimit, before counting, when a projection has more than
    _MAX_FLAT_AXES axes or the profile's projections together hold more than
    _MAX_FLAT_CELLS cells, and from `cell_counts` when one projection's
    corners pass its cap.
    """
    d = P.dim
    if not 1 <= free_axis_count <= d - 1:
        raise ValueError(f"free axis count {free_axis_count} outside 1..{d - 1}")
    if d - free_axis_count > _MAX_FLAT_AXES:
        raise ResourceLimit(
            f"flat counts over {d - free_axis_count} axes exceed the cap of {_MAX_FLAT_AXES}"
        )
    grid = P.grid
    choices = list(combinations(range(1, d + 1), free_axis_count))
    cells = sum(prod(n for a, n in enumerate(grid.shape, 1) if a not in free) for free in choices)
    if cells > _MAX_FLAT_CELLS:
        raise ResourceLimit(f"flat counts over {cells} cells exceed the cap of {_MAX_FLAT_CELLS}")

    counts = {
        free: cell_counts(grid, [a for a in range(d) if a + 1 not in free]) for free in choices
    }
    free = min(choices, key=lambda f: counts[f].min())  # the first with the least minimum
    cell = np.unravel_index(int(counts[free].argmin()), counts[free].shape)  # first in C order
    fixed_axes = [a for a in range(1, d + 1) if a not in free]
    fixed = tuple((a, grid.cell_midpoint(a - 1, int(i))) for a, i in zip(fixed_axes, cell))
    return FlatProfile(int(counts[free][cell]), FlatQuery(free, fixed), counts)


def piercing_number(P: BrickPartition) -> int:
    """Minimum number of members met by any axis-parallel line."""
    return min_flat_count(P, 1).minimum


def slicing_number(P: BrickPartition) -> int:
    """Minimum number of members met by any axis-parallel hyperplane."""
    return min_flat_count(P, P.dim - 1).minimum
