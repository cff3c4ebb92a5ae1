"""Generators for the explicit partition families and closed-form bounds.

Families:
  * grid_partition(d, k): the trivial k^d grid, k-piercing.
  * piercing_3d(k):       12k-15 bricks in [0,6]^3, k-piercing (k >= 3).
  * slicing_3d(k):        max(4, 2k-1) bricks in [0,2]^3, k-slicing (k >= 2).
  * piercing_2d(k):       4(k-1) bricks in [0,2(k-1)]^2, k-piercing (k >= 2):
                          four quadrants of k-1 unit strips each, turning
                          like a pinwheel (proof at _pinwheel); self-verified
                          against the validator and the piercing oracle.

The 3D families are row tables, one row per base brick: label, sides, cut
axis or None, and pieces fewer than k. _refined cuts a table's base by its
own rows, and refine validates the result, k = 2 included.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from operator import index

from .errors import ConstructionInvalid
from .geometry import Brick, Interval, corner_cap
from .metrics import piercing_number
from .partition import BrickPartition, refine, validate


class BoundKind(Enum):
    ELEMENTARY_PIERCING_LB = "elementary_piercing_lb"
    TRIVIAL_GRID_UB = "trivial_grid_ub"
    SLICING_LB_3D = "slicing_lb_3d"


def elementary_piercing_lb(d: int, k: int) -> int:
    """d * 2^(d-1) * (k-2) + 2^d: edge/corner counting lower bound on the
    size of a k-piercing partition."""
    d, k = index(d), index(k)  # TypeError if not integers
    return d * 2 ** (d - 1) * (k - 2) + 2**d


def bounds(d: int, k: int) -> dict[BoundKind, int]:
    """Closed-form bounds for dimension d and target k (k >= 2), in print order.

    Always holds the elementary piercing lower bound and the k^d grid upper
    bound; in dimension 3 additionally the 2k-1 slicing lower bound.
    """
    d, k = index(d), index(k)  # TypeError if not integers
    if d < 1:
        raise ValueError("d: dimension must be >= 1")
    if k < 2:
        raise ValueError("k: bounds are defined for k >= 2")
    out = {BoundKind.ELEMENTARY_PIERCING_LB: elementary_piercing_lb(d, k)}
    out[BoundKind.TRIVIAL_GRID_UB] = k**d
    if d == 3:
        out[BoundKind.SLICING_LB_3D] = 2 * k - 1
    return out


def _check_size(d: int, count: int, formula: str) -> None:
    """Refuse more members than `validate` could check: each has a corner."""
    if count > (cap := corner_cap(d)):
        raise ValueError(f"k: {formula} members exceed the {cap} corners validation can check")


def grid_partition(d: int, k: int) -> BrickPartition:
    """[0,k]^d split into k^d unit cells; k-piercing by construction."""
    if d < 1:
        raise ValueError("d: dimension must be >= 1")
    if k < 1:
        raise ValueError("k: grid partition needs k >= 1")
    _check_size(d, k ** min(d, 24), f"k^d = {k}^{d}")  # 2^24 passes every cap
    parent = Brick.from_pairs([(0, k)] * d)
    unit = [Interval(c, c + 1) for c in range(k)]  # shared by every member
    members = tuple(Brick(sides) for sides in product(unit, repeat=d))
    return BrickPartition(parent, members)


# One row per base brick: label, sides, cut axis, pieces fewer than k.
_Row = tuple[str, tuple[tuple[int, int], ...], int | None, int | None]

# 15-brick base of the 12k-15 family in [0,6]^3. Unprimed X/Y/Z bricks split
# into k-1 pieces, primed ones into k-2, along their own axis; the W diagonal
# is never cut.
_PIERCING_3D_BASE: tuple[_Row, ...] = (
    ("W1", ((0, 2), (0, 2), (0, 2)), None, None),
    ("W2", ((2, 4), (2, 4), (2, 4)), None, None),
    ("W3", ((4, 6), (4, 6), (4, 6)), None, None),
    ("X1", ((0, 2), (3, 6), (0, 4)), 1, 1),
    ("X2", ((4, 6), (0, 3), (2, 6)), 1, 1),
    ("X'1", ((3, 4), (2, 6), (4, 6)), 1, 2),
    ("X'2", ((2, 3), (0, 4), (0, 2)), 1, 2),
    ("Y1", ((0, 4), (0, 2), (3, 6)), 2, 1),
    ("Y2", ((2, 6), (4, 6), (0, 3)), 2, 1),
    ("Y'1", ((0, 2), (2, 3), (0, 4)), 2, 2),
    ("Y'2", ((4, 6), (3, 4), (2, 6)), 2, 2),
    ("Z1", ((0, 3), (2, 6), (4, 6)), 3, 1),
    ("Z2", ((3, 6), (0, 4), (0, 2)), 3, 1),
    ("Z'1", ((0, 4), (0, 2), (2, 3)), 3, 2),
    ("Z'2", ((2, 6), (4, 6), (3, 4)), 3, 2),
)

# The slicing family in [0,2]^3: 4 uncut bricks at k = 2, 5 for k >= 3.
_SLICING_3D_K2: tuple[_Row, ...] = (
    ("X0", ((0, 2), (0, 1), (0, 1)), None, None),
    ("X1", ((0, 2), (1, 2), (0, 1)), None, None),
    ("Y0", ((0, 1), (0, 2), (1, 2)), None, None),
    ("Y1", ((1, 2), (0, 2), (1, 2)), None, None),
)
_SLICING_3D_BASE: tuple[_Row, ...] = (
    ("W0", ((0, 1), (0, 1), (0, 2)), None, None),
    ("X0", ((1, 2), (0, 1), (0, 1)), None, None),
    ("X1", ((0, 2), (1, 2), (0, 1)), 2, 2),
    ("Y0", ((0, 1), (1, 2), (1, 2)), None, None),
    ("Y1", ((1, 2), (0, 2), (1, 2)), 1, 2),
)


def _base(rows: tuple[_Row, ...], side: int) -> BrickPartition:
    """The rows' uncut bricks as a labelled partition of [0,side]^3."""
    parent = Brick.from_pairs([(0, side)] * 3)
    members = tuple(Brick.from_pairs(sides) for _, sides, _, _ in rows)
    return BrickPartition(parent, members, tuple(label for label, _, _, _ in rows))


def _refined(rows: tuple[_Row, ...], side: int, k: int) -> BrickPartition:
    """The rows' base with every cut row split along its axis into k-fewer pieces."""
    plan = [(i, axis, k - fewer) for i, (_, _, axis, fewer) in enumerate(rows) if axis is not None]
    return refine(_base(rows, side), plan)


def piercing_3d(k: int) -> BrickPartition:
    """k-piercing partition of [0,6]^3 with exactly 12k-15 members (k >= 3)."""
    if k < 3:
        raise ValueError("k: piercing_3d needs k >= 3")
    _check_size(3, 12 * k - 15, f"12k-15 = {12 * k - 15}")
    return _refined(_PIERCING_3D_BASE, 6, k)


def slicing_3d(k: int) -> BrickPartition:
    """k-slicing partition of [0,2]^3: 4 members at k = 2, 2k-1 for k >= 3."""
    if k < 2:
        raise ValueError("k: slicing_3d needs k >= 2")
    _check_size(3, 2 * k - 1, f"2k-1 = {2 * k - 1}")
    return _refined(_SLICING_3D_K2 if k == 2 else _SLICING_3D_BASE, 2, k)


def _pinwheel(k: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The 4(k-1) members of piercing_2d(k), each ((x_lo, x_hi), (y_lo, y_hi)).

    With n = k-1, each quadrant of [0,2n]^2 is a stack of n unit strips:
    rows in the lower-left and upper-right quadrants, columns in the other
    two, so the four stacks turn like a pinwheel. An axis-parallel line
    through an open cell runs through two quadrants side by side, one made
    of strips along the line and one of strips across it: it crosses all n
    strips of the second and exactly one strip of the first, so it meets
    exactly k members. Ring j holds the j-th strip of each quadrant counted
    from the centre. Rings are listed from the centre out, as a recursive
    pinwheel adds them one per k; the first ring keeps the row-major order
    of the four unit squares of [0,2]^2.
    """
    n = k - 1
    members = []
    for j in range(n):
        left = ((0, n), (n - 1 - j, n - j))
        bottom = ((n + j, n + j + 1), (0, n))
        top = ((n - 1 - j, n - j), (n, 2 * n))
        right = ((n, 2 * n), (n + j, n + j + 1))
        members += (left, bottom, top, right) if j == 0 else (left, bottom, right, top)
    return members


def piercing_2d(k: int) -> BrickPartition:
    """k-piercing partition of [0,2(k-1)]^2 with exactly 4(k-1) members.

    The four quadrants are stacks of unit strips (see _pinwheel). The
    geometry is this module's own reconstruction, so every output is
    self-verified (validate + piercing oracle) and the generator raises
    ConstructionInvalid rather than return unverified bricks.
    """
    if k < 2:
        raise ValueError("k: piercing_2d needs k >= 2")
    _check_size(2, 4 * (k - 1), f"4(k-1) = {4 * (k - 1)}")
    parent = Brick.from_pairs([(0, 2 * (k - 1))] * 2)
    P = BrickPartition(parent, tuple(Brick.from_pairs(m) for m in _pinwheel(k)))
    report = validate(P)
    if not report.valid:
        raise ConstructionInvalid(f"piercing_2d({k}) does not tile: {report.failures[0]}")
    got = piercing_number(P)
    if got != k:
        raise ConstructionInvalid(f"piercing_2d({k}) has piercing number {got}")
    return P
