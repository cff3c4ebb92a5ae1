"""Generators for the explicit partition families and closed-form bounds.

Families:
  * grid_partition(d, k): the trivial k^d grid, k-piercing.
  * piercing_3d(k):       12k-15 bricks in [0,6]^3, k-piercing (k >= 3).
  * slicing_3d(k):        max(4, 2k-1) bricks in [0,2]^3, k-slicing (k >= 2).
  * piercing_2d(k):       4(k-1) bricks in [0,2(k-1)]^2, k-piercing (k >= 2),
                          built by a recursive pinwheel extension and
                          self-verified against the validator and the
                          piercing oracle on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import BadK, ConstructionInvalid
from .geometry import Brick
from .metrics import piercing_number
from .partition import BrickPartition, refine, validate


class BoundKind(Enum):
    ELEMENTARY_PIERCING_LB = "elementary_piercing_lb"
    TRIVIAL_GRID_UB = "trivial_grid_ub"
    SLICING_LB_3D = "slicing_lb_3d"


@dataclass(frozen=True)
class BoundValue:
    kind: BoundKind
    d: int
    k: int
    value: int


def elementary_piercing_lb(d: int, k: int) -> int:
    """d * 2^(d-1) * (k-2) + 2^d: edge/corner counting lower bound on the
    size of a k-piercing partition."""
    return d * 2 ** (d - 1) * (k - 2) + 2**d


def bounds(d: int, k: int) -> list[BoundValue]:
    """Closed-form bounds for dimension d and target k (k >= 2).

    Always returns the elementary piercing lower bound and the k^d grid
    upper bound; in dimension 3 additionally the 2k-1 slicing lower bound.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if k < 2:
        raise BadK("bounds are defined for k >= 2")
    out = [
        BoundValue(BoundKind.ELEMENTARY_PIERCING_LB, d, k, elementary_piercing_lb(d, k)),
        BoundValue(BoundKind.TRIVIAL_GRID_UB, d, k, k**d),
    ]
    if d == 3:
        out.append(BoundValue(BoundKind.SLICING_LB_3D, d, k, 2 * k - 1))
    return out


def grid_partition(d: int, k: int) -> BrickPartition:
    """[0,k]^d split into k^d unit cells; k-piercing by construction."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if k < 1:
        raise BadK("grid partition needs k >= 1")
    parent = Brick.from_pairs([(0, k)] * d)
    members = tuple(
        Brick.from_pairs([(c, c + 1) for c in cell])
        for cell in product(range(k), repeat=d)
    )
    return BrickPartition(parent, members)


# 15-brick base of the 12k-15 family, in [0,6]^3.
_PIERCING_3D_BASE: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = (
    ("W1", ((0, 2), (0, 2), (0, 2))),
    ("W2", ((2, 4), (2, 4), (2, 4))),
    ("W3", ((4, 6), (4, 6), (4, 6))),
    ("X1", ((0, 2), (3, 6), (0, 4))),
    ("X2", ((4, 6), (0, 3), (2, 6))),
    ("X'1", ((3, 4), (2, 6), (4, 6))),
    ("X'2", ((2, 3), (0, 4), (0, 2))),
    ("Y1", ((0, 4), (0, 2), (3, 6))),
    ("Y2", ((2, 6), (4, 6), (0, 3))),
    ("Y'1", ((0, 2), (2, 3), (0, 4))),
    ("Y'2", ((4, 6), (3, 4), (2, 6))),
    ("Z1", ((0, 3), (2, 6), (4, 6))),
    ("Z2", ((3, 6), (0, 4), (0, 2))),
    ("Z'1", ((0, 4), (0, 2), (2, 3))),
    ("Z'2", ((2, 6), (4, 6), (3, 4))),
)

# Refinement plan: (label, cut axis, piece count as function of k). Unprimed
# bricks split into k-1 pieces, primed ones into k-2, along their own axis.
_PIERCING_3D_PLAN: tuple[tuple[str, int, int], ...] = (
    ("X1", 1, 1),
    ("X2", 1, 1),
    ("X'1", 1, 2),
    ("X'2", 1, 2),
    ("Y1", 2, 1),
    ("Y2", 2, 1),
    ("Y'1", 2, 2),
    ("Y'2", 2, 2),
    ("Z1", 3, 1),
    ("Z2", 3, 1),
    ("Z'1", 3, 2),
    ("Z'2", 3, 2),
)


def piercing_3d_base() -> BrickPartition:
    """The 15-brick base partition of [0,6]^3 that piercing_3d refines."""
    labels = tuple(name for name, _ in _PIERCING_3D_BASE)
    members = tuple(Brick.from_pairs(pairs) for _, pairs in _PIERCING_3D_BASE)
    parent = Brick.from_pairs([(0, 6)] * 3)
    return BrickPartition(parent, members, labels)


def piercing_3d(k: int) -> BrickPartition:
    """k-piercing partition of [0,6]^3 with exactly 12k-15 members (k >= 3)."""
    if k < 3:
        raise BadK("piercing_3d needs k >= 3")
    base = piercing_3d_base()
    index = {label: i for i, label in enumerate(base.labels or ())}
    plan = [(index[name], axis, k - drop) for name, axis, drop in _PIERCING_3D_PLAN]
    return refine(base, plan)


def slicing_3d_base(k: int) -> BrickPartition:
    """Unrefined slicing partition of [0,2]^3: 4 bricks for k = 2, 5 for k >= 3."""
    if k < 2:
        raise BadK("slicing_3d needs k >= 2")
    parent = Brick.from_pairs([(0, 2)] * 3)
    if k == 2:
        named = (
            ("X0", ((0, 2), (0, 1), (0, 1))),
            ("X1", ((0, 2), (1, 2), (0, 1))),
            ("Y0", ((0, 1), (0, 2), (1, 2))),
            ("Y1", ((1, 2), (0, 2), (1, 2))),
        )
    else:
        named = (
            ("W0", ((0, 1), (0, 1), (0, 2))),
            ("X0", ((1, 2), (0, 1), (0, 1))),
            ("X1", ((0, 2), (1, 2), (0, 1))),
            ("Y0", ((0, 1), (1, 2), (1, 2))),
            ("Y1", ((1, 2), (0, 2), (1, 2))),
        )
    labels = tuple(name for name, _ in named)
    members = tuple(Brick.from_pairs(pairs) for _, pairs in named)
    return BrickPartition(parent, members, labels)


def slicing_3d(k: int) -> BrickPartition:
    """k-slicing partition of [0,2]^3: 4 members at k = 2, 2k-1 for k >= 3.

    For k >= 3 the base X1 is cut into k-2 pieces along axis 2 and Y1 into
    k-2 pieces along axis 1.
    """
    base = slicing_3d_base(k)
    if k == 2:
        return base
    index = {label: i for i, label in enumerate(base.labels or ())}
    return refine(base, [(index["X1"], 2, k - 2), (index["Y1"], 1, k - 2)])


# Cyclic counterclockwise order of the square's sides; a member touching two
# adjacent inner sides extends through the one that precedes the other.
_NEXT_SIDE = {"bottom": "right", "right": "top", "top": "left", "left": "bottom"}


def _extension_side(touched: set[str]) -> str | None:
    if not touched:
        return None
    if len(touched) == 1:
        return next(iter(touched))
    if len(touched) == 2:
        s, t = touched
        if _NEXT_SIDE[s] == t:
            return s
        if _NEXT_SIDE[t] == s:
            return t
    raise ConstructionInvalid(f"member touches incompatible side set {touched}")


Rect = tuple[tuple[int, int], tuple[int, int]]  # ((x_lo, x_hi), (y_lo, y_hi))


def _pinwheel_grow(members: list[Rect], size: int) -> list[Rect]:
    """One pinwheel step: members tile [0,size]^2, result tiles [0,size+2]^2.

    The old square is re-centered to [1, size+1]^2; members touching its
    boundary extend through one parent side (counterclockwise pinwheel), and
    four corner bricks fill the rest of the unit ring. Every coordinate of
    the family is an integer, so the steps run on integer pairs.
    """
    lo, hi = 1, size + 1

    # hi_x of the member holding inner corner (lo,lo), hi_y of the one at
    # (hi,lo), lo_x at (hi,hi), lo_y at (lo,hi): these close the ring.
    bx = cy = dx = ey = None
    grown: list[Rect] = []
    for (x0, x1), (y0, y1) in members:
        x0, x1, y0, y1 = x0 + 1, x1 + 1, y0 + 1, y1 + 1
        hits = (y0 == lo, x1 == hi, y1 == hi, x0 == lo)  # bottom, right, top, left
        touched = {side for side, hit in zip(_NEXT_SIDE, hits) if hit}
        if {"left", "bottom"} <= touched:
            bx = x1
        if {"bottom", "right"} <= touched:
            cy = y1
        if {"right", "top"} <= touched:
            dx = x0
        if {"top", "left"} <= touched:
            ey = y0
        side = _extension_side(touched)
        if side == "bottom":
            y0 = 0
        elif side == "right":
            x1 = hi + 1
        elif side == "top":
            y1 = hi + 1
        elif side == "left":
            x0 = 0
        grown.append(((x0, x1), (y0, y1)))

    if None in (bx, cy, dx, ey):
        raise ConstructionInvalid("inner square corners not all covered")
    grown.append(((0, bx), (0, 1)))
    grown.append(((hi, hi + 1), (0, cy)))
    grown.append(((dx, hi + 1), (hi, hi + 1)))
    grown.append(((0, 1), (ey, hi + 1)))
    return grown


def piercing_2d(k: int) -> BrickPartition:
    """k-piercing partition of [0,2(k-1)]^2 with exactly 4(k-1) members.

    Built recursively from the four quadrants of [0,2]^2 by pinwheel
    extension. The geometry is this module's own reconstruction, so every
    output is self-verified (validate + piercing oracle) and the generator
    raises ConstructionInvalid rather than return unverified bricks.
    """
    if k < 2:
        raise BadK("piercing_2d needs k >= 2")
    members: list[Rect] = [((x, x + 1), (y, y + 1)) for y in (0, 1) for x in (0, 1)]
    for level in range(3, k + 1):
        members = _pinwheel_grow(members, 2 * (level - 2))
    parent = Brick.from_pairs([(0, 2 * (k - 1))] * 2)
    P = BrickPartition(parent, tuple(Brick.from_pairs(m) for m in members))
    report = validate(P)
    if not report.valid:
        raise ConstructionInvalid(f"piercing_2d({k}) does not tile: {report.failures[0]}")
    got = piercing_number(P)
    if got != k:
        raise ConstructionInvalid(f"piercing_2d({k}) has piercing number {got}")
    return P
