"""Independent oracles and corpus tools shared by the test modules.

Everything here recomputes results from definitions, without touching the
breakpoint-grid code paths it is used to check; `slice_loop_counts` and
`whole_grid_counts` read only the grid's index boxes, which `test_geometry`
checks on their own. `reference_svg` and `reference_obj` render every
brick's coordinates afresh, one brick at a time. Brick views,
`piercing_3d_base` and `iter_solutions` live here because only tests use
them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from html import escape
from itertools import combinations, product
from math import prod
from random import Random
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from brickpart import Brick, BrickPartition, ExportOptions, FailureKind, Interval
from brickpart.constructions import _PIERCING_3D_BASE, _base
from brickpart.geometry import BreakpointGrid
from brickpart.io_cli.export import (
    _CUBE_TRIANGLES,
    _PALETTE,
    SVG_SCALE,
    _svg_trimmed,
    ratio_renderer,
)
from brickpart.partition import Failure, ValidationReport
from brickpart.search import SearchProblem, _Engine


def axis_eval_points(P: BrickPartition, axis_index: int) -> list[Fraction]:
    """Every member/parent endpoint on one axis plus the midpoints between
    consecutive endpoints: the breakpoint-inclusive flat coordinates."""
    points = {P.parent.sides[axis_index].lo, P.parent.sides[axis_index].hi}
    for b in P.members:
        points.add(b.sides[axis_index].lo)
        points.add(b.sides[axis_index].hi)
    breakpoints = sorted(points)
    mids = [(u + v) / 2 for u, v in zip(breakpoints, breakpoints[1:])]
    return breakpoints + mids


def brute_force_min_flat(P: BrickPartition, free_axis_count: int) -> int:
    """Minimum member count over flats evaluated at every combination of
    breakpoints AND midpoints, straight from the definition: a member meets
    a flat iff it contains the flat's coordinate on every fixed axis."""
    d = P.dim
    best: int | None = None
    for free in combinations(range(1, d + 1), free_axis_count):
        fixed = [a for a in range(1, d + 1) if a not in free]
        mats = []
        for a in fixed:
            candidates = axis_eval_points(P, a - 1)
            mats.append(
                np.array(
                    [
                        [
                            1 if b.sides[a - 1].lo <= c <= b.sides[a - 1].hi else 0
                            for c in candidates
                        ]
                        for b in P.members
                    ],
                    dtype=np.int64,
                )
            )
        if len(mats) == 1:
            counts = mats[0].sum(axis=0)
        elif len(mats) == 2:
            counts = mats[0].T @ mats[1]
        else:
            raise NotImplementedError("corpus stays in d <= 3")
        local = int(counts.min())
        if best is None or local < best:
            best = local
    assert best is not None
    return best


def first_bad_cell_midpoint(P: BrickPartition):
    """Independent gap/overlap finder: scan elementary cells in lexicographic
    order with plain loops and return (midpoint, covering count), or None."""
    axes = []
    for a in range(P.dim):
        points = {P.parent.sides[a].lo, P.parent.sides[a].hi}
        for b in P.members:
            points.add(b.sides[a].lo)
            points.add(b.sides[a].hi)
        axes.append(sorted(points))

    def scan(prefix, a):
        if a == P.dim:
            count = sum(1 for b in P.members if b.contains_point(prefix))
            return (tuple(prefix), count) if count != 1 else None
        for lo, hi in zip(axes[a], axes[a][1:]):
            hit = scan(prefix + [(lo + hi) / 2], a + 1)
            if hit is not None:
                return hit
        return None

    return scan([], 0)


def reference_index_boxes(parent: Brick, bricks) -> tuple[tuple, list]:
    """Each axis's distinct endpoints, parent's included, sorted as Fractions,
    and every brick's [[rank of lo, rank of hi], ...] from a rank map over them."""
    axes = tuple(
        tuple(sorted({x for b in (parent, *bricks) for x in (b.sides[a].lo, b.sides[a].hi)}))
        for a in range(parent.dim)
    )
    ranks = [{x: i for i, x in enumerate(axis)} for axis in axes]
    boxes = [[[r[s.lo], r[s.hi]] for r, s in zip(ranks, b.sides)] for b in bricks]
    return axes, boxes


def reference_cut(b: Brick, axis: int, n: int) -> list[Brick]:
    """`cut` from its definition: the points lo + length·i/n for i = 0..n on
    the 1-based axis, in Fraction arithmetic."""
    side = b.sides[axis - 1]
    points = [side.lo + side.length * i / n for i in range(n + 1)]
    return [b.replace_side(axis - 1, Interval(points[i], points[i + 1])) for i in range(n)]


def slice_loop_counts(grid: BreakpointGrid, axes) -> np.ndarray:
    """Members covering each cell of the grid's projection onto the given
    0-based axes, as int32 in C order: one slice addition per member."""
    counts = np.zeros(tuple(grid.shape[a] for a in axes), dtype=np.int32)
    for box in grid.boxes:
        counts[tuple(slice(*box[a]) for a in axes)] += 1
    return counts


def whole_grid_counts(P: BrickPartition) -> np.ndarray:
    """Members covering each elementary cell of P's grid, every cell at once."""
    return slice_loop_counts(P.grid, range(P.dim))


def whole_grid_report(P: BrickPartition) -> ValidationReport:
    """`validate`'s report for members inside the parent, from the whole-grid
    count: the first cell in C order not covered exactly once, with its members."""
    bad = np.argwhere(whole_grid_counts(P) != 1)  # rows in C order
    if len(bad) == 0:
        return ValidationReport(True)
    cell = tuple(int(c) for c in bad[0])
    covering = tuple(
        i for i, box in enumerate(P.grid.boxes) if all(lo <= c < hi for (lo, hi), c in zip(box, cell))
    )
    kind = FailureKind.OVERLAP if covering else FailureKind.GAP
    return ValidationReport(False, (Failure(kind, P.grid.midpoint(cell), covering),))


@st.composite
def brick_sets(draw):
    """1 to 8 bricks in one dimension of 1..4, on integer coordinates 0..6,
    so they overlap, leave gaps and share endpoints freely."""
    d = draw(st.integers(min_value=1, max_value=4))
    side = st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2, unique=True)
    brick = st.lists(side.map(sorted), min_size=d, max_size=d).map(Brick.from_pairs)
    return draw(st.lists(brick, min_size=1, max_size=8))


def hull(bricks) -> Brick:
    """The bricks' bounding box."""
    return Brick.from_pairs(
        [
            (min(b.sides[a].lo for b in bricks), max(b.sides[a].hi for b in bricks))
            for a in range(bricks[0].dim)
        ]
    )


def as_pairs(b: Brick) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple((s.lo, s.hi) for s in b.sides)


def volume(b: Brick) -> Fraction:
    return prod(s.length for s in b.sides)


def parent_corners_contained(parent: Brick, b: Brick) -> int:
    """Number of parent corners lying in the closed brick b."""
    return sum(1 for c in product(*as_pairs(parent)) if b.contains_point(c))


def piercing_3d_base() -> BrickPartition:
    """The 15-brick base partition of [0,6]^3 that piercing_3d refines."""
    return _base(_PIERCING_3D_BASE, 6)


def iter_solutions(problem: SearchProblem) -> Iterator[BrickPartition]:
    """Every satisfying partition at the grid cap, in canonical order."""
    engine = _Engine(problem)
    for boxes in engine.solutions():
        yield engine.witness_partition(boxes)


def random_monotone_remap(rng: Random, P: BrickPartition) -> BrickPartition:
    """Apply an independent strictly increasing piecewise-linear map with
    rational knots to every axis (knots = the axis's endpoint set)."""
    tables = []
    for a in range(P.dim):
        knots = {P.parent.sides[a].lo, P.parent.sides[a].hi}
        for b in P.members:
            knots.add(b.sides[a].lo)
            knots.add(b.sides[a].hi)
        knots = sorted(knots)
        image = Fraction(rng.randrange(-8, 9))
        table = {knots[0]: image}
        for knot in knots[1:]:
            image += Fraction(rng.randrange(1, 12), rng.randrange(1, 5))
            table[knot] = image
        tables.append(table)

    def remap(b: Brick) -> Brick:
        return Brick(
            tuple(
                Interval(tables[a][s.lo], tables[a][s.hi])
                for a, s in enumerate(b.sides)
            )
        )

    return BrickPartition(remap(P.parent), tuple(remap(b) for b in P.members))


def random_refine_plan(rng: Random, P: BrickPartition, max_cuts: int = 3):
    count = rng.randrange(0, min(max_cuts, len(P.members)) + 1)
    indices = rng.sample(range(len(P.members)), count)
    return [(i, rng.randrange(1, P.dim + 1), rng.randrange(1, 4)) for i in indices]


def subset_filter_partitions_2x2() -> set[frozenset]:
    """All partitions of the 2x2 cell grid into rectangles, found by
    filtering every subset of the nine candidate rectangles."""
    rects = []
    for x0 in range(2):
        for x1 in range(x0 + 1, 3):
            for y0 in range(2):
                for y1 in range(y0 + 1, 3):
                    rects.append(
                        frozenset((x, y) for x in range(x0, x1) for y in range(y0, y1))
                    )
    cells = frozenset((x, y) for x in range(2) for y in range(2))
    out = set()
    for r in range(1, 5):
        for combo in combinations(rects, r):
            if sum(len(c) for c in combo) == 4 and frozenset().union(*combo) == cells:
                out.add(frozenset(combo))
    return out


def reference_flats(d: int, g: int, piercing: bool) -> list:
    """Every flat as (fixed axes, their cell coordinates), in the engine's id
    order: lines fix every axis but their own, slabs fix their own."""
    flats = []
    for a in range(d):
        axes = [b for b in range(d) if (b != a) == piercing]
        flats += [(axes, coords) for coords in product(range(g), repeat=len(axes))]
    return flats


def list_slack_search(d: int, k: int, piercing: bool, m_max: int, g: int, symmetry: bool):
    """The search as a plain DFS over a list of slacks, one per flat, built
    from cell coordinates: every box at the least uncovered cell, in the
    engine's move order, counting each free box as a placement and testing,
    applying and undoing each flat's slack. Returns ([(placements so far,
    boxes)] per solution, total placements); checks that every slack is
    restored when the search ends."""
    cells = list(product(range(g), repeat=d))  # index order = the engine's bit order
    flats = reference_flats(d, g, piercing)
    flat_size = g ** (d - len(flats[0][0]))
    on = [  # on[i]: the flats through cell i
        [f for f, (axes, xs) in enumerate(flats) if all(c[b] == x for b, x in zip(axes, xs))]
        for c in cells
    ]
    table: dict[int, list] = {}

    def moves(anchor):
        if anchor not in table:
            table[anchor] = []
            sides = [[(lo, hi) for hi in range(lo + 1, g + 1)] for lo in cells[anchor]]
            for box in product(*sides):
                inside = [
                    i
                    for i, c in enumerate(cells)
                    if all(lo <= x < hi for x, (lo, hi) in zip(c, box))
                ]
                met = Counter(f for i in inside for f in on[i])
                incidences = [(f, 1 - n) for f, n in sorted(met.items())]
                table[anchor].append((box, set(inside), incidences))
        return table[anchor]

    initial = [flat_size - k] * len(flats)
    slack, stack, covered, found, nodes = list(initial), [], set(), [], 0

    def dfs():
        nonlocal nodes
        idx = next((i for i in range(len(cells)) if i not in covered), len(cells))
        if idx == len(cells):
            found.append((nodes, list(stack)))
            return
        if len(stack) == m_max:
            return
        for box, inside, incidences in moves(idx):
            if inside & covered:
                continue
            unsorted = any(a[1] - a[0] > b[1] - b[0] for a, b in zip(box, box[1:]))
            if symmetry and not stack and unsorted:
                continue
            nodes += 1
            if any(slack[f] + delta < 0 for f, delta in incidences):
                continue
            for f, delta in incidences:
                slack[f] += delta
            stack.append(box)
            covered.update(inside)
            dfs()
            covered.difference_update(inside)
            stack.pop()
            for f, delta in incidences:
                slack[f] -= delta

    if flat_size >= k:
        dfs()
    assert slack == initial
    return found, nodes


def reference_svg(P: BrickPartition, options: ExportOptions) -> bytes:
    """SVG export computing and rendering every brick's x, y, w and h afresh."""
    px, py = P.parent.sides
    scale = SVG_SCALE
    render = ratio_renderer(options.precision)
    num = lambda x: _svg_trimmed(render(*x.as_integer_ratio()))  # noqa: E731
    width = (px.hi - px.lo) * scale
    height = (py.hi - py.lo) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{num(width)}" '
        f'height="{num(height)}" viewBox="0 0 {num(width)} {num(height)}">',
    ]
    for i, b in enumerate(P.members):
        bx, by = b.sides
        x = (bx.lo - px.lo) * scale
        y = (py.hi - by.hi) * scale  # flip: SVG y grows downward
        w = (bx.hi - bx.lo) * scale
        h = (by.hi - by.lo) * scale
        fill = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'  <rect x="{num(x)}" y="{num(y)}" width="{num(w)}" height="{num(h)}" '
            f'fill="{fill}" fill-opacity="0.55" stroke="#000" stroke-width="1"/>'
        )
    if options.labels and P.labels is not None:
        for b, label in zip(P.members, P.labels):
            cx = (b.sides[0].midpoint - px.lo) * scale
            cy = (py.hi - b.sides[1].midpoint) * scale
            text = escape(label, quote=False)  # a label is text, not markup
            lines.append(
                f'  <text x="{num(cx)}" y="{num(cy)}" font-size="12" '
                f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
            )
    # parent outline drawn as a path so <rect> count equals the member count
    lines.append(
        f'  <path d="M 0 0 H {num(width)} V {num(height)} H 0 Z" '
        'fill="none" stroke="#000" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_obj(P: BrickPartition, options: ExportOptions) -> bytes:
    """OBJ export moving and rendering every brick's sides afresh, and
    joining its vertex and face lines one by one."""
    render = ratio_renderer(options.precision)
    num = lambda x: render(*x.as_integer_ratio())  # noqa: E731
    lines = [f"# brick partition, {len(P.members)} members"]
    vertex_base = 1  # OBJ indices are 1-based
    for i, b in enumerate(P.members):
        label = P.labels[i] if P.labels is not None else f"member_{i}"
        ends = []  # per axis: the side's (lo, hi), moved outward and rendered
        for side, parent_side in zip(b.sides, P.parent.sides):
            offset = (side.midpoint - parent_side.midpoint) * options.exploded
            ends.append((num(side.lo + offset), num(side.hi + offset)))
        lines.append(f"o {label}")
        for j in range(8):
            lines.append("v " + " ".join(end[(j >> a) & 1] for a, end in enumerate(ends)))
        for tri in _CUBE_TRIANGLES:
            lines.append("f " + " ".join(str(vertex_base + t) for t in tri))
        vertex_base += 8
    return ("\n".join(lines) + "\n").encode("utf-8")
