"""Exhaustive canonical-order search over discrete grid partitions.

Cells are the unit cubes of [0,g]^d. The search always extends a partial
partition from the lexicographically least uncovered cell, branching over
every box whose minimum corner is that cell and whose cells are all free, so
each complete partition into at most m_max boxes is visited exactly once and
node counts are deterministic for a fixed configuration.

Pruning never cuts a feasible completion: a branch dies when (a) the box
budget is spent with cells left over, or (b) slack < 0 for some flat, where
a flat's slack is its met-box count plus its uncovered cell count minus k
(each uncovered cell can contribute at most one new box to a flat).

The slacks are packed into one int, passed down by value like the cover
mask: flat f owns w = flat_size.bit_length() + 1 bits from bit w*f, holding
slack + H, where H = 2^(w-1) is its guard bit. A placement adds the move's
packed deltas (1 - its cells on each flat, in [1 - flat_size, 0]) and is
pruned iff a guard bit clears. A live field holds >= H and flat_size < H, so
every field stays in [1, 2H - 1]: none borrows from or carries into the next.

The last box is counted, not searched, once its anchor's moves are built.
Once a placement leaves one box to place, the last level's placements are
the next anchor's moves that miss the cover, and it has a solution only if
the free cells form one box R at that anchor: every free move is then a
sub-box of R, so R comes last in the product move order, and the solution is
reached after exactly those placements. Both depend on the cover alone, not
on the slack, so they are kept per cover in a dict that is cleared when it
holds _TABLE_ENTRIES covers. A cover that no table answers is searched one
box at a time: on the anchor's first visit the DFS places the last box as
the moves are built, reaching R last, after the same placements. So only
the DFS builds moves and checks the budget, which bounds the move tables,
and node counts and solution order are those of the full DFS.

Each anchor's free moves are found once per cover of its orthant. Every move
at anchor c lies inside the anchor's last move, its orthant [c, g)^d, so
which moves miss the cover depends only on the cover inside that orthant. An
anchor's first visit filters its moves as they are built; after that, a frame
iterates the tuple of the anchor's moves that miss the cover, in move order,
from a table keyed by (cover & orthant) << g^d | anchor, and tests no move
against the cover. The last-box count is such a tuple's length, and the last
box, when the free cells form one, is its last move. The table is cleared
when the moves it holds would pass _TABLE_ENTRIES, and a longer tuple is not
kept, so it never holds more than _TABLE_ENTRIES moves.

The DFS is one loop over an explicit stack of frames, each (its free-move
iterator, cover, packed slack, boxes left, exhausted-table key, placements
and solutions at entry). The placement count lives in a local and is
written to self.nodes before every table lookup, every yield and at the end,
so a reader of self.nodes sees the count the search has.

An exhausted subtree is searched once. Below a placement the DFS depends
only on the cover, the packed slack and the boxes left (the symmetry filter
acts on the first box alone), so its placements and solutions do too. A
subtree searched to its end without a solution keeps its placement count in
a second table, keyed by those three values, and the DFS adds that count in
place of entering the subtree again. Node counts and solution order stay
those of the full DFS, as a subtree that yields a solution is never stored,
and the budget is checked after the count is added: a count that passes it
stops the search at budget + 1 placements, where the skipped subtree would
have. Only subtrees with at least 3 boxes to place are stored; one with 2 is
a loop over one anchor's moves with a last-box lookup each. The table is
cleared at _TABLE_ENTRIES entries, as the last-box table is.

An ExhaustedNone outcome is a claim about partitions of the grid [0,g]^d,
and it covers every continuous partition into at most m_max bricks once
g >= m_max, as SearchProblem.scope() states. Lemma: in a partition of a box
into bricks, every interior breakpoint on an axis is the lower end of some
member. Proof: let v be the upper end of member B, inside the parent, and
take a generic point p just past B's upper face on that axis. The member C
that holds p has lo <= v; if lo < v, C would hold points just below v near
p, which lie inside B. So lo = v. Some member starts at the parent's lower
end, so m members leave at most m - 1 interior breakpoints, and at most m
cells, per axis. Compressing each axis to its breakpoint ranks keeps every
flat's members, and stretching the last cell of each axis to end at g then
embeds the partition in [0,g]^d for any g >= m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import pairwise, product
from math import prod
from operator import index
from typing import Iterator

from .errors import ResourceLimit
from .geometry import Brick
from .partition import BrickPartition

DEFAULT_NODE_BUDGET = 10**8
_MAX_CELLS = 1 << 26  # the cover mask is a g^d-bit int, built before any placement
_MAX_AXES = _MAX_CELLS.bit_length() - 1  # the most axes of a g >= 2 grid under the cap
_TABLE_ENTRIES = 1 << 16  # each of the DFS's tables is cleared when it holds this many
IndexBox = tuple[tuple[int, int], ...]  # half-open (lo, hi) cell-index range per axis


class Mode(Enum):
    PIERCING = "piercing"  # flats are lines: one free axis
    SLICING = "slicing"  # flats are hyperplanes: one fixed axis


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted_none"


@dataclass(frozen=True)
class SearchProblem:
    """Configuration of one discrete minimality search.

    symmetry_pruning restricts only the first box choice to axis-sorted
    extents (axis permutations map solutions to solutions, so every orbit
    keeps a representative); node_budget caps the placements, and running out
    raises ResourceLimit rather than reporting exhaustion. mode is coerced by
    Mode(...), so "piercing" or "slicing" also serve. Any other bad field
    raises ValueError("<field>: <reason>").
    """

    d: int
    k: int
    mode: Mode
    m_max: int
    g: int
    symmetry_pruning: bool = True
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", Mode(self.mode))  # ValueError if unknown
        for field in ("d", "k", "m_max", "g", "node_budget"):  # TypeError if not an integer
            object.__setattr__(self, field, index(getattr(self, field)))
        for field in ("d", "k", "m_max", "g"):
            if (value := getattr(self, field)) < 1:
                raise ValueError(f"{field}: must be >= 1, got {value}")
        if self.mode is Mode.SLICING and self.d < 2:
            raise ValueError(f"d: slicing mode needs d >= 2, got {self.d}")
        if self.d == 1 and self.g > 1 << 13:  # d=2's cap; anchor 0 builds g sides at any budget
            raise ValueError(f"g: must be <= 2^13 in d=1, got {self.g}")
        # g^27 > 2^26 for any g >= 2, so the power stays small for every d
        if self.g ** min(self.d, _MAX_AXES + 1) > _MAX_CELLS:
            raise ValueError(f"g: {self.g} in d={self.d} gives more than 2^26 cells")
        if self.d > _MAX_AXES:  # only at g = 1; the set-up builds d·(d-1) axis tuples
            raise ValueError(f"d: must be <= {_MAX_AXES}, got {self.d}")
        if self.node_budget < 0:
            raise ValueError(f"node_budget: must be >= 0, got {self.node_budget}")

    @property
    def proof_complete(self) -> bool:
        """Whether exhaustion covers every m_max-brick partition, not only this grid's."""
        return self.g >= self.m_max  # by the lemma above

    def scope(self) -> str:
        """The scope of an exhaustion claim: the (g, m_max) actually searched."""
        scope = "complete" if self.proof_complete else "relative to this grid"
        return f"g={self.g}, m_max={self.m_max} ({scope})"


@dataclass
class SearchOutcome:
    status: SearchStatus
    witness: BrickPartition | None
    nodes_explored: int


# A candidate box: (box, bitmask over cells, packed slack delta over flats).
_Move = tuple[IndexBox, int, int]


def _repunit(count: int, step: int, shift: int) -> int:
    """The int with bits shift, shift + step, ..., shift + (count - 1) * step."""
    return ((1 << count * step) - 1) // ((1 << step) - 1) << shift


class _Engine:
    """Move tables, built per anchor on demand, plus the DFS state for one problem."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        d, g = problem.d, problem.g
        self.cells = g**d
        self.full = (1 << self.cells) - 1  # every cell covered
        self.left_bits = problem.m_max.bit_length()
        # fixed[a]: the axes that flat class a fixes, every axis but a for lines
        # (piercing) and axis a alone for slabs (slicing). Each class fixes n
        # axes, so it holds g^n flats of g^(d-n) cells; a flat's id is a*g^n
        # plus the base-g index of its fixed cell coordinates.
        lines = problem.mode is Mode.PIERCING
        self.fixed = [tuple(b for b in range(d) if (b != a) == lines) for a in range(d)]
        n = len(self.fixed[0])
        self.flat_size, self.class_size = g ** (d - n), g**n
        self.strides = [g ** (d - 1 - a) for a in range(d)]  # cell index place values
        self.width = self.flat_size.bit_length() + 1  # bits per packed slack field
        self.ones = _repunit(d * self.class_size, self.width, 0)  # bit 0 of every field
        self.guards = self.ones << self.width - 1
        # a fixed axis's steps between the fields of its flats: width times its
        # base-g place value among the class's fixed axes
        self.steps = [self.width * g ** (n - 1 - j) for j in range(n)]
        # factors[step, lo, hi]: the repunit of side (lo, hi) at a cell stride
        # or a flat step; spans[lo]: every side (lo, hi) from lo, shared by all
        # boxes. Both are filled as moves are built, so the budget bounds them.
        self.factors: dict[tuple[int, int, int], int] = {}
        self.spans: dict[int, list[tuple[int, int]]] = {}
        # Candidate boxes per anchor cell. Each anchor's list is built while
        # its first visit runs, so the node budget also bounds the table.
        self.moves: dict[int, list[_Move]] = {}
        # The anchor's moves that miss a cover, keyed by the cover inside the
        # anchor's orthant and the anchor; `held` counts the moves they hold.
        self.free: dict[int, tuple[_Move, ...]] = {}
        self.held = 0
        # The last box's placements on each cover it is placed on, and the last
        # free move at the cover's anchor if the free cells form that one box.
        self.last_box: dict[int, tuple[int, _Move | None]] = {}
        # The placements of each subtree searched to its end without a
        # solution, keyed by its (slack, cover, boxes left) packed in one int.
        self.exhausted: dict[int, int] = {}

    def _build_moves(self, anchor: int, cover: int = 0) -> Iterator[_Move]:
        """Yield the anchor's moves that miss `cover` as they are built; keep
        the whole list once it is complete. It is never empty (the unit cell
        is a move), and anchors rise along a DFS path, so an anchor missing
        from self.moves has no other build under way."""
        factors, spans, g = self.factors, self.spans, self.problem.g
        corner = [anchor // stride % g for stride in self.strides]
        for c in set(corner) - spans.keys():
            spans[c] = [(c, hi) for hi in range(c + 1, g + 1)]
        moves: list[_Move] = []
        for box in product(*(spans[c] for c in corner)):
            # one bit per cell; each cell has its own exponent, so no carries
            mask = 1
            for step, (lo, hi) in zip(self.strides, box):
                if (f := factors.get((step, lo, hi))) is None:
                    f = factors[step, lo, hi] = _repunit(hi - lo, step, lo * step)
                mask *= f
            volume = prod(hi - lo for lo, hi in box)
            packed = 0
            for a, axes in enumerate(self.fixed):
                met = count = 1  # the class-a flats the box meets, from class a's first field
                for b, step in zip(axes, self.steps):
                    lo, hi = box[b]
                    if (f := factors.get((step, lo, hi))) is None:
                        f = factors[step, lo, hi] = _repunit(hi - lo, step, lo * step)
                    met *= f
                    count *= hi - lo
                # 1 - the box's cells on each flat, shifted to class a's fields
                # last: a shift is linear in the bits, a product by 2^n is not
                packed += (1 - volume // count) * met << self.width * a * self.class_size
            move = (box, mask, packed)
            moves.append(move)
            if not cover & mask:
                yield move
        self.moves[anchor] = moves

    def _free_moves(self, cover: int, idx: int) -> Iterator[_Move] | tuple[_Move, ...]:
        """The moves at anchor idx that miss `cover`, in move order: built
        as they are yielded on the anchor's first visit, else a tuple from
        the free table. Every move lies inside the anchor's last one, its
        orthant, so only the cover inside it is part of the key."""
        if (moves := self.moves.get(idx)) is None:
            return self._build_moves(idx, cover)
        key = (cover & moves[-1][1]) << self.cells | idx
        free = self.free.get(key)
        if free is None:
            free = tuple([m for m in moves if not cover & m[1]])
            if self.held + len(free) > _TABLE_ENTRIES:
                self.free.clear()
                self.held = 0
            if len(free) <= _TABLE_ENTRIES:
                self.free[key] = free
                self.held += len(free)
        return free

    def solutions(self) -> Iterator[list[IndexBox]]:
        """Yield the boxes of each complete k-satisfying partition, in
        canonical order. self.nodes counts the placements so far."""
        self.nodes = 0
        slack = self.flat_size - self.problem.k  # every flat's, before any box
        if slack < 0:
            return  # no flat can ever meet k boxes at this grid size
        slack = self.ones * ((1 << self.width - 1) + slack)
        guards, full, budget, cells, left_bits = (
            self.guards, self.full, self.problem.node_budget, self.cells, self.left_bits)
        last_box, exhausted, free_moves = self.last_box, self.exhausted, self._free_moves
        it: Iterator[_Move] = iter(free_moves(0, 0))
        if self.problem.symmetry_pruning:
            # the first box only: extents sorted along the axes (cover is 0 here)
            it = (m for m in it if all(a[1] - a[0] <= b[1] - b[0] for a, b in pairwise(m[0])))
        # The frame being searched: its free moves, cover, packed slack, boxes
        # that may still be placed (this one included), exhausted-table key
        # (None if it is not stored), and placements and solutions at entry.
        cover, left, key, entry_nodes, entry_found = 0, self.problem.m_max, None, 0, 0
        stack: list[tuple[Iterator[_Move], int, int, int, int | None, int, int]] = []
        boxes: list[IndexBox] = []  # the boxes placed on the path to this frame
        nodes = found = 0
        while True:
            for box, mask, packed in it:
                nodes += 1
                if nodes > budget:
                    self._over_budget()
                after = slack + packed
                if after & guards != guards:
                    continue  # some flat's slack fell below 0
                self.nodes = nodes
                child = cover | mask
                if child == full:
                    # Complete: every flat has no uncovered cell left, so its
                    # slack >= 0 says it meets at least k boxes.
                    found += 1
                    yield boxes + [box]
                elif left == 2 and (entry := last_box.get(child) or self._last_box(child)):
                    n, last = entry
                    nodes += n
                    if nodes > budget:
                        self._over_budget()
                    if last is not None and (after + last[2]) & guards == guards:
                        self.nodes = nodes
                        found += 1
                        yield boxes + [box, last[0]]
                elif left > 1:  # left == 2 only on the next anchor's first visit
                    child_key = None
                    if left > 3:
                        child_key = ((after << cells | child) << left_bits) + left
                        n = exhausted.get(child_key)
                        if n is not None:
                            nodes += n
                            if nodes > budget:
                                self._over_budget()
                            continue
                    stack.append((it, cover, slack, left, key, entry_nodes, entry_found))
                    boxes.append(box)
                    idx = (~child & (child + 1)).bit_length() - 1  # the lowest clear bit
                    it = iter(free_moves(child, idx))
                    cover, slack, left, key = child, after, left - 1, child_key
                    entry_nodes, entry_found = nodes, found
                    break
            else:  # the frame's moves are spent
                if key is not None and found == entry_found:
                    if len(exhausted) >= _TABLE_ENTRIES:
                        exhausted.clear()
                    exhausted[key] = nodes - entry_nodes
                if not stack:
                    break
                it, cover, slack, left, key, entry_nodes, entry_found = stack.pop()
                boxes.pop()
        self.nodes = nodes

    def _last_box(self, cover: int) -> tuple[int, _Move | None] | None:
        """Fill and return last_box[cover]: the count of the moves at the
        cover's anchor that miss it, and the last if it completes the cover,
        else None. None on the anchor's first visit, whose moves are not
        built yet: the DFS then places the last box one move at a time."""
        idx = (~cover & (cover + 1)).bit_length() - 1
        if idx not in self.moves:
            return None
        if len(self.last_box) >= _TABLE_ENTRIES:
            self.last_box.clear()
        free = self._free_moves(cover, idx)
        # the unit cell at idx is free; if the free cells form one box, that
        # box is a move at idx and the last free one
        last = free[-1] if free[-1][1] == self.full ^ cover else None
        entry = self.last_box[cover] = (len(free), last)
        return entry

    def _over_budget(self) -> None:
        """Stop as the per-placement check would: at the budget's first excess placement."""
        self.nodes = (budget := self.problem.node_budget) + 1
        raise ResourceLimit(f"node budget {budget} exceeded at {self.nodes} placements")

    def witness_partition(self, boxes: list[IndexBox]) -> BrickPartition:
        parent = Brick.from_pairs([(0, self.problem.g)] * self.problem.d)
        return BrickPartition(parent, tuple(Brick.from_pairs(box) for box in boxes))


def exists_partition(problem: SearchProblem) -> SearchOutcome:
    """First witness in canonical order, or exhaustion at the grid cap.

    Raises ResourceLimit if the node budget runs out; that is never reported
    as ExhaustedNone.
    """
    engine = _Engine(problem)
    for boxes in engine.solutions():
        witness = engine.witness_partition(boxes)
        return SearchOutcome(SearchStatus.FOUND, witness, engine.nodes)
    return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, engine.nodes)
