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

The last box is counted, not searched. Once a placement leaves one box to
place, the last level's placements are the next anchor's moves that miss
the cover, and it has a solution only if the free cells form one box R at
that anchor: every free move is then a sub-box of R, so R comes last in the
product move order, and the solution is reached after exactly those
placements. Both depend on the cover alone, not on the slack, so they are
kept per cover in a dict that is cleared when it holds _TABLE_ENTRIES
covers; the budget is checked while an entry is read, so it still bounds the
move tables. Node counts and solution order are those of the full DFS.

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
a loop over one anchor's moves with a last-box lookup each, and storing those
too multiplied the entries by 5 and the peak memory by 2 on p(2,3) m=7 g=6
for no time saved. The table is cleared at _TABLE_ENTRIES entries, as the
last-box table is.

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
from typing import Iterable, Iterator

from .errors import ResourceLimit
from .geometry import Brick
from .partition import BrickPartition

DEFAULT_NODE_BUDGET = 10**8
_MAX_CELLS = 1 << 26  # the cover mask is a g^d-bit int, built before any placement
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
        for field in ("d", "k", "m_max", "g"):
            if (value := getattr(self, field)) < 1:
                raise ValueError(f"{field}: must be >= 1, got {value}")
        if self.mode is Mode.SLICING and self.d < 2:
            raise ValueError(f"d: slicing mode needs d >= 2, got {self.d}")
        # g^27 > 2^26 for any g >= 2, so the power stays small for every d
        if self.g ** min(self.d, 27) > _MAX_CELLS:
            raise ValueError(f"g: {self.g} in d={self.d} gives more than 2^26 cells")
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
        self.budget = problem.node_budget
        # fixed[a]: the axes that flat class a fixes, every axis but a for lines
        # (piercing) and axis a alone for slabs (slicing). Each class fixes n
        # axes, so it holds g^n flats of g^(d-n) cells; a flat's id is a*g^n
        # plus the base-g index of its fixed cell coordinates.
        lines = problem.mode is Mode.PIERCING
        self.fixed = [tuple(b for b in range(d) if (b != a) == lines) for a in range(d)]
        n = len(self.fixed[0])
        self.flat_size, self.class_size = g ** (d - n), g**n
        self.places = [g ** (n - 1 - j) for j in range(n)]  # base-g place values
        self.strides = [g ** (d - 1 - a) for a in range(d)]  # cell index place values
        # spans[lo]: every side (lo, hi) starting at lo, shared by all boxes
        self.spans = [[(lo, hi) for hi in range(lo + 1, g + 1)] for lo in range(g)]
        self.width = self.flat_size.bit_length() + 1  # bits per packed slack field
        self.ones = _repunit(d * self.class_size, self.width, 0)  # bit 0 of every field
        self.guards = self.ones << self.width - 1
        # Candidate boxes per anchor cell. Each anchor's list is built while
        # its first visit runs, so the node budget also bounds the table.
        self.moves: dict[int, list[_Move]] = {}
        # The last box's placements on each cover it is placed on, negated when
        # the free cells form one box, whose move is then last_move[cover].
        self.last_box: dict[int, int] = {}
        self.last_move: dict[int, _Move] = {}
        # The placements of each subtree searched to its end without a
        # solution, keyed by its (slack, cover, boxes left) packed in one int.
        self.exhausted: dict[int, int] = {}

    def _build_moves(self, anchor: int) -> Iterator[_Move]:
        """Yield the anchor's moves as they are built; keep the list once it is
        complete. It is never empty (the unit cell is a move), and anchors rise
        along a DFS path, so `self.moves.get(idx) or` builds each anchor once."""
        w = self.width
        corner = [anchor // stride % self.problem.g for stride in self.strides]
        moves: list[_Move] = []
        for box in product(*(self.spans[c] for c in corner)):
            # one bit per cell; each cell has its own exponent, so no carries
            mask = prod(_repunit(hi - lo, s, lo * s) for s, (lo, hi) in zip(self.strides, box))
            volume = prod(hi - lo for lo, hi in box)
            packed = 0
            for a, axes in enumerate(self.fixed):
                met, count = 1 << w * a * self.class_size, 1  # class-a flats the box meets
                for b, place in zip(axes, self.places):
                    lo, hi = box[b]
                    met *= _repunit(hi - lo, w * place, w * lo * place)
                    count *= hi - lo
                packed += (1 - volume // count) * met  # 1 - the box's cells on each flat
            move = (box, mask, packed)
            moves.append(move)
            yield move
        self.moves[anchor] = moves

    def solutions(self) -> Iterator[list[IndexBox]]:
        """Yield the boxes of each complete k-satisfying partition, in
        canonical order. self.nodes counts the placements so far, and
        self.found the solutions yielded so far."""
        self.nodes = self.found = 0
        slack = self.flat_size - self.problem.k  # every flat's, before any box
        if slack < 0:
            return  # no flat can ever meet k boxes at this grid size
        for boxes in self._dfs(0, self.ones * ((1 << self.width - 1) + slack), []):
            self.found += 1  # before the yield, so a frame resumed after it sees it
            yield boxes

    def _dfs(self, cover: int, slack: int, boxes: list[IndexBox]) -> Iterator[list[IndexBox]]:
        idx = (~cover & (cover + 1)).bit_length() - 1  # the lowest clear bit
        moves: Iterable[_Move] = self.moves.get(idx) or self._build_moves(idx)
        if not boxes and self.problem.symmetry_pruning:
            # the first box only: extents sorted along the axes (cover is 0 here)
            moves = (m for m in moves if all(a[1] - a[0] <= b[1] - b[0] for a, b in pairwise(m[0])))
        guards, full, budget = self.guards, self.full, self.budget
        left = self.problem.m_max - len(boxes)  # boxes that may still be placed, this one included
        for box, mask, packed in moves:
            if cover & mask:
                continue
            self.nodes += 1
            if self.nodes > budget:
                self._over_budget()
            after = slack + packed
            if after & guards != guards:
                continue  # some flat's slack fell below 0
            child = cover | mask
            if child == full:
                # Complete: every flat has no uncovered cell left, so its slack
                # >= 0 says it meets at least k boxes.
                yield boxes + [box]
            elif left > 3:
                key = ((after << self.cells | child) << self.left_bits) + left
                n = self.exhausted.get(key)
                if n is None:
                    nodes, found = self.nodes, self.found
                    yield from self._dfs(child, after, boxes + [box])
                    if self.found == found:
                        if len(self.exhausted) >= _TABLE_ENTRIES:
                            self.exhausted.clear()
                        self.exhausted[key] = self.nodes - nodes
                else:
                    self.nodes += n
                    if self.nodes > budget:
                        self._over_budget()
            elif left == 3:
                yield from self._dfs(child, after, boxes + [box])
            elif left == 2:
                n = self.last_box.get(child) or self._last_box(child)
                self.nodes += n if n > 0 else -n
                if self.nodes > budget:
                    self._over_budget()
                if n < 0:  # the free cells form one box, the last move counted
                    last, _, last_packed = self.last_move[child]
                    if (after + last_packed) & guards == guards:
                        yield boxes + [box, last]

    def _last_box(self, cover: int) -> int:
        """Fill and return last_box[cover]: the anchor's moves that miss
        `cover`, negated if the last of them completes it. The placements are
        counted, and the budget checked, as the anchor's moves are read, so
        the budget bounds this table too."""
        if len(self.last_box) >= _TABLE_ENTRIES:
            self.last_box.clear()
            self.last_move.clear()
        idx = (~cover & (cover + 1)).bit_length() - 1
        room, n, last = self.budget - self.nodes, 0, None
        for move in self.moves.get(idx) or self._build_moves(idx):
            if not cover & move[1]:
                n += 1
                if n > room:
                    self._over_budget()
                last = move
        # the unit cell at idx is free, so last is set; if the free cells form
        # one box, that box is a move at idx and the last free one
        if last[1] == self.full ^ cover:
            self.last_move[cover] = last
            n = -n
        self.last_box[cover] = n
        return n

    def _over_budget(self) -> None:
        """Stop as the per-placement check would: at the budget's first excess placement."""
        self.nodes = self.budget + 1
        raise ResourceLimit(f"node budget {self.budget} exceeded at {self.nodes} placements")

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
