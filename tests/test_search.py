import ast
import inspect
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from brickpart import (
    Mode,
    ResourceLimit,
    SearchProblem,
    SearchStatus,
    elementary_piercing_lb,
    exists_partition,
    piercing_number,
    slicing_number,
    validate,
)
from brickpart import search
from brickpart.search import _Engine

from helpers import (
    as_pairs, iter_solutions, list_slack_search, reference_flats, subset_filter_partitions_2x2
)


def _run(d, k, mode, m_max, g, **kw):
    return exists_partition(SearchProblem(d, k, mode, m_max, g, **kw))


def test_p22_exhausts_then_finds():
    assert _run(2, 2, Mode.PIERCING, 3, 3).status is SearchStatus.EXHAUSTED_NONE
    out = _run(2, 2, Mode.PIERCING, 4, 3)
    assert out.status is SearchStatus.FOUND
    assert len(out.witness) == 4
    assert piercing_number(out.witness) >= 2


def test_p32_exhausts_then_finds():
    assert _run(3, 2, Mode.PIERCING, 7, 2).status is SearchStatus.EXHAUSTED_NONE
    out = _run(3, 2, Mode.PIERCING, 8, 2)
    assert out.status is SearchStatus.FOUND
    assert validate(out.witness).valid
    assert piercing_number(out.witness) >= 2


def test_s32_exhausts_then_finds():
    assert _run(3, 2, Mode.SLICING, 3, 2).status is SearchStatus.EXHAUSTED_NONE
    out = _run(3, 2, Mode.SLICING, 4, 2)
    assert out.status is SearchStatus.FOUND
    assert slicing_number(out.witness) >= 2


def test_witness_contract():
    out = _run(2, 3, Mode.PIERCING, 8, 4)
    assert out.status is SearchStatus.FOUND
    assert len(out.witness) <= 8
    assert validate(out.witness).valid
    assert piercing_number(out.witness) >= 3


def test_found_never_beats_proven_bounds():
    for d, k, g, m in ((2, 2, 3, 4), (2, 3, 4, 8), (3, 2, 2, 8)):
        out = _run(d, k, Mode.PIERCING, m, g)
        assert out.status is SearchStatus.FOUND
        assert len(out.witness) >= elementary_piercing_lb(d, k)
    out = _run(3, 3, Mode.SLICING, 5, 4)
    assert out.status is SearchStatus.FOUND
    assert len(out.witness) >= 2 * 3 - 1


def test_canonical_enumeration_visits_each_partition_once():
    # k = 1 removes the flat constraint: every box partition is a solution
    problem = SearchProblem(2, 1, Mode.PIERCING, 4, 2, symmetry_pruning=False)
    solutions = [frozenset(as_pairs(b) for b in P.members) for P in iter_solutions(problem)]
    assert len(solutions) == len(set(solutions)) == 8
    # independent oracle: filter every subset of candidate rectangles
    assert len(subset_filter_partitions_2x2()) == 8


def test_enumeration_count_3x3_grid():
    problem = SearchProblem(2, 1, Mode.PIERCING, 9, 3, symmetry_pruning=False)
    solutions = [frozenset(as_pairs(b) for b in P.members) for P in iter_solutions(problem)]
    # rectangle partitions of the 3x3 grid; every one distinct
    assert len(solutions) == len(set(solutions)) == 322


def test_node_count_deterministic():
    problem = SearchProblem(2, 3, Mode.PIERCING, 7, 4)
    assert exists_partition(problem).nodes_explored == exists_partition(problem).nodes_explored


def test_symmetry_pruning_preserves_outcomes():
    for m, want in ((3, SearchStatus.EXHAUSTED_NONE), (4, SearchStatus.FOUND)):
        with_sym = _run(2, 2, Mode.PIERCING, m, 3, symmetry_pruning=True)
        without = _run(2, 2, Mode.PIERCING, m, 3, symmetry_pruning=False)
        assert with_sym.status is want and without.status is want
        assert with_sym.nodes_explored <= without.nodes_explored


def test_grid_refinement_preserves_found():
    for g in (3, 4, 5):
        assert _run(2, 2, Mode.PIERCING, 4, g).status is SearchStatus.FOUND


def test_grid_cap_note():
    # the scope rule's boundary: g = m_max is complete, one less is not
    for m, g, scope in ((2, 2, "complete"), (2, 1, "relative to this grid"),
                        (5, 5, "complete"), (5, 4, "relative to this grid")):
        problem = SearchProblem(2, 2, Mode.PIERCING, m, g)
        assert problem.proof_complete == (scope == "complete")
        assert problem.scope() == f"g={g}, m_max={m} ({scope})"
    assert SearchProblem(3, 3, Mode.SLICING, 4, 4).proof_complete  # g=4 >= m_max=4


def test_resource_limit_is_not_exhaustion():
    with pytest.raises(ResourceLimit):
        _run(2, 3, Mode.PIERCING, 7, 4, node_budget=5)


def test_problem_validation():
    # each refusal names the field at fault, not a CLI flag
    for args, message in [
        ((0, 2, Mode.PIERCING, 1, 2), "d: must be >= 1, got 0"),
        ((2, -1, Mode.PIERCING, 1, 2), "k: must be >= 1, got -1"),
        ((2, 2, Mode.PIERCING, 0, 2), "m_max: must be >= 1, got 0"),
        ((2, 2, Mode.PIERCING, 1, 0), "g: must be >= 1, got 0"),
        ((1, 2, Mode.SLICING, 1, 2), "d: slicing mode needs d >= 2, got 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchProblem(*args)
    with pytest.raises(ValueError, match="^node_budget: must be >= 0, got -1$"):
        SearchProblem(2, 2, Mode.PIERCING, 1, 2, node_budget=-1)
    assert SearchProblem(2, 2, Mode.PIERCING, 1, 2).node_budget == 10**8
    # the g^d-cell cover mask would be built before the node budget applies
    SearchProblem(2, 2, Mode.PIERCING, 1, 2**13)  # 2^26 cells: the largest allowed
    for d, g in [(3, 3000), (2, 2**13 + 1), (27, 2), (10**9, 2)]:
        with pytest.raises(ValueError, match=f"^g: {g} in d={d} gives more than 2\\^26 cells$"):
            SearchProblem(d, 2, Mode.PIERCING, 1, g)


def test_problem_refuses_a_non_integer_count():
    # read as a number, node_budget=1.5 would stop "at 2.5 placements"
    fields = {"d": 2, "k": 2, "mode": Mode.PIERCING, "m_max": 3, "g": 3, "node_budget": 100}
    for field, value in [("node_budget", 1.5), ("node_budget", 100.5), ("m_max", 3.5),
                         ("d", 2.0), ("k", Fraction(2)), ("g", "3")]:  # fmt: skip
        with pytest.raises(TypeError):
            SearchProblem(**{**fields, field: value})
    ints = SearchProblem(**{f: np.int64(v) if f != "mode" else v for f, v in fields.items()})
    assert ints == SearchProblem(**fields)
    assert {type(getattr(ints, f)) for f in fields if f != "mode"} == {int}
    k = SearchProblem(**{**fields, "k": True}).k
    assert (k, type(k)) == (1, int)  # True reads as 1


def test_problem_refuses_more_axes_than_a_grid_under_the_cap_can_have():
    # g = 1 passes the cell cap for any d, but the set-up builds d·(d-1) axis tuples
    with pytest.raises(ValueError, match="^d: must be <= 26, got 27$"):
        SearchProblem(27, 1, Mode.PIERCING, 1, 1)
    outcome = _run(26, 1, Mode.PIERCING, 1, 1)
    assert outcome.status is SearchStatus.FOUND and outcome.nodes_explored == 1


def test_problem_coerces_the_mode_text():
    # the text runs the piercing search, not the slicing one, which finds 4 bricks
    by_name = _run(3, 2, "piercing", 4, 2)
    assert by_name == _run(3, 2, Mode.PIERCING, 4, 2)
    assert by_name.status is SearchStatus.EXHAUSTED_NONE and by_name.nodes_explored == 14
    assert SearchProblem(3, 2, "slicing", 4, 2).mode is Mode.SLICING
    with pytest.raises(ValueError, match="'lines' is not a valid Mode"):
        SearchProblem(3, 2, "lines", 4, 2)


@pytest.mark.parametrize("d, g", [(2, 4), (3, 3)])
def test_move_masks_are_the_cells_of_each_box(d, g):
    # reference: one bit per cell, at the cell's base-g index; one field
    # (1 - the box's cells on that flat) per flat, at the flat's id. A flat
    # met in one cell has delta 0, so it reads like a flat not met.
    for mode in Mode:
        engine = _Engine(SearchProblem(d, 2, mode, 1, g))
        flats = reference_flats(d, g, mode is Mode.PIERCING)
        w = engine.width
        half = 1 << w - 1
        for anchor in range(g**d):
            for box, mask, packed in engine._build_moves(anchor):
                cells = list(product(*(range(lo, hi) for lo, hi in box)))
                expected = 0
                for cell in cells:
                    expected |= 1 << sum(c * g ** (d - 1 - a) for a, c in enumerate(cell))
                assert mask == expected
                met = []
                for f, (axes, coords) in enumerate(flats):
                    n = sum(all(cell[b] == c for b, c in zip(axes, coords)) for cell in cells)
                    if n > 1:
                        met.append((f, 1 - n))
                # every field of packed + half * ones is half + delta, in [1, half]
                fields = packed + half * engine.ones
                decoded = [(f, (fields >> w * f & (1 << w) - 1) - half) for f in range(len(flats))]
                assert [(f, delta) for f, delta in decoded if delta] == met
                assert fields >> w * len(flats) == 0


class _Reuses(dict):
    """An exhausted-subtree table that records the span of placements,
    (placements before, placements after), that each answered lookup adds."""

    def __init__(self, engine):
        super().__init__()
        self.engine, self.spans = engine, []

    def get(self, key, default=None):
        n = super().get(key, default)
        if n is not None:
            self.spans.append((self.engine.nodes, self.engine.nodes + n))
        return n


# each stores exhausted subtrees next to subtrees that yield solutions, and
# skips some of them, with symmetry pruning on and off
_REUSING = [(2, 3, Mode.PIERCING, 8, 4), (3, 3, Mode.SLICING, 5, 3)]


@pytest.mark.parametrize(
    "d, k, mode, m, g",
    [
        (2, 2, Mode.PIERCING, 3, 3),
        (3, 2, Mode.PIERCING, 7, 2),
        (3, 2, Mode.SLICING, 3, 3),
        (2, 1, Mode.PIERCING, 1, 1),  # g = 1: one cell, fields of 2 bits
        (2, 2, Mode.PIERCING, 2, 1),  # flats smaller than k: no placement
        (3, 1, Mode.SLICING, 2, 5),  # k = 1 on slabs of 25 cells
        (3, 25, Mode.SLICING, 125, 5),  # k = flat_size: every slack starts at 0
        (2, 3, Mode.PIERCING, 9, 3),  # k = flat_size on lines
        (4, 2, Mode.PIERCING, 16, 2),
        (4, 2, Mode.SLICING, 4, 2),
        # m_max = 2: the root's placements are the only ones searched
        (2, 1, Mode.PIERCING, 2, 4),
        (3, 1, Mode.SLICING, 2, 3),
        (2, 2, Mode.PIERCING, 2, 4),
        (3, 2, Mode.SLICING, 2, 2),
        *_REUSING,
    ],
)
def test_engine_matches_the_list_slack_oracle(d, k, mode, m, g):
    for symmetry in (True, False):
        engine = _Engine(SearchProblem(d, k, mode, m, g, symmetry_pruning=symmetry))
        engine.exhausted = table = _Reuses(engine)
        found = [(engine.nodes, boxes) for boxes in engine.solutions()]
        expected = list_slack_search(d, k, mode is Mode.PIERCING, m, g, symmetry)
        assert (found, engine.nodes) == expected
        if (d, k, mode, m, g) in _REUSING:
            assert table.spans  # the comparison covers skipped subtrees


def test_node_budget_bounds_the_first_anchors_moves():
    # anchor 0 of [0,16]^3 has 16^3 = 4,096 boxes; ten placements need far fewer
    engine = _Engine(SearchProblem(3, 2, Mode.PIERCING, 2, 16, node_budget=10))
    with pytest.raises(ResourceLimit):
        for _ in engine.solutions():
            pass
    assert 0 not in engine.moves
    # a search that runs to the end keeps each visited anchor's complete list
    engine = _Engine(SearchProblem(2, 2, Mode.PIERCING, 4, 3))
    for _ in engine.solutions():
        pass
    assert len(engine.moves[0]) == 9


def test_engine_matches_the_oracle_when_the_last_box_cache_is_cleared(monkeypatch):
    # a bound of one entry clears the cache before every new cover
    monkeypatch.setattr(search, "_TABLE_ENTRIES", 1)
    engine = _Engine(SearchProblem(2, 1, Mode.PIERCING, 5, 3, symmetry_pruning=False))
    found = [(engine.nodes, boxes) for boxes in engine.solutions()]
    assert (found, engine.nodes) == list_slack_search(2, 1, True, 5, 3, False)
    assert len(engine.last_box) == 1 and engine.held <= 1


@pytest.mark.parametrize("d, k, mode, m, g", _REUSING)
def test_engine_matches_the_oracle_when_the_subtree_table_is_cleared(monkeypatch, d, k, mode, m, g):
    # a bound of one entry clears the table before every new subtree is stored,
    # and keeps only one-move tuples in the free-move table
    monkeypatch.setattr(search, "_TABLE_ENTRIES", 1)
    for symmetry in (True, False):
        engine = _Engine(SearchProblem(d, k, mode, m, g, symmetry_pruning=symmetry))
        found = [(engine.nodes, boxes) for boxes in engine.solutions()]
        expected = list_slack_search(d, k, mode is Mode.PIERCING, m, g, symmetry)
        assert (found, engine.nodes) == expected
        assert len(engine.exhausted) == 1 and engine.held <= 1


class _Hits(dict):
    """A free-move table that counts the lookups it answers."""

    hits = 0

    def get(self, key, default=None):
        free = super().get(key, default)
        self.hits += free is not None
        return free


@pytest.mark.parametrize("d, k, mode, m, g", [(2, 2, Mode.PIERCING, 5, 4), (3, 2, Mode.SLICING, 4, 3)])
def test_free_moves_are_the_anchors_moves_that_miss_the_cover(d, k, mode, m, g):
    # every cover a frame of the search was entered with, against every anchor
    # it leaves free: the table answers for covers that differ outside the
    # anchor's orthant, and must give what filtering the moves gives
    covers = []
    engine = _Engine(SearchProblem(d, k, mode, m, g, symmetry_pruning=False))
    free_moves = engine._free_moves
    engine._free_moves = lambda cover, idx: covers.append(cover) or free_moves(cover, idx)
    assert list(engine.solutions())
    engine = _Engine(SearchProblem(d, k, mode, m, g))
    engine.free = table = _Hits()
    for anchor in range(g**d):
        moves = list(engine._build_moves(anchor))
        for cover in dict.fromkeys(covers):
            if not cover >> anchor & 1:
                expected = tuple(move for move in moves if not cover & move[1])
                assert engine._free_moves(cover, anchor) == expected
    assert len(set(covers)) > 100 and table.hits > len(table)


def test_free_move_table_holds_at_most_its_bound_in_moves(monkeypatch):
    monkeypatch.setattr(search, "_TABLE_ENTRIES", 16)

    class Bounded(dict):
        clears = 0

        def __setitem__(self, key, free):
            super().__setitem__(key, free)
            assert sum(map(len, self.values())) <= 16

        def clear(self):
            self.clears += 1
            super().clear()

    engine = _Engine(SearchProblem(2, 3, Mode.PIERCING, 7, 4))
    engine.free = table = Bounded()
    assert list(engine.solutions()) == [] and engine.nodes == 2369
    assert table.clears > 0 and engine.held == sum(map(len, table.values()))


@pytest.mark.parametrize(
    "d, k, mode, m, g",
    [
        (2, 2, Mode.PIERCING, 3, 3),  # exhausts
        (2, 2, Mode.PIERCING, 4, 3),  # finds
        (2, 1, Mode.PIERCING, 2, 3),  # m_max = 2, finds
        (2, 2, Mode.PIERCING, 2, 4),  # m_max = 2, exhausts
        (3, 2, Mode.SLICING, 4, 2),
    ],
)
def test_every_node_budget_stops_at_its_first_excess_placement(d, k, mode, m, g):
    # placements counted a cover at a time must stop where one at a time would
    problem = SearchProblem(d, k, mode, m, g)
    full = exists_partition(problem)
    for budget in range(full.nodes_explored + 3):
        _assert_budget_stops_as_one_at_a_time(replace(problem, node_budget=budget), full)


def test_a_node_budget_stops_inside_a_skipped_subtree_at_its_first_excess_placement():
    # placements added a subtree at a time must stop where one at a time would;
    # every budget is tried near both ends of each skipped subtree's span
    problem = SearchProblem(2, 3, Mode.PIERCING, 7, 4)
    engine = _Engine(problem)
    engine.exhausted = table = _Reuses(engine)
    assert list(engine.solutions()) == []
    # read while the search runs, so a count kept apart from engine.nodes shows
    assert table.spans == [(591, 805), (1405, 1468), (1479, 1878), (2318, 2340), (2341, 2351)]
    full = exists_partition(problem)
    assert full.nodes_explored == engine.nodes == 2369
    budgets = {b for span in table.spans for end in span for b in range(end - 2, end + 3)}
    for budget in sorted(budgets):
        _assert_budget_stops_as_one_at_a_time(replace(problem, node_budget=budget), full)


def _assert_last_box_counts_stop_as_one_at_a_time(problem, nodes):
    # counts read from a free-move tuple, not from the last-box cache, up to the
    # first witness at `nodes`, must stop where one at a time would; every budget
    # is tried near both ends of each count's span, and the spans are returned
    engine = _Engine(problem)
    engine.free = table = _Hits()
    last_box, spans = engine._last_box, []

    def counted(cover):
        hits = table.hits
        entry = last_box(cover)  # None on the anchor's first visit: the DFS descends
        if entry is not None and table.hits > hits:
            spans.append((engine.nodes, engine.nodes + entry[0]))
        return entry

    engine._last_box = counted
    first = next(engine.solutions())  # where exists_partition stops
    full = exists_partition(problem)
    assert full.witness == engine.witness_partition(first) and full.nodes_explored == engine.nodes == nodes
    budgets = {b for span in spans for end in span for b in range(end - 2, end + 3)}
    for budget in sorted(budgets):
        _assert_budget_stops_as_one_at_a_time(replace(problem, node_budget=budget), full)
    return spans


def test_a_node_budget_stops_inside_a_last_box_count_that_the_free_table_answers():
    # an anchor's first visit places the last box one move at a time, so only a
    # revisited anchor is counted; this span places the witness's last box
    problem = SearchProblem(2, 2, Mode.PIERCING, 5, 4)
    assert _assert_last_box_counts_stop_as_one_at_a_time(problem, 92) == [(83, 92)]


def test_a_node_budget_stops_inside_each_of_many_last_box_counts():
    problem = SearchProblem(2, 3, Mode.PIERCING, 8, 4)
    spans = _assert_last_box_counts_stop_as_one_at_a_time(problem, 4293)
    assert len(spans) == 22 and spans[:2] == [(51, 54), (58, 61)]


class _Forgets(dict):
    """A table that never stores, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize(
    "d, k, mode, m, g",
    [
        (2, 2, Mode.PIERCING, 5, 4),
        (2, 3, Mode.PIERCING, 8, 4),
        (3, 3, Mode.SLICING, 5, 3),
        (3, 2, Mode.PIERCING, 7, 2),
    ],
)
def test_engine_matches_the_oracle_when_no_table_answers(d, k, mode, m, g):
    # with every table a miss, the DFS searches each frame one box at a time;
    # what the tables answer elsewhere must be what that search finds
    for symmetry in (True, False):
        engine = _Engine(SearchProblem(d, k, mode, m, g, symmetry_pruning=symmetry))
        engine.free, engine.exhausted, engine.last_box = _Forgets(), _Forgets(), _Forgets()
        engine._last_box = lambda cover: None
        found = [(engine.nodes, boxes) for boxes in engine.solutions()]
        expected = list_slack_search(d, k, mode is Mode.PIERCING, m, g, symmetry)
        assert (found, engine.nodes) == expected


def test_only_the_dfs_builds_moves_and_checks_the_budget():
    # the tables are caches: a miss descends, so no lookup builds moves or stops
    # the search on its own
    engine = next(
        node for node in ast.parse(inspect.getsource(search)).body
        if isinstance(node, ast.ClassDef) and node.name == "_Engine"
    )
    read: dict[str, set[str]] = {}  # each method's self.<attr> references
    for method in engine.body:
        if isinstance(method, ast.FunctionDef):
            read[method.name] = {
                node.attr for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
    assert {name for name, attrs in read.items() if "_build_moves" in attrs} == {"_free_moves"}
    assert {name for name, attrs in read.items() if "_over_budget" in attrs} == {"solutions"}
    assert read["_last_box"] & {"nodes", "budget"} == set()


def _assert_budget_stops_as_one_at_a_time(problem, full):
    budget, n = problem.node_budget, full.nodes_explored
    if budget >= n:
        out = exists_partition(problem)
        assert (out.status, out.nodes_explored) == (full.status, n)
        assert (out.witness and out.witness.members) == (full.witness and full.witness.members)
    else:
        message = f"node budget {budget} exceeded at {budget + 1} placements"
        with pytest.raises(ResourceLimit, match=f"^{message}$"):
            exists_partition(problem)
