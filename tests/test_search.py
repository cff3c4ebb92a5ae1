from itertools import product

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
    with pytest.raises(ValueError):
        SearchProblem(0, 2, Mode.PIERCING, 1, 2)
    with pytest.raises(ValueError):
        SearchProblem(1, 2, Mode.SLICING, 1, 2)
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        SearchProblem(2, 2, Mode.PIERCING, 1, 2, node_budget=-1)
    assert SearchProblem(2, 2, Mode.PIERCING, 1, 2).node_budget == 10**8
    # the g^d-cell cover mask would be built before the node budget applies
    SearchProblem(2, 2, Mode.PIERCING, 1, 2**13)  # 2^26 cells: the largest allowed
    for d, g in [(3, 3000), (2, 2**13 + 1), (27, 2), (10**9, 2)]:
        with pytest.raises(ValueError, match=f"--grid {g} in d={d}: more than 2\\^26 cells"):
            SearchProblem(d, 2, Mode.PIERCING, 1, g)


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
    ],
)
def test_engine_matches_the_list_slack_oracle(d, k, mode, m, g):
    for symmetry in (True, False):
        engine = _Engine(SearchProblem(d, k, mode, m, g, symmetry_pruning=symmetry))
        found = [(engine.nodes, boxes) for boxes in engine.solutions()]
        expected = list_slack_search(d, k, mode is Mode.PIERCING, m, g, symmetry)
        assert (found, engine.nodes) == expected


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
    monkeypatch.setattr(search, "_LAST_BOX_ENTRIES", 1)
    engine = _Engine(SearchProblem(2, 1, Mode.PIERCING, 5, 3, symmetry_pruning=False))
    found = [(engine.nodes, boxes) for boxes in engine.solutions()]
    assert (found, engine.nodes) == list_slack_search(2, 1, True, 5, 3, False)
    assert len(engine.last_box) == 1 and len(engine.last_move) <= 1


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
    full = exists_partition(SearchProblem(d, k, mode, m, g))
    n = full.nodes_explored
    for budget in range(n + 3):
        problem = SearchProblem(d, k, mode, m, g, node_budget=budget)
        if budget >= n:
            out = exists_partition(problem)
            assert (out.status, out.nodes_explored) == (full.status, n)
            assert (out.witness and out.witness.members) == (full.witness and full.witness.members)
        else:
            message = f"node budget {budget} exceeded at {budget + 1} placements"
            with pytest.raises(ResourceLimit, match=f"^{message}$"):
                exists_partition(problem)
