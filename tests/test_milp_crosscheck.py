"""The search's small minima against a 0/1 integer program.

The minimum tiling of [0,g]^d by grid boxes in which every flat meets at
least k boxes, posed as a MILP: one 0/1 variable per box, every cell covered
exactly once, every flat met at least k times. scipy's solver works in
floating point, so its optimum is a cross-check of the exact search, never
the claim; brickpart itself does not depend on scipy.

On the cube g = m the same program answers at complete scope: m members
compress to at most m cells per axis, so a partition of m or fewer members
meeting every flat k times exists iff the program with sum(x) <= m is
feasible at g = m.
"""

from itertools import combinations, product

import numpy as np
import pytest

from brickpart.search import Mode, SearchProblem, SearchStatus, exists_partition

from helpers import reference_flats

optimize = pytest.importorskip("scipy.optimize")


def milp_solve(d: int, k: int, mode: Mode, g: int, most: float = np.inf):
    """scipy's result for the fewest boxes, at most `most`, in a tiling of
    [0,g]^d whose flats each meet >= k of them."""
    boxes = list(product(combinations(range(g + 1), 2), repeat=d))  # (lo, hi) per axis
    cells = product(range(g), repeat=d)
    flats = reference_flats(d, g, mode is Mode.PIERCING)
    covers = [
        [all(lo <= c < hi for c, (lo, hi) in zip(cell, box)) for box in boxes] for cell in cells
    ]
    meets = [
        [all(box[a][0] <= x < box[a][1] for a, x in zip(axes, xs)) for box in boxes]
        for axes, xs in flats
    ]
    return optimize.milp(
        np.ones(len(boxes)),
        integrality=np.ones(len(boxes)),
        bounds=optimize.Bounds(0, 1),
        constraints=[
            optimize.LinearConstraint(np.array(covers, dtype=float), 1, 1),
            optimize.LinearConstraint(np.array(meets, dtype=float), k, np.inf),
            optimize.LinearConstraint(np.ones((1, len(boxes))), 0, most),
        ],
    )


def milp_minimum(d: int, k: int, mode: Mode, g: int) -> int:
    result = milp_solve(d, k, mode, g)
    assert result.success, result.message
    return round(result.fun)


@pytest.mark.parametrize(
    "d, k, mode, g, minimum",
    [
        (2, 2, Mode.PIERCING, 4, 4),  # p(2,2)
        (3, 2, Mode.SLICING, 4, 4),  # s(3,2)
    ],
)
def test_milp_optimum_is_the_searched_minimum(d, k, mode, g, minimum):
    below = SearchProblem(d, k, mode, minimum - 1, g)
    assert below.proof_complete
    assert exists_partition(below).status is SearchStatus.EXHAUSTED_NONE
    found = exists_partition(SearchProblem(d, k, mode, minimum, g))
    assert found.status is SearchStatus.FOUND and len(found.witness) == minimum
    assert milp_minimum(d, k, mode, g) == minimum


@pytest.mark.parametrize(
    "d, k, mode, m",
    [
        (2, 2, Mode.PIERCING, 3),  # p(2,2) > 3
        (3, 2, Mode.SLICING, 3),  # s(3,2) > 3
        (3, 3, Mode.SLICING, 4),  # s(3,3) > 4
        (2, 3, Mode.PIERCING, 7),  # p(2,3) > 7
    ],
)
def test_milp_finds_no_smaller_partition_at_complete_scope(d, k, mode, m):
    assert SearchProblem(d, k, mode, m, m).proof_complete  # g = m covers every partition
    assert milp_solve(d, k, mode, m, most=m).status == 2  # infeasible
