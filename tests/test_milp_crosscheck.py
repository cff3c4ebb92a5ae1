"""The search's small minima against a 0/1 integer program.

The minimum tiling of [0,g]^d by grid boxes in which every flat meets at
least k boxes, posed as a MILP: one 0/1 variable per box, every cell covered
exactly once, every flat met at least k times. scipy's solver works in
floating point, so its optimum is a cross-check of the exact search, never
the claim; brickpart itself does not depend on scipy.

On the cube g = m the same program answers at complete scope: m members
compress to at most m cells per axis, so a partition of m or fewer members
meeting every flat k times exists iff the program with sum(x) <= m is
feasible at g = m. The model is `milp_model` in scripts/milp_crosscheck.py,
which checks s(3,4) > 6 and p(3,2) > 7 the same way, outside the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

from brickpart.search import Mode, SearchProblem, SearchStatus, exists_partition

optimize = pytest.importorskip("scipy.optimize")

# the one copy of the 0/1 model, shared with the script that runs the slow claims
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "milp_crosscheck.py"
spec = importlib.util.spec_from_file_location("milp_crosscheck", SCRIPT)
milp_crosscheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(milp_crosscheck)
milp_solve = milp_crosscheck.milp_solve


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


def test_milp_finds_a_partition_of_the_minimum_at_complete_scope():
    # with p(2,3) > 7 above, this pins p(2,3) = 8 on the cube g = 8 without the search
    result = milp_solve(2, 3, Mode.PIERCING, 8, most=8)
    assert result.status == 0 and round(result.fun) == 8
