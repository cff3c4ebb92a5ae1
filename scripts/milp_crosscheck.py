#!/usr/bin/env python3
"""Cross-check small minima of the exact search with a 0/1 integer program.

The program tiles [0,g]^d by grid boxes: one 0/1 variable per box, every cell
covered exactly once, every flat (a line when piercing, a slab when slicing)
met by at least k boxes, and at most `most` boxes in all. m members compress
to at most m cells per axis, so on the cube g = m the program with at most m
boxes covers every partition of m or fewer members: "infeasible" there says
that none exists, at complete scope.

scipy's solver works in floating point, so its verdict is a cross-check of
the exact search, never the claim. Only this script and the tests need scipy.

    python3 scripts/milp_crosscheck.py                   # s(3,4) > 6, p(3,2) > 7
    python3 scripts/milp_crosscheck.py --case 'p(2,2)'   # one claim; repeatable

Each line prints the claim, the verdict, the box count and the seconds spent
building the model and solving it. p(3,2) > 7 takes over 5 minutes to solve
on a 2 vCPU machine. The exit code is 0 when every claim is confirmed.
"""

import argparse
import time
from itertools import combinations

import numpy as np
from scipy import optimize, sparse

from brickpart import Mode

# name -> (d, k, mode, m): no partition of at most m members, checked at g = m
CASES = {
    "p(2,2)": (2, 2, Mode.PIERCING, 3),
    "s(3,2)": (3, 2, Mode.SLICING, 3),
    "s(3,3)": (3, 3, Mode.SLICING, 4),
    "p(2,3)": (2, 3, Mode.PIERCING, 7),
    "s(3,4)": (3, 4, Mode.SLICING, 6),
    "p(3,2)": (3, 2, Mode.PIERCING, 7),
}
DEFAULT_CASES = ["s(3,4)", "p(3,2)"]  # the two too slow for the test suite
VERDICTS = {0: "FEASIBLE, against the search", 2: "infeasible, as the search says"}


def _incidence(inside: list[np.ndarray], boxes: int) -> np.ndarray:
    """Rows: every tuple of coordinates, one per array of `inside`, in
    lexicographic order; row (x_0, x_1, ...) marks the boxes that hold every
    x_i, where inside[i][x, b] says whether box b holds x."""
    rows = np.ones((1, boxes), dtype=bool)
    for more in inside:
        rows = (rows[:, None, :] & more[None, :, :]).reshape(-1, boxes)
    return rows


def milp_model(d: int, k: int, mode: Mode, g: int, most: float = np.inf) -> dict:
    """optimize.milp's arguments for the fewest boxes, at most `most`, in a
    tiling of [0,g]^d whose flats each meet >= k of them."""
    sides = np.array(list(combinations(range(g + 1), 2)))  # every (lo, hi), 0 <= lo < hi <= g
    pick = np.indices((len(sides),) * d).reshape(d, -1)  # each box's side index per axis
    x = np.arange(g)[:, None]
    inside = [(sides[p, 0] <= x) & (x < sides[p, 1]) for p in pick]  # per axis: (g, boxes)
    boxes = pick.shape[1]
    covers = _incidence(inside, boxes)
    meets = np.vstack([
        _incidence([inside[b] for b in range(d) if (b != a) == (mode is Mode.PIERCING)], boxes)
        for a in range(d)
    ])  # fmt: skip
    return dict(
        c=np.ones(boxes),
        integrality=np.ones(boxes),
        bounds=optimize.Bounds(0, 1),
        constraints=[
            optimize.LinearConstraint(sparse.csr_array(covers, dtype=float), 1, 1),
            optimize.LinearConstraint(sparse.csr_array(meets, dtype=float), k, np.inf),
            optimize.LinearConstraint(np.ones((1, boxes)), 0, most),
        ],
    )


def milp_solve(d: int, k: int, mode: Mode, g: int, most: float = np.inf):
    """scipy's result for milp_model(d, k, mode, g, most)."""
    return optimize.milp(**milp_model(d, k, mode, g, most))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--case", action="append", choices=list(CASES), help=f"default: {', '.join(DEFAULT_CASES)}"
    )
    args = parser.parse_args(argv)

    confirmed = True
    for name in args.case or DEFAULT_CASES:
        d, k, mode, m = CASES[name]
        t0 = time.perf_counter()
        model = milp_model(d, k, mode, m, most=m)
        t1 = time.perf_counter()
        result = optimize.milp(**model)
        t2 = time.perf_counter()
        confirmed &= result.status == 2
        verdict = VERDICTS.get(result.status, f"undecided ({result.message})")
        print(
            f"{name} > {m} at g={m}: {verdict} "
            f"[{len(model['c'])} boxes; model {t1 - t0:.1f}s, solve {t2 - t1:.1f}s]"
        )
    return 0 if confirmed else 1


if __name__ == "__main__":
    raise SystemExit(main())
