#!/usr/bin/env python3
"""Recompute the exact small values p(2,2), p(2,3), p(3,2), s(3,2), s(3,3)
with the exhaustive canonical-order search, and cross-check each against the
closed-form bounds.
"""

import argparse
import time

from brickpart import (
    Mode,
    SearchProblem,
    SearchStatus,
    exists_partition,
    piercing_number,
    slicing_number,
    validate,
)

CASES = [
    # name, d, k, mode, largest m that must exhaust, its grid, the witness's grid;
    # exhaustion at g >= m is a complete proof, and a witness on any grid is one
    ("p(2,2)", 2, 2, Mode.PIERCING, 3, 3, 3),
    ("p(2,3)", 2, 3, Mode.PIERCING, 7, 7, 4),
    ("p(3,2)", 3, 2, Mode.PIERCING, 7, 2, 2),
    ("s(3,2)", 3, 2, Mode.SLICING, 3, 3, 2),
    ("s(3,3)", 3, 3, Mode.SLICING, 4, 4, 4),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-symmetry", action="store_true")
    args = parser.parse_args(argv)
    symmetry = not args.no_symmetry

    for name, d, k, mode, m_none, g, g_found in CASES:
        t0 = time.perf_counter()
        problem = SearchProblem(d, k, mode, m_none, g, symmetry)
        # the uniform search cannot reach p(3,2)'s cube g=7
        assert problem.proof_complete is (name != "p(3,2)"), name
        below = exists_partition(problem)
        above = exists_partition(SearchProblem(d, k, mode, m_none + 1, g_found, symmetry))
        elapsed = time.perf_counter() - t0
        assert below.status is SearchStatus.EXHAUSTED_NONE
        assert above.status is SearchStatus.FOUND
        W = above.witness
        metric = piercing_number(W) if mode is Mode.PIERCING else slicing_number(W)
        ok = validate(W).valid and metric >= k
        print(
            f"{name} = {len(W)}  [none with <= {m_none} at g={g}; "
            f"witness valid={ok}, metric={metric}; "
            f"nodes {below.nodes_explored}+{above.nodes_explored}; {elapsed:.2f}s]"
        )
        print(f"  exhaustion scope: {problem.scope()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
