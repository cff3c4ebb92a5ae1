#!/usr/bin/env python3
"""Build the explicit partition families over a k range and print summary
tables: member counts next to the closed-form bounds, validator results, and
the exact piercing/slicing numbers from the cell-midpoint oracle.
"""

import argparse

from brickpart import (
    BoundKind,
    boundary_incidence,
    bounds,
    piercing_2d,
    piercing_3d,
    piercing_number,
    slicing_3d,
    slicing_number,
    validate,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-min", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=12)
    args = parser.parse_args(argv)

    print("3D piercing family: 12k-15 members vs lower bound 12k-16")
    print(f"{'k':>4} {'members':>8} {'lb':>6} {'piercing':>9} {'valid':>6}")
    for k in range(max(3, args.k_min), args.k_max + 1):
        P = piercing_3d(k)
        lb = bounds(3, k)[BoundKind.ELEMENTARY_PIERCING_LB]
        ok = validate(P).valid
        print(f"{k:>4} {len(P):>8} {lb:>6} {piercing_number(P):>9} {str(ok):>6}")

    print()
    print("3D slicing family: 2k-1 members, matching the lower bound exactly")
    print(f"{'k':>4} {'members':>8} {'lb':>6} {'slicing':>8} {'F':>6} {'alpha':>6}")
    for k in range(max(2, args.k_min - 1), args.k_max + 1):
        P = slicing_3d(k)
        lb = bounds(3, k)[BoundKind.SLICING_LB_3D]
        inc = boundary_incidence(P)
        print(
            f"{k:>4} {len(P):>8} {lb:>6} {slicing_number(P):>8} "
            f"{inc.total:>6} {inc.alpha:>6}"
        )

    print()
    print("2D pinwheel family: 4(k-1) members, matching the lower bound exactly")
    print(f"{'k':>4} {'members':>8} {'lb':>6} {'piercing':>9}")
    for k in range(max(2, args.k_min - 1), args.k_max + 1):
        P = piercing_2d(k)
        lb = bounds(2, k)[BoundKind.ELEMENTARY_PIERCING_LB]
        print(f"{k:>4} {len(P):>8} {lb:>6} {piercing_number(P):>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
