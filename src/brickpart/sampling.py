"""Seeded random valid partitions of [0, 8]^d.

Recursive axis splits keep every intermediate state a valid partition, so
the samples exercise the validator and the metrics without ever needing a
repair step. Split coordinates are exact rationals with power-of-two
denominators. The property-test corpus, the golden documents and the
benchmark's random documents all come from here.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .geometry import Brick, Interval
from .partition import BrickPartition


def random_split_partition(rng: Random, d: int, members: int) -> BrickPartition:
    """Valid d-dimensional partition of [0, 8]^d with the given member count.

    Repeatedly splits a random member along a random axis at a random eighth
    of its extent.
    """
    parent = Brick.from_pairs([(0, 8)] * d)
    pieces = [parent]
    while len(pieces) < members:
        i = rng.randrange(len(pieces))
        axis = rng.randrange(d)
        iv = pieces[i].sides[axis]
        at = iv.lo + iv.length * Fraction(rng.randrange(1, 8), 8)
        lo_piece = pieces[i].replace_side(axis, Interval(iv.lo, at))
        hi_piece = pieces[i].replace_side(axis, Interval(at, iv.hi))
        pieces[i : i + 1] = [lo_piece, hi_piece]
    return BrickPartition(parent, tuple(pieces))
