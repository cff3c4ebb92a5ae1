from itertools import combinations, product

import pytest

from brickpart import (
    BadK,
    BoundKind,
    ConstructionInvalid,
    bounds,
    boundary_incidence,
    elementary_piercing_lb,
    grid_partition,
    min_flat_count,
    piercing_2d,
    piercing_3d,
    piercing_number,
    slicing_3d,
    slicing_number,
    validate,
)
from brickpart import constructions

from helpers import as_pairs

ANCHOR_2D_K3 = {
    ((0, 2), (0, 1)),
    ((3, 4), (0, 2)),
    ((2, 4), (3, 4)),
    ((0, 1), (2, 4)),
    ((2, 3), (0, 2)),
    ((2, 4), (2, 3)),
    ((1, 2), (2, 4)),
    ((0, 2), (1, 2)),
}


def test_grid_partition_2_2():
    P = grid_partition(2, 2)
    assert len(P) == 4
    assert validate(P).valid
    assert piercing_number(P) == 2


def test_grid_partition_realizes_p_d_2():
    P = grid_partition(3, 2)
    assert len(P) == 8 == bounds(3, 2)[BoundKind.ELEMENTARY_PIERCING_LB]
    assert piercing_number(P) == 2


def test_grid_partition_1d_structure():
    P = grid_partition(1, 5)
    assert len(P) == 5
    assert validate(P).valid
    assert as_pairs(P.parent) == ((0, 5),)


@pytest.mark.parametrize("d, k", [(1, 4), (2, 3), (3, 5)])
def test_grid_partition_shares_its_k_unit_sides(d, k):
    # k^d members, d sides each, but only k distinct side objects
    P = grid_partition(d, k)
    sides = {id(s): s for b in P.members for s in b.sides}
    assert sorted((s.lo, s.hi) for s in sides.values()) == [(c, c + 1) for c in range(k)]


def test_piercing_3d_k3():
    P = piercing_3d(3)
    assert len(P) == 21
    assert validate(P).valid
    assert piercing_number(P) == 3


def test_piercing_3d_primed_bricks_unchanged_at_k3():
    P = piercing_3d(3)
    # k-2 = 1 piece: primed labels survive without piece suffixes
    assert "X'1" in P.labels and "X'1.1" not in P.labels


def test_piercing_3d_k10():
    P = piercing_3d(10)
    assert len(P) == 105
    assert piercing_number(P) == 10


def test_piercing_3d_rejects_small_k():
    with pytest.raises(BadK):
        piercing_3d(2)


@pytest.mark.parametrize("build, args, message", [
    (bounds, (0, 3), "d: dimension must be >= 1"),
    (bounds, (3, 1), "k: bounds are defined for k >= 2"),
    (grid_partition, (0, 2), "d: dimension must be >= 1"),
    (grid_partition, (2, 0), "k: grid partition needs k >= 1"),
    (piercing_3d, (2,), "k: piercing_3d needs k >= 3"),
    (slicing_3d, (1,), "k: slicing_3d needs k >= 2"),
    (piercing_2d, (1,), "k: piercing_2d needs k >= 2"),
], ids=lambda x: x.__name__ if callable(x) else None)  # fmt: skip
def test_each_refusal_starts_with_its_field(build, args, message):
    # the CLI reads the field and reports the refusal under its flag
    with pytest.raises(ValueError) as e:
        build(*args)
    assert str(e.value) == message


@pytest.mark.parametrize("d, k", product(range(1, 7), range(2, 7)))
def test_the_grid_bound_is_the_largest_bound(d, k):
    # so the CLI's digit limit need only check k^d before it prints them
    assert max(bounds(d, k).values()) == k**d


@pytest.mark.parametrize("k", range(3, 16))
def test_piercing_3d_family_invariants(k):
    P = piercing_3d(k)
    assert len(P) == 12 * k - 15
    assert validate(P).valid
    assert piercing_number(P) == k
    assert len(P) == bounds(3, k)[BoundKind.ELEMENTARY_PIERCING_LB] + 1


def test_slicing_3d_k2():
    P = slicing_3d(2)
    assert len(P) == 4
    assert slicing_number(P) == 2


def test_slicing_3d_k3_cuts_are_identity():
    P = slicing_3d(3)
    assert len(P) == 5
    assert P.labels == ("W0", "X0", "X1", "Y0", "Y1")


def test_slicing_3d_k2_is_validated(monkeypatch):
    monkeypatch.setattr(constructions, "_SLICING_3D_K2", constructions._SLICING_3D_K2[:-1])
    with pytest.raises(ConstructionInvalid, match="GAP"):
        slicing_3d(2)


def test_slicing_3d_k7():
    P = slicing_3d(7)
    assert len(P) == 13
    assert slicing_number(P) == 7


def test_slicing_3d_rejects_small_k():
    with pytest.raises(BadK):
        slicing_3d(1)


@pytest.mark.parametrize("k", range(2, 16))
def test_slicing_3d_family_invariants(k):
    P = slicing_3d(k)
    assert len(P) == max(4, 2 * k - 1)
    assert validate(P).valid
    assert slicing_number(P) == k
    assert boundary_incidence(P).total >= 6 * k
    if k >= 3:
        assert len(P) == bounds(3, k)[BoundKind.SLICING_LB_3D]


def test_piercing_2d_k2_quadrants():
    P = piercing_2d(2)
    assert {as_pairs(b) for b in P.members} == {
        ((0, 1), (0, 1)),
        ((1, 2), (0, 1)),
        ((0, 1), (1, 2)),
        ((1, 2), (1, 2)),
    }
    assert piercing_number(P) == 2


def test_piercing_2d_k3_matches_regression_anchor():
    P = piercing_2d(3)
    assert {as_pairs(b) for b in P.members} == ANCHOR_2D_K3


def test_piercing_2d_k6_count():
    assert len(piercing_2d(6)) == 20


def test_piercing_2d_rejects_small_k():
    with pytest.raises(BadK):
        piercing_2d(1)


def test_piercing_2d_self_check_finds_a_gap(monkeypatch):
    pinwheel = constructions._pinwheel

    def drop_last_brick(k):
        return pinwheel(k)[:-1]

    monkeypatch.setattr(constructions, "_pinwheel", drop_last_brick)
    with pytest.raises(ConstructionInvalid, match=r"piercing_2d\(4\) does not tile.*GAP"):
        piercing_2d(4)


def test_piercing_2d_self_check_finds_a_wrong_piercing_number(monkeypatch):
    # a valid tiling of [0,6]^2 in two halves: a horizontal line meets one
    halves = [((0, 6), (0, 3)), ((0, 6), (3, 6))]
    monkeypatch.setattr(constructions, "_pinwheel", lambda k: halves)
    with pytest.raises(ConstructionInvalid, match=r"piercing_2d\(4\) has piercing number 1"):
        piercing_2d(4)


@pytest.mark.parametrize("k", range(2, 13))
def test_piercing_2d_family_invariants(k):
    P = piercing_2d(k)  # generator self-verifies validity and piercing == k
    assert len(P) == 4 * (k - 1) == elementary_piercing_lb(2, k)
    side = (0, 2 * (k - 1))
    assert as_pairs(P.parent) == (side, side)


def test_bounds_3d():
    for k in (2, 3, 5, 9):
        assert bounds(3, k)[BoundKind.ELEMENTARY_PIERCING_LB] == 12 * k - 16
        assert bounds(3, k)[BoundKind.TRIVIAL_GRID_UB] == k**3
        assert bounds(3, k)[BoundKind.SLICING_LB_3D] == 2 * k - 1


def test_bounds_2d_matches_2d_family():
    for k in (2, 3, 7):
        assert bounds(2, k)[BoundKind.ELEMENTARY_PIERCING_LB] == 4 * (k - 1)


def test_bounds_k2_lower_equals_upper():
    for d in range(1, 7):
        assert bounds(d, 2)[BoundKind.ELEMENTARY_PIERCING_LB] == 2**d
        assert bounds(d, 2)[BoundKind.TRIVIAL_GRID_UB] == 2**d


def test_bounds_slicing_only_in_3d():
    assert BoundKind.SLICING_LB_3D not in bounds(2, 4)


def test_bounds_rejects_small_k():
    with pytest.raises(BadK):
        bounds(3, 1)


def _linear_forms(rows, side, free_count):
    """The count of every flat class of a row table's base, as (alpha, beta)
    with count alpha*k + beta: a member cut along a free axis adds k - fewer,
    any other member the flat meets adds 1. Every base coordinate is an
    integer, so the open unit cells of [0,side]^3 refine the base grid's
    classes; a flat in one, off the cut planes, meets one piece of a member
    cut along a fixed axis."""
    forms = set()
    for free in combinations(range(1, 4), free_count):
        fixed = [a for a in range(1, 4) if a not in free]
        for cell in product(range(side), repeat=len(fixed)):
            alpha = beta = 0
            for _, sides, axis, fewer in rows:
                if all(sides[a - 1][0] <= c < sides[a - 1][1] for a, c in zip(fixed, cell)):
                    if axis in free:
                        alpha, beta = alpha + 1, beta - fewer
                    else:
                        beta += 1
            forms.add((alpha, beta))
    return forms


@pytest.mark.parametrize(
    "rows, side, family, free_count, expected",
    [
        (constructions._PIERCING_3D_BASE, 6, piercing_3d, 1, {(1, 0), (1, 1), (2, -2)}),
        (constructions._SLICING_3D_BASE, 2, slicing_3d, 2, {(1, 0)}),
    ],
    ids=["piercing_3d", "slicing_3d"],
)
def test_row_table_certifies_min_count_k_for_every_k(rows, side, family, free_count, expected):
    k_min = 3
    forms = _linear_forms(rows, side, free_count)
    assert forms == expected
    # min over forms is k for every k >= k_min: one form is exactly k, and
    # none falls below k at k_min or grows slower than k after it
    assert (1, 0) in forms
    assert all(alpha >= 1 and (alpha - 1) * k_min + beta >= 0 for alpha, beta in forms)
    for k in range(k_min, 12):
        got = min_flat_count(family(k), free_count).minimum
        assert got == min(alpha * k + beta for alpha, beta in forms) == k
