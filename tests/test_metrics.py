from fractions import Fraction

import numpy as np
import pytest

from brickpart import (
    Brick,
    BrickPartition,
    FlatQuery,
    ResourceLimit,
    count_intersections,
    hit_members,
    min_flat_count,
    piercing_number,
    slicing_number,
)
from brickpart import geometry, metrics
from brickpart.constructions import (
    grid_partition,
    piercing_2d,
    piercing_3d,
    slicing_3d,
)

from helpers import brute_force_min_flat, int_max_str_digits, piercing_3d_base


def test_flat_query_validates_axes():
    with pytest.raises(ValueError, match=r"^free and fixed axes must partition 1\.\.d$"):
        FlatQuery((1,), ((1, Fraction(0)),))  # axis 1 both free and fixed
    with pytest.raises(ValueError, match=r"^free and fixed axes must partition 1\.\.d$"):
        FlatQuery((2,), ((4, Fraction(0)),))  # axes 2,4 are not 1..d
    with pytest.raises(ValueError):
        FlatQuery((), ((1, Fraction(0)),))
    with pytest.raises(ValueError) as e:  # a bad coordinate text is a bad parameter
        FlatQuery((1,), ((2, "x"),))
    assert type(e.value) is ValueError
    assert str(e.value) == "not an integer, decimal or p/q scalar: 'x'"


@pytest.mark.parametrize(
    "one, two",
    [(1.9, 2.2), (Fraction(1), Fraction(2)), ("1", "2")],
    ids=["float", "fraction", "str"],
)
def test_flat_query_refuses_a_non_integer_axis(one, two):
    # int() would read each as axis 1 or 2: (1.9,) at x2.2 = x3 = 1/2
    # would be a line meeting 3 members of piercing_3d(3)
    with pytest.raises(TypeError):
        FlatQuery((one,), ((2, "0.5"), (3, "0.5")))
    with pytest.raises(TypeError):
        FlatQuery((1,), ((two, "0.5"), (3, "0.5")))


def test_flat_query_reads_numpy_integer_axes():
    q = FlatQuery((np.int64(1),), ((np.int32(3), "1/2"), (2, 1)))
    assert q == FlatQuery((1,), ((2, 1), (3, "1/2")))
    assert all(type(a) is int for a in q.free_axes + tuple(a for a, _ in q.fixed_coords))


def test_flat_query_refuses_a_flat_with_no_fixed_axis():
    with pytest.raises(ValueError) as e:
        FlatQuery((1, 2), ())
    assert type(e.value) is ValueError and str(e.value) == "a flat needs at least one fixed axis"


def test_flat_query_accepts_mapping():
    q = FlatQuery((1,), ((2, 4), (3, 2)))
    assert q.free_axes == (1,)
    assert dict(q.fixed_coords) == {2: Fraction(4), 3: Fraction(2)}
    assert q.dim == 3


def test_count_line_through_base_x1():
    base = piercing_3d_base()
    hits = hit_members(base, FlatQuery((1,), ((2, 4), (3, 2))))
    assert base.labels.index("X1") in hits
    assert len(hits) >= 2


def test_count_single_brick_partition():
    b = Brick.from_pairs([(0, 2), (0, 3)])
    P = BrickPartition(b, (b,))
    assert count_intersections(P, FlatQuery((1,), ((2, 1),))) == 1


def test_count_line_on_cut_plane_of_refined_partition():
    # x=1, y=1 lies on the Y1 cut plane of the k=3 refinement: closed-set
    # semantics meets W1, Z'1, and both Y1 pieces (oracle-frozen value).
    P = piercing_3d(3)
    hits = hit_members(P, FlatQuery((3,), ((1, 1), (2, 1))))
    assert len(hits) == 4
    assert {P.labels[i] for i in hits} == {"W1", "Y1.1", "Y1.2", "Z'1"}


def test_count_rejects_query_outside_parent():
    P = grid_partition(2, 2)
    with pytest.raises(ValueError, match=r"^axis 2 coordinate 5 outside parent \[0, 2\]$"):
        count_intersections(P, FlatQuery((1,), ((2, 5),)))


def test_count_names_a_long_coordinate_outside_parent():
    P, c = grid_partition(2, 2), -(10**4400)
    with pytest.raises(ValueError) as refused:
        count_intersections(P, FlatQuery((1,), ((2, c),)))
    with int_max_str_digits(0):
        assert str(refused.value) == f"axis 2 coordinate {c} outside parent [0, 2]"


def test_count_rejects_dimension_mismatch():
    P = grid_partition(2, 2)
    with pytest.raises(ValueError, match=r"^query dimension 3 differs from partition's 2$"):
        count_intersections(P, FlatQuery((1,), ((2, 1), (3, 1))))


def test_min_flat_count_grid_2_3():
    profile = min_flat_count(grid_partition(2, 3), 1)
    assert profile.minimum == 3


def test_min_flat_count_slicing_k4_planes():
    profile = min_flat_count(slicing_3d(4), 2)
    assert profile.minimum == 4


def test_min_flat_count_piercing_k3_with_witness():
    P = piercing_3d(3)
    profile = min_flat_count(P, 1)
    assert profile.minimum == 3
    # oracle-frozen witness: first minimizing flat in enumeration order
    assert profile.witness.free_axes == (1,)
    assert dict(profile.witness.fixed_coords) == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert count_intersections(P, profile.witness) == profile.minimum


def test_min_flat_count_rejects_bad_codimension():
    P = grid_partition(2, 2)
    with pytest.raises(ValueError, match=r"^free axis count 0 outside 1\.\.1$"):
        min_flat_count(P, 0)
    with pytest.raises(ValueError, match=r"^free axis count 2 outside 1\.\.1$"):
        min_flat_count(P, 2)
    with pytest.raises(ValueError, match=r"^free axis count 1 outside 1\.\.0$"):
        piercing_number(grid_partition(1, 3))


def test_min_flat_count_refuses_projections_above_the_cap(monkeypatch):
    P = piercing_3d(3)
    rows, cols, planes = P.grid.shape
    lines = rows * cols + rows * planes + cols * planes  # the three 2D projections
    monkeypatch.setattr(metrics, "_MAX_FLAT_CELLS", lines)
    assert min_flat_count(P, 1).minimum == 3
    monkeypatch.setattr(metrics, "_MAX_FLAT_CELLS", lines - 1)
    with pytest.raises(ResourceLimit, match=f"over {lines} cells"):
        min_flat_count(P, 1)
    assert min_flat_count(P, 2).minimum >= 3  # planes: rows + cols + planes cells


def test_flat_counts_refuse_corners_above_the_cap_without_validation(monkeypatch):
    # ten stacked copies never pass validate, so only cell_counts' own cap applies
    P = BrickPartition(Brick.from_pairs([(0, 2)] * 4), (Brick.from_pairs([(0, 1)] * 4),) * 10)
    monkeypatch.setattr(geometry, "_MAX_CORNERS", 64)
    with pytest.raises(ResourceLimit, match="^flat counts over 80 corners exceed the cap of 64$"):
        piercing_number(P)  # 2^3 corners a member over three fixed axes
    assert slicing_number(P) == 0  # 2 corners a member over one fixed axis
    monkeypatch.setattr(geometry, "_MAX_CORNERS", 80)
    assert piercing_number(P) == 0


def test_piercing_number_examples():
    assert piercing_number(piercing_3d(5)) == 5
    assert piercing_number(grid_partition(3, 2)) == 2
    assert piercing_number(piercing_2d(3)) == 3


def test_piercing_2d_k3_matches_brute_force_line_classes():
    P = piercing_2d(3)
    assert brute_force_min_flat(P, 1) == 3


def test_slicing_number_examples():
    assert slicing_number(slicing_3d(2)) == 2
    b = Brick.from_pairs([(0, 1)] * 3)
    assert slicing_number(BrickPartition(b, (b,))) == 1
    assert slicing_number(slicing_3d(6)) == 6


def test_profile_counts_cover_every_choice():
    P = slicing_3d(3)
    profile = min_flat_count(P, 2)
    assert set(profile.counts) == {(1, 2), (1, 3), (2, 3)}
    for counts in profile.counts.values():
        assert counts.min() >= profile.minimum


def test_minimum_bounded_by_member_count(corpus):
    for P in corpus[:40]:
        for j in range(1, P.dim):
            profile = min_flat_count(P, j)
            assert 1 <= profile.minimum <= len(P.members)
            assert count_intersections(P, profile.witness) == profile.minimum
