import time
import tracemalloc
from fractions import Fraction
from math import prod
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickpart import (
    Brick,
    BrickOutsideParent,
    BrickPartition,
    ConstructionInvalid,
    FailureKind,
    ResourceLimit,
    boundary_incidence,
    cut,
    grid_partition,
    random_split_partition,
    refine,
    validate,
)
from brickpart import geometry
from brickpart.constructions import slicing_3d
from brickpart.partition import Failure

from helpers import (
    as_pairs, brick_sets, first_bad_cell_midpoint, hull, parent_corners_contained, piercing_3d_base,
    reference_cut, volume, whole_grid_report,
)

X1 = Brick.from_pairs([(0, 2), (3, 6), (0, 4)])


def test_validate_piercing_base_is_partition():
    base = piercing_3d_base()
    report = validate(base)
    assert report.valid and report.failures == ()


def test_validate_single_brick():
    b = Brick.from_pairs([(0, 2), (0, 2)])
    assert validate(BrickPartition(b, [b])).valid


def test_validate_detects_gap_with_exact_witness():
    base = piercing_3d_base()
    idx = base.labels.index("X'2")
    members = [b for i, b in enumerate(base.members) if i != idx]
    report = validate(BrickPartition(base.parent, members))
    assert not report.valid
    (failure,) = report.failures
    assert failure.kind is FailureKind.GAP
    # oracle-frozen value: first uncovered cell midpoint in lexicographic order
    assert failure.point == (Fraction(5, 2), Fraction(1), Fraction(1))
    # independent recount of the same scan
    probe = BrickPartition(base.parent, tuple(members))
    point, count = first_bad_cell_midpoint(probe)
    assert point == failure.point and count == 0


def test_validate_detects_overlap_with_member_pair():
    base = piercing_3d_base()
    idx = base.labels.index("X'2")
    members = list(base.members) + [base.members[idx]]
    report = validate(BrickPartition(base.parent, members))
    assert not report.valid
    (failure,) = report.failures
    assert failure.kind is FailureKind.OVERLAP
    assert set(failure.members) == {idx, len(members) - 1}
    covering = [i for i, b in enumerate(members) if b.contains_point(failure.point)]
    assert len(covering) >= 2


def test_validate_reports_outside_parent():
    parent = Brick.from_pairs([(0, 2), (0, 2)])
    inside = Brick.from_pairs([(0, 2), (0, 1)])
    stray = Brick.from_pairs([(0, 2), (1, 3)])
    low_stray = Brick.from_pairs([(-1, 1), (1, 2)])
    report = validate(BrickPartition(parent, [inside, stray, low_stray]))
    assert not report.valid
    assert [f.kind for f in report.failures] == [FailureKind.OUTSIDE_PARENT] * 2
    assert [f.members for f in report.failures] == [(1,), (2,)]
    assert all(f.point is None for f in report.failures)


def test_partition_rejects_an_unprintable_label():
    parent = Brick.from_pairs([(0, 2), (0, 1), (0, 1)])
    halves = [Brick.from_pairs([(x, x + 1), (0, 1), (0, 1)]) for x in (0, 1)]
    with pytest.raises(ValueError, match=r"labels\[0\]"):
        BrickPartition(parent, halves, labels=("evil\nv 9 9 9", "ok"))
    with pytest.raises(ValueError, match="3 labels for 2 members"):
        BrickPartition(parent, halves, labels=("a", "b", "c"))


def test_partition_refuses_a_non_string_label_as_a_bad_parameter():
    parent = Brick.from_pairs([(0, 2), (0, 1)])
    halves = [Brick.from_pairs([(x, x + 1), (0, 1)]) for x in (0, 1)]
    with pytest.raises(ValueError) as e:
        BrickPartition(parent, halves, [1, 1])
    assert type(e.value) is ValueError  # a bad parameter, not a crash
    assert str(e.value) == "labels[0]: expected printable text, got 1"


def bars(m: int, r: int) -> BrickPartition:
    """[0,m]^2 x [0,3] as m bars along axis 1, then m along axis 2, then r^2
    along axis 3: about m^2 / 2 pairs of members meet on every axis."""
    w = m // r
    members = [Brick.from_pairs([(0, m), (y, y + 1), (0, 1)]) for y in range(m)]
    members += [Brick.from_pairs([(x, x + 1), (0, m), (1, 2)]) for x in range(m)]
    members += [
        Brick.from_pairs([(x, x + w), (y, y + w), (2, 3)])
        for x in range(0, m, w)
        for y in range(0, m, w)
    ]
    return BrickPartition(Brick.from_pairs([(0, m), (0, m), (0, 3)]), members)


def test_validate_memory_is_bounded_by_one_block():
    # numpy reports its buffers to tracemalloc; the grid is built beforehand,
    # so the peak is validate's own. Both grids hold more than 2^20 cells, and
    # validate must stay within an int32 block of 2^20 cells plus one slab,
    # plus 64 KiB for Python objects: it holds the members' corners, no cells
    for P in (random_split_partition(Random(1), 3, 800), bars(640, 8)):
        shape = P.grid.shape
        assert prod(shape) > 2**20
        tracemalloc.start()
        try:
            assert validate(P).valid
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (2**20 + prod(shape[1:])) + 64 * 1024


def test_validate_time_grows_with_corners_not_member_pairs():
    # 12,900 members, of which 36.4 M pairs meet on the axis with fewest such
    # pairs, but only 51,478 signed corners inside the grid
    P = bars(6000, 30)
    P.grid  # built beforehand, so only validate is timed
    start = time.perf_counter()
    assert validate(P).valid
    assert time.perf_counter() - start < 0.5


@given(brick_sets())
def test_validate_matches_the_whole_grid_count_on_any_bricks(bricks):
    P = BrickPartition(hull(bricks), bricks)
    assert validate(P) == whole_grid_report(P)


def test_validate_sums_the_signs_on_one_corner_past_int8():
    # 257 members share the origin, whose signed sum is 256: in int8 it wraps
    # to 0 and would read as a tiling
    parent = Brick.from_pairs([(0, 1)])
    report = validate(BrickPartition(parent, [parent] * 257))
    assert report.failures == (Failure(FailureKind.OVERLAP, (Fraction(1, 2),), tuple(range(257))),)


def test_validate_peak_memory_per_corner():
    # (2k - 1)^3 + 1 = 205,380 signed corners; numpy reports its buffers to
    # tracemalloc, and the grid is built beforehand, so the peak is validate's.
    # The sort holds 25 bytes a corner: int32 coordinates, int8 signs, the
    # int64 order and one permuted row; building the corners must stay below.
    P = grid_partition(3, 30)
    P.grid
    tracemalloc.start()
    try:
        assert validate(P).valid
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 205_380


def test_validation_cap_counts_the_parent_origin(monkeypatch):
    # a member has 2^j corners, j its axes ending inside the grid: (1 + 2)^3
    # over grid_partition(3, 2)'s eight cells, and the parent's origin makes 28
    P = grid_partition(3, 2)
    monkeypatch.setattr(geometry, "_MAX_CORNERS", 28)
    assert validate(P).valid
    monkeypatch.setattr(geometry, "_MAX_CORNERS", 27)
    with pytest.raises(ResourceLimit, match="^validation over 28 corners exceeds the cap of 27$"):
        validate(P)


def test_validate_time_grows_linearly_with_the_dimension():
    # one brick filling [0, 1]^4000: two corners, one array row per axis
    P = BrickPartition(Brick.from_pairs([(0, 1)] * 4000), [Brick.from_pairs([(0, 1)] * 4000)])
    P.grid  # built beforehand, so only validate is timed
    start = time.perf_counter()
    assert validate(P).valid
    assert time.perf_counter() - start < 0.5


def test_reports_hold_python_ints():
    # under numpy 2, repr(np.int64(3)) is "np.int64(3)", which would reach the CLI text
    base = piercing_3d_base()
    gap, overlap = base.members[:-1], base.members + base.members[:2]
    failures = [validate(BrickPartition(base.parent, m)).failures[0] for m in (gap, overlap)]
    assert [f.kind for f in failures] == [FailureKind.GAP, FailureKind.OVERLAP]
    incidence = boundary_incidence(base)
    numbers = [*failures[1].members, *incidence.per_member, incidence.total, incidence.alpha]
    stray = Brick.from_pairs([(1, 7), (0, 1), (0, 1)])
    with pytest.raises(BrickOutsideParent) as exc:
        BrickPartition(base.parent, base.members + (stray, stray)).grid
    assert exc.value.members == (15, 16)
    assert all(type(n) is int for n in numbers + list(exc.value.members))


def test_validate_is_exact_beyond_int64():
    # 2.7e19 cells, past int64: validate works on the corners' ranks alone
    P = random_split_partition(Random(0), 12, 1200)
    assert prod(P.grid.shape) > 2**63
    assert validate(P).valid
    members = P.members[:7] + P.members[8:]
    (failure,) = validate(BrickPartition(P.parent, members)).failures
    assert failure.kind is FailureKind.GAP
    assert P.members[7].contains_point(failure.point)
    assert not any(b.contains_point(failure.point) for b in members)


def test_partition_refuses_an_empty_member_list():
    with pytest.raises(ValueError) as e:
        BrickPartition(Brick.from_pairs([(0, 1)]), ())
    assert type(e.value) is ValueError and str(e.value) == "a partition needs at least one member"


def test_validate_dimension_mismatch():
    # validate takes a partition, and one of mixed dimensions cannot be formed
    with pytest.raises(ValueError, match=r"^member dimension 2 differs from parent dimension 1$"):
        BrickPartition(Brick.from_pairs([(0, 1)]), [Brick.from_pairs([(0, 1), (0, 1)])])


def test_cut_x1_into_two_along_axis_1():
    pieces = cut(X1, 1, 2)
    assert [as_pairs(p)[0] for p in pieces] == [(0, 1), (1, 2)]
    assert all(as_pairs(p)[1:] == ((3, 6), (0, 4)) for p in pieces)


def test_cut_identity():
    b = Brick.from_pairs([(0, 1), (2, 5)])
    assert cut(b, 2, 1) == [b]


def test_cut_thirds_exact():
    b = Brick.from_pairs([(0, 1), (0, 1)])
    pieces = cut(b, 1, 3)
    lows = [p.sides[0].lo for p in pieces] + [pieces[-1].sides[0].hi]
    assert lows == [0, Fraction(1, 3), Fraction(2, 3), 1]


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


@given(rationals, rationals, st.integers(min_value=1, max_value=50), st.integers(1, 2))
def test_cut_matches_the_length_formula(a, b, n, axis):
    sides = [(0, 1), (0, 1)]
    sides[axis - 1] = sorted((a, b + 1 if a == b else b))
    brick = Brick.from_pairs(sides)
    assert cut(brick, axis, n) == reference_cut(brick, axis, n)


def test_cut_bad_axis():
    with pytest.raises(ValueError, match=r"^axis 0 outside 1\.\.3$"):
        cut(X1, 0, 2)
    with pytest.raises(ValueError, match=r"^axis 4 outside 1\.\.3$"):
        cut(X1, 4, 2)


def test_cut_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        cut(X1, 1, 0)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
)
def test_cut_pieces_tile_the_brick(axis, n):
    b = Brick.from_pairs([(0, 5), (-1, 2), (Fraction(1, 2), 3)])
    pieces = cut(b, axis, n)
    assert len(pieces) == n
    assert len({volume(p) for p in pieces}) == 1  # equal volume
    assert validate(BrickPartition(b, pieces)).valid


def test_refine_piercing_plan_at_k4():
    base = piercing_3d_base()
    index = {label: i for i, label in enumerate(base.labels)}
    k = 4
    plan = [(index[n], axis, k - 1) for n, axis in
            [("X1", 1), ("X2", 1), ("Y1", 2), ("Y2", 2), ("Z1", 3), ("Z2", 3)]]
    plan += [(index[n], axis, k - 2) for n, axis in
             [("X'1", 1), ("X'2", 1), ("Y'1", 2), ("Y'2", 2), ("Z'1", 3), ("Z'2", 3)]]
    refined = refine(base, plan)
    assert len(refined) == 3 + 6 * (k - 1) + 6 * (k - 2) == 33
    assert validate(refined).valid


def test_refine_empty_plan_is_identity():
    base = slicing_3d(3)
    assert refine(base, []).members == base.members


def test_refine_slicing_plan_at_k5():
    base = slicing_3d(3)
    refined = refine(base, [(base.labels.index("X1"), 2, 3), (base.labels.index("Y1"), 1, 3)])
    assert len(refined) == 9


def test_refine_rejects_duplicate_indices():
    base = slicing_3d(3)
    with pytest.raises(ValueError):
        refine(base, [(0, 1, 2), (0, 2, 2)])


def test_refine_rejects_an_index_outside_the_members():
    base = slicing_3d(3)
    with pytest.raises(ValueError, match=r"^plan index 7 outside 0\.\.4$") as e:
        refine(base, [(0, 1, 2), (7, 1, 2)])
    assert type(e.value) is ValueError
    with pytest.raises(ValueError, match=r"^plan index -1 outside 0\.\.4$") as e:
        refine(base, [(-1, 1, 2)])
    assert type(e.value) is ValueError


def test_refine_keeps_unplanned_members_and_one_piece_labels():
    base = slicing_3d(3)
    x1 = base.labels.index("X1")
    refined = refine(base, [(x1, 1, 1), (base.labels.index("Y1"), 1, 2)])
    assert refined.labels == ("W0", "X0", "X1", "Y0", "Y1.1", "Y1.2")
    assert refined.members[x1] == base.members[x1]
    assert all(refined.members[i] is base.members[i] for i in (0, 1, 3))  # unplanned


def test_refine_leaves_an_unlabelled_partition_unlabelled():
    P = grid_partition(2, 2)
    refined = refine(P, [(0, 1, 2), (3, 2, 3)])
    assert refined.labels is None and len(refined) == 7
    assert refined.members[2] is P.members[1] and refined.members[3] is P.members[2]


def test_refine_rejects_overlapping_members():
    square = Brick.from_pairs([(0, 2), (0, 2)])
    P = BrickPartition(square, (square, Brick.from_pairs([(0, 1), (0, 2)])))
    with pytest.raises(ConstructionInvalid, match="invalid partition.*OVERLAP"):
        refine(P, [(0, 1, 2)])


def test_refine_labels_pieces():
    base = slicing_3d(3)
    refined = refine(base, [(base.labels.index("X1"), 2, 2), (base.labels.index("Y1"), 1, 2)])
    assert refined.labels == ("W0", "X0", "X1.1", "X1.2", "Y0", "Y1.1", "Y1.2")


def test_boundary_incidence_slicing_base_k3():
    base = slicing_3d(3)
    report = boundary_incidence(base)
    assert dict(zip(base.labels, report.per_member)) == {
        "W0": 4, "X0": 3, "X1": 4, "Y0": 3, "Y1": 4,
    }
    assert report.total == 18 and report.alpha == 3


def test_boundary_incidence_single_brick():
    parent = Brick.from_pairs([(0, 2)] * 3)
    report = boundary_incidence(BrickPartition(parent, (parent,)))
    assert report.per_member == (6,) and report.total == 6


def test_boundary_incidence_slicing_k2():
    P = slicing_3d(2)
    report = boundary_incidence(P)
    assert report.per_member == (4, 4, 4, 4)
    assert report.total == 16 and report.alpha == 4


def _reference_incidence(P: BrickPartition) -> tuple[int, ...]:
    """f(b) straight from the coordinates: sides equal to the parent's."""
    return tuple(
        sum(int(s.lo == p.lo) + int(s.hi == p.hi) for s, p in zip(b.sides, P.parent.sides))
        for b in P.members
    )


def test_boundary_incidence_matches_the_coordinate_formula(corpus):
    for P in corpus:
        f = _reference_incidence(P)
        report = boundary_incidence(P)
        assert report.per_member == f
        assert (report.total, report.alpha) == (sum(f), f.count(4))


def test_boundary_incidence_rejects_a_member_outside_the_parent():
    parent = Brick.from_pairs([(0, 2), (0, 2)])
    stray = Brick.from_pairs([(0, 2), (1, 3)])
    with pytest.raises(BrickOutsideParent):
        boundary_incidence(BrickPartition(parent, [Brick.from_pairs([(0, 2), (0, 1)]), stray]))


def test_validate_and_incidence_compare_no_fractions_once_the_grid_exists(monkeypatch):
    base = piercing_3d_base()
    gap = BrickPartition(base.parent, base.members[1:])
    partitions = [slicing_3d(4), base, gap]
    for P in partitions:
        P.grid  # built here, where its sort compares coordinates
    compared = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):

        def counting(self, other, name=name, method=getattr(Fraction, name)):
            compared.append(name)
            return method(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    assert [validate(P).valid for P in partitions] == [True, True, False]
    for P in partitions:
        boundary_incidence(P)
    assert compared == []


def test_parent_corners_contained():
    parent = Brick.from_pairs([(0, 2)] * 3)
    w0 = Brick.from_pairs([(0, 1), (0, 1), (0, 2)])
    assert parent_corners_contained(parent, w0) == 2
    assert parent_corners_contained(parent, parent) == 8
