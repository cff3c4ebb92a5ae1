import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brickpart import (
    Brick,
    BrickOutsideParent,
    BrickPartition,
    Interval,
    as_scalar,
    build_grid,
    format_scalar,
    parse_scalar,
    validate,
)
from brickpart import metrics
from brickpart.constructions import slicing_3d
from brickpart.geometry import MAX_SCALAR_DIGITS, cell_counts, first_bad_cell, ratio_renderer

from helpers import (
    as_pairs, brick_sets, hull, int_max_str_digits, int_refusal, piercing_3d_base,
    reference_index_boxes, slice_loop_counts, whole_grid_counts, whole_grid_report,
)

small_scalars = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def test_make_interval_basic():
    iv = Interval(0, 6)
    assert (iv.lo, iv.hi) == (0, 6)
    assert iv.length == 6


def test_make_interval_rejects_zero_length():
    with pytest.raises(ValueError, match=r"^need lo < hi, got \[0\.5, 0\.5\]$"):
        Interval(Fraction(1, 2), Fraction(1, 2))


def test_make_interval_rejects_reversed():
    with pytest.raises(ValueError, match=r"^need lo < hi, got \[3, 1\]$"):
        Interval(3, 1)


def test_make_interval_signs():
    iv = Interval(-1, Fraction(1, 3))
    assert iv.lo == -1 and iv.hi == Fraction(1, 3)


def test_interval_rejects_floats():
    with pytest.raises(TypeError):
        Interval(0.0, 1.0)
    with pytest.raises(TypeError):
        Interval(Fraction(0), 1.0)


def test_interval_coerces_int_and_str_ends():
    for iv in (Interval(1, "5/2"), Interval("1", Fraction(5, 2)), Interval(Fraction(1), "2.5")):
        assert (iv.lo, iv.hi) == (1, Fraction(5, 2))
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction


def test_sides_and_bricks_are_slotted():
    side = Interval(0, 1)  # no per-instance dict: a parsed document holds many of each
    for x in (side, Brick((side, side))):
        assert not hasattr(x, "__dict__") and type(x).__slots__


def test_brick_keeps_its_sides_as_a_tuple():
    side = Interval(0, 1)
    listed = Brick([side])  # a list of sides is copied into a tuple
    assert type(listed.sides) is tuple and listed.sides == Brick((side,)).sides
    assert listed == Brick((side,))


def test_brick_repr_joins_its_sides():
    assert repr(Brick.from_pairs([(0, 1), ("1/2", 2)])) == "[0, 1]x[0.5, 2]"
    assert repr(Brick.from_pairs([(Fraction(-1, 3), 0)])) == "[-1/3, 0]"


def test_interval_rejects_equal_huge_ends():
    third, more = f"{10**4000}/3", f"{10**4000 + 1}/3"
    with pytest.raises(ValueError, match=f"^need lo < hi, got \\[{third}, {third}\\]$"):
        Interval(Fraction(10**4000, 3), Fraction(2 * 10**4000, 6))
    with pytest.raises(ValueError, match=f"^need lo < hi, got \\[{more}, {third}\\]$"):
        Interval(Fraction(10**4000 + 1, 3), Fraction(10**4000, 3))
    assert Interval(Fraction(10**4000, 3), Fraction(10**4000 + 1, 3)).length == Fraction(1, 3)


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(3), "3"),
        (Fraction(-2), "-2"),
        (Fraction(1, 2), "0.5"),
        (Fraction(-5, 4), "-1.25"),
        (Fraction(7, 10), "0.7"),
        (Fraction(1, 200), "0.005"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-22, 7), "-22/7"),
    ],
)
def test_format_scalar_forms(value, text):
    assert format_scalar(value) == text
    assert parse_scalar(text) == value == as_scalar(text)


@given(st.fractions())
def test_scalar_round_trips(x):
    assert parse_scalar(format_scalar(x)) == x


@given(st.from_regex(r"-?[0-9]{1,30}(\.[0-9]{1,30}|/0*[1-9][0-9]{0,30})?", fullmatch=True))
def test_parse_scalar_agrees_with_fraction_on_the_grammar(text):
    assert parse_scalar(text) == Fraction(text)


def test_scalar_round_trips_at_the_digit_limit():
    big = Fraction(-(10**MAX_SCALAR_DIGITS - 1), 10**MAX_SCALAR_DIGITS - 3)
    for x in (big, Fraction(1, 2**MAX_SCALAR_DIGITS), Fraction(10**MAX_SCALAR_DIGITS - 1)):
        assert parse_scalar(format_scalar(x)) == x


def test_format_scalar_writes_any_length_as_with_no_limit():
    num, den = 10**8600 + 1, 3 * 10**8599 + 7  # p/q, each term past the limit
    cases = [Fraction(num, den), Fraction(-num), Fraction(1, 2**9000), Fraction(-num, 10**4301)]
    texts = [format_scalar(x) for x in cases]
    with int_max_str_digits(0):
        assert texts == [format_scalar(x) for x in cases]
        assert texts[:2] == [f"{num}/{den}", f"-{num}"]


@settings(max_examples=50)
@given(st.integers(-(10**2000), 10**2000), st.integers(1, 10**1500), st.integers(0, 1500))
@example(-1, 3, 700)  # a whole part of 0, a sign and 700 places
@example(1, 10**700, 1400)  # 699 zeros before the first digit of the places
@example(-(10**700), 1, 0)
def test_ratio_renderer_past_the_limit_writes_what_no_limit_writes(num, den, places):
    with int_max_str_digits(640):  # the least limit Python allows
        texts = ratio_renderer(places)(num, den), format_scalar(Fraction(num, den))
    with int_max_str_digits(0):
        assert texts == (ratio_renderer(places)(num, den), format_scalar(Fraction(num, den)))


@pytest.mark.parametrize(
    "text",
    [
        "7" * MAX_SCALAR_DIGITS,
        "-" + "7" * MAX_SCALAR_DIGITS,  # longer than the cap, no run over it
        "1" * 3000 + "/" + "1" * 3000,
        "0." + "5" * MAX_SCALAR_DIGITS,
        "-" + "1" * 3000 + "." + "9" * 3000,  # both runs within the cap, not together
    ],
)
def test_parse_scalar_accepts_digit_runs_up_to_the_limit(text):
    assert parse_scalar(text) == Fraction(text)


@pytest.mark.parametrize(
    "text",
    [
        "7" * (MAX_SCALAR_DIGITS + 1),
        "-" + "7" * (MAX_SCALAR_DIGITS + 1),
        "1/" + "1" * (MAX_SCALAR_DIGITS + 1),
        "0." + "5" * (MAX_SCALAR_DIGITS + 1),
        "1" * (MAX_SCALAR_DIGITS + 1),  # from the grammar test: a length, not a form
    ],
)
def test_parse_scalar_rejects_a_digit_run_over_the_limit(text):
    # int() alone refuses the run, with the interpreter's message
    with pytest.raises(ValueError) as e:
        parse_scalar(text)
    assert type(e.value) is ValueError  # a bad parameter, not a located document error
    assert str(e.value) == int_refusal("1" * (MAX_SCALAR_DIGITS + 1))


def test_parse_scalar_follows_the_interpreters_digit_limit():
    with int_max_str_digits(640):
        with pytest.raises(ValueError) as e:
            parse_scalar("7" * 641)
        assert parse_scalar("-" + "7" * 640) == -int("7" * 640)
        message = int_refusal("7" * 641)
    assert type(e.value) is ValueError
    assert str(e.value) == message and "(640 digits)" in message
    with int_max_str_digits(0):  # no limit
        assert parse_scalar("0." + "5" * 5000) == Fraction(int("5" * 5000), 10**5000)


def _runs_texts() -> list[str]:
    """Scalar texts whose digit runs straddle each limit below: every form,
    signed or not, with and without leading zeros, one run or two."""
    texts = []
    for n in (639, 640, 641, 999, 1000, 1001, 4299, 4300, 4301, 5000):
        for run in ("7" * n, "0" * (n - 1) + "7"):
            for form in ("{}", "0.{}", "{}.5", "1/{}", "{}/3", "{}.{}", "{}/{}"):
                texts += [sign + form.format(run, run[-(n // 2):]) for sign in ("", "-")]
    return texts


@pytest.mark.parametrize("limit", [640, 1000, 4300, 9000, 0])
def test_parse_scalar_accepts_a_text_exactly_when_every_digit_run_fits(limit):
    texts = _runs_texts()
    with int_max_str_digits(0):
        values = [Fraction(text) for text in texts]
    with int_max_str_digits(limit):
        for text, value in zip(texts, values):
            over = [run for run in re.findall("[0-9]+", text) if limit and len(run) > limit]
            try:
                assert parse_scalar(text) == value and not over, text[:40]
            except ValueError as e:  # refused by int() at the first run over the limit
                assert over and str(e) == int_refusal(over[0]), text[:40]


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: Brick(()), "a brick needs at least one side"),
        (lambda: Brick.from_pairs([(0, 1)]).contains_point((0, 0)),
         "point has 2 coordinates, brick has dimension 1"),
        (lambda: Brick.from_pairs([(0, 1), (0, 1)]).translate((1,)),
         "offset dimension differs from brick dimension"),
    ],
    ids=["no-side", "point-dimension", "offset-dimension"],
)
def test_brick_refuses_a_bad_parameter_with_a_plain_value_error(refused, message):
    with pytest.raises(ValueError) as e:
        refused()
    assert type(e.value) is ValueError and str(e.value) == message


@pytest.mark.parametrize(
    "text",
    ["1e2", " 3 ", "1_000", "+1", "", "-", ".5", "5.", "1/0", "1/-2", "2/ 3", "0x10",
     "inf", "nan", "1.5e3", "\u0663", "1" * (MAX_SCALAR_DIGITS + 1) + "e2", "1e999999999"],
)
def test_parse_scalar_rejects_undocumented_forms(text):
    # the grammar is checked first: an exponent after a run over the limit is still a form error
    # each coercion of a bad text parameter refuses it with the same plain ValueError
    for coerce in (parse_scalar, as_scalar, lambda t: Interval(t, 1), lambda t: Interval(0, t)):
        with pytest.raises(ValueError) as e:
            coerce(text)
        assert type(e.value) is ValueError
        assert str(e.value) == f"not an integer, decimal or p/q scalar: {text[:40]!r}"


bricks_2d = st.builds(
    lambda pairs: Brick.from_pairs(pairs),
    st.tuples(
        st.tuples(small_scalars, small_scalars).map(sorted).filter(lambda p: p[0] < p[1]),
        st.tuples(small_scalars, small_scalars).map(sorted).filter(lambda p: p[0] < p[1]),
    ),
)


def hull_parent(bricks):
    """The bricks' 2D bounding box grown by 1 on every side."""
    return Brick.from_pairs(
        [
            (min(b.sides[a].lo for b in bricks) - 1, max(b.sides[a].hi for b in bricks) + 1)
            for a in range(2)
        ]
    )


def test_build_grid_piercing_base_axis1():
    base = piercing_3d_base()
    grid = build_grid(base.parent, base.members)
    # independent recomputation: collect and sort the axis-1 endpoints
    expected = sorted(
        {base.parent.sides[0].lo, base.parent.sides[0].hi}
        | {b.sides[0].lo for b in base.members}
        | {b.sides[0].hi for b in base.members}
    )
    assert list(grid.axes[0]) == expected == [0, 2, 3, 4, 6]


def test_build_grid_single_brick():
    parent = Brick.from_pairs([(0, 2)])
    grid = build_grid(parent, [parent])
    assert grid.axes == ((Fraction(0), Fraction(2)),)
    assert grid.shape == (1,)
    assert grid.midpoint((0,)) == (Fraction(1),)


def test_build_grid_slicing_base():
    base = slicing_3d(3)
    grid = build_grid(base.parent, base.members)
    assert all(list(axis) == [0, 1, 2] for axis in grid.axes)


# 7^5088 has 4,300 digits, the most a scalar may spell out
HUGE = 7**5088
near_scalars = st.builds(  # within 2^-64 of a small scalar: floor(x·2^64) ties
    lambda x, j: x + Fraction(j, 2**70), small_scalars, st.integers(-64, 64)
)
huge_scalars = st.builds(  # a 4,300-digit numerator or denominator, either sign
    lambda sign, a, b, up: sign * (Fraction(HUGE + a, b) if up else Fraction(a, HUGE + b)),
    st.sampled_from([1, -1]), st.integers(0, 50), st.integers(1, 50), st.booleans(),
)
endpoint_scalars = st.one_of(small_scalars, near_scalars, huge_scalars)
endpoint_pairs = st.tuples(endpoint_scalars, endpoint_scalars).filter(lambda p: p[0] != p[1])


@given(
    st.integers(min_value=1, max_value=2).flatmap(
        lambda d: st.lists(
            st.lists(endpoint_pairs.map(sorted), min_size=d, max_size=d).map(Brick.from_pairs),
            min_size=1,
            max_size=10,
        )
    )
)
def test_build_grid_orders_and_ranks_every_endpoint_exactly(bricks):
    parent = hull(bricks)
    grid = build_grid(parent, bricks)
    axes, boxes = reference_index_boxes(parent, bricks)
    assert grid.axes == axes
    assert grid.boxes.tolist() == boxes


def test_build_grid_orders_endpoints_within_2_to_the_minus_64():
    third = Fraction(1, 3)
    values = [third + Fraction(j, 2**70) for j in (5, -3, 0, 2, -1)] + [third + Fraction(1, HUGE)]
    assert len({(x.numerator << 64) // x.denominator for x in values}) == 1  # every key ties
    bricks = [Brick.from_pairs([(0, x)]) for x in values]
    grid = build_grid(Brick.from_pairs([(0, 1)]), bricks)
    assert grid.axes == ((0, *sorted(values), 1),)
    assert [hi for (_, hi), in grid.boxes.tolist()] == [1 + sorted(values).index(x) for x in values]


def test_build_grid_peak_does_not_grow_with_one_huge_denominator():
    # one axis of 5,000 dyadic endpoints, alone and with one endpoint whose
    # denominator has 4,300 digits; the sort key of each endpoint stays about
    # 64 bits wider than the endpoint, so that one endpoint widens no other key
    dyadic = [Fraction(i, 1024) for i in range(5_001)]
    bricks = [Brick((Interval(lo, hi),)) for lo, hi in zip(dyadic, dyadic[1:])]
    parent = Brick.from_pairs([(0, dyadic[-1])])
    peaks = []
    for extra in ([], [Brick.from_pairs([(0, Fraction(1, HUGE))])]):
        tracemalloc.start()
        try:
            build_grid(parent, bricks + extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_build_grid_rejects_outside_parent():
    parent = Brick.from_pairs([(0, 2), (0, 2)])
    stray = Brick.from_pairs([(1, 3), (0, 1)])
    with pytest.raises(BrickOutsideParent):
        build_grid(parent, [stray])


def test_build_grid_reports_every_stray_in_member_order():
    parent = Brick.from_pairs([(0, 2), (0, 2)])
    inside = Brick.from_pairs([(0, 2), (0, 1)])
    high_on_axis_2 = Brick.from_pairs([(0, 2), (1, 3)])
    low_on_axis_1 = Brick.from_pairs([(-1, 1), (1, 2)])
    with pytest.raises(BrickOutsideParent) as exc:
        build_grid(parent, [inside, high_on_axis_2, low_on_axis_1])
    assert exc.value.members == (1, 2)
    assert str(exc.value) == "brick 1 axis 2 interval [1, 3] leaves parent [0, 2]"


def test_build_grid_rejects_dimension_mismatch():
    parent = Brick.from_pairs([(0, 2), (0, 2)])
    with pytest.raises(ValueError, match=r"^brick 0 has dimension 1, parent has 2$"):
        build_grid(parent, [Brick.from_pairs([(0, 1)])])


def test_index_boxes_are_exact():
    base = piercing_3d_base()
    grid = build_grid(base.parent, base.members)
    # X1 = [0,2] x [3,6] x [0,4]; every axis has breakpoints 0, 2, 3, 4, 6
    assert grid.boxes[3].tolist() == [[0, 1], [2, 4], [0, 3]]
    for b, box in zip(base.members, grid.boxes):
        for axis, (lo, hi), side in zip(grid.axes, box, as_pairs(b)):
            assert (axis[lo], axis[hi]) == side


def test_index_boxes_are_one_read_only_int32_array():
    base = piercing_3d_base()
    grid = build_grid(base.parent, base.members)
    assert grid.boxes.dtype == np.int32 and grid.boxes.shape == (len(base), 3, 2)
    assert grid.boxes.flags.c_contiguous
    with pytest.raises(ValueError):
        grid.boxes[0, 0, 0] = 1  # the partition caches its grid


def test_grid_holds_at_most_32_bytes_a_member():
    # the 216,000 members of grid_partition(3, 60), built from shared unit
    # sides to save the test 648,000 Intervals; tracemalloc sees numpy's buffers
    unit = [Interval(c, c + 1) for c in range(60)]
    members = [Brick(sides) for sides in product(unit, repeat=3)]
    parent = Brick.from_pairs([(0, 60)] * 3)
    tracemalloc.start()
    try:
        grid = build_grid(parent, members)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.boxes.shape == (216_000, 3, 2)
    assert held <= 32 * 216_000


def test_first_bad_cell_is_python_ints():
    base = piercing_3d_base()
    # W1, at the origin, dropped (no member corner there), repeated, and the last member dropped
    cases = (base.members[1:], base.members[:1] + base.members, base.members[:-1])
    cells = [first_bad_cell(BrickPartition(base.parent, members).grid) for members in cases]
    assert cells[:2] == [(0, 0, 0), (0, 0, 0)]
    assert all(type(c) is int for cell in cells for c in cell)


@given(brick_sets(), st.data())
def test_cell_counts_match_midpoint_containment(bricks, data):
    d = bricks[0].dim
    axes = data.draw(st.lists(st.sampled_from(range(d)), min_size=1, unique=True).map(sorted))
    grid = build_grid(hull(bricks), bricks)
    counts = cell_counts(grid, axes)
    assert counts.dtype == np.int32 and counts.shape == tuple(grid.shape[a] for a in axes)
    # reference: count the closed bricks containing each projected cell midpoint
    for cell in product(*(range(n) for n in counts.shape)):
        mids = [grid.cell_midpoint(a, i) for a, i in zip(axes, cell)]
        expected = sum(
            1 for b in bricks if all(b.sides[a].contains(m) for a, m in zip(axes, mids))
        )
        assert counts[cell] == expected


def test_cell_counts_match_the_slice_loop_on_every_projection(corpus):
    # every nonempty axes subset of each partition and of its mutants with
    # one member deleted or duplicated
    for P in corpus:
        mutants = [P]
        for i in range(len(P)):
            mutants.append(BrickPartition(P.parent, P.members[:i] + P.members[i + 1 :]))
            mutants.append(BrickPartition(P.parent, P.members + (P.members[i],)))
        for Q in mutants:
            for r in range(1, Q.dim + 1):
                for axes in combinations(range(Q.dim), r):
                    counts, expected = cell_counts(Q.grid, axes), slice_loop_counts(Q.grid, axes)
                    assert counts.dtype == expected.dtype and counts.flags.c_contiguous
                    assert np.array_equal(counts, expected)


def test_cell_counts_over_a_row_range_is_that_slice_of_the_whole(corpus):
    # the one counting kernel (min_flat_count's) over all axes is the whole
    # grid's count, and validate, which reads the members' signed corners
    # instead, gives the whole-grid report on each partition and its mutants
    assert metrics.cell_counts is cell_counts
    rng = Random(11)
    for P in corpus:
        whole = whole_grid_counts(P).reshape(-1)
        assert np.array_equal(cell_counts(P.grid, range(P.dim)).reshape(-1), whole)

        (i, j), a = rng.sample(range(len(P)), 2), rng.randrange(P.dim)
        grown = P.members[i].replace_side(a, Interval(P.members[i].sides[a].lo, P.parent.sides[a].hi))
        mutants = [P, BrickPartition(P.parent, P.members[:i] + P.members[i + 1 :])]
        mutants.append(BrickPartition(P.parent, P.members + (P.members[i], P.members[j])))
        mutants.append(BrickPartition(P.parent, P.members[:i] + (grown,) + P.members[i + 1 :]))
        for Q in mutants:
            assert validate(Q) == whole_grid_report(Q)


@given(st.lists(bricks_2d, min_size=1, max_size=6))
def test_no_endpoint_strictly_inside_a_cell(bricks):
    parent = hull_parent(bricks)  # so the set is always inside
    grid = build_grid(parent, bricks)
    for a in range(2):
        for lo, hi in zip(grid.axes[a], grid.axes[a][1:]):
            for b in bricks:
                side = b.sides[a]
                inside = side.lo <= lo and hi <= side.hi
                outside = side.hi <= lo or hi <= side.lo
                assert inside or outside
