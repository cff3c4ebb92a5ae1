import math
from fractions import Fraction
from itertools import product
from xml.etree import ElementTree

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brickpart import (
    BadDimensionForFormat,
    Brick,
    BrickPartition,
    ExportOptions,
    FigureFormat,
    ParseError,
    emit_document,
    export_figure,
    parse_document,
)
from brickpart.constructions import grid_partition, piercing_2d, piercing_3d, slicing_3d
from brickpart.geometry import MAX_SCALAR_DIGITS
from brickpart.io_cli.export import ratio_renderer

from helpers import reference_obj, reference_svg


def _skewed(P: BrickPartition) -> BrickPartition:
    """P moved by x -> 2/7·x − 5/3 on every axis: negative, non-dyadic coordinates."""
    scale, shift = Fraction(2, 7), Fraction(-5, 3)

    def move(b: Brick) -> Brick:
        return Brick.from_pairs((s.lo * scale + shift, s.hi * scale + shift) for s in b.sides)

    return BrickPartition(move(P.parent), tuple(map(move, P.members)), P.labels)


@pytest.mark.parametrize("precision", [0, 6, 40])
@pytest.mark.parametrize("exploded", [Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(2, 7)])
@pytest.mark.parametrize("labels", [False, True])
def test_export_matches_the_per_brick_reference(corpus, precision, exploded, labels):
    options = ExportOptions(precision, exploded, labels)
    # [0, 1] on every axis of a non-cube parent: exploded, it moves differently on each
    parent = Brick.from_pairs([(0, 1), (0, 2), (0, 3)])
    sides = product([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 3)])
    stack = BrickPartition(parent, tuple(map(Brick.from_pairs, sides)))
    families = [piercing_2d(4), piercing_3d(4), slicing_3d(5), stack]
    for P in [*families, *map(_skewed, families + corpus[::40]), *corpus]:
        if labels and P.labels is None:  # markup in labels must be escaped alike
            P = BrickPartition(P.parent, P.members, [f"<m{i}&>" for i in range(len(P.members))])
        if P.dim == 2:
            fmt, expected = FigureFormat.SVG2D, reference_svg(P, options)
        else:
            fmt, expected = FigureFormat.OBJ3D, reference_obj(P, options)
        parsed = parse_document(emit_document(P)).to_partition()  # equal sides shared
        assert export_figure(P, fmt, options) == expected == export_figure(parsed, fmt, options)


def test_svg_rect_count_equals_member_count():
    P = piercing_2d(3)
    svg = export_figure(P, FigureFormat.SVG2D).decode()
    assert svg.count("<rect") == len(P.members) == 8


def test_obj_vertex_count_is_8_per_member():
    P = piercing_3d(3)
    lines = export_figure(P, FigureFormat.OBJ3D).decode().splitlines()
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 8 * len(P.members) == 168
    assert len(faces) == 12 * len(P.members)


def test_dimension_checks():
    with pytest.raises(BadDimensionForFormat):
        export_figure(piercing_3d(3), FigureFormat.SVG2D)
    with pytest.raises(BadDimensionForFormat):
        export_figure(piercing_2d(3), FigureFormat.OBJ3D)


def test_export_options_reject_negative_precision():
    with pytest.raises(ValueError, match="decimal places must be >= 0"):
        ExportOptions(precision=-1)
    assert ExportOptions(precision=0).precision == 0


def test_export_options_cap_precision_at_the_scalar_digit_limit():
    with pytest.raises(ValueError, match=f"<= {MAX_SCALAR_DIGITS}, got {MAX_SCALAR_DIGITS + 1}"):
        ExportOptions(precision=MAX_SCALAR_DIGITS + 1)
    assert ExportOptions(precision=MAX_SCALAR_DIGITS).precision == MAX_SCALAR_DIGITS


def test_export_options_coerce_exploded_as_a_scalar():
    with pytest.raises(TypeError, match="floating-point"):
        ExportOptions(exploded=0.1)
    P = piercing_3d(4)
    by_text = export_figure(P, FigureFormat.OBJ3D, ExportOptions(exploded="1/4"))
    assert by_text == export_figure(P, FigureFormat.OBJ3D, ExportOptions(exploded=Fraction(1, 4)))
    assert ExportOptions(exploded="-0.5").exploded == Fraction(-1, 2)
    with pytest.raises(ParseError):
        ExportOptions(exploded="1e3")


def test_export_figure_coerces_the_format_text():
    P2, P3 = piercing_2d(3), piercing_3d(3)
    assert export_figure(P3, "obj") == export_figure(P3, FigureFormat.OBJ3D)
    assert export_figure(P2, "svg") == export_figure(P2, FigureFormat.SVG2D)
    with pytest.raises(ValueError, match="'png' is not a valid FigureFormat"):
        export_figure(P2, "png")


def test_exports_are_deterministic():
    P2, P3 = piercing_2d(4), piercing_3d(4)
    assert export_figure(P2, FigureFormat.SVG2D) == export_figure(P2, FigureFormat.SVG2D)
    options = ExportOptions(exploded=Fraction(1, 4))
    assert export_figure(P3, FigureFormat.OBJ3D, options) == export_figure(
        P3, FigureFormat.OBJ3D, options
    )


def test_obj_vertices_match_rendered_scalars():
    P = grid_partition(3, 2)
    lines = export_figure(P, FigureFormat.OBJ3D).decode().splitlines()
    first_vertex = next(l for l in lines if l.startswith("v "))
    # first member is the cell at the origin; corner order starts at its lo corner
    assert first_vertex == "v 0.000000 0.000000 0.000000"
    assert "v 1.000000 1.000000 1.000000" in lines


def test_obj_exploded_translates_outward():
    P = grid_partition(3, 2)
    plain = export_figure(P, FigureFormat.OBJ3D).decode()
    exploded = export_figure(
        P, FigureFormat.OBJ3D, ExportOptions(exploded=Fraction(1))
    ).decode()
    assert plain != exploded
    # origin cell center is (1/2,1/2,1/2), parent center (1,1,1): offset -1/2 each
    assert "v -0.500000 -0.500000 -0.500000" in exploded.splitlines()


def test_faces_reference_existing_vertices():
    P = grid_partition(3, 2)
    lines = export_figure(P, FigureFormat.OBJ3D).decode().splitlines()
    n_vertices = sum(1 for l in lines if l.startswith("v "))
    for line in lines:
        if line.startswith("f "):
            indices = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= n_vertices for i in indices)


def test_svg_labels_need_a_labeled_partition():
    P = piercing_2d(3)  # carries no labels, so nothing to draw
    svg = export_figure(P, FigureFormat.SVG2D, ExportOptions(labels=True))
    assert b"<text" not in svg


def test_svg_draws_labels_when_present():
    P = BrickPartition(
        Brick.from_pairs([(0, 2), (0, 2)]),
        (Brick.from_pairs([(0, 2), (0, 1)]), Brick.from_pairs([(0, 2), (1, 2)])),
        ("lower", "upper"),
    )
    svg = export_figure(P, FigureFormat.SVG2D, ExportOptions(labels=True)).decode()
    assert svg.count("<text") == 2 and "lower" in svg


def test_svg_labels_are_escaped():
    labels = ("</text><script>x</script>", "a<b&c")
    P = BrickPartition(
        Brick.from_pairs([(0, 2), (0, 2)]),
        (Brick.from_pairs([(0, 2), (0, 1)]), Brick.from_pairs([(0, 2), (1, 2)])),
        labels,
    )
    root = ElementTree.fromstring(export_figure(P, FigureFormat.SVG2D, ExportOptions(labels=True)))
    svg = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(svg + "text")] == list(labels)
    assert list(root.iter(svg + "script")) == []


@pytest.mark.parametrize(
    "value, places, text",
    [
        (Fraction(1, 2), 6, "0.500000"),
        (Fraction(1, 3), 6, "0.333333"),
        (Fraction(2, 3), 3, "0.667"),
        (Fraction(-5, 4), 2, "-1.25"),
        (Fraction(7), 0, "7"),
        (Fraction(-1, 2000), 3, "0.000"),
        (Fraction(-3, 2000), 3, "-0.001"),
        (Fraction(5, 2), 0, "3"),
        (Fraction(-5, 2), 0, "-2"),
    ],
)
def test_render_decimal(value, places, text):
    assert ratio_renderer(places)(*value.as_integer_ratio()) == text


def _reference_decimal(x: Fraction, places: int) -> str:
    """Round half up through `Fraction` and `math.floor`: the reference rule."""
    quantized = math.floor(x * 10**places + Fraction(1, 2))
    sign = "-" if quantized < 0 else ""
    whole, frac = divmod(abs(quantized), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


@given(
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**4),
    st.integers(0, 9),
)
def test_render_decimal_matches_fraction_rounding(num, den, places):
    x = Fraction(num, den)
    assert ratio_renderer(places)(*x.as_integer_ratio()) == _reference_decimal(x, places)


@given(
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**4),
    st.integers(1, 10**6),
    st.integers(0, 9),
)
@example(-5, 2, 3, 0)  # exact negative halves round up, toward zero
@example(-1, 2, 10**6, 0)
@example(-3, 20, 7, 1)
@example(-1, 2000, 4, 3)
def test_ratio_renderer_reads_unreduced_ratios(num, den, k, places):
    expected = ratio_renderer(places)(*Fraction(num, den).as_integer_ratio())
    assert ratio_renderer(places)(k * num, k * den) == expected
