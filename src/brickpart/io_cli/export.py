"""Deterministic figure exporters: SVG for d=2, Wavefront OBJ for d=3.

Exporters never alter geometry: every emitted coordinate is an exact scalar
rendered at the configured decimal precision, rounding half up in integer
arithmetic on its numerator and denominator. OBJ export renders each brick
side's two ends once and builds the eight vertices from them in bit order.
Output bytes are identical across runs for equal inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from html import escape

from ..errors import BadDimensionForFormat
from ..geometry import MAX_SCALAR_DIGITS
from ..partition import BrickPartition


class FigureFormat(Enum):
    SVG2D = "svg"
    OBJ3D = "obj"


@dataclass(frozen=True)
class ExportOptions:
    precision: int = 6  # decimal places for rendered coordinates
    exploded: Fraction = Fraction(0)  # OBJ: outward translation factor
    labels: bool = False  # SVG: draw member labels at brick centers

    def __post_init__(self) -> None:
        p = self.precision  # more digits than MAX_SCALAR_DIGITS would not convert to str
        if not 0 <= p <= MAX_SCALAR_DIGITS:
            raise ValueError(f"decimal places must be >= 0 and <= {MAX_SCALAR_DIGITS}, got {p}")


SVG_SCALE = Fraction(48)  # SVG pixels per geometry unit


def render_decimal(x: Fraction, places: int) -> str:
    """Fixed-point decimal rendering, round half up: floor(x·10^p + 1/2),
    computed as (2·num·10^p + den) // (2·den) in plain ints."""
    num, den = x.numerator, x.denominator
    quantized = (2 * num * 10**places + den) // (2 * den)
    sign = "-" if quantized < 0 else ""
    whole, frac = divmod(abs(quantized), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def _svg_number(x: Fraction, places: int) -> str:
    s = render_decimal(x, places)
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#eeca3b", "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)


def export_figure(
    P: BrickPartition, format: FigureFormat, options: ExportOptions | None = None
) -> bytes:
    """Render a partition as SVG (d=2) or OBJ (d=3) bytes."""
    options = options or ExportOptions()
    if format is FigureFormat.SVG2D:
        if P.dim != 2:
            raise BadDimensionForFormat(f"SVG export needs d=2, got d={P.dim}")
        return _export_svg(P, options)
    if format is FigureFormat.OBJ3D:
        if P.dim != 3:
            raise BadDimensionForFormat(f"OBJ export needs d=3, got d={P.dim}")
        return _export_obj(P, options)
    raise BadDimensionForFormat(f"unknown format {format!r}")


def _export_svg(P: BrickPartition, options: ExportOptions) -> bytes:
    px, py = P.parent.sides
    scale = SVG_SCALE
    num = lambda x: _svg_number(x, options.precision)  # noqa: E731
    width = (px.hi - px.lo) * scale
    height = (py.hi - py.lo) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{num(width)}" '
        f'height="{num(height)}" viewBox="0 0 {num(width)} {num(height)}">',
    ]
    for i, b in enumerate(P.members):
        bx, by = b.sides
        x = (bx.lo - px.lo) * scale
        y = (py.hi - by.hi) * scale  # flip: SVG y grows downward
        w = (bx.hi - bx.lo) * scale
        h = (by.hi - by.lo) * scale
        fill = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'  <rect x="{num(x)}" y="{num(y)}" width="{num(w)}" height="{num(h)}" '
            f'fill="{fill}" fill-opacity="0.55" stroke="#000" stroke-width="1"/>'
        )
    if options.labels and P.labels is not None:
        for b, label in zip(P.members, P.labels):
            cx = (b.sides[0].midpoint - px.lo) * scale
            cy = (py.hi - b.sides[1].midpoint) * scale
            text = escape(label, quote=False)  # a label is text, not markup
            lines.append(
                f'  <text x="{num(cx)}" y="{num(cy)}" font-size="12" '
                f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
            )
    # parent outline drawn as a path so <rect> count equals the member count
    lines.append(
        f'  <path d="M 0 0 H {num(width)} V {num(height)} H 0 Z" '
        'fill="none" stroke="#000" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Cube triangulation over corners indexed by bits (bit a set = hi on axis a),
# outward-facing counterclockwise winding, 0-based local indices.
_CUBE_TRIANGLES = (
    (0, 2, 3), (0, 3, 1),  # z = lo
    (4, 5, 7), (4, 7, 6),  # z = hi
    (0, 1, 5), (0, 5, 4),  # y = lo
    (2, 6, 7), (2, 7, 3),  # y = hi
    (0, 4, 6), (0, 6, 2),  # x = lo
    (1, 3, 7), (1, 7, 5),  # x = hi
)


def _export_obj(P: BrickPartition, options: ExportOptions) -> bytes:
    num = lambda x: render_decimal(x, options.precision)  # noqa: E731
    lines = [f"# brick partition, {len(P.members)} members"]
    vertex_base = 1  # OBJ indices are 1-based
    for i, b in enumerate(P.members):
        label = P.labels[i] if P.labels is not None else f"member_{i}"
        ends = []  # per axis: the side's (lo, hi), moved outward and rendered
        for side, parent_side in zip(b.sides, P.parent.sides):
            offset = (side.midpoint - parent_side.midpoint) * options.exploded
            ends.append((num(side.lo + offset), num(side.hi + offset)))
        lines.append(f"o {label}")
        for j in range(8):
            lines.append("v " + " ".join(end[(j >> a) & 1] for a, end in enumerate(ends)))
        for tri in _CUBE_TRIANGLES:
            lines.append("f " + " ".join(str(vertex_base + t) for t in tri))
        vertex_base += 8
    return ("\n".join(lines) + "\n").encode("utf-8")
