"""Deterministic figure exporters: SVG for d=2, Wavefront OBJ for d=3.

Exporters never alter geometry: every emitted coordinate is an exact scalar
rendered at the configured decimal precision, rounding half up. Coordinates
are computed and rendered as unreduced integer ratios (numerator, positive
denominator), so no `Fraction` is built and no gcd taken. Each side object
is rendered once, and `parse_document` shares one per distinct token pair:
SVG renders a side's x and width (or y and height), each (a − b)·48; OBJ its
two ends, each lo + (lo + hi − parent lo − parent hi)·exploded/2, by one
code path for any exploded factor. Each OBJ brick's vertex and face lines
then come from one line template each, vertices in bit order. Output bytes
are identical across runs for equal inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from html import escape
from typing import Callable

from ..errors import BadDimensionForFormat
from ..geometry import MAX_SCALAR_DIGITS, Interval, as_scalar
from ..partition import BrickPartition


class FigureFormat(Enum):
    SVG2D = "svg"
    OBJ3D = "obj"


@dataclass(frozen=True)
class ExportOptions:
    precision: int = 6  # decimal places for rendered coordinates
    exploded: Fraction = Fraction(0)  # OBJ: outward translation factor, coerced by as_scalar
    labels: bool = False  # SVG: draw member labels at brick centers

    def __post_init__(self) -> None:
        object.__setattr__(self, "exploded", as_scalar(self.exploded))
        p = self.precision  # more digits than MAX_SCALAR_DIGITS would not convert to str
        if not 0 <= p <= MAX_SCALAR_DIGITS:
            raise ValueError(f"decimal places must be >= 0 and <= {MAX_SCALAR_DIGITS}, got {p}")


SVG_SCALE = 48  # SVG pixels per geometry unit


def ratio_renderer(places: int) -> Callable[[int, int], str]:
    """Fixed-point decimal rendering of num/den at the given places, for any
    den > 0, reduced or not, round half up: floor(num/den·10^p + 1/2),
    computed as (2·num·10^p + den) // (2·den) in plain ints."""
    unit = 10**places

    def render(num: int, den: int) -> str:
        quantized = (2 * num * unit + den) // (2 * den)
        sign = "-" if quantized < 0 else ""
        whole, frac = divmod(abs(quantized), unit)
        return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"

    return render


def _svg_trimmed(text: str) -> str:
    """An SVG number: a rendered decimal without its trailing zeros."""
    return text.rstrip("0").rstrip(".") if "." in text else text


_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#eeca3b", "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)


def export_figure(
    P: BrickPartition, format: FigureFormat | str, options: ExportOptions | None = None
) -> bytes:
    """Render a partition as SVG (d=2) or OBJ (d=3) bytes; format is coerced
    by FigureFormat(...), so "svg" or "obj" also serve."""
    options = options or ExportOptions()
    if FigureFormat(format) is FigureFormat.SVG2D:
        if P.dim != 2:
            raise BadDimensionForFormat(f"SVG export needs d=2, got d={P.dim}")
        return _export_svg(P, options)
    if P.dim != 3:
        raise BadDimensionForFormat(f"OBJ export needs d=3, got d={P.dim}")
    return _export_obj(P, options)


def _twice_midpoint(side: Interval) -> tuple[int, int]:
    """lo + hi of a side as an unreduced (numerator, denominator) pair."""
    (ln, ld), (hn, hd) = side.lo.as_integer_ratio(), side.hi.as_integer_ratio()
    return ln * hd + hn * ld, ld * hd


def _export_svg(P: BrickPartition, options: ExportOptions) -> bytes:
    px, py = P.parent.sides
    render = ratio_renderer(options.precision)
    num = lambda n, d: _svg_trimmed(render(n, d))  # noqa: E731

    def gap(a: Fraction, b: Fraction) -> str:  # (a − b)·scale
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        return num((an * bd - bn * ad) * SVG_SCALE, ad * bd)

    width, height = gap(px.hi, px.lo), gap(py.hi, py.lo)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    xs, ys = {}, {}  # per side object: its rendered (x, w) or (y, h)
    for i, b in enumerate(P.members):
        bx, by = b.sides
        if (xw := xs.get(id(bx))) is None:
            xw = xs[id(bx)] = (gap(bx.lo, px.lo), gap(bx.hi, bx.lo))
        if (yh := ys.get(id(by))) is None:  # flip: SVG y grows downward
            yh = ys[id(by)] = (gap(py.hi, by.hi), gap(by.hi, by.lo))
        fill = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'  <rect x="{xw[0]}" y="{yh[0]}" width="{xw[1]}" height="{yh[1]}" '
            f'fill="{fill}" fill-opacity="0.55" stroke="#000" stroke-width="1"/>'
        )
    if options.labels and P.labels is not None:
        (ln, ld), (tn, td) = px.lo.as_integer_ratio(), py.hi.as_integer_ratio()
        for b, label in zip(P.members, P.labels):
            (xn, xd), (yn, yd) = map(_twice_midpoint, b.sides)  # the center, doubled
            cx = num((xn * ld - 2 * ln * xd) * SVG_SCALE, 2 * xd * ld)
            cy = num((2 * tn * yd - yn * td) * SVG_SCALE, 2 * yd * td)
            text = escape(label, quote=False)  # a label is text, not markup
            lines.append(
                f'  <text x="{cx}" y="{cy}" font-size="12" '
                f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
            )
    # parent outline drawn as a path so <rect> count equals the member count
    lines.append(
        f'  <path d="M 0 0 H {width} V {height} H 0 Z" '
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


# A brick's vertex and face lines as templates: vertex j takes end (j >> a) & 1
# of axis a, field {2a} (lo) or {2a + 1} (hi); face field t is vertex t's index.
_OBJ_VERTICES = "\n".join(
    "v " + " ".join(f"{{{2 * a + (j >> a & 1)}}}" for a in range(3)) for j in range(8)
)
_OBJ_FACES = "\n".join("f " + " ".join(f"{{{t}}}" for t in tri) for tri in _CUBE_TRIANGLES)


def _export_obj(P: BrickPartition, options: ExportOptions) -> bytes:
    render = ratio_renderer(options.precision)
    en, ed = options.exploded.as_integer_ratio()
    ends = {}  # per (axis, side object): its (lo, hi), moved outward and rendered
    for a, parent_side in enumerate(P.parent.sides):
        pn, pd = _twice_midpoint(parent_side)
        k = 2 * ed * pd
        for side in {id(b.sides[a]): b.sides[a] for b in P.members}.values():
            (ln, ld), (hn, hd) = side.lo.as_integer_ratio(), side.hi.as_integer_ratio()
            lo, hi, den = ln * hd, hn * ld, ld * hd  # both ends over one denominator
            # each end + (lo + hi − parent lo − parent hi)·exploded/2, over den·k
            shift = ((lo + hi) * pd - pn * den) * en
            ends[a, id(side)] = (render(lo * k + shift, den * k), render(hi * k + shift, den * k))
    lines = [f"# brick partition, {len(P.members)} members"]
    for i, b in enumerate(P.members):
        label = P.labels[i] if P.labels is not None else f"member_{i}"
        x, y, z = (ends[a, id(side)] for a, side in enumerate(b.sides))
        lines += (
            f"o {label}",
            _OBJ_VERTICES.format(*x, *y, *z),
            _OBJ_FACES.format(*range(8 * i + 1, 8 * i + 9)),  # OBJ indices are 1-based
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
