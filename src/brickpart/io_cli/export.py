"""Deterministic figure exporters: SVG for d=2, Wavefront OBJ for d=3.

Exporters never alter geometry: every emitted coordinate is an exact scalar
rendered at the configured decimal precision, rounding half up, at any length,
by `geometry.ratio_renderer` (also importable from here), which reads an
integer ratio, reduced or not, and takes no gcd. Each side object is rendered
once, and `parse_document` shares one per distinct token pair. Every SVG
number is (a − b)·48: the outline, a side's x and width (or y and height), and
a label centre, with a side's midpoint as a. OBJ renders a side's two ends,
each lo + (lo + hi − parent lo − parent hi)·exploded/2, for any exploded
factor. Each OBJ brick's vertex lines, in bit order, and face lines come from
one f-string over its six rendered ends and its eight vertex indices, each
index converted to text once. Equal inputs give identical output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from html import escape
from operator import index

from ..geometry import MAX_SCALAR_DIGITS, as_scalar, ratio_renderer
from ..partition import BrickPartition


class FigureFormat(Enum):
    SVG2D = "svg"
    OBJ3D = "obj"


@dataclass(frozen=True)
class ExportOptions:
    precision: int = 6  # decimal places for rendered coordinates
    exploded: Fraction = Fraction(0)  # OBJ: outward translation factor, coerced by as_scalar
    labels: bool = False  # SVG: draw member labels at brick centers

    def __post_init__(self) -> None:  # a refusal reads "<field>: <reason>"
        try:
            object.__setattr__(self, "exploded", as_scalar(self.exploded))
        except ValueError as e:
            raise ValueError(f"exploded: {e}") from e
        object.__setattr__(self, "precision", p := index(self.precision))  # TypeError if not int
        if not 0 <= p <= MAX_SCALAR_DIGITS:  # a fixed cap, so it bounds the rendering work
            raise ValueError(
                f"precision: decimal places must be >= 0 and <= {MAX_SCALAR_DIGITS}, got {p}"
            )


SVG_SCALE = 48  # SVG pixels per geometry unit


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
            raise ValueError(f"SVG export needs d=2, got d={P.dim}")
        return _export_svg(P, options)
    if P.dim != 3:
        raise ValueError(f"OBJ export needs d=3, got d={P.dim}")
    return _export_obj(P, options)


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
        for b, label in zip(P.members, P.labels):
            bx, by = b.sides  # the center, flipped as the rects are
            cx, cy = gap((bx.lo + bx.hi) / 2, px.lo), gap(py.hi, (by.lo + by.hi) / 2)
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


def _export_obj(P: BrickPartition, options: ExportOptions) -> bytes:
    render = ratio_renderer(options.precision)
    en, ed = options.exploded.as_integer_ratio()
    ends = {}  # per (axis, side object): its (lo, hi), moved outward and rendered
    for a, parent_side in enumerate(P.parent.sides):
        pn, pd = (parent_side.lo + parent_side.hi).as_integer_ratio()
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
        (x0, x1), (y0, y1), (z0, z1) = (ends[a, id(side)] for a, side in enumerate(b.sides))
        v0, v1, v2, v3, v4, v5, v6, v7 = map(str, range(8 * i + 1, 8 * i + 9))  # OBJ is 1-based
        lines.append(
            f"o {label}\n"  # vertex j takes end (j >> a) & 1 of axis a
            f"v {x0} {y0} {z0}\nv {x1} {y0} {z0}\nv {x0} {y1} {z0}\nv {x1} {y1} {z0}\n"
            f"v {x0} {y0} {z1}\nv {x1} {y0} {z1}\nv {x0} {y1} {z1}\nv {x1} {y1} {z1}\n"
            f"f {v0} {v2} {v3}\nf {v0} {v3} {v1}\n"  # z = lo; outward, counterclockwise
            f"f {v4} {v5} {v7}\nf {v4} {v7} {v6}\n"  # z = hi
            f"f {v0} {v1} {v5}\nf {v0} {v5} {v4}\n"  # y = lo
            f"f {v2} {v6} {v7}\nf {v2} {v7} {v3}\n"  # y = hi
            f"f {v0} {v4} {v6}\nf {v0} {v6} {v2}\n"  # x = lo
            f"f {v1} {v3} {v7}\nf {v1} {v7} {v5}"  # x = hi
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
