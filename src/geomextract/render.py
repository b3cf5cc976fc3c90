"""Deterministic SVG figures of instances, drawn on one integer frame.

Each document is drawn on the instance's integer frame (core.Frame, unit
L) times a factor that makes the finest derived size whole too (a twelfth
of the bar pitch for intervals, half the stroke width for the other
classes): a value v is the integer v * D, D = factor * L, so the drawing
loops add, negate and take bounds on ints only. fmt6 prints n / D with
exactly six decimals, rounded half away from zero, by integer division; the
viewBox header goes through the same formatter. The decimal text depends
only on the value n / D, never on the choice of D; it is display-only and
never read back, and identical inputs produce byte-identical output. A
document without objects draws only its target points.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from .axis2d import clip_rays_to_box
from .core import Axis, Coloring, Frame, Instance, ObjectClass
from .octants import compute_cmax

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
NEUTRAL = "#444444"
# Unit direction along which each ray orientation runs.
_DIRECTION = {1: (1, 0), 2: (-1, 0), 3: (0, 1), 4: (0, -1)}


def fmt6(n: int, d: int) -> str:
    """n / d (d >= 1) with six decimals, rounded half away from zero."""
    q, r = divmod((2_000_000 * abs(n) + d) // (2 * d), 1_000_000)
    return f"{'-' if n < 0 else ''}{q}.{r:06d}"


class _Canvas:
    """SVG elements on the frame n / unit, with y pointing up."""

    def __init__(self, unit: int):
        self.unit = unit
        self.f = partial(fmt6, d=unit)
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.parts: List[str] = []

    def line(self, x1, y1, x2, y2, color: str, width: int, cls: str) -> None:
        self.xs += (x1, x2)
        self.ys += (y1, y2)
        f = self.f
        self.parts.append(
            f'<line class="{cls}" x1="{f(x1)}" y1="{f(-y1)}" '
            f'x2="{f(x2)}" y2="{f(-y2)}" stroke="{color}" '
            f'stroke-width="{f(width)}" stroke-linecap="round"/>'
        )

    def polygon(self, pts, color: str, width: int, cls: str) -> None:
        f = self.f
        for x, y in pts:
            self.xs.append(x)
            self.ys.append(y)
        coords = " ".join(f"{f(x)},{f(-y)}" for x, y in pts)
        self.parts.append(
            f'<polygon class="{cls}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{f(width)}"/>'
        )

    def rect(self, x, y, w, h, color: str, cls: str) -> None:
        self.xs += (x, x + w)
        self.ys += (y, y + h)
        f = self.f
        self.parts.append(
            f'<rect class="{cls}" x="{f(x)}" y="{f(-(y + h))}" '
            f'width="{f(w)}" height="{f(h)}" fill="{color}"/>'
        )

    def cross(self, x, y, arm: int, width: int) -> None:
        self.xs += (x - arm, x + arm)
        self.ys += (y - arm, y + arm)
        f = self.f
        self.parts.append(
            f'<path class="cross" d="M {f(x - arm)} {f(-y)} '
            f'L {f(x + arm)} {f(-y)} M {f(x)} {f(-(y - arm))} '
            f'L {f(x)} {f(-(y + arm))}" stroke="#000000" '
            f'stroke-width="{f(width)}" fill="none"/>'
        )

    def arrow(self, x, y, dx: int, dy: int, size: int) -> None:
        """Open-end marker: a V with its tip at (x, y) pointing along the
        unit direction (dx, dy); size is a multiple of 4. It does not widen
        the viewBox."""
        base_x, base_y = x - dx * size, y - dy * size
        off_x, off_y = -dy * size // 2, dx * size // 2
        f = self.f
        self.parts.append(
            f'<path class="arrow" d="M {f(base_x + off_x)} '
            f'{f(-(base_y + off_y))} L {f(x)} {f(-y)} '
            f'L {f(base_x - off_x)} {f(-(base_y - off_y))}" '
            f'stroke="#888888" stroke-width="{f(size // 4)}" fill="none"/>'
        )

    def svg(self) -> str:
        """The document: a viewBox padded by a tenth of the larger extent
        (at least 1) around everything drawn, then the elements."""
        lo_x, hi_x = min(self.xs, default=0), max(self.xs, default=0)
        lo_y, hi_y = min(self.ys, default=0), max(self.ys, default=0)
        # On the frame 10 * unit the padding is an integer too.
        d = 10 * self.unit
        pad = max(hi_x - lo_x, hi_y - lo_y, d)
        header = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{fmt6(10 * lo_x - pad, d)} {fmt6(-(10 * hi_y + pad), d)} '
            f'{fmt6(10 * (hi_x - lo_x) + 2 * pad, d)} '
            f'{fmt6(10 * (hi_y - lo_y) + 2 * pad, d)}">'
        )
        return "\n".join([header, *self.parts, "</svg>"]) + "\n"


def _half_width(ints: Sequence[int], unit: int) -> int:
    """Half the stroke width on a frame of factor 240: the span of the
    objects' coordinates (at least 1) over 240, or 1/20 when there are
    none."""
    if not ints:
        return unit // 20
    return max(max(ints) - min(ints), unit) // 240


def _crosses(canvas: _Canvas, ints: Sequence[int], half: int) -> None:
    """Target points of a 2D view, given flat as x, y pairs."""
    for x, y in zip(ints[0::2], ints[1::2]):
        canvas.cross(x, y, 4 * half, half)


def _draw_intervals(instance: Instance, colors: List[str]) -> _Canvas:
    # Bars are spaced row = span / m / 4 apart (span at least 1); bars,
    # crosses and strokes are whole ticks of row / 12, which the frame
    # factor 48 m makes an integer.
    m, factor, frame = instance.m, 48 * max(instance.m, 1), instance.frame
    unit = factor * frame.unit
    ints = [factor * v for ext in frame.extents[0] for v in ext]
    span = max(max(ints) - min(ints), unit) if m else unit
    tick = span // factor
    canvas = _Canvas(unit)
    for i, (a, b) in enumerate(zip(ints[0::2], ints[1::2])):
        canvas.rect(a, 12 * tick * (i + 1) - 3 * tick, b - a, 6 * tick, colors[i], "obj")
    for (x,) in frame.points:
        canvas.cross(factor * x, 0, 6 * tick, tick)
    return canvas


def _draw_axis2d(segments, frame: Frame, colors: List[str], orientations=()) -> _Canvas:
    """Segments on the frame, or clipped rays with an arrow at their open end."""
    n = 3 * len(segments)
    ints = [240 * v for s in segments for v in (s.lo, s.hi, s.line)]
    ints += [240 * v for p in frame.points for v in p]
    unit = 240 * frame.unit
    half = _half_width(ints[:n], unit)
    canvas = _Canvas(unit)
    for i, s in enumerate(segments):
        lo, hi, line = ints[3 * i:3 * i + 3]
        if s.axis is Axis.HORIZONTAL:
            start, end = (lo, line), (hi, line)
        else:
            start, end = (line, lo), (line, hi)
        canvas.line(*start, *end, colors[i], 2 * half, "obj")
        if orientations:
            o = orientations[i]
            canvas.arrow(*(end if o in (1, 3) else start), *_DIRECTION[o], 8 * half)
    _crosses(canvas, ints[n:], half)
    return canvas


def _draw_octants(instance: Instance, colors: List[str]) -> _Canvas:
    # c_max majorizes every pairwise c_ij, so every apex, dominated or not,
    # sits at or below the plane x + y + z = c_max. Octant i is drawn as the
    # triangle {u >= a_i, v >= b_i, u + v <= s_i} with s_i = c_max - c_i.
    frame = instance.frame
    apexes = [o.apex for o in frame.objects]
    c_max = compute_cmax(frame.objects, frame.unit) if apexes else 0
    triangles = [(240 * a, 240 * b, 240 * (c_max - c)) for a, b, c in apexes]
    unit = 240 * frame.unit
    half = _half_width([v for t in triangles for v in t], unit)
    canvas = _Canvas(unit)
    for i, (a, b, s) in enumerate(triangles):
        canvas.polygon([(a, b), (s - b, b), (a, s - a)], colors[i], 2 * half, "obj")
    _crosses(canvas, [240 * v for p in frame.points for v in p[:2]], half)
    return canvas


def _color_of(coloring: Optional[Coloring], i: int) -> str:
    if coloring is None:
        return NEUTRAL
    return PALETTE[(coloring.colors[i] - 1) % len(PALETTE)]


def render_svg(instance: Instance, coloring: Optional[Coloring] = None) -> str:
    """Render a 2D view of the instance; octants appear as plane triangles."""
    if coloring is not None and len(coloring.colors) != instance.m:
        raise ValueError("coloring is not total over the instance")
    colors = [_color_of(coloring, i) for i in range(instance.m)]
    cls = instance.cls
    if cls is ObjectClass.INTERVALS:
        canvas = _draw_intervals(instance, colors)
    elif cls is ObjectClass.SEGMENTS:
        canvas = _draw_axis2d(instance.frame.objects, instance.frame, colors)
    elif cls is ObjectClass.RAYS:
        frame = instance.frame
        rays = frame.objects
        segments = clip_rays_to_box(list(rays), frame.unit)[0] if rays else []
        canvas = _draw_axis2d(segments, frame, colors, [r.orientation for r in rays])
    else:
        canvas = _draw_octants(instance, colors)
    return canvas.svg()
