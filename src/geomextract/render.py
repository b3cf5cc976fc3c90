"""Deterministic SVG figures of instances.

Geometry stays rational until the final text emission, where coordinates are
printed with exactly six decimal places by integer arithmetic; the decimal
text is display-only and never read back. Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .axis2d import clip_rays_to_box
from .core import Axis, Coloring, Instance, ObjectClass, PlaneTriangle
from .octants import compute_cmax

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
NEUTRAL = "#444444"


def fmt6(x: Fraction) -> str:
    """Fixed six-decimal rendering, round half away from zero."""
    sign = "-" if x < 0 else ""
    y = -x if x < 0 else x
    n = int((y * 2_000_000 + 1) // 2)
    q, r = divmod(n, 1_000_000)
    return f"{sign}{q}.{r:06d}"


class _Canvas:
    def __init__(self):
        self.min_x = self.max_x = self.min_y = self.max_y = None
        self.parts: List[str] = []

    def bump(self, x: Fraction, y: Fraction) -> None:
        if self.min_x is None:
            self.min_x = self.max_x = x
            self.min_y = self.max_y = y
        else:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)

    def line(self, x1, y1, x2, y2, color: str, width: Fraction, cls: str) -> None:
        self.bump(x1, y1)
        self.bump(x2, y2)
        self.parts.append(
            f'<line class="{cls}" x1="{fmt6(x1)}" y1="{fmt6(-y1)}" '
            f'x2="{fmt6(x2)}" y2="{fmt6(-y2)}" stroke="{color}" '
            f'stroke-width="{fmt6(width)}" stroke-linecap="round"/>'
        )

    def polygon(self, pts, color: str, width: Fraction, cls: str) -> None:
        for x, y in pts:
            self.bump(x, y)
        coords = " ".join(f"{fmt6(x)},{fmt6(-y)}" for x, y in pts)
        self.parts.append(
            f'<polygon class="{cls}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{fmt6(width)}"/>'
        )

    def rect(self, x, y, w, h, color: str, cls: str) -> None:
        self.bump(x, y)
        self.bump(x + w, y + h)
        self.parts.append(
            f'<rect class="{cls}" x="{fmt6(x)}" y="{fmt6(-(y + h))}" '
            f'width="{fmt6(w)}" height="{fmt6(h)}" fill="{color}"/>'
        )

    def cross(self, x, y, arm: Fraction, width: Fraction) -> None:
        self.bump(x - arm, y - arm)
        self.bump(x + arm, y + arm)
        self.parts.append(
            f'<path class="cross" d="M {fmt6(x - arm)} {fmt6(-y)} '
            f'L {fmt6(x + arm)} {fmt6(-y)} M {fmt6(x)} {fmt6(-(y - arm))} '
            f'L {fmt6(x)} {fmt6(-(y + arm))}" stroke="#000000" '
            f'stroke-width="{fmt6(width)}" fill="none"/>'
        )

    def arrow(self, x, y, dx, dy, size: Fraction) -> None:
        """Open-end marker: a V pointing along (dx, dy), unit direction."""
        tip_x, tip_y = x, y
        base_x = tip_x - dx * size
        base_y = tip_y - dy * size
        off_x, off_y = -dy * size / 2, dx * size / 2
        self.parts.append(
            f'<path class="arrow" d="M {fmt6(base_x + off_x)} '
            f'{fmt6(-(base_y + off_y))} L {fmt6(tip_x)} {fmt6(-tip_y)} '
            f'L {fmt6(base_x - off_x)} {fmt6(-(base_y - off_y))}" '
            f'stroke="#888888" stroke-width="{fmt6(size / 4)}" fill="none"/>'
        )


def _color_of(coloring: Optional[Coloring], i: int) -> str:
    if coloring is None:
        return NEUTRAL
    return PALETTE[(coloring.colors[i] - 1) % len(PALETTE)]


def render_svg(instance: Instance, coloring: Optional[Coloring] = None) -> str:
    """Render a 2D view of the instance; octants appear as plane triangles."""
    if coloring is not None and len(coloring.colors) != instance.m:
        raise ValueError("coloring is not total over the instance")
    canvas = _Canvas()
    cls = instance.cls

    if cls is ObjectClass.INTERVALS:
        span = Fraction(1)
        if instance.m:
            los = [o.a for o in instance.objects]
            his = [o.b for o in instance.objects]
            span = max(max(his) - min(los), Fraction(1))
        row = span / max(instance.m, 1) / 4
        bar = row / 2
        for i, o in enumerate(instance.objects):
            canvas.rect(o.a, row * (i + 1) - bar / 2, o.b - o.a, bar,
                        _color_of(coloring, i), "obj")
        for p in instance.points:
            canvas.cross(p[0], Fraction(0), row / 2, row / 12)
    elif cls is ObjectClass.SEGMENTS:
        width = _stroke(instance.objects, lambda s: (s.lo, s.hi, s.line))
        for i, s in enumerate(instance.objects):
            if s.axis is Axis.HORIZONTAL:
                canvas.line(s.lo, s.line, s.hi, s.line,
                            _color_of(coloring, i), width, "obj")
            else:
                canvas.line(s.line, s.lo, s.line, s.hi,
                            _color_of(coloring, i), width, "obj")
        for p in instance.points:
            canvas.cross(p[0], p[1], width * 2, width / 2)
    elif cls is ObjectClass.RAYS:
        segments, _ = clip_rays_to_box(list(instance.objects))
        width = _stroke(segments, lambda s: (s.lo, s.hi, s.line))
        arrow = width * 4
        for i, (ray, seg) in enumerate(zip(instance.objects, segments)):
            color = _color_of(coloring, i)
            if seg.axis is Axis.HORIZONTAL:
                canvas.line(seg.lo, seg.line, seg.hi, seg.line, color, width, "obj")
            else:
                canvas.line(seg.line, seg.lo, seg.line, seg.hi, color, width, "obj")
            dx, dy = {1: (1, 0), 2: (-1, 0), 3: (0, 1), 4: (0, -1)}[ray.orientation]
            tip_x = seg.hi if dx > 0 else seg.lo if dx < 0 else seg.line
            tip_y = seg.hi if dy > 0 else seg.lo if dy < 0 else seg.line
            if seg.axis is Axis.HORIZONTAL:
                canvas.arrow(tip_x, seg.line, Fraction(dx), Fraction(dy), arrow)
            else:
                canvas.arrow(seg.line, tip_y, Fraction(dx), Fraction(dy), arrow)
        for p in instance.points:
            canvas.cross(p[0], p[1], width * 2, width / 2)
    else:
        triangles = _octant_triangles(instance) if instance.m else []
        width = _stroke(triangles, lambda t: (t.a, t.b, t.s))
        for i, t in enumerate(triangles):
            canvas.polygon(
                [(t.a, t.b), (t.s - t.b, t.b), (t.a, t.s - t.a)],
                _color_of(coloring, i), width, "obj",
            )
        for p in instance.points:
            canvas.cross(p[0], p[1], width * 2, width / 2)

    pad = Fraction(1)
    if canvas.min_x is not None:
        pad = max((canvas.max_x - canvas.min_x) / 10,
                  (canvas.max_y - canvas.min_y) / 10, Fraction(1))
    x0 = (canvas.min_x or Fraction(0)) - pad
    y1 = (canvas.max_y or Fraction(0)) + pad
    w = ((canvas.max_x or Fraction(0)) - (canvas.min_x or Fraction(0))) + 2 * pad
    h = ((canvas.max_y or Fraction(0)) - (canvas.min_y or Fraction(0))) + 2 * pad
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt6(x0)} {fmt6(-y1)} {fmt6(w)} {fmt6(h)}">'
    )
    return "\n".join([header, *canvas.parts, "</svg>"]) + "\n"


def _octant_triangles(instance: Instance):
    # Projection of every octant (not just nondominated ones): c_max majorizes
    # every pairwise c_ij, so all apexes sit at or below the plane.
    c_max = compute_cmax(list(instance.objects))
    return [PlaneTriangle(o.apex[0], o.apex[1], c_max - o.apex[2])
            for o in instance.objects]


def _stroke(objects, key) -> Fraction:
    vals = [v for o in objects for v in key(o)]
    if not vals:
        return Fraction(1, 10)
    span = max(vals) - min(vals)
    return max(span, Fraction(1)) / 120
