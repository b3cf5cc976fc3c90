"""Colorings for axis-parallel segments (4 colors) and rays (type-many colors).

Segments: collinear segments on one line are a 1D interval family, so one
loop over the line groups 2-colors each by intervals.color_line, which
checks it with the interval sweep; horizontal groups use the palette
{1, 2} and vertical groups {3, 4}, and crossing hyperedges are then
bichromatic for free. So the whole segment coloring is verified before it
is returned. Everything runs on the instance frame's ints.

Rays of one to three orientations are colored by one dominating-ray rule:
on each line, the extremal ray of an orientation contains the others of
its line and orientation. Each orientation maps to (color of its
dominating rays, color of the rest): the two sharing an axis (or the one
or two present) get (1, 2) and (2, 1) in ascending order, a third gets
(3, 1), and the lemma is checked on the document rays before returning.
Four orientations clip the frame's rays to a box one frame unit beyond
every apex and go through the same line-group loop as segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .core import (
    AlgorithmInvariantError,
    Axis,
    ClassMismatchError,
    Coloring,
    Instance,
    ObjectClass,
    Ray,
    Segment,
    contains,
)
from .intervals import color_line


@dataclass(frozen=True)
class LineGroup:
    """Indices of all segments sharing one axis-parallel line."""

    axis: Axis
    line: Fraction
    members: tuple


@dataclass(frozen=True)
class RayTypeProfile:
    """Which of the four orientations occur; type is their count."""

    orientations_present: frozenset

    @property
    def type(self) -> int:
        return len(self.orientations_present)


def line_groups(segments: Sequence[Segment]) -> List[LineGroup]:
    """Group segment indices by (axis, exact line coordinate)."""
    groups: Dict[tuple, list] = {}
    for i, s in enumerate(segments):
        groups.setdefault((s.axis, s.line), []).append(i)
    return [
        LineGroup(axis, line, tuple(members))
        for (axis, line), members in sorted(
            groups.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        )
    ]


def color_segments(instance: Instance) -> Coloring:
    """Proper 4-coloring of an axis-parallel segment instance, each line
    group verified by color_line on the instance frame."""
    if instance.cls is not ObjectClass.SEGMENTS:
        raise ClassMismatchError(f"expected segments, got {instance.cls.value}")
    return _color_lines(instance.frame.objects, instance.frame.unit)


def _color_lines(segments: Sequence[Segment], unit: int) -> Coloring:
    """Segments on a frame of the given unit, colored line group by line
    group: horizontal groups in {1, 2}, vertical groups in {3, 4}."""
    colors = [0] * len(segments)
    for group in line_groups(segments):
        line = group.line
        if group.axis is Axis.HORIZONTAL:
            place, offset = (lambda x: (x, Fraction(line, unit))), 0
        else:
            place, offset = (lambda x: (Fraction(line, unit), x)), 2
        pairs = [(segments[i].lo, segments[i].hi) for i in group.members]
        for i, c in zip(group.members, color_line(pairs, group.members, unit, place)):
            colors[i] = c + offset
    return Coloring(tuple(colors), 4)


def ray_type_profile(rays: Sequence[Ray]) -> RayTypeProfile:
    return RayTypeProfile(frozenset(r.orientation for r in rays))


def _ray_line(r: Ray) -> Fraction:
    return r.apex[1] if r.orientation in (1, 2) else r.apex[0]


def dominating_rays(rays: Sequence[Ray]) -> set:
    """Per (orientation, line), the index of the ray containing all others.

    Extremal apex wins; duplicate apexes resolve to the lowest index.
    """
    best: Dict[tuple, int] = {}
    for i, r in enumerate(rays):
        key = (r.orientation, _ray_line(r))
        extent = r.apex[0] if r.orientation in (1, 2) else r.apex[1]
        if r.orientation in (1, 3):
            rank = (extent, i)  # smallest start contains the rest
        else:
            rank = (-extent, i)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, i)
    return {i for _, i in best.values()}


def color_rays(instance: Instance) -> Coloring:
    """Proper coloring of a ray instance with as many colors as ray types
    (two colors for the single-orientation case)."""
    if instance.cls is not ObjectClass.RAYS:
        raise ClassMismatchError(f"expected rays, got {instance.cls.value}")
    if instance.m == 0:
        raise ValueError("empty ray instance")
    rays = instance.objects
    present = ray_type_profile(rays).orientations_present
    if len(present) == 4:
        frame = instance.frame
        return _color_lines(clip_rays_to_box(frame.objects, frame.unit)[0], frame.unit)
    # (color of the dominating rays, color of the rest) per orientation: the
    # axis-sharing pair gets (1, 2) and (2, 1), a third orientation (3, 1).
    pair = sorted(present)
    if len(present) == 3:
        pair = [1, 2] if {1, 2} <= present else [3, 4]
    palette = {o: (3, 1) for o in present}
    palette.update(zip(pair, ((1, 2), (2, 1))))
    doms = dominating_rays(rays)
    colors = tuple(
        palette[r.orientation][0 if i in doms else 1] for i, r in enumerate(rays)
    )
    # The lemma the palettes rely on: per (orientation, line), exactly one ray
    # has the first color, and it contains every apex of its group.
    groups: Dict[tuple, list] = {}
    for i, r in enumerate(rays):
        groups.setdefault((r.orientation, _ray_line(r)), []).append(i)
    for (o, _), members in groups.items():
        firsts = [i for i in members if colors[i] == palette[o][0]]
        for i in members:
            if len(firsts) != 1 or not contains(rays[firsts[0]], rays[i].apex):
                apex = rays[i].apex
                raise AlgorithmInvariantError(
                    f"dominating-ray lemma fails at apex ({', '.join(map(str, apex))})",
                    witness=(apex, tuple(members)),
                )
    return Coloring(colors, max(2, len(present)))


def clip_rays_to_box(rays: Sequence[Ray], unit: int = 1) -> Tuple[List[Segment], tuple]:
    """Clip each ray to a box one unit beyond all apex coordinates.

    Returns (segments, (x_lo, x_hi, y_lo, y_hi)); segment i comes from ray i.
    Inside the box, segment membership coincides with ray membership, and
    every covering set of the ray arrangement has a witness inside the box,
    so both arrangements induce the same hypergraph. Rays given on an
    integer frame (Frame) clip one frame unit beyond.
    """
    if not rays:
        raise ValueError("no rays to clip")
    xs = [r.apex[0] for r in rays]
    ys = [r.apex[1] for r in rays]
    x_lo, x_hi = min(xs) - unit, max(xs) + unit
    y_lo, y_hi = min(ys) - unit, max(ys) + unit
    segments = []
    for r in rays:
        ax, ay = r.apex
        if r.orientation == 1:
            segments.append(Segment(Axis.HORIZONTAL, ay, ax, x_hi))
        elif r.orientation == 2:
            segments.append(Segment(Axis.HORIZONTAL, ay, x_lo, ax))
        elif r.orientation == 3:
            segments.append(Segment(Axis.VERTICAL, ax, ay, y_hi))
        else:
            segments.append(Segment(Axis.VERTICAL, ax, y_lo, ay))
    return segments, (x_lo, x_hi, y_lo, y_hi)
