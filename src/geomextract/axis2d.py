"""Colorings for axis-parallel segments (4 colors) and rays (type-many colors).

Segments: collinear segments on one line are a 1D interval family, so each
line group is 2-colored by the interval colorer; horizontal groups use the
palette {1, 2} and vertical groups {3, 4}, and crossing hyperedges are then
bichromatic for free. So checking each line group's 2-coloring with the
interval sweep verifies the whole segment coloring before it is returned.

Rays: dispatch on the number of distinct orientations present. One or two
orientations are handled by dominating rays (the extremal ray on a line
contains every other ray of that line and orientation). Three orientations
reduce to the two that share an axis plus dominating rays of the third;
the proof's horizontal-pair normal form is reached by rotating 90 degrees
when the axis-sharing pair is vertical. Four orientations clip every ray to
a bounding box and reuse the segment colorer.
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
)
from .intervals import find_monochromatic, two_color


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
    """Proper 4-coloring of an axis-parallel segment instance.

    Each line group's 2-coloring is verified by the interval sweep before
    the coloring is returned; a monochromatic point raises
    AlgorithmInvariantError carrying the point and its covering set.
    """
    if instance.cls is not ObjectClass.SEGMENTS:
        raise ClassMismatchError(f"expected segments, got {instance.cls.value}")
    colors = [0] * instance.m
    for group in line_groups(instance.objects):
        pairs = [(instance.objects[i].lo, instance.objects[i].hi) for i in group.members]
        sub = two_color(pairs)
        bad = find_monochromatic(pairs, sub)
        if bad is not None:
            x, local = bad
            point = (x, group.line) if group.axis is Axis.HORIZONTAL else (group.line, x)
            raise AlgorithmInvariantError(
                "segment coloring is not proper: "
                f"point ({point[0]}, {point[1]}) is monochromatic",
                witness=(point, tuple(group.members[j] for j in local)),
            )
        offset = 0 if group.axis is Axis.HORIZONTAL else 2
        for i, c in zip(group.members, sub):
            colors[i] = c + offset
    return Coloring(tuple(colors), 4)


def ray_type_profile(rays: Sequence[Ray]) -> RayTypeProfile:
    return RayTypeProfile(frozenset(r.orientation for r in rays))


def _ray_line(r: Ray) -> Fraction:
    return r.apex[1] if r.orientation in (1, 2) else r.apex[0]


def dominating_rays(rays: Sequence[Ray], indices: Sequence[int]) -> set:
    """Per (orientation, line), the index of the ray containing all others.

    Extremal apex wins; duplicate apexes resolve to the lowest index.
    """
    best: Dict[tuple, int] = {}
    for i in indices:
        r = rays[i]
        key = (r.orientation, _ray_line(r))
        extent = r.apex[0] if r.orientation in (1, 2) else r.apex[1]
        if r.orientation in (1, 3):
            rank = (extent, i)  # smallest start contains the rest
        else:
            rank = (-extent, i)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, i)
    return {i for _, i in best.values()}


def _color_two_orientation_classes(
    rays: Sequence[Ray], colors: list, first: int, second: int
) -> None:
    """Dominating rays of the first class get 1 (rest 2), of the second get
    2 (rest 1)."""
    for orientation, dom_color in ((first, 1), (second, 2)):
        idx = [i for i, r in enumerate(rays) if r.orientation == orientation]
        doms = dominating_rays(rays, idx)
        for i in idx:
            colors[i] = dom_color if i in doms else 3 - dom_color


def _rotate_ray(r: Ray) -> Ray:
    """Rotate the plane by (x, y) -> (y, -x); orientations map 1,2,3,4 ->
    4,3,1,2, turning a vertical axis pair into a horizontal one."""
    x, y = r.apex
    return Ray({1: 4, 2: 3, 3: 1, 4: 2}[r.orientation], (y, -x))


def color_rays(instance: Instance) -> Coloring:
    """Proper coloring of a ray instance with as many colors as ray types
    (two colors for the single-orientation case)."""
    if instance.cls is not ObjectClass.RAYS:
        raise ClassMismatchError(f"expected rays, got {instance.cls.value}")
    if instance.m == 0:
        raise ValueError("empty ray instance")
    rays = list(instance.objects)
    profile = ray_type_profile(rays)
    present = sorted(profile.orientations_present)
    colors = [0] * len(rays)

    if profile.type == 1:
        doms = dominating_rays(rays, range(len(rays)))
        for i in range(len(rays)):
            colors[i] = 1 if i in doms else 2
        return Coloring(tuple(colors), 2)

    if profile.type == 2:
        _color_two_orientation_classes(rays, colors, present[0], present[1])
        return Coloring(tuple(colors), 2)

    if profile.type == 3:
        if not {1, 2} <= profile.orientations_present:
            # Vertical pair {3,4}: rotate to the horizontal normal form.
            rotated = Instance(
                ObjectClass.RAYS,
                tuple(_rotate_ray(r) for r in rays),
                instance.weights,
                (),
            )
            inner = color_rays(rotated)
            return Coloring(inner.colors, 3)
        third = next(o for o in present if o not in (1, 2))
        _color_two_orientation_classes(rays, colors, 1, 2)
        idx3 = [i for i, r in enumerate(rays) if r.orientation == third]
        doms3 = dominating_rays(rays, idx3)
        for i in idx3:
            colors[i] = 3 if i in doms3 else 1
        return Coloring(tuple(colors), 3)

    segments, _box = clip_rays_to_box(rays)
    seg_instance = Instance(
        ObjectClass.SEGMENTS, tuple(segments), instance.weights, ()
    )
    return color_segments(seg_instance)


def clip_rays_to_box(rays: Sequence[Ray]) -> Tuple[List[Segment], tuple]:
    """Clip each ray to a box one unit beyond all apex coordinates.

    Returns (segments, (x_lo, x_hi, y_lo, y_hi)); segment i comes from ray i.
    Inside the box, segment membership coincides with ray membership, and
    every covering set of the ray arrangement has a witness inside the box,
    so both arrangements induce the same hypergraph.
    """
    if not rays:
        raise ValueError("no rays to clip")
    xs = [r.apex[0] for r in rays]
    ys = [r.apex[1] for r in rays]
    x_lo, x_hi = min(xs) - 1, max(xs) + 1
    y_lo, y_hi = min(ys) - 1, max(ys) + 1
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
