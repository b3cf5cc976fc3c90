"""Tight lower-bound instances and seeded random instances.

Every generator re-checks its own structural claims (object counts, exact
depths at the target points, intersection patterns) before returning, so a
bad edit here fails loudly instead of producing a silently wrong benchmark.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from . import core, extraction, octants, oracle
from .core import (
    AlgorithmInvariantError,
    Axis,
    Instance,
    Interval,
    ObjectClass,
    Octant,
    Ray,
    Segment,
    make_instance,
)

RANDOM_SCHEME = "python-mt19937"


def _require_depth_two(instance: Instance, what: str) -> Instance:
    """Return instance, or raise unless each target point has depth exactly 2."""
    for p in instance.points:
        n, _ = core.depth(instance, p)
        if n != 2:
            raise AlgorithmInvariantError(f"{what} {p} has depth {n}", witness=p)
    return instance


def gen_interval_pair() -> Instance:
    """Two unit-weight intervals sharing [1, 2]; one target point inside."""
    instance = make_instance(
        ObjectClass.INTERVALS,
        [Interval(Fraction(0), Fraction(2)), Interval(Fraction(1), Fraction(3))],
        points=[(Fraction(3, 2),)],
        meta={"generator": "interval-pair"},
    )
    # Depth 2 among two intervals: both contain the point.
    return _require_depth_two(instance, "interval pair point")


# ---------------------------------------------------------------------------
# k-box segments
# ---------------------------------------------------------------------------

def _kbox_split(i: int, k: int) -> int:
    """Split column of line i: round(i*(k-1)/k), halves up, in 1..k-1.

    Spreading the split points this way keeps the independence number of a
    box at k+2 for small k (checked exhaustively for k <= 4). The exact
    extraction number of the family is 2, 12/5, 8/3, 5/2, 8/3, 28/11, 8/3
    for k = 2..8: it peaks at k = 4 and does not tend upward with k.
    """
    return (2 * i * (k - 1) + k) // (2 * k)


def _kbox_box(k: int, off: int):
    """One k-box at offset (off, off): 2k horizontal and 2k vertical segments
    on k horizontal and k vertical lines, all coordinates integers.

    Row i (y = 2i) carries a left and a right segment meeting at an odd x
    between columns; column j (x = 2j) likewise in y. Every horizontal
    crosses every vertical line exactly once via exactly one of its two
    segments, so all crossing points have depth exactly 2.
    """
    segments: List[Segment] = []
    points: List[tuple] = []
    f = Fraction
    for i in range(1, k + 1):
        mu = _kbox_split(i, k)
        y = f(2 * i + off)
        meet = f(2 * mu + 1 + off)
        segments.append(Segment(Axis.HORIZONTAL, y, f(1 + off), meet))
        segments.append(Segment(Axis.HORIZONTAL, y, meet, f(2 * k + 1 + off)))
        points.append((meet, y))
    for j in range(1, k + 1):
        nu = _kbox_split(j, k)
        x = f(2 * j + off)
        meet = f(2 * nu + 1 + off)
        segments.append(Segment(Axis.VERTICAL, x, f(1 + off), meet))
        segments.append(Segment(Axis.VERTICAL, x, meet, f(2 * k + 1 + off)))
        points.append((x, meet))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            points.append((f(2 * j + off), f(2 * i + off)))
    return segments, points


def gen_kbox(k: int) -> Instance:
    """k diagonal copies of a k-box in disjoint squares; m = 4k**2 segments.

    Target points are all crosses: the per-line meeting points and all
    horizontal-vertical crossings, each of depth exactly 2.
    """
    if k < 2:
        raise ValueError("k-box needs k >= 2")
    segments: List[Segment] = []
    points: List[tuple] = []
    for b in range(k):
        seg, pts = _kbox_box(k, b * (2 * k + 2))
        segments.extend(seg)
        points.extend(pts)
    instance = make_instance(
        ObjectClass.SEGMENTS, segments, points=points,
        meta={"generator": "kbox", "k": k},
    )
    if instance.m != 4 * k * k:
        raise AlgorithmInvariantError(
            f"k-box has {instance.m} segments, not {4 * k * k}", witness=k
        )
    return _require_depth_two(instance, "k-box cross")


def gen_kbox_rays(k: int) -> Instance:
    """The k-box with every segment extended to a ray from its meeting cross.

    Right, left, up, and down segments become rays of orientations 1, 2, 3,
    and 4. Target points are unchanged and keep depth exactly 2: extensions
    leave their own box's lines and never land on another box's lines.
    """
    seg_instance = gen_kbox(k)
    rays: List[Ray] = []
    # Segments come in meeting pairs: (left, right) or (down, up).
    for t in range(0, seg_instance.m, 2):
        first, second = seg_instance.objects[t], seg_instance.objects[t + 1]
        if first.axis is not second.axis or first.line != second.line:
            raise AlgorithmInvariantError(
                "segment pair not on one line", witness=(first, second)
            )
        if first.hi != second.lo:
            raise AlgorithmInvariantError(
                "segment pair does not meet", witness=(first, second)
            )
        meet = first.hi
        if first.axis is Axis.HORIZONTAL:
            rays.append(Ray(2, (meet, first.line)))
            rays.append(Ray(1, (meet, first.line)))
        else:
            rays.append(Ray(4, (first.line, meet)))
            rays.append(Ray(3, (first.line, meet)))
    instance = make_instance(
        ObjectClass.RAYS, rays, points=seg_instance.points,
        meta={"generator": "kbox-rays", "k": k},
    )
    return _require_depth_two(instance, "k-box ray cross")


# ---------------------------------------------------------------------------
# Ray fan
# ---------------------------------------------------------------------------

def gen_rayfan(k: int) -> Instance:
    """3k rays: k up-rays at x = 1..k from y = 0, and per row i a left and a
    right ray touching at (i + 1/2, i).

    The left ray of row i meets exactly the up-rays 1..i and the right ray
    exactly i+1..k; every pairwise intersection point is a target point of
    depth exactly 2.
    """
    if k < 1:
        raise ValueError("ray fan needs k >= 1")
    f = Fraction
    rays: List[Ray] = [Ray(3, (f(j), f(0))) for j in range(1, k + 1)]
    points: List[tuple] = []
    for i in range(1, k + 1):
        apex = (f(2 * i + 1, 2), f(i))
        rays.append(Ray(2, apex))
        rays.append(Ray(1, apex))
        points.append(apex)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            points.append((f(j), f(i)))
    instance = make_instance(
        ObjectClass.RAYS, rays, points=points, meta={"generator": "rayfan", "k": k},
    )
    for i in range(1, k + 1):
        left, right = rays[k + 2 * (i - 1)], rays[k + 2 * (i - 1) + 1]
        met_left = {j for j in range(1, k + 1)
                    if core.contains(left, (f(j), f(i)))}
        met_right = {j for j in range(1, k + 1)
                     if core.contains(right, (f(j), f(i)))}
        if met_left != set(range(1, i + 1)):
            raise AlgorithmInvariantError(
                "left ray misses its up-rays", witness=left
            )
        if met_right != set(range(i + 1, k + 1)):
            raise AlgorithmInvariantError(
                "right ray misses its up-rays", witness=right
            )
    return _require_depth_two(instance, "ray fan point")


# ---------------------------------------------------------------------------
# Four octants
# ---------------------------------------------------------------------------

# Apexes found by search_octant4 and frozen: every pair of projected
# triangles owns a region of depth exactly 2 on the plane x+y+z = 12.
_OCTANT4_APEXES = ((0, 4, 3), (3, 0, 5), (4, 2, 4), (5, 1, 1))
_OCTANT4_CMAX = 12
_OCTANT4_WITNESSES = {  # pair -> (u, v) on the plane, z = c_max - u - v
    (0, 1): (3, 4),
    (0, 2): (4, 4),
    (0, 3): (5, 4),
    (1, 2): (4, 2),
    (1, 3): (5, 1),
    (2, 3): (6, 2),
}


def gen_octant4() -> Instance:
    """Four unit-weight octants with a private depth-2 region per pair.

    All six target points sit on the plane x+y+z = c_max; covering them
    takes three of the four octants, so the extraction number is exactly 4.
    """
    f = Fraction
    octants = [Octant(tuple(f(v) for v in apex)) for apex in _OCTANT4_APEXES]
    points = []
    for pair in sorted(_OCTANT4_WITNESSES):
        u, v = _OCTANT4_WITNESSES[pair]
        points.append((f(u), f(v), f(_OCTANT4_CMAX - u - v)))
    instance = make_instance(
        ObjectClass.OCTANTS, octants, points=points, meta={"generator": "octant4"},
    )
    for pair, p in zip(sorted(_OCTANT4_WITNESSES), instance.points):
        n, cov = core.depth(instance, p)
        if n != 2 or cov != frozenset(pair):
            raise AlgorithmInvariantError(
                f"octant pair cell {pair} not realized at {p}", witness=p
            )
    cover, weight = extraction.exact_min_cover(instance)
    if weight != 3:
        raise AlgorithmInvariantError(
            "four-octant instance must need 3 octants to cover", witness=cover
        )
    return instance


def search_octant4(
    seed: int = 0, coord_range: int = 5, tries: int = 100_000
) -> Optional[Instance]:
    """Rediscover a valid four-octant configuration by random search.

    Draws integer apexes, keeps the first antichain whose minimal hyperedges
    are the six pairs, and returns it (or None) with the six pairwise joins
    (coordinatewise maxima), each covered by exactly its pair, as targets.
    Exists so the frozen constants above can be regenerated and cross-checked.
    """
    rng = random.Random(seed)
    for _ in range(tries):
        apexes = [tuple(Fraction(rng.randint(0, coord_range)) for _ in range(3))
                  for _ in range(4)]
        octs = [Octant(apex) for apex in apexes]
        if len(octants.compute_domination(octs).nondominated) < 4:
            continue
        edges = octants.join_cover_edges(octs)
        if len(edges) != 6 or any(e.bit_count() != 2 for e in edges):
            continue
        return make_instance(
            ObjectClass.OCTANTS, octs, points=octants.joins(octs),
            meta={"generator": "octant4-search", "seed": seed},
        )
    return None


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

_COORD_RANGE = {
    ObjectClass.INTERVALS: 12,
    ObjectClass.SEGMENTS: 12,
    ObjectClass.RAYS: 12,
    ObjectClass.OCTANTS: 8,
}


def gen_random(cls: ObjectClass, n: int, seed: int) -> Instance:
    """Seeded random instance with integer coordinates in a small range.

    The small range makes coordinate collisions (shared lines, touching
    endpoints) common on purpose. Target points are one oracle witness per
    hyperedge of size >= 2, so the extraction precondition holds by
    construction (the oracle re-checks each witness against every object
    with core's membership test, in its integer frame).
    Weights are random positive rationals.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    hi = _COORD_RANGE[cls]
    f = Fraction
    objects: list = []
    for _ in range(n):
        if cls is ObjectClass.INTERVALS:
            a = rng.randint(0, hi - 1)
            b = rng.randint(a + 1, hi)
            objects.append(Interval(f(a), f(b)))
        elif cls is ObjectClass.SEGMENTS:
            axis = Axis.HORIZONTAL if rng.random() < 0.5 else Axis.VERTICAL
            lo = rng.randint(0, hi - 1)
            objects.append(
                Segment(axis, f(rng.randint(0, hi)), f(lo), f(rng.randint(lo + 1, hi)))
            )
        elif cls is ObjectClass.RAYS:
            objects.append(
                Ray(rng.randint(1, 4), (f(rng.randint(0, hi)), f(rng.randint(0, hi))))
            )
        else:
            objects.append(
                Octant(tuple(f(rng.randint(0, hi)) for _ in range(3)))
            )
    weights = [f(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)]
    probe = make_instance(cls, objects, weights)
    edges = oracle.enumerate_hyperedges(probe)
    points = [edges.edges[e] for e in edges.sorted_edges()]
    return make_instance(
        cls, objects, weights, points,
        meta={
            "generator": "random",
            "scheme": RANDOM_SCHEME,
            "seed": seed,
            "class": cls.value,
            "n": n,
        },
    )
