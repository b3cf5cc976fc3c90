"""Independent brute-force ground truth for induced hypergraphs.

The hypergraph of a set of objects has one hyperedge per arrangement cell:
the set of objects covering that cell. Every supported object is a box: a
product of closed per-axis extents [lo, hi]. An extent may be degenerate
(lo == hi, the line of a segment or of a ray) or open on one side (a ray,
an octant). Membership is therefore a conjunction of per-axis conditions,
and on each axis it can change only at an "event", an extent endpoint.
One table per axis (_axis_table) holds the sorted events and the mask of
objects covering each event and each open gap around them; the covering
set at a point is the AND of its per-axis masks. The grid takes one
candidate per distinct mask (an event, a gap midpoint, or a sentinel past
the extreme event on an open side) and so witnesses every cell. That
claim is not assumed: it is tested against dense sampling and core.depth.
covers is the one lookup of the same masks at given points: coverer_masks
reads it at the target points for extract and the exact covers,
check_cover at the same points over the subset's extents only, and the
octants at their apexes and apex joins. Tables, grid and masks read the
instance's integer frame (core.Frame, unit L), where events are even
integers and gap midpoints integers.

A hyperedge is a mask (bit i for object i) from the grid through every
search. enumerate_hyperedges maps each to its first grid witness W and
re-checks it with core.covering_mask, the one shared re-check: the mask of
the frame's objects that pass the class's core.MEMBERSHIP test at W, built
without the tables. The octants re-check their minimal join covers and
their colorings' same-color joins with the same helper
(octants.join_cover_edges, check_at_joins), so every mask a coloring or
chromatic search reads has passed it. Frozensets and Fraction(W, L)
witnesses are built only at the boundary: HyperedgeSet.edges on first
read, and check_proper's verdict.

Plane triangles (octant projections) have a slanted side and are
enumerated separately, by horizontal slices.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, Optional, Sequence

from . import core
from .core import (
    AlgorithmInvariantError,
    Axis,
    Coloring,
    Instance,
    Interval,
    PlaneTriangle,
    Ray,
    Segment,
    SizeCapError,
    triangle_contains,
)

DEFAULT_SIZE_CAP = 60


@dataclass(frozen=True)
class HyperedgeSet:
    """Deduplicated covering sets of size >= 2, one witness point each."""

    masks: dict  # int mask -> witness point tuple, in units of 1/unit
    unit: int = 1

    @cached_property
    def edges(self) -> dict:
        """frozenset[int] -> witness point tuple of Fractions, built on first read."""
        return {
            frozenset(bits(e)): tuple(Fraction(c, self.unit) for c in w)
            for e, w in self.masks.items()
        }

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=lambda e: (len(e), sorted(e)))

    def __len__(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class ProperVerdict:
    proper: bool
    edge: Optional[frozenset] = None
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class CoverVerdict:
    covered: bool
    point: Optional[tuple] = None
    point_index: Optional[int] = None


# ---------------------------------------------------------------------------
# Box model and event grid
# ---------------------------------------------------------------------------

def _with_midpoints(values: Iterable[Fraction]) -> list:
    vals = sorted(set(values))
    out = vals[:1]
    for a, b in zip(vals, vals[1:]):
        out += (Fraction(a + b, 2), b)
    return out


def _axis_table(extents: Sequence[tuple]) -> tuple:
    """Sorted events on one axis and the objects covering each slot.

    Returns (events, slot, masks). Slot 2k+1 is events[k] (slot maps each
    event to it), slot 2k the open gap below it, and the last slot the gap
    above every event. Each extent starts and ends at an event, so each
    object covers one contiguous run of slots: masks[s], the mask covering
    slot s, is the running XOR of bits toggled at both ends of each run.
    """
    events = sorted({v for ext in extents for v in ext if v is not None})
    slot = {v: 2 * k + 1 for k, v in enumerate(events)}
    toggles = [0] * (2 * len(events) + 2)
    for i, (lo, hi) in enumerate(extents):
        toggles[0 if lo is None else slot[lo]] ^= 1 << i
        toggles[-1 if hi is None else slot[hi] + 1] ^= 1 << i
    return events, slot, list(itertools.accumulate(toggles[:-1], operator.xor))


def _axis_candidates(extents: Sequence[tuple], unit: int) -> tuple:
    """Candidate coordinates on one axis and the objects covering each.

    The extents are even integers in a frame of the given unit. Returns
    parallel lists (values, masks), ascending, keeping only the first slot
    of each distinct nonzero mask: any later slot with the same mask meets
    every other axis in cells already visited. A gap's witness is the
    midpoint of its ends, an integer since the events are even; the outer
    ends give min - unit and max + unit/2.
    """
    events, _, masks = _axis_table(extents)
    ends = [events[0] - 2 * unit, *events, events[-1] + unit]
    first: dict = {}
    for s, mask in enumerate(masks):
        if mask and mask not in first:
            k = s // 2
            first[mask] = ends[k + 1] if s % 2 else (ends[k] + ends[k + 1]) // 2
    return list(first.values()), list(first)


def bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def minimal_masks(masks: Iterable[int]) -> list:
    """The inclusion-minimal distinct masks, sorted by (size, members).

    Each mask is checked only against the kept masks of smaller size (a
    distinct mask of its own size cannot lie inside it), and only the
    survivors are sorted by members.
    """
    minimal: list = []
    by_size = sorted(set(masks), key=int.bit_count)
    for _, same_size in itertools.groupby(by_size, int.bit_count):
        minimal += [s for s in same_size if not any(t & s == t for t in minimal)]
    return sorted(minimal, key=lambda s: (s.bit_count(), bits(s)))


def covers(extents: Sequence[Sequence[tuple]], points: Iterable[tuple]) -> list:
    """Per point, the mask of the objects covering it (bit i for object i).

    extents[d][i] is object i's (lo, hi) on axis d, None where open, on the
    points' frame. A point's mask is the AND of one lookup per axis: a dict
    hit on an event, or a bisect into the gap holding the coordinate.
    """
    tables = [_axis_table(ext) for ext in extents]
    out = []
    for p in points:
        mask = -1
        for x, (events, slot, masks) in zip(p, tables):
            # event slots are odd, so a miss (None) falls through to the gap
            mask &= masks[slot.get(x) or 2 * bisect_left(events, x)]
        out.append(mask)
    return out


def coverer_masks(instance: Instance) -> list:
    """Per target point, in T order, the mask of the objects covering it."""
    return covers(instance.frame.extents, instance.frame.points)


def enumerate_triangle_hyperedges(triangles: Sequence[PlaneTriangle]) -> HyperedgeSet:
    """Hyperedges of a plane-triangle arrangement via horizontal slices.

    Slice combinatorics changes only at v = b_i (bottom edges) and
    v = s_j - a_i (a left edge meeting a hypotenuse); between consecutive
    critical values the 1D interval order is constant, so slicing at the
    critical values and their midpoints sees every cell. Each slice at
    height v is a family of closed 1D intervals [a_i, s_i - v].
    """
    crit = set()
    for t in triangles:
        crit.add(t.b)
        for t2 in triangles:
            crit.add(t.s - t2.a)
    vcands = _with_midpoints(crit)
    edges: dict = {}
    for v in vcands:
        active = [
            (i, t.a, t.s - v)
            for i, t in enumerate(triangles)
            if t.b <= v and t.a <= t.s - v
        ]
        if not active:
            continue
        ucands = _with_midpoints(u for _, lo, hi in active for u in (lo, hi))
        for u in ucands:
            cov = sum(1 << i for i, lo, hi in active if lo <= u <= hi)
            if cov & (cov - 1) and cov not in edges:
                edges[cov] = (u, v)
    for edge, (u, v) in edges.items():
        got = sum(1 << i for i, t in enumerate(triangles) if triangle_contains(t, u, v))
        if got != edge:
            raise AlgorithmInvariantError(
                "triangle slice witness disagrees with membership",
                witness=(u, v),
            )
    return HyperedgeSet(edges)


def enumerate_hyperedges(
    instance: Instance, size_cap: int = DEFAULT_SIZE_CAP
) -> HyperedgeSet:
    """All covering sets of size >= 2 realized by some point, with witnesses.

    Each mask keeps its first witness in x-major order on the instance's
    frame, re-checked with core.covering_mask.
    """
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} objects exceed cap {size_cap}")
    if instance.m == 0:
        return HyperedgeSet({})
    frame = instance.frame
    axes = [_axis_candidates(ext, frame.unit) for ext in frame.extents]
    *outer, (last_vals, last_masks) = axes
    prefixes = [(-1, ())]  # (covering mask so far, point so far)
    for vals, masks in outer:
        prefixes = [
            (m & am, pt + (v,))
            for m, pt in prefixes
            for v, am in zip(vals, masks)
            if m & am
        ]
    edges: dict = {}
    seen = set()
    for m, pt in prefixes:
        for v, am in zip(last_vals, last_masks):
            cell = m & am
            if cell and cell not in seen:
                seen.add(cell)
                if cell & (cell - 1):
                    edges[cell] = pt + (v,)
    for edge, w in edges.items():
        if core.covering_mask(instance.cls, frame.objects, w) != edge:
            raise AlgorithmInvariantError(
                "oracle witness disagrees with core membership",
                witness=tuple(Fraction(c, frame.unit) for c in w),
            )
    return HyperedgeSet(edges, frame.unit)


def monochromatic(edges: Iterable[int], colors: Sequence[int]) -> Optional[int]:
    """The first edge mask inside one color class (colors[i] is object i's)."""
    classes: dict = {}
    for i, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << i
    for e in edges:
        if e & classes[colors[(e & -e).bit_length() - 1]] == e:
            return e
    return None


# ---------------------------------------------------------------------------
# Dense sampling (independent completeness baseline)
# ---------------------------------------------------------------------------

def _defining_values(instance: Instance) -> list:
    """Per-axis coordinates appearing in any object definition."""
    dim = instance.cls.dimension
    vals = [set() for _ in range(dim)]
    for obj in instance.objects:
        if isinstance(obj, Interval):
            vals[0].update((obj.a, obj.b))
        elif isinstance(obj, Segment):
            if obj.axis is Axis.HORIZONTAL:
                vals[0].update((obj.lo, obj.hi))
                vals[1].add(obj.line)
            else:
                vals[0].add(obj.line)
                vals[1].update((obj.lo, obj.hi))
        elif isinstance(obj, Ray):
            vals[0].add(obj.apex[0])
            vals[1].add(obj.apex[1])
        else:
            for d in range(3):
                vals[d].add(obj.apex[d])
    return vals


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def enumerate_hyperedges_dense(
    instance: Instance, max_points: int = 2_000_000
) -> HyperedgeSet:
    """Hyperedges by dense uniform sampling with the naive depth loop.

    Samples each axis on a uniform lattice of step half the gcd of all
    event differences (so every defining coordinate lies on the lattice and
    every open gap of width >= gcd contains a lattice point), extended one
    unit beyond the extremes. Shares nothing with the event-grid
    enumerator beyond core.depth and HyperedgeSet's decode.
    """
    if instance.m == 0:
        return HyperedgeSet({})
    axes = []
    count = 1
    for vals in _defining_values(instance):
        svals = sorted(vals)
        gaps = [b - a for a, b in zip(svals, svals[1:])]
        step = reduce(_fraction_gcd, gaps) / 2 if gaps else Fraction(1, 2)
        below = -((-1) // step)  # ceil(1 / step) lattice steps past each end
        lo = svals[0] - below * step
        hi = svals[-1] + below * step
        samples = []
        x = lo
        while x <= hi:
            samples.append(x)
            x += step
        axes.append(samples)
        count *= len(samples)
        if count > max_points:
            raise SizeCapError(f"dense sampling would need > {max_points} points")

    edges: dict = {}
    for p in itertools.product(*axes):
        n, cov = core.depth(instance, p)
        if n >= 2:
            edges.setdefault(sum(1 << i for i in cov), p)
    return HyperedgeSet(edges)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def check_proper(
    instance: Instance, coloring: Coloring, size_cap: int = DEFAULT_SIZE_CAP
) -> ProperVerdict:
    """Proper iff every hyperedge sees at least two colors.

    The first monochromatic edge in (size, members) order is minimal (a
    sub-edge would sort before it), so only the minimal edges are scanned.
    """
    if len(coloring.colors) != instance.m:
        raise ValueError("coloring is not total over the instance")
    edges = enumerate_hyperedges(instance, size_cap=size_cap)
    edge = monochromatic(minimal_masks(edges.masks), coloring.colors)
    if edge is None:
        return ProperVerdict(True)
    witness = tuple(Fraction(c, edges.unit) for c in edges.masks[edge])
    return ProperVerdict(False, frozenset(bits(edge)), witness)


def check_cover(instance: Instance, subset: Iterable[int]) -> CoverVerdict:
    """True iff every point of T lies in some object of the subset.

    Reports the first uncovered point in T order; T was validated already.
    The coverage tables hold the subset's extents only.
    """
    chosen = sorted(set(subset))
    for i in chosen:
        if not 0 <= i < instance.m:
            raise IndexError(f"unknown object index {i}")
    frame = instance.frame
    extents = [[axis[i] for i in chosen] for axis in frame.extents]
    for k, mask in enumerate(covers(extents, frame.points)):
        if not mask:
            return CoverVerdict(False, instance.points[k], k)
    return CoverVerdict(True)
