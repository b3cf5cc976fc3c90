"""Turning proper colorings into covers, and exact ground-truth optima.

extract() drops the heaviest color class: whenever every target point is
covered at least twice and the coloring is proper, the remaining objects
still cover everything and the removed weight is at least W/kappa (the
maximum class is at least the mean). The cover is verified before anything
is returned.

The exact routines are desk-scale solvers used as oracles for the tightness
instances: minimum-weight cover of the target points, the exact extraction
number W / (W - mincover) it induces, and the exact proper chromatic number
of the induced hypergraph, which reads the grid's minimal edges or, for
octants, the same edges as minimal apex join covers (octants.join_cover_edges),
with no grid walk. Both cover searches read one mask model: the
inclusion-minimal coverer masks of the targets (oracle.minimal_masks; a
cover of those covers every target) and hits[i], the mask of those points
object i covers. They start from one greedy cover, memoize each node's
uncovered mask with the least weight it was reached at, and like the coloring
search, which exact_chromatic runs once over k = 2, 3, ..., they raise
SizeCapError past octants.SEARCH_NODE_BUDGET nodes. Every exact search is a
loop over an explicit stack (the coloring search: one color per depth), with
no recursion, so no search depth overflows the interpreter's stack. extract
and the cover searches add the ints of Frame.weights (w * D); Fractions are
only results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Sequence, Tuple

from . import octants, oracle
from .core import (
    AlgorithmInvariantError,
    Coloring,
    DepthPreconditionError,
    ImproperColoringError,
    Instance,
    ObjectClass,
    SizeCapError,
    UnboundedExtractionError,
    UncoverablePointError,
    total_weight,
)
from .octants import _search_coloring

DEFAULT_COVER_CAP = 40
DEFAULT_CHROMATIC_CAP = 20


@dataclass(frozen=True)
class ExtractionResult:
    sol: frozenset  # the cover
    extracted: frozenset  # the removed color class
    extracted_weight: Fraction
    ratio: Fraction  # W(all) / extracted_weight
    kappa: int


def extract(instance: Instance, coloring: Coloring) -> ExtractionResult:
    """Remove the heaviest color class; verify the rest still covers T.

    One oracle.coverer_masks lookup gives each point's coverers: they check
    depth >= 2, and a point is missed by the rest iff all its coverers were
    extracted.
    """
    if instance.m == 0:
        raise ValueError("cannot extract from an empty instance")
    if len(coloring.colors) != instance.m:
        raise ValueError("coloring is not total over the instance")
    coverers = oracle.coverer_masks(instance)
    for p, mask in zip(instance.points, coverers):
        if mask & (mask - 1) == 0:
            raise DepthPreconditionError(
                f"target point {p} has depth {mask.bit_count()} < 2", point=p
            )

    class_weight: dict = {}  # over the colors in use, whatever kappa is
    for w, c in zip(instance.frame.weights, coloring.colors):
        class_weight[c] = class_weight.get(c, 0) + w
    best_color = max(class_weight, key=lambda c: (class_weight[c], -c))

    extracted = frozenset(i for i, c in enumerate(coloring.colors) if c == best_color)
    kept = sum(1 << i for i, c in enumerate(coloring.colors) if c != best_color)
    for p, mask in zip(instance.points, coverers):
        if not mask & kept:
            raise ImproperColoringError(
                f"residual objects miss target point {p}; "
                "the supplied coloring is not proper",
                witness=p,
            )
    sol = frozenset(instance.indices()) - extracted
    w_all = sum(class_weight.values())
    w_extracted = class_weight[best_color]
    ratio = Fraction(w_all, w_extracted)
    if ratio > coloring.kappa:
        raise AlgorithmInvariantError("heaviest color class below W/kappa")
    w_extracted = Fraction(w_extracted, instance.frame.weight_unit)
    return ExtractionResult(sol, extracted, w_extracted, ratio, coloring.kappa)


# ---------------------------------------------------------------------------
# Exact minimum-weight cover
# ---------------------------------------------------------------------------

def _greedy(hits: Sequence[int], weights: Sequence[int], uncovered: int) -> int:
    """Mask of a greedy cover of the uncovered points.

    Each step takes the least weight per newly covered point, ties to the
    lowest index: w_i covering c_i new points beats the pick's w / c iff
    w_i * c < w * c_i, with no division.
    """
    chosen = 0
    while uncovered:
        pick, best_w, best_count = -1, 1, 0  # 1/0: any covering object beats it
        for i, h in enumerate(hits):
            count = (h & uncovered).bit_count()
            if count and weights[i] * best_count < best_w * count:
                pick, best_w, best_count = i, weights[i], count
        chosen |= 1 << pick
        uncovered &= ~hits[pick]
    return chosen


def _min_weight_vertex_cover(
    points: Sequence[int], hits: Sequence[int], weights: Sequence[int]
) -> FrozenSet[int]:
    """Exact minimum-weight vertex cover, branch and bound per component.

    Every point has two coverers, so points[k] is an edge {u, v} (u < v) of
    the conflict graph, in ascending (u, v) order, and hits[i] is the mask
    of the edges at i. A component grows from its lowest edge through hits.
    As in the set cover, a node whose uncovered mask was reached before at
    no greater weight is pruned: its subtree depends on the mask alone.
    """
    tick = octants.node_budget("vertex cover search")
    members = oracle.bits
    lightest = [min(weights[i] for i in members(e)) for e in points]

    def matching_bound(uncovered: int) -> int:
        # a greedy matching on the uncovered edges, in ascending order
        used, bound = 0, 0
        for k in range(uncovered.bit_length()):
            if uncovered >> k & 1 and not points[k] & used:
                used |= points[k]
                bound += lightest[k]
        return bound

    cover = 0
    todo = (1 << len(points)) - 1
    while todo:
        comp, new = 0, todo & -todo
        while new:
            comp |= new
            for k in members(new):
                e = points[k]
                new |= hits[(e & -e).bit_length() - 1] | hits[e.bit_length() - 1]
            new &= ~comp
        todo &= ~comp
        best = _greedy(hits, weights, comp)
        best_w = sum(weights[i] for i in members(best))
        visited: Dict[int, int] = {}
        stack = [(comp, 0, 0)]  # (uncovered, weight, chosen) per open node
        while stack:
            uncovered, cur_w, chosen = stack.pop()
            tick()
            if not uncovered:
                if cur_w < best_w:
                    best_w, best = cur_w, chosen
                continue
            if cur_w + matching_bound(uncovered) >= best_w:
                continue
            prev = visited.get(uncovered)
            if prev is not None and prev <= cur_w:
                continue
            visited[uncovered] = cur_w
            edge = points[(uncovered & -uncovered).bit_length() - 1]
            u_bit = edge & -edge
            u = u_bit.bit_length() - 1
            # u in the cover, searched first; else every uncovered neighbor
            # of u must enter
            take_u = (uncovered & ~hits[u], cur_w + weights[u], chosen | u_bit)
            forced = 0
            for k in members(hits[u] & uncovered):
                forced |= points[k]
            forced &= ~u_bit
            for x in members(forced):
                uncovered &= ~hits[x]
                cur_w += weights[x]
            stack += [(uncovered, cur_w, chosen | forced), take_u]
        cover |= best
    return frozenset(members(cover))


def _min_weight_set_cover(
    points: Sequence[int], hits: Sequence[int], weights: Sequence[int]
) -> FrozenSet[int]:
    """Exact minimum-weight set cover by branching on a hardest point.

    points[k] is the mask of the objects covering point k, inclusion-minimal
    and sorted by (size, members), so the lowest uncovered point is a
    hardest one; hits[i] is the mask of the points object i covers. States
    are memoized by their mask of uncovered points: a path arriving no
    cheaper than a previous visit is pruned.
    """
    tick = octants.node_budget("set cover search")
    members = oracle.bits
    branches = [sorted(members(s), key=lambda i: (weights[i], i)) for s in points]
    everything = (1 << len(points)) - 1
    best = _greedy(hits, weights, everything)
    best_w = sum(weights[i] for i in members(best))
    visited: Dict[int, int] = {}
    stack = [(everything, 0, 0)]  # (uncovered, weight, chosen) per open node
    while stack:
        uncovered, cur_w, chosen = stack.pop()
        tick()
        if not uncovered:
            if cur_w < best_w:
                best_w, best = cur_w, chosen
            continue
        if cur_w >= best_w:
            continue
        prev = visited.get(uncovered)
        if prev is not None and prev <= cur_w:
            continue
        visited[uncovered] = cur_w
        point = (uncovered & -uncovered).bit_length() - 1
        for i in reversed(branches[point]):  # popped in branch order
            stack.append((uncovered & ~hits[i], cur_w + weights[i], chosen | 1 << i))
    return frozenset(members(best))


def exact_min_cover(
    instance: Instance, size_cap: int = DEFAULT_COVER_CAP
) -> Tuple[FrozenSet[int], Fraction]:
    """Minimum-weight subset of objects covering every target point.

    The vertex cover runs iff every target has exactly two coverers.
    """
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} objects exceed cap {size_cap}")
    masks = oracle.coverer_masks(instance)
    for p, mask in zip(instance.points, masks):
        if not mask:
            raise UncoverablePointError(
                f"target point {p} is covered by no object", point=p
            )
    points = oracle.minimal_masks(masks)
    hits = [0] * instance.m  # hits[i]: mask of the minimal points i covers
    for k, s in enumerate(points):
        for i in oracle.bits(s):
            hits[i] |= 1 << k
    if all(mask.bit_count() == 2 for mask in masks):
        solve = _min_weight_vertex_cover
    else:
        solve = _min_weight_set_cover
    weights = instance.frame.weights
    cover = solve(points, hits, weights)
    return cover, Fraction(sum(weights[i] for i in cover), instance.frame.weight_unit)


def exact_extraction_number(
    instance: Instance, size_cap: int = DEFAULT_COVER_CAP
) -> Fraction:
    """Smallest alpha achievable on the instance: W / (W - mincover)."""
    _, w_cover = exact_min_cover(instance, size_cap=size_cap)
    return extraction_number(instance, w_cover)


def extraction_number(instance: Instance, w_cover: Fraction) -> Fraction:
    """W / (W - w_cover), given the weight of a minimum cover."""
    if instance.m == 0:
        raise ValueError("empty instance has no extraction number")
    w_all = total_weight(instance, instance.indices())
    if w_cover == w_all:
        raise UnboundedExtractionError(
            "every cover takes all weight; extraction number is unbounded"
        )
    return w_all / (w_all - w_cover)


def exact_chromatic(
    instance: Instance, size_cap: int = DEFAULT_CHROMATIC_CAP
) -> int:
    """Minimum kappa admitting a proper coloring of the induced hypergraph.

    One octants._search_coloring call tries kappa = 2, 3, ... on one
    prepared order. It reads the minimal edges only and visits the same
    nodes: a monochromatic edge holds a monochromatic minimal one, placed
    no later. Octants read them as the minimal covers of their pairwise
    apex joins (octants.join_cover_edges, every octant, dominated ones and
    twins included), the grid's list in the grid's order, with no grid
    walk; every other class reads the grid's minimal edges.
    """
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} objects exceed cap {size_cap}")
    if instance.cls is ObjectClass.OCTANTS:
        frame = instance.frame
        edges = octants.join_cover_edges(frame.objects, frame.unit)
    else:
        grid = oracle.enumerate_hyperedges(instance, size_cap)
        edges = oracle.minimal_masks(grid.masks)
    if not edges:
        return 1
    colors = _search_coloring(instance.m, edges, range(2, instance.m + 1))
    if colors is None:
        raise AlgorithmInvariantError("hypergraph not colorable with m colors")
    return max(colors)
