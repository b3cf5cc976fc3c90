"""Turning proper colorings into covers, and exact ground-truth optima.

extract() drops the heaviest color class: whenever every target point is
covered at least twice and the coloring is proper, the remaining objects
still cover everything and the removed weight is at least W/kappa (the
maximum class is at least the mean). The cover is verified before anything
is returned.

The exact routines are desk-scale solvers used as oracles for the tightness
instances: minimum-weight cover of the target points, the exact extraction
number W / (W - mincover) it induces, and the exact proper chromatic number
of the induced hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import oracle
from .core import (
    AlgorithmInvariantError,
    Coloring,
    DepthPreconditionError,
    ImproperColoringError,
    Instance,
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

    class_weight = dict.fromkeys(range(1, coloring.kappa + 1), Fraction(0))
    for i, c in enumerate(coloring.colors):
        class_weight[c] += instance.weights[i]
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
    if w_extracted * coloring.kappa < w_all:
        raise AlgorithmInvariantError("heaviest color class below W/kappa")
    return ExtractionResult(
        sol, extracted, w_extracted, w_all / w_extracted, coloring.kappa
    )


# ---------------------------------------------------------------------------
# Exact minimum-weight cover
# ---------------------------------------------------------------------------

def _min_weight_vertex_cover(
    edges: Sequence[Tuple[int, int]], weights: Sequence[Fraction]
) -> FrozenSet[int]:
    """Exact minimum-weight vertex cover, branch and bound per component."""
    adjacency: Dict[int, set] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    # connected components of the conflict graph
    components = []
    seen: set = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        components.append(comp)

    def matching_bound(uncovered: frozenset) -> Fraction:
        used: set = set()
        bound = Fraction(0)
        for u, v in sorted(uncovered):
            if u not in used and v not in used:
                used.update((u, v))
                bound += min(weights[u], weights[v])
        return bound

    def greedy(uncovered: frozenset) -> set:
        cover: set = set()
        remaining = set(uncovered)
        while remaining:
            degree: Dict[int, int] = {}
            for u, v in remaining:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            pick = min(degree, key=lambda x: (weights[x] / degree[x], x))
            cover.add(pick)
            remaining = {e for e in remaining if pick not in e}
        return cover

    cover_total: set = set()
    for comp in components:
        comp_edges = frozenset(
            (min(u, v), max(u, v)) for u, v in edges if u in comp
        )
        init = greedy(comp_edges)
        best = [sum((weights[v] for v in init), Fraction(0)), set(init)]

        def rec(uncovered: frozenset, cur_w: Fraction, chosen: set) -> None:
            if not uncovered:
                if cur_w < best[0]:
                    best[0], best[1] = cur_w, set(chosen)
                return
            if cur_w + matching_bound(uncovered) >= best[0]:
                return
            u, v = min(uncovered)
            # u in the cover
            rec(
                frozenset(e for e in uncovered if u not in e),
                cur_w + weights[u],
                chosen | {u},
            )
            # u excluded: every uncovered neighbor of u must enter
            forced = {b if a == u else a for a, b in uncovered if u in (a, b)}
            rec(
                frozenset(
                    e for e in uncovered if not (set(e) & forced)
                ),
                cur_w + sum((weights[x] for x in forced), Fraction(0)),
                chosen | forced,
            )

        rec(comp_edges, Fraction(0), set())
        cover_total |= best[1]
    return frozenset(cover_total)


def _min_weight_set_cover(
    point_masks: Sequence[int], weights: Sequence[Fraction]
) -> FrozenSet[int]:
    """Exact minimum-weight set cover by branching on a hardest point.

    point_masks[k] is the mask of the objects covering point k. States are
    memoized by their mask of uncovered points: a path arriving no cheaper
    than a previous visit is pruned.
    """
    members = oracle._mask_members
    # Covering a point with a subset coverer-set also covers every point
    # whose coverer-set is a superset; keep only minimal ones. Sorted by
    # (size, members), the lowest uncovered point is a hardest one.
    minimal: List[int] = []
    for s in sorted(
        set(point_masks), key=lambda s: (s.bit_count(), sorted(members(s)))
    ):
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    if not minimal:
        return frozenset()

    hits = [0] * len(weights)  # hits[i]: mask of the minimal points i covers
    for k, s in enumerate(minimal):
        for i in members(s):
            hits[i] |= 1 << k
    branches = [sorted(members(s), key=lambda i: (weights[i], i)) for s in minimal]

    def greedy() -> int:
        chosen = 0
        uncovered = (1 << len(minimal)) - 1
        while uncovered:
            pick = min(
                (i for i, h in enumerate(hits) if h & uncovered),
                key=lambda i: (weights[i] / (hits[i] & uncovered).bit_count(), i),
            )
            chosen |= 1 << pick
            uncovered &= ~hits[pick]
        return chosen

    init = greedy()
    best = [sum((weights[i] for i in members(init)), Fraction(0)), init]
    visited: Dict[int, Fraction] = {}

    def rec(uncovered: int, cur_w: Fraction, chosen: int) -> None:
        if not uncovered:
            if cur_w < best[0]:
                best[0], best[1] = cur_w, chosen
            return
        if cur_w >= best[0]:
            return
        prev = visited.get(uncovered)
        if prev is not None and prev <= cur_w:
            return
        visited[uncovered] = cur_w
        point = (uncovered & -uncovered).bit_length() - 1
        for i in branches[point]:
            rec(uncovered & ~hits[i], cur_w + weights[i], chosen | 1 << i)

    rec((1 << len(minimal)) - 1, Fraction(0), 0)
    return members(best[1])


def exact_min_cover(
    instance: Instance, size_cap: int = DEFAULT_COVER_CAP
) -> Tuple[FrozenSet[int], Fraction]:
    """Minimum-weight subset of objects covering every target point."""
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} objects exceed cap {size_cap}")
    masks = oracle.coverer_masks(instance)
    for p, mask in zip(instance.points, masks):
        if not mask:
            raise UncoverablePointError(
                f"target point {p} is covered by no object", point=p
            )
    if all(mask.bit_count() == 2 for mask in masks):
        edges = sorted({((m & -m).bit_length() - 1, m.bit_length() - 1) for m in masks})
        cover = _min_weight_vertex_cover(edges, instance.weights)
    else:
        cover = _min_weight_set_cover(masks, instance.weights)
    return cover, total_weight(instance, cover)


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
    """Minimum kappa admitting a proper coloring of the induced hypergraph."""
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} objects exceed cap {size_cap}")
    if instance.m == 0:
        return 1
    edges = oracle.enumerate_hyperedges(instance, size_cap=size_cap).sorted_edges()
    if not edges:
        return 1
    for k in range(2, instance.m + 1):
        if _search_coloring(instance.m, edges, max_colors=k) is not None:
            return k
    raise AlgorithmInvariantError("hypergraph not colorable with m colors")
