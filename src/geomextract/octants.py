"""Proper 4-coloring of octants toward (+inf,+inf,+inf).

Pipeline: discard dominated octants (an octant dominates another when it
contains it, i.e. its apex is coordinatewise smaller), color the
nondominated ones against the minimal hyperedges of their arrangement, give
each dominated octant a color different from its chosen dominator, and
verify the whole coloring at the same-color apex joins before returning it.

The minimal hyperedges come from pairwise apex joins. A point covered by
octants i and j lies above join(a_i, a_j), the coordinatewise max of their
apexes, so its covering set contains the cover of that join, which is a
hyperedge itself (realized at the join). Hence the inclusion-minimal
hyperedges are exactly the minimal sets among the m(m-1)/2 join covers, and
a coloring is proper iff none of them is monochromatic. The search accepts
and prunes exactly the partial colorings it would on the full hypergraph:
the size-2 edges are the same, and every hyperedge contains a minimal one.
Domination and joins both ask which octants contain a point (an apex or a
join), and oracle.covers answers it with one bitmask per point. Each
minimal join cover is then re-checked at its join with core.covering_mask,
the class's membership test, as the grid re-checks its witnesses. Over
every octant, dominated ones and twins included, the minimal join covers
are the grid's minimal edges, in the same order, and
extraction.exact_chromatic reads them in place of the grid.

The same lemma verifies a finished coloring of all the octants, dominated
ones included: it is proper iff the join of every same-colored pair is
covered by an octant of another color (Keszegh and Pálvölgyi, "Octants are
cover-decomposable"). check_at_joins asks core.covering_mask at those
joins, on the frame's ints, so the check shares nothing with oracle.covers,
which built the edges the search colored; its witness leaves in Fractions.
At most m(m-1)/2 membership scans replace a walk over every cell of the 3D
grid; verify --coloring and the tests keep the grid oracle.

The triangle view stays: compute_cmax places the plane that rendering
draws, and project and color_triangles remain for tests and for studying
the plane construction, in which the nondominated octants cut the plane
x+y+z = c_max in pairwise intersecting homothetic right triangles. It is
not on the coloring path: a point can be covered by exactly two octants off
that plane while their triangles' common region is hidden under other
triangles on it, so a coloring proper on the triangles alone can be
improper in 3D.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from . import core, oracle
from .core import (
    AlgorithmInvariantError,
    ClassMismatchError,
    Coloring,
    Instance,
    NoFourColoringError,
    ObjectClass,
    Octant,
    PlaneTriangle,
    SizeCapError,
)

DEFAULT_SIZE_CAP = 40
# nodes one exact search (a cover, or a coloring per bound) may visit before
# SizeCapError; a coloring found on the first descent visits n + 1
SEARCH_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class DominationDAG:
    """Nondominated indices plus a chosen nondominated dominator for the rest."""

    nondominated: tuple
    dominator_of: dict  # dominated index -> nondominated dominator index


def _covers(octants: Sequence[Octant], points: Iterable[tuple]) -> list:
    """Masks of the octants containing each point: oracle.covers over the
    extents (a_i, None) per axis."""
    return oracle.covers(
        [[(o.apex[d], None) for o in octants] for d in range(3)], points
    )


def compute_domination(octants: Sequence[Octant]) -> DominationDAG:
    """O_i dominates O_j when it contains O_j; equal apexes go to the lower index.

    The cover of apex j holds every i with a_i <= a_j, so j is nondominated
    iff it holds only j's twins (equal apexes) and none of lower index. Any
    nondominated octant in a dominated one's cover dominates it;
    dominator_of picks the lowest.
    """
    if not octants:
        raise ValueError("no octants")
    apexes = [o.apex for o in octants]
    n = len(octants)
    covers = _covers(octants, apexes)
    twins = Counter(apexes)
    nondominated = tuple(
        j
        for j in range(n)
        if covers[j] & ((1 << j) - 1) == 0
        and covers[j].bit_count() == twins[apexes[j]]
    )
    kept = sum(1 << j for j in nondominated)
    dominator_of: Dict[int, int] = {}
    for j in range(n):
        if not kept >> j & 1:
            low = covers[j] & kept
            dominator_of[j] = (low & -low).bit_length() - 1
    return DominationDAG(nondominated, dominator_of)


def compute_cmax(octants: Sequence[Octant], unit: int = 1) -> Fraction:
    """Largest pairwise c_ij = max(a_i,a_j) + max(b_i,b_j) + max(c_i,c_j).

    A single octant degenerates to a+b+c+1 so its triangle has full
    dimension. Apexes given as integers v * unit (render's frame) give
    c_max * unit, the 1 becoming unit.
    """
    if not octants:
        raise ValueError("no octants")
    if len(octants) == 1:
        return sum(octants[0].apex) + unit
    return max(sum(join) for join in joins(octants))


def project(octants: Sequence[Octant], c_max: Fraction) -> List[PlaneTriangle]:
    """Triangles {u >= a_i, v >= b_i, u+v <= c_max - c_i} of a nondominated set.

    The triangle view of the octants on the plane x+y+z = c_max;
    color_octants does not call it. Checks the two facts the construction
    guarantees, raising AlgorithmInvariantError with the offending pair:
    every pair of triangles intersects (c_ij <= c_max) and none contains
    another (nondominance).
    """
    triangles = []
    for o in octants:
        a, b, c = o.apex
        if a + b + c > c_max:
            raise AlgorithmInvariantError(
                "octant apex above the projection plane", witness=o
            )
        triangles.append(PlaneTriangle(a, b, c_max - c))
    for i in range(len(triangles)):
        ti = triangles[i]
        for j in range(i + 1, len(triangles)):
            tj = triangles[j]
            if max(ti.a, tj.a) + max(ti.b, tj.b) > min(ti.s, tj.s):
                raise AlgorithmInvariantError(
                    "projected triangles fail to intersect pairwise",
                    witness=(ti, tj),
                )
            for t1, t2 in ((ti, tj), (tj, ti)):
                if t1.a >= t2.a and t1.b >= t2.b and t1.s <= t2.s:
                    raise AlgorithmInvariantError(
                        "a projected triangle contains another",
                        witness=(t1, t2),
                    )
    return triangles


# ---------------------------------------------------------------------------
# Minimal hyperedges from pairwise apex joins
# ---------------------------------------------------------------------------

def joins(octants: Sequence[Octant]) -> List[tuple]:
    """The distinct apex joins (coordinatewise maxima) of all pairs, in
    first-pair order."""
    return list(dict.fromkeys(
        tuple(map(max, o.apex, p.apex)) for o, p in combinations(octants, 2)
    ))


def join_cover_edges(octants: Sequence[Octant], unit: int = 1) -> List[int]:
    """Masks of the inclusion-minimal hyperedges, sorted by (size, members).

    Each hyperedge containing i and j contains the cover of join(a_i, a_j)
    (see the module docstring), so the minimal hyperedges are the minimal
    join covers, as oracle.minimal_masks filters them. Each one returned is
    re-checked with core.covering_mask at the first join that produced it;
    a mismatch raises AlgorithmInvariantError with that join, divided by
    the apexes' unit, as witness.
    """
    points = joins(octants)
    first_join: Dict[int, tuple] = {}
    for join, mask in zip(points, _covers(octants, points)):
        first_join.setdefault(mask, join)
    edges = oracle.minimal_masks(first_join)
    for e in edges:
        join = first_join[e]
        if core.covering_mask(ObjectClass.OCTANTS, octants, join) != e:
            raise AlgorithmInvariantError(
                "join cover disagrees with core membership",
                witness=tuple(Fraction(v, unit) for v in join),
            )
    return edges


# ---------------------------------------------------------------------------
# Coloring search: backtracking along a degeneracy order
# ---------------------------------------------------------------------------

def _degeneracy_order(adjacency: List[int]) -> List[int]:
    """Repeatedly remove a minimum-degree vertex; ties to the lowest index."""
    alive, removed = (1 << len(adjacency)) - 1, []
    while alive:
        v = min(oracle.bits(alive), key=lambda u: (adjacency[u] & alive).bit_count())
        alive ^= 1 << v
        removed.append(v)
    return removed


def node_budget(search: str) -> Callable[[], None]:
    """A tick per node of one exact search, raising SizeCapError past the budget."""
    nodes, budget = count(1), SEARCH_NODE_BUDGET

    def tick() -> None:
        if next(nodes) > budget:
            raise SizeCapError(f"{search} passed its budget of {budget} nodes")

    return tick


def _search_coloring(
    n: int, masks: List[int], bounds: Iterable[int]
) -> Optional[List[int]]:
    """A coloring with at most k colors leaving no edge mask monochromatic,
    for the first bound k that admits one; None if none does.

    A loop with one color per depth (no recursion) backtracks along the
    reverse degeneracy order of the size-2 edge graph, on one mask per color
    class. A vertex takes the lowest color, up to one past the largest
    placed, that no placed pair neighbour has and that fills no larger edge:
    the first descent is the greedy coloring, n + 1 nodes when it succeeds.
    Each bound raises SizeCapError past its own SEARCH_NODE_BUDGET nodes.
    """
    adjacency = [0] * n
    for e in masks:
        if e.bit_count() == 2:
            a, b = oracle.bits(e)
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a

    sequence = _degeneracy_order(adjacency)[::-1]
    pos = {v: k for k, v in enumerate(sequence)}
    # Edges other than pairs are checked once their last vertex is placed.
    by_last: List[List[int]] = [[] for _ in range(n)]
    for e in masks:
        if e.bit_count() != 2:
            by_last[max(pos[v] for v in oracle.bits(e))].append(e)

    for max_colors in bounds:
        tick = node_budget("coloring search")
        classes = [0] * (max_colors + 1)  # classes[c]: mask of the vertices colored c
        picked = [0] * n  # picked[k]: color of sequence[k]
        used = [0] * (n + 1)  # used[k]: largest color among the first k
        k = c = 0  # c: the last color tried at depth k
        tick()
        while k < n:
            v = sequence[k]
            c += 1
            if c > min(max_colors, used[k] + 1):  # depth k exhausted: back up
                if k == 0:
                    break
                k, c = k - 1, picked[k - 1]
                classes[c] ^= 1 << sequence[k]
                continue
            grown = classes[c] | 1 << v
            if adjacency[v] & classes[c] or any(e & grown == e for e in by_last[k]):
                continue
            classes[c] = grown
            picked[k], used[k + 1] = c, max(used[k], c)
            k, c = k + 1, 0
            tick()
        else:
            return [picked[pos[v]] for v in range(n)]
    return None


def color_triangles(
    triangles: Sequence[PlaneTriangle], size_cap: int = DEFAULT_SIZE_CAP
) -> Coloring:
    """Coloring with <= 4 colors proper on the triangle hypergraph.

    The triangle view only: color_octants does not call this, since a
    coloring proper on the triangles can leave an off-plane octant cell
    monochromatic. Exhausted search raises NoFourColoringError carrying the
    triangles: that would be a reportable counterexample, not an instance
    to mis-color.
    """
    triangles = list(triangles)
    if len(triangles) > size_cap:
        raise SizeCapError(f"{len(triangles)} triangles exceed cap {size_cap}")
    if not triangles:
        return Coloring((), 4)
    edges = oracle.minimal_masks(oracle.enumerate_triangle_hyperedges(triangles).masks)
    colors = _search_coloring(len(triangles), edges, (4,))
    if colors is None:
        raise NoFourColoringError(
            "no proper 4-coloring found by exhaustive search", objects=triangles
        )
    return Coloring(tuple(colors), 4)


def check_at_joins(instance: Instance, coloring: Coloring) -> oracle.ProperVerdict:
    """Proper iff no same-colored pair's apex join has a one-color cover.

    Pairs are taken in index order, each join once, on the frame's ints; a
    failure reports the join as witness, in Fractions, and its cover, from
    core.covering_mask, as the edge.
    """
    colors = coloring.colors
    frame = instance.frame
    apexes = [o.apex for o in frame.objects]
    seen = set()
    for i, j in combinations(range(instance.m), 2):
        if colors[i] == colors[j]:
            p = tuple(map(max, apexes[i], apexes[j]))
            if p not in seen:
                seen.add(p)
                mask = core.covering_mask(ObjectClass.OCTANTS, frame.objects, p)
                cover = oracle.bits(mask)
                if all(colors[k] == colors[i] for k in cover):
                    return oracle.ProperVerdict(
                        False,
                        frozenset(cover),
                        tuple(Fraction(v, frame.unit) for v in p),
                    )
    return oracle.ProperVerdict(True)


def color_octants(instance: Instance, size_cap: int = DEFAULT_SIZE_CAP) -> Coloring:
    """Proper 4-coloring of an octant instance, verified at the apex joins."""
    if instance.cls is not ObjectClass.OCTANTS:
        raise ClassMismatchError(f"expected octants, got {instance.cls.value}")
    if instance.m > size_cap:
        raise SizeCapError(f"{instance.m} octants exceed cap {size_cap}")
    if instance.m == 0:
        return Coloring((), 4)

    scaled = instance.frame.objects  # apexes, joins and covers are ints
    dag = compute_domination(scaled)
    kept = dag.nondominated
    # The search is exponential: it stays capped at the default whatever
    # size_cap allows.
    if len(kept) > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"{len(kept)} nondominated octants exceed cap {DEFAULT_SIZE_CAP}"
        )
    edges = join_cover_edges([scaled[i] for i in kept], instance.frame.unit)
    sub_colors = _search_coloring(len(kept), edges, (4,))
    if sub_colors is None:
        raise NoFourColoringError(
            "no proper 4-coloring found by exhaustive search",
            objects=[instance.objects[i] for i in kept],
        )

    colors = [0] * instance.m
    for local, original in enumerate(dag.nondominated):
        colors[original] = sub_colors[local]
    for dominated, dominator in sorted(dag.dominator_of.items()):
        colors[dominated] = next(
            c for c in range(1, 5) if c != colors[dominator]
        )

    coloring = Coloring(tuple(colors), 4)
    verdict = check_at_joins(instance, coloring)
    if not verdict.proper:
        raise AlgorithmInvariantError(
            "octant coloring failed final properness verification",
            witness=verdict.witness,
        )
    return coloring
