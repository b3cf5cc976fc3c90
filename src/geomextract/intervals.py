"""Proper 2-coloring of interval-induced hypergraphs via key-interval chains.

Per connected component of the union, a greedy chain of "key" intervals is
built: the first key starts leftmost (ties: longest, then lowest index), and
each successor starts inside the current key, ends strictly later, and ends
last. Keys are colored along the chain; every non-key interval falls into
exactly one of three containment cases relative to the keys, which fixes its
color. The case analysis is checked, never assumed: an interval matching no
case raises AlgorithmInvariantError instead of being colored silently.

Cost per component of n intervals: O(n log n). The chain is one sort plus
a heap walk, and each non-key finds its containment case by bisection over
the chain. color_line colors one line's intervals and checks the result by
an endpoint sweep (find_monochromatic, also O(n log n)) before returning
it; color_intervals and the segment and ray colorers all go through it.
The colorer and the sweep only compare endpoints, so both read the
instance frame's ints as they are; no second ranking is built.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (
    AlgorithmInvariantError,
    ClassMismatchError,
    Coloring,
    Instance,
    ObjectClass,
)

Pair = Tuple[Fraction, Fraction]  # (a, b), a < b; frame ints on the coloring path


@dataclass(frozen=True)
class KeyChain:
    """Key intervals spanning one connected component, in chain order."""

    component: tuple  # all indices of the component
    keys: tuple  # chain i^1 .. i^tau


def connected_components(pairs: Sequence[Pair]) -> List[List[int]]:
    """Partition indices into components linked by (closed) intersection.

    Touching endpoints count as intersecting. Components are returned left
    to right; indices inside a component are sorted.
    """
    if not pairs:
        raise ValueError("no intervals")
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0], pairs[i][1], i))
    components: List[List[int]] = []
    current = [order[0]]
    reach = pairs[order[0]][1]
    for i in order[1:]:
        a, b = pairs[i]
        if a <= reach:
            current.append(i)
            reach = max(reach, b)
        else:
            components.append(sorted(current))
            current = [i]
            reach = b
    components.append(sorted(current))
    return components


def build_key_chain(pairs: Sequence[Pair], component: Sequence[int]) -> KeyChain:
    """Greedy key chain of a connected component.

    One sort by (start, -end, index) and a heap keyed (-end, start, index):
    an interval is pushed once its start reaches the current key's end, and
    entries starting before the current key are dropped lazily from the top
    (key starts only grow). The top then ends last among the intervals
    starting inside the current key; it is the successor if it ends later.
    A former key never ends later than the current one, so it is never
    picked again.
    """
    order = sorted(component, key=lambda i: (pairs[i][0], -pairs[i][1], i))
    keys = [order[0]]
    heap: list = []
    nxt = 0
    while True:
        a_cur, b_cur = pairs[keys[-1]]
        while nxt < len(order) and pairs[order[nxt]][0] <= b_cur:
            i = order[nxt]
            heapq.heappush(heap, (-pairs[i][1], pairs[i][0], i))
            nxt += 1
        while heap[0][1] < a_cur:
            heapq.heappop(heap)
        if -heap[0][0] <= b_cur:
            break
        keys.append(heap[0][2])

    # Chain shape: successor starts inside predecessor and ends strictly later.
    for j in range(len(keys) - 1):
        aj, bj = pairs[keys[j]]
        an, bn = pairs[keys[j + 1]]
        if not aj <= an <= bj < bn:
            raise AlgorithmInvariantError(
                "key chain shape violated", witness=(keys[j], keys[j + 1])
            )
    # Non-consecutive keys are disjoint (the chain observation).
    for j in range(len(keys) - 2):
        if pairs[keys[j]][1] >= pairs[keys[j + 2]][0]:
            raise AlgorithmInvariantError(
                "key chain observation violated: non-neighbor keys intersect",
                witness=(keys[j], keys[j + 2]),
            )
    # Keys cover the whole component.
    lo = min(pairs[i][0] for i in component)
    hi = max(pairs[i][1] for i in component)
    if pairs[keys[0]][0] != lo or pairs[keys[-1]][1] != hi:
        raise AlgorithmInvariantError(
            "key chain does not span the component", witness=tuple(keys)
        )
    return KeyChain(tuple(component), tuple(keys))


def _color_component(pairs: Sequence[Pair], chain: KeyChain, colors: dict) -> None:
    keys = chain.keys
    key_set = set(keys)
    nonkeys = sorted(
        (i for i in chain.component if i not in key_set), key=lambda i: pairs[i][0]
    )
    key_starts = [pairs[k][0] for k in keys]
    key_ends = [pairs[k][1] for k in keys]
    # overlap j = keys[j] cap keys[j+1] = [a_{j+1}, b_j], nonempty by chain
    # shape. Key starts, key ends and so both overlap bounds are
    # non-decreasing along the chain.
    overlap_starts = key_starts[1:]
    overlap_ends = key_ends[:-1]

    # Keys j and j+1 share a color iff some non-key contains overlap j: sweep
    # the overlaps left to right with the farthest end of the non-keys
    # starting at or before the overlap.
    colors[keys[0]] = 1
    reach = key_starts[0]  # below every overlap end
    n = 0
    for j, (olo, ohi) in enumerate(zip(overlap_starts, overlap_ends)):
        while n < len(nonkeys) and pairs[nonkeys[n]][0] <= olo:
            reach = max(reach, pairs[nonkeys[n]][1])
            n += 1
        prev = colors[keys[j]]
        colors[keys[j + 1]] = prev if reach >= ohi else 3 - prev

    # The keys (or overlaps) containing [a, b] are those starting at or
    # before a and ending at or after b; those inside [a, b] start at or
    # after a and end at or before b. Either way one contiguous run of the
    # chain, found by bisection.
    for i in nonkeys:
        a, b = pairs[i]
        # Case 1: inside a key-overlap. Such an interval can itself be the
        # witness that kept the key pair same-colored (it contains the
        # overlap whenever it equals it), so "any" color is not safe: it
        # must oppose the left key. Overlaps are pairwise disjoint because
        # key ends increase strictly along the chain, so the choice is
        # unambiguous.
        lo = bisect_left(overlap_ends, b)
        hi = bisect_right(overlap_starts, a)
        if hi > lo:
            if hi - lo != 1:
                raise AlgorithmInvariantError(
                    "interval inside two key-overlaps", witness=i
                )
            colors[i] = 3 - colors[keys[lo]]
            continue
        # Case 2: inside a unique key.
        lo = bisect_left(key_ends, b)
        hi = bisect_right(key_starts, a)
        if hi > lo:
            if hi - lo != 1:
                raise AlgorithmInvariantError(
                    "non-key interval inside two keys but not their overlap",
                    witness=i,
                )
            colors[i] = 3 - colors[keys[lo]]
            continue
        # Case 3: contains a unique key-overlap.
        lo = bisect_left(overlap_starts, a)
        hi = bisect_right(overlap_ends, b)
        if hi - lo != 1:
            raise AlgorithmInvariantError(
                "non-key interval matches no containment case of the key chain",
                witness=i,
            )
        colors[i] = 3 - colors[keys[lo]]


def two_color(pairs: Sequence[Pair]) -> List[int]:
    """Colors in {1, 2} for a family of (a, b) intervals, a < b.

    Only compares endpoints, so any ordered numbers do; color_line passes
    the frame's ints.
    """
    colors: dict = {}
    for component in connected_components(pairs):
        chain = build_key_chain(pairs, component)
        _color_component(pairs, chain, colors)
    return [colors[i] for i in range(len(pairs))]


def find_monochromatic(
    pairs: Sequence[Pair], colors: Sequence[int]
) -> Optional[Tuple[Fraction, Tuple[int, ...]]]:
    """A point of depth >= 2 whose covering intervals share one color.

    Returns (x, covering indices) for the leftmost such point, or None when
    the coloring of the closed intervals is proper. The endpoints may be
    any ordered numbers (frame ints or Fractions).

    Groups the colors starting and ending at each endpoint, then sweeps the
    distinct endpoints in order with per-color counts of the active
    intervals: each endpoint is checked after the intervals starting there
    are added, and the open gap to its right after those ending there are
    removed (the gap's witness is its midpoint, a Fraction).
    """
    starting: dict = {}  # endpoint -> colors of the intervals starting there
    ending: dict = {}
    for c, (a, b) in zip(colors, pairs):
        starting.setdefault(a, []).append(c)
        ending.setdefault(b, []).append(c)
    values = sorted(starting.keys() | ending.keys())
    count: dict = {}  # color -> active intervals of that color
    active = 0
    for r, x in enumerate(values):
        for c in starting.get(x, ()):
            count[c] = count.get(c, 0) + 1
            active += 1
        if active >= 2 and len(count) == 1:
            return x, _covering(pairs, x, x)
        for c in ending.get(x, ()):
            count[c] -= 1
            active -= 1
            if not count[c]:
                del count[c]
        if active >= 2 and len(count) == 1:
            return Fraction(x + values[r + 1], 2), _covering(pairs, x, values[r + 1])
    return None


def _covering(pairs: Sequence[Pair], lo, hi) -> Tuple[int, ...]:
    """The intervals containing [lo, hi]."""
    return tuple(i for i, (a, b) in enumerate(pairs) if a <= lo and hi <= b)


def color_line(
    pairs: Sequence[Tuple[int, int]], members: Sequence[int], unit: int, place
) -> List[int]:
    """Verified colors in {1, 2} of one line's (lo, hi) pairs on a frame.

    two_color colors the pairs as they are and find_monochromatic checks
    the result, so the two share only the frame's ints. A monochromatic
    point raises AlgorithmInvariantError with witness (place(x), covering
    members): x is the point in document Fractions (the frame value over
    unit), and pair j is members[j].
    """
    colors = two_color(pairs)
    bad = find_monochromatic(pairs, colors)
    if bad is not None:
        point = place(Fraction(bad[0], unit))
        raise AlgorithmInvariantError(
            f"coloring is not proper: point ({', '.join(map(str, point))}) "
            "is monochromatic",
            witness=(point, tuple(members[j] for j in bad[1])),
        )
    return colors


def color_intervals(instance: Instance) -> Coloring:
    """Proper 2-coloring of the hypergraph induced by an interval instance,
    verified by color_line on the instance frame."""
    if instance.cls is not ObjectClass.INTERVALS:
        raise ClassMismatchError(f"expected intervals, got {instance.cls.value}")
    if instance.m == 0:
        return Coloring((), 2)
    frame = instance.frame
    colors = color_line(frame.extents[0], range(instance.m), frame.unit, lambda x: (x,))
    return Coloring(tuple(colors), 2)
