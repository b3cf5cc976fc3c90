"""Proper 2-coloring of interval-induced hypergraphs via key-interval chains.

Per connected component of the union, a greedy chain of "key" intervals is
built: the first key starts leftmost (ties: longest, then lowest index), and
each successor starts inside the current key, ends strictly later, and ends
last. Keys are colored along the chain, and every non-key interval [a, b]
takes the color opposite one key: the first key ending at or after b, or the
key before it if that one starts after a. That is the key which the paper's
three containment cases pick (_color_component says why).

Cost per component of n intervals: O(n log n). The chain is one sort and
one scan (the coloring reuses the sorted order), and each non-key finds its
key by one bisection over the chain ends. color_line colors one line's
intervals and checks the result by an endpoint sweep (find_monochromatic,
also O(n log n)) before returning it; color_intervals and the segment and
ray colorers all go through it, so the sweep, not the colorer, is the check
of every line coloring. The colorer and the sweep only compare endpoints,
so both read the instance frame's ints as they are; no second ranking.
"""

from __future__ import annotations

from bisect import bisect_left
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

    component: tuple  # all indices of the component, by (start, -end, index)
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
    """Greedy key chain of a connected component: one sort and one scan.

    The component is sorted by (start, -end, index). For the current key,
    ending at e, the scan walks on while starts are <= e and keeps the first
    interval whose end beats the best end so far (from e): the next key, or
    with none the chain ends. Intervals walked before end no later than the
    current key (it ended last among them), so this round's walk alone finds
    the one ending last, ties to the lowest (start, index). The scan reaches
    every interval iff the component is connected, and then the last key
    ends last, so the chain spans it.
    """
    order = sorted(component, key=lambda i: (pairs[i][0], -pairs[i][1], i))
    keys, nxt = [], 0
    best, best_end = order[0], pairs[order[0]][1]
    while best is not None:
        keys.append(best)
        end, best = best_end, None
        while nxt < len(order) and pairs[order[nxt]][0] <= end:
            i = order[nxt]
            if pairs[i][1] > best_end:
                best, best_end = i, pairs[i][1]
            nxt += 1
    if nxt < len(order):
        raise AlgorithmInvariantError(
            "key chain does not span the component", witness=tuple(keys)
        )
    return KeyChain(tuple(order), tuple(keys))


def _color_component(pairs: Sequence[Pair], chain: KeyChain, colors: dict) -> None:
    keys = chain.keys
    key_set = set(keys)
    nonkeys = [i for i in chain.component if i not in key_set]  # in start order
    key_starts = [pairs[k][0] for k in keys]
    key_ends = [pairs[k][1] for k in keys]

    # Keys j and j+1 share a color iff some non-key contains their overlap
    # [a_{j+1}, b_j]: sweep the overlaps left to right with the farthest end
    # of the non-keys starting at or before the overlap.
    colors[keys[0]] = 1
    reach = key_starts[0]  # below every overlap end
    n = 0
    for j, (olo, ohi) in enumerate(zip(key_starts[1:], key_ends)):
        while n < len(nonkeys) and pairs[nonkeys[n]][0] <= olo:
            reach = max(reach, pairs[nonkeys[n]][1])
            n += 1
        prev = colors[keys[j]]
        colors[keys[j + 1]] = prev if reach >= ohi else 3 - prev

    # Each non-key [a, b] takes the color opposite key j, the first key
    # ending at or after b, or opposite key j - 1 if key j starts after a.
    # That is the key of its containment case, as key starts and ends grow
    # along the chain and keys that are not neighbours are disjoint:
    # - inside overlap j: key j - 1 ends before the overlap, and key j
    #   contains [a, b];
    # - inside one key: that is key j, or key j would hold [a, b] too and
    #   [a, b] would lie inside the two keys' overlap;
    # - inside no key: key j starts after a and [a, b] contains overlap
    #   j - 1 = [a_j, b_{j-1}], so it may be the witness that keys j - 1
    #   and j share a color.
    for i in nonkeys:
        a, b = pairs[i]
        j = bisect_left(key_ends, b)
        if key_starts[j] > a:
            j -= 1
        colors[i] = 3 - colors[keys[j]]


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
