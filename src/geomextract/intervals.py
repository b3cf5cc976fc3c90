"""Proper 2-coloring of interval-induced hypergraphs via key-interval chains.

Per connected component of the union, a greedy chain of "key" intervals is
built: the first key starts leftmost (ties: longest, then lowest index), and
each successor starts inside the current key, ends strictly later, and ends
last. Keys are colored along the chain; every non-key interval falls into
exactly one of three containment cases relative to the keys, which fixes its
color. The case analysis is checked, never assumed: an interval matching no
case raises AlgorithmInvariantError instead of being colored silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .core import (
    AlgorithmInvariantError,
    ClassMismatchError,
    Coloring,
    Instance,
    ObjectClass,
)

Pair = Tuple[Fraction, Fraction]


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
    """Greedy key chain of a connected component."""
    first = min(component, key=lambda i: (pairs[i][0], -pairs[i][1], i))
    keys = [first]
    while True:
        a_cur, b_cur = pairs[keys[-1]]
        candidates = [
            i
            for i in component
            if i not in keys and a_cur <= pairs[i][0] <= b_cur and pairs[i][1] > b_cur
        ]
        if not candidates:
            break
        keys.append(min(candidates, key=lambda i: (-pairs[i][1], pairs[i][0], i)))

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
    nonkeys = [i for i in chain.component if i not in key_set]
    # overlap j = keys[j] cap keys[j+1] = [a_{j+1}, b_j], nonempty by chain shape
    overlaps = [
        (pairs[keys[j + 1]][0], pairs[keys[j]][1]) for j in range(len(keys) - 1)
    ]

    colors[keys[0]] = 1
    for j, (olo, ohi) in enumerate(overlaps):
        same = any(
            pairs[i][0] <= olo and ohi <= pairs[i][1] for i in nonkeys
        )
        prev = colors[keys[j]]
        colors[keys[j + 1]] = prev if same else 3 - prev

    for i in nonkeys:
        a, b = pairs[i]
        # Case 1: inside a key-overlap. Such an interval can itself be the
        # witness that kept the key pair same-colored (it contains the
        # overlap whenever it equals it), so "any" color is not safe: it
        # must oppose the left key. Overlaps are pairwise disjoint because
        # key ends increase strictly along the chain, so the choice is
        # unambiguous.
        inside_overlap = [
            j for j, (olo, ohi) in enumerate(overlaps) if olo <= a and b <= ohi
        ]
        if inside_overlap:
            if len(inside_overlap) != 1:
                raise AlgorithmInvariantError(
                    "interval inside two key-overlaps", witness=(a, b)
                )
            colors[i] = 3 - colors[keys[inside_overlap[0]]]
            continue
        # Case 2: inside a unique key.
        inside = [j for j, k in enumerate(keys) if pairs[k][0] <= a and b <= pairs[k][1]]
        if inside:
            if len(inside) != 1:
                raise AlgorithmInvariantError(
                    "non-key interval inside two keys but not their overlap",
                    witness=(a, b),
                )
            colors[i] = 3 - colors[keys[inside[0]]]
            continue
        # Case 3: contains a unique key-overlap.
        around = [j for j, (olo, ohi) in enumerate(overlaps) if a <= olo and ohi <= b]
        if len(around) != 1:
            raise AlgorithmInvariantError(
                "non-key interval matches no containment case of the key chain",
                witness=(a, b),
            )
        colors[i] = 3 - colors[keys[around[0]]]


def two_color(pairs: Sequence[Pair]) -> List[int]:
    """Colors in {1, 2} for a family of (a, b) intervals, a < b."""
    colors: dict = {}
    for component in connected_components(pairs):
        chain = build_key_chain(pairs, component)
        _color_component(pairs, chain, colors)
    return [colors[i] for i in range(len(pairs))]


def color_intervals(instance: Instance) -> Coloring:
    """Proper 2-coloring of the hypergraph induced by an interval instance."""
    if instance.cls is not ObjectClass.INTERVALS:
        raise ClassMismatchError(f"expected intervals, got {instance.cls.value}")
    if instance.m == 0:
        return Coloring((), 2)
    pairs = [(o.a, o.b) for o in instance.objects]
    return Coloring(tuple(two_color(pairs)), 2)
