import itertools
import random
from fractions import Fraction as F

import pytest

from geomextract import ObjectClass, check_proper, color_intervals, gen_random, make_instance
from geomextract.core import AlgorithmInvariantError, Interval
from geomextract.intervals import build_key_chain, connected_components, two_color


def _pairs(*bounds):
    return [(F(a), F(b)) for a, b in bounds]


def test_components_touching_merges_gap_splits():
    comps = connected_components(_pairs((0, 1), (1, 2), (5, 6)))
    assert comps == [[0, 1], [2]]


def test_components_single_interval():
    assert connected_components(_pairs((4, 9))) == [[0]]


def test_components_match_pairwise_union_find_oracle():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 10)
        pairs = []
        for _ in range(n):
            a = rng.randint(0, 14)
            pairs.append((F(a), F(rng.randint(a + 1, 15))))
        got = connected_components(pairs)

        # quadratic union-find over pairwise closed intersection
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in itertools.combinations(range(n), 2):
            if pairs[i][0] <= pairs[j][1] and pairs[j][0] <= pairs[i][1]:
                parent[find(i)] = find(j)
        expected = {}
        for i in range(n):
            expected.setdefault(find(i), []).append(i)
        assert sorted(got) == sorted(sorted(v) for v in expected.values())


def test_key_chain_single_key_swallows_contained():
    pairs = _pairs((0, 10), (2, 3))
    chain = build_key_chain(pairs, [0, 1])
    assert chain.keys == (0,)


def test_key_chain_three_links():
    pairs = _pairs((0, 2), (1, 4), (3, 6))
    chain = build_key_chain(pairs, [0, 1, 2])
    assert chain.keys == (0, 1, 2)


def test_key_chain_start_tie_prefers_longest():
    pairs = _pairs((0, 2), (0, 5))
    chain = build_key_chain(pairs, [0, 1])
    assert chain.keys == (1,)


def test_key_chain_successor_maximizes_end():
    pairs = _pairs((0, 4), (1, 5), (2, 9), (3, 6))
    chain = build_key_chain(pairs, [0, 1, 2, 3])
    assert chain.keys == (0, 2)


def test_color_two_overlapping_intervals_differ():
    colors = two_color(_pairs((0, 2), (1, 3)))
    assert sorted(colors) == [1, 2]


def test_color_contained_interval_gets_opposite():
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(10)), Interval(F(2), F(3))]
    )
    col = color_intervals(inst)
    assert col.colors == (1, 2)
    assert col.kappa == 2


def test_overlap_equal_witness_regression():
    # The interval [2,3] both equals the first key-overlap and is the only
    # reason the key pair shares a color; coloring it like the left key
    # would leave the whole overlap monochromatic.
    bounds = [(11, 12), (4, 6), (5, 10), (2, 3), (6, 10),
              (1, 3), (2, 8), (7, 12), (7, 11)]
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(a), F(b)) for a, b in bounds]
    )
    col = color_intervals(inst)
    assert check_proper(inst, col).proper


def test_two_colors_whenever_any_two_intersect():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 9)
        pairs = []
        for _ in range(n):
            a = rng.randint(0, 10)
            pairs.append((F(a), F(rng.randint(a + 1, 11))))
        intersecting = any(
            pairs[i][0] <= pairs[j][1] and pairs[j][0] <= pairs[i][1]
            for i, j in itertools.combinations(range(n), 2)
        )
        colors = two_color(pairs)
        assert set(colors) <= {1, 2}
        if intersecting:
            assert len(set(colors)) == 2


def test_random_small_instances_always_proper():
    for seed in range(300):
        inst = gen_random(ObjectClass.INTERVALS, 1 + seed % 12, seed)
        col = color_intervals(inst)
        assert col.kappa == 2
        verdict = check_proper(inst, col)
        assert verdict.proper, (seed, verdict.edge, verdict.witness)


def test_duplicate_intervals_stay_proper():
    pairs = _pairs((0, 4), (0, 4), (2, 6), (2, 6), (0, 4))
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(a, b) for a, b in pairs]
    )
    assert check_proper(inst, color_intervals(inst)).proper


def test_key_chain_invariant_survives_without_asserts():
    # A "component" that is not connected cannot be spanned by one chain.
    with pytest.raises(AlgorithmInvariantError) as info:
        build_key_chain([(F(0), F(1)), (F(5), F(6))], [0, 1])
    assert info.value.witness == (0,)
