from fractions import Fraction as F

import pytest

from geomextract import (
    ObjectClass,
    check_proper,
    color_instance,
    depth,
    enumerate_hyperedges,
    exact_extraction_number,
    exact_min_cover,
    gen_interval_pair,
    gen_kbox,
    gen_kbox_rays,
    gen_octant4,
    gen_random,
    gen_rayfan,
    ray_type_profile,
    search_octant4,
)

# Exact extraction numbers of the frozen k-box family, computed once with
# the exact solver (independence 4 per 2-box, 5 per 3-box).
KBOX_EXTRACTION = {2: F(2), 3: F(12, 5)}


def test_interval_pair_shape():
    inst = gen_interval_pair()
    assert inst.m == 2
    assert len(inst.points) == 1
    assert depth(inst, inst.points[0])[0] == 2
    assert exact_extraction_number(inst) == F(2)


@pytest.mark.parametrize("k", [2, 3])
def test_kbox_counts_and_depths(k):
    inst = gen_kbox(k)
    assert inst.m == 4 * k * k
    assert len(inst.points) == k * (k * k + 2 * k)
    for p in inst.points:
        assert depth(inst, p)[0] == 2


def test_kbox_rejects_small_k():
    with pytest.raises(ValueError):
        gen_kbox(1)


def test_kbox_extraction_regression_values():
    for k, expected in KBOX_EXTRACTION.items():
        assert exact_extraction_number(gen_kbox(k)) == expected
    assert KBOX_EXTRACTION[3] > KBOX_EXTRACTION[2]


def test_kbox_rays_profile_and_cover_match_segments():
    seg = gen_kbox(2)
    ray = gen_kbox_rays(2)
    assert ray_type_profile(ray.objects).type == 4
    assert ray.points == seg.points
    _, w_seg = exact_min_cover(seg)
    _, w_ray = exact_min_cover(ray)
    assert w_seg == w_ray
    for p in ray.points:
        assert depth(ray, p)[0] == 2


def test_kbox_rays_coloring_proper():
    inst = gen_kbox_rays(2)
    col = color_instance(inst)
    assert check_proper(inst, col).proper


@pytest.mark.parametrize("k", [1, 2, 4])
def test_rayfan_shape(k):
    inst = gen_rayfan(k)
    assert inst.m == 3 * k
    assert len(inst.points) == k * k + k
    orientations = [r.orientation for r in inst.objects]
    assert orientations.count(3) == k
    assert orientations.count(1) == k
    assert orientations.count(2) == k


def _intersection_graph_mis(inst):
    """Exhaustive maximum independent set of the intersection graph."""
    adj = [0] * inst.m
    for e in enumerate_hyperedges(inst).edge_set:
        ee = sorted(e)
        for x in range(len(ee)):
            for y in range(x + 1, len(ee)):
                adj[ee[x]] |= 1 << ee[y]
                adj[ee[y]] |= 1 << ee[x]
    best = 0

    def rec(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & ~((1 << v) | adj[v]), size + 1)
        rec(cand & ~(1 << v), size)

    rec((1 << inst.m) - 1, 0)
    return best


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_rayfan_independence_number(k):
    assert _intersection_graph_mis(gen_rayfan(k)) == k + 1


def test_octant4_structure():
    inst = gen_octant4()
    assert inst.m == 4
    assert len(inst.points) == 6
    seen_pairs = set()
    for p in inst.points:
        n, cov = depth(inst, p)
        assert n == 2
        seen_pairs.add(cov)
    assert len(seen_pairs) == 6
    _, w = exact_min_cover(inst)
    assert w == F(3)
    assert exact_extraction_number(inst) == F(4)


# Apexes search_octant4 finds for seeds 0-4: the same ones the plane-triangle
# search it replaced found.
OCTANT4_SEARCH_APEXES = {
    0: ((3, 4, 2), (0, 1, 3), (0, 5, 1), (5, 1, 1)),
    1: ((2, 3, 4), (1, 0, 5), (5, 1, 2), (0, 5, 3)),
    2: ((2, 1, 0), (0, 5, 0), (1, 4, 1), (0, 2, 4)),
    3: ((5, 1, 2), (1, 0, 5), (1, 4, 0), (3, 2, 3)),
    4: ((4, 1, 0), (0, 0, 2), (0, 5, 0), (2, 3, 1)),
}


def test_octant4_search_rediscovers_configurations():
    for seed, apexes in OCTANT4_SEARCH_APEXES.items():
        inst = search_octant4(seed=seed)
        assert inst is not None
        assert [o.apex for o in inst.objects] == [
            tuple(F(v) for v in apex) for apex in apexes
        ], seed
        assert inst.m == 4 and len(inst.points) == 6
        pairs = set()
        for p in inst.points:
            n, cov = depth(inst, p)
            assert n == 2
            # each target point is the join (coordinatewise max) of its pair
            assert p == tuple(max(inst.objects[i].apex[d] for i in cov) for d in range(3))
            pairs.add(cov)
        assert len(pairs) == 6
        assert exact_extraction_number(inst) == F(4), seed


def test_random_determinism():
    for cls in ObjectClass:
        a = gen_random(cls, 9 if cls is ObjectClass.OCTANTS else 11, seed=42)
        b = gen_random(cls, 9 if cls is ObjectClass.OCTANTS else 11, seed=42)
        assert a.objects == b.objects
        assert a.weights == b.weights
        assert a.points == b.points


def test_random_single_interval_has_no_targets():
    inst = gen_random(ObjectClass.INTERVALS, 1, seed=0)
    assert inst.points == ()


def test_random_octants_targets_all_deep():
    inst = gen_random(ObjectClass.OCTANTS, 10, seed=7)
    assert inst.points
    for p in inst.points:
        assert depth(inst, p)[0] >= 2


def test_random_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        gen_random(ObjectClass.RAYS, 0, seed=1)


def test_gen_random_checks_each_target_depth_once(monkeypatch):
    from collections import Counter

    from geomextract import core

    calls = Counter()
    inside = core.MEMBERSHIP[ObjectClass.OCTANTS]

    def counting(obj, p):
        calls[p] += 1
        return inside(obj, p)

    monkeypatch.setitem(core.MEMBERSHIP, ObjectClass.OCTANTS, counting)
    inst = gen_random(ObjectClass.OCTANTS, 30, 0)
    monkeypatch.undo()
    assert len(inst.points) == 169
    # The oracle's witness re-check tests each target against each of the
    # 30 objects once, in the integer frame: integer coordinates scale by 2.
    assert set(calls.values()) == {30}
    assert sorted(tuple(F(c, 2) for c in p) for p in calls) == sorted(inst.points)
    assert all(depth(inst, p)[0] >= 2 for p in inst.points)
