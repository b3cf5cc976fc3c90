import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geomextract import (
    Axis,
    Coloring,
    DepthPreconditionError,
    ImproperColoringError,
    ObjectClass,
    SizeCapError,
    UnboundedExtractionError,
    UncoverablePointError,
    check_cover,
    color_instance,
    depth,
    enumerate_hyperedges,
    exact_chromatic,
    exact_extraction_number,
    exact_min_cover,
    extract,
    gen_interval_pair,
    gen_kbox,
    gen_kbox_rays,
    gen_octant4,
    gen_random,
    gen_rayfan,
    make_instance,
    total_weight,
)
from geomextract import extraction, octants
from geomextract.core import GeomExtractError, Interval, Octant, Ray, Segment
from geomextract.extraction import _min_weight_set_cover, _min_weight_vertex_cover
from geomextract.oracle import coverer_masks, minimal_masks


def test_extract_interval_pair_achieves_half():
    inst = gen_interval_pair()
    res = extract(inst, color_instance(inst))
    assert res.extracted_weight == F(1)
    assert res.ratio == F(2)
    assert res.sol | res.extracted == frozenset({0, 1})
    assert res.sol & res.extracted == frozenset()


def test_extract_octant4_achieves_quarter():
    inst = gen_octant4()
    res = extract(inst, color_instance(inst))
    assert res.extracted_weight == F(1)
    assert res.ratio == F(4)


def test_extract_bound_holds_with_empty_class():
    inst = gen_interval_pair()
    res = extract(inst, Coloring((1, 2), 3))
    assert res.extracted_weight * 3 >= total_weight(inst, inst.indices())


def test_extract_rejects_depth_one_point():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(2)), Interval(F(5), F(7))],
        points=[(F(1),)],
    )
    with pytest.raises(DepthPreconditionError) as err:
        extract(inst, Coloring((1, 2), 2))
    assert err.value.point == (F(1),)


def test_extract_rejects_improper_coloring():
    inst = gen_interval_pair()
    with pytest.raises(ImproperColoringError) as err:
        extract(inst, Coloring((1, 1), 2))
    assert err.value.witness == (F(3, 2),)


def test_extract_ties_prefer_lowest_color():
    inst = gen_interval_pair()
    res = extract(inst, Coloring((1, 2), 2))
    assert res.extracted == frozenset({0})


def test_min_cover_interval_pair():
    _, weight = exact_min_cover(gen_interval_pair())
    assert weight == F(1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_min_cover_rayfan(k):
    cover, weight = exact_min_cover(gen_rayfan(k))
    assert weight == F(2 * k - 1)
    assert check_cover(gen_rayfan(k), cover).covered


def test_min_cover_octant4():
    cover, weight = exact_min_cover(gen_octant4())
    assert weight == F(3)
    assert len(cover) == 3


def test_min_cover_respects_weights():
    # heavy interval covers both points; two light ones cover one each
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(10)), Interval(F(1), F(3)), Interval(F(5), F(7))],
        weights=[F(5), F(1), F(1)],
        points=[(F(2),), (F(6),)],
    )
    cover, weight = exact_min_cover(inst)
    assert cover == frozenset({1, 2}) and weight == F(2)
    inst2 = make_instance(
        ObjectClass.INTERVALS,
        list(inst.objects),
        weights=[F(5), F(3), F(3)],
        points=list(inst.points),
    )
    cover2, weight2 = exact_min_cover(inst2)
    assert cover2 == frozenset({0}) and weight2 == F(5)


def test_min_cover_uncoverable_point():
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(1))], points=[(F(5),)]
    )
    with pytest.raises(UncoverablePointError):
        exact_min_cover(inst)


def test_min_cover_forced_depth_one_point():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(2)), Interval(F(1), F(4))],
        weights=[F(1), F(10)],
        points=[(F(3),), (F(3, 2),)],
    )
    cover, weight = exact_min_cover(inst)
    assert cover == frozenset({1}) and weight == F(10)


def test_min_cover_size_cap():
    with pytest.raises(SizeCapError):
        exact_min_cover(gen_kbox(3), size_cap=10)


def _search_input(inst):
    # the (points, hits) that exact_min_cover hands to either solver
    points = minimal_masks(coverer_masks(inst))
    hits = [sum(1 << k for k, s in enumerate(points) if s >> i & 1) for i in range(inst.m)]
    return points, hits


def test_vertex_cover_path_matches_generic_search():
    # dual route: every depth-exactly-2 instance must give the same optimum
    # through the conflict-graph solver and the generic set-cover solver
    cases = [gen_rayfan(2), gen_rayfan(3), gen_kbox(2), gen_octant4(),
             gen_kbox_rays(2)]
    rng = random.Random(17)
    seed = 0
    while len(cases) < 12:
        inst = gen_random(ObjectClass.INTERVALS, rng.randint(2, 14), seed)
        seed += 1
        if inst.m > 16 or not inst.points:
            continue
        two = [p for m, p in zip(coverer_masks(inst), inst.points) if m.bit_count() == 2]
        if not two:
            continue
        cases.append(make_instance(inst.cls, inst.objects, inst.weights, two))
    for inst in cases:
        points, hits = _search_input(inst)
        cover_fast = _min_weight_vertex_cover(points, hits, inst.weights)
        cover_generic = _min_weight_set_cover(points, hits, inst.weights)
        # the frame's int weights (w * D) give the same covers as the Fractions
        assert _min_weight_vertex_cover(points, hits, inst.frame.weights) == cover_fast
        assert _min_weight_set_cover(points, hits, inst.frame.weights) == cover_generic
        assert exact_min_cover(inst) == (cover_fast, total_weight(inst, cover_fast))
        assert total_weight(inst, cover_fast) == total_weight(inst, cover_generic)
        assert check_cover(inst, cover_fast).covered
        assert check_cover(inst, cover_generic).covered


def _pair_inside_a_triple():
    # Point 6/5 is covered by {0, 1} and point 7/4 by {0, 1, 2}: the only
    # minimal mask has two bits, but a raw mask has three.
    return make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(2)), Interval(F(1), F(3)), Interval(F(3, 2), F(5))],
        weights=[F(2), F(1), F(1)],
        points=[(F(6, 5),), (F(7, 4),)],
    )


def test_set_cover_runs_when_a_raw_mask_has_three_coverers(monkeypatch):
    inst = _pair_inside_a_triple()
    assert minimal_masks(coverer_masks(inst)) == [0b011]

    def refuse(*args):
        raise AssertionError("the vertex cover ran on a three-coverer point")

    monkeypatch.setattr(extraction, "_min_weight_vertex_cover", refuse)
    assert exact_min_cover(inst) == (frozenset({1}), F(1))


def test_cover_searches_raise_past_the_node_budget(monkeypatch):
    # The 3-ray fan takes the vertex cover (5 nodes), the pair inside a
    # triple the set cover (3 nodes: the root and one per coverer).
    for inst, nodes in ((gen_rayfan(3), 5), (_pair_inside_a_triple(), 3)):
        monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", nodes)
        exact_min_cover(inst)
        monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", nodes - 1)
        with pytest.raises(SizeCapError):
            exact_min_cover(inst)


def test_vertex_cover_finishes_a_weighted_path(monkeypatch):
    # Intervals [k, k + 2] weighted 1 + k mod 3, a target in every pairwise
    # overlap: the conflict graph is a weighted path. The matching bound
    # alone needs over 10^6 nodes here, the uncovered-mask memo under a
    # thousand, so the lowered budget holds only with the memo.
    n = 60
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(k), F(k + 2)) for k in range(n)],
        weights=[F(1 + k % 3) for k in range(n)],
        points=[(F(2 * k + 3, 2),) for k in range(n - 1)],
    )
    monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", 10_000)
    cover, weight = exact_min_cover(inst, size_cap=n)
    assert weight == 59
    assert check_cover(inst, cover).covered


def _pinned_cover_instances():
    # Every class, 1-16 objects, four weight and target variants: unit
    # weights (many ties) on all targets or on the targets of exactly two
    # coverers, and random weights on a random half of the targets or on
    # the two-coverer targets. Two-coverer targets take the vertex-cover
    # path, the rest mostly the set-cover path.
    classes = list(ObjectClass)
    for k in range(600):
        inst = gen_random(classes[k % 4], 1 + k // 16 % 16, k)
        rng = random.Random(k)
        variant = k // 4 % 4
        points = list(inst.points)
        if variant < 2:
            weights = [F(1)] * inst.m
        else:
            weights = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(inst.m)]
        if variant == 2:
            points = rng.sample(points, len(points) // 2)
        elif variant % 2:
            masks = coverer_masks(inst)
            points = [p for p, m in zip(points, masks) if m.bit_count() == 2]
        yield make_instance(inst.cls, inst.objects, weights, points)


def test_min_covers_are_frozen():
    # sha256 over each instance's sorted cover and weight (or the exception
    # name). Computed before both cover solvers shared one mask model, so a
    # flipped tie-break in either solver changes it.
    h = hashlib.sha256()
    for inst in _pinned_cover_instances():
        try:
            cover, weight = exact_min_cover(inst)
            h.update(f"{sorted(cover)}:{weight};".encode())
        except GeomExtractError as err:
            h.update(f"{type(err).__name__};".encode())
    assert h.hexdigest() == (
        "b837ff70703b59f77fd7e8bd0bdf227eb137f9b7d9a2d404474c7c51d81bdcc7"
    )


def test_extraction_number_examples():
    assert exact_extraction_number(gen_interval_pair()) == F(2)
    assert exact_extraction_number(gen_rayfan(4)) == F(12, 5)
    assert exact_extraction_number(gen_octant4()) == F(4)


def test_extraction_number_unbounded():
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(1))], points=[(F(1, 2),)]
    )
    with pytest.raises(UnboundedExtractionError):
        exact_extraction_number(inst)


def test_extraction_number_empty_targets_is_one():
    inst = make_instance(ObjectClass.INTERVALS, [Interval(F(0), F(1))])
    assert exact_extraction_number(inst) == F(1)


def test_extract_never_beats_exact_optimum():
    # extract, exact_min_cover and check_cover share oracle.coverer_masks,
    # so both covers are checked against core.depth here instead.
    for cls in ObjectClass:
        for seed in range(80 if cls is ObjectClass.INTERVALS else 40):
            inst = gen_random(cls, 1 + seed % 10, seed)
            res = extract(inst, color_instance(inst))
            cover, w_cover = exact_min_cover(inst)
            w_all = total_weight(inst, inst.indices())
            assert res.extracted_weight <= w_all - w_cover, (cls, seed)
            for p in inst.points:
                assert depth(inst, p)[1] & res.sol, (cls, seed, p)
                assert depth(inst, p)[1] & cover, (cls, seed, p)


_coord = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5]))
_run = st.tuples(_coord, _coord).filter(lambda p: p[0] != p[1]).map(sorted)
_OBJECTS = {
    ObjectClass.INTERVALS: st.builds(lambda r: Interval(*r), _run),
    ObjectClass.SEGMENTS: st.builds(
        lambda axis, line, r: Segment(axis, line, *r),
        st.sampled_from(list(Axis)), _coord, _run,
    ),
    ObjectClass.RAYS: st.builds(Ray, st.integers(1, 4), st.tuples(_coord, _coord)),
    ObjectClass.OCTANTS: st.builds(Octant, st.tuples(_coord, _coord, _coord)),
}


@pytest.mark.parametrize("cls", list(ObjectClass), ids=lambda c: c.value)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_extract_meets_w_over_kappa_and_never_beats_min_cover(cls, data):
    # Random fractional objects and weights under the cover cap; the targets
    # are one witness per hyperedge, so every target has depth >= 2.
    objects = data.draw(st.lists(_OBJECTS[cls], min_size=1, max_size=12))
    weights = data.draw(st.lists(
        st.builds(F, st.integers(1, 9), st.integers(1, 4)),
        min_size=len(objects), max_size=len(objects),
    ))
    points = list(enumerate_hyperedges(make_instance(cls, objects)).edges.values())
    inst = make_instance(cls, objects, weights, points)
    assert all(depth(inst, p)[0] >= 2 for p in points)
    col = color_instance(inst)
    res = extract(inst, col)
    assert res.extracted_weight * col.kappa >= total_weight(inst, inst.indices())
    _, w_cover = exact_min_cover(inst)
    assert total_weight(inst, res.sol) >= w_cover
    assert all(depth(inst, p)[1] & res.sol for p in points)


@pytest.mark.parametrize("cls", list(ObjectClass), ids=lambda c: c.value)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_min_cover_matches_brute_force(cls, data):
    # The cover searches add the frame's int weights; the lightest of all
    # subsets that meet every target's coverers (by core.depth), summed on
    # Fractions, must weigh the same as the cover they return.
    objects = data.draw(st.lists(_OBJECTS[cls], min_size=1, max_size=8))
    weights = data.draw(st.lists(
        st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)),
        min_size=len(objects), max_size=len(objects),
    ))
    points = list(enumerate_hyperedges(make_instance(cls, objects)).edges.values())
    inst = make_instance(cls, objects, weights, points)
    coverers = [depth(inst, p)[1] for p in points]
    lightest = min(
        sum((weights[i] for i in subset), F(0))
        for r in range(inst.m + 1)
        for subset in itertools.combinations(range(inst.m), r)
        if all(c.intersection(subset) for c in coverers)
    )
    cover, weight = exact_min_cover(inst)
    assert weight == lightest == total_weight(inst, cover)
    assert all(c & cover for c in coverers)


def test_chromatic_examples():
    assert exact_chromatic(gen_interval_pair()) == 2
    disjoint = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(1)), Interval(F(2), F(3))]
    )
    assert exact_chromatic(disjoint) == 1
    assert exact_chromatic(gen_rayfan(3)) == 3
    assert exact_chromatic(gen_octant4()) == 4
    assert exact_chromatic(gen_kbox(2)) == 2


def test_chromatic_of_a_deep_chain_needs_no_recursion():
    # 1,000 intervals [k, k + 3]: every minimal edge is a run of three (two
    # pairs at the ends), and a search that succeeds goes 1,000 deep.
    chain = make_instance(
        ObjectClass.INTERVALS, [Interval(F(k), F(k + 3)) for k in range(1000)]
    )
    assert exact_chromatic(chain, size_cap=1000) == 2


def test_exact_chromatic_searches_once(monkeypatch):
    # One search walks every color bound on one prepared order.
    calls = []
    search = extraction._search_coloring

    def counted(n, masks, bounds):
        calls.append(list(bounds))
        return search(n, masks, calls[-1])

    monkeypatch.setattr(extraction, "_search_coloring", counted)
    for inst, chromatic in ((gen_rayfan(3), 3), (gen_octant4(), 4), (gen_kbox(2), 2)):
        calls.clear()
        assert exact_chromatic(inst) == chromatic
        assert calls == [list(range(2, inst.m + 1))]


def test_chromatic_size_cap():
    with pytest.raises(SizeCapError):
        exact_chromatic(gen_kbox(3))


def test_proposition_bound_over_random_instances():
    for cls in ObjectClass:
        for seed in range(40):
            n = 1 + (seed * 3) % (10 if cls is ObjectClass.OCTANTS else 12)
            inst = gen_random(cls, n, seed)
            col = color_instance(inst)
            res = extract(inst, col)
            w_all = total_weight(inst, inst.indices())
            assert res.extracted_weight * col.kappa >= w_all
            assert check_cover(inst, res.sol).covered
