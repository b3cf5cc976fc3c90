"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; a failing criterion fails its test.
"""

import time
from fractions import Fraction as F

from geomextract import (
    Instance,
    ObjectClass,
    check_cover,
    check_proper,
    clip_rays_to_box,
    color_instance,
    depth,
    enumerate_hyperedges,
    enumerate_hyperedges_dense,
    exact_extraction_number,
    exact_min_cover,
    extract,
    gen_interval_pair,
    gen_kbox,
    gen_octant4,
    gen_random,
    gen_rayfan,
    ray_type_profile,
    total_weight,
)
from test_generators import _intersection_graph_mis

CLASS_MAX_N = {
    ObjectClass.INTERVALS: 12,
    ObjectClass.SEGMENTS: 12,
    ObjectClass.RAYS: 12,
    ObjectClass.OCTANTS: 10,
}

COLOR_CAP = {
    ObjectClass.INTERVALS: 2,
    ObjectClass.SEGMENTS: 4,
    ObjectClass.OCTANTS: 4,
}


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"over budget: {elapsed:.1f}s >= {self.budget}s"
        return elapsed


def test_criterion_1_interval_pair_tightness():
    t = _Timer(1)
    inst = gen_interval_pair()
    assert exact_extraction_number(inst) == F(2)
    res = extract(inst, color_instance(inst))
    assert res.ratio == F(2)
    elapsed = t.done()
    print(f"\nACCEPTANCE 1 PASS: interval pair extraction number exactly 2 "
          f"({elapsed:.2f}s)")


def test_criterion_2_rayfan_cover_and_extraction():
    t = _Timer(10)
    for k in (2, 3, 4, 5):
        inst = gen_rayfan(k)
        _, weight = exact_min_cover(inst)
        assert weight == F(2 * k - 1), f"k={k} cover {weight}"
        assert exact_extraction_number(inst) == F(3 * k, k + 1), f"k={k}"
    elapsed = t.done()
    print(f"ACCEPTANCE 2 PASS: ray fan cover 2k-1 and extraction 3k/(k+1) "
          f"for k in 2..5 ({elapsed:.2f}s)")


def test_criterion_3_rayfan_independence():
    t = _Timer(10)
    for k in (1, 2, 3, 4, 5):
        assert _intersection_graph_mis(gen_rayfan(k)) == k + 1, f"k={k}"
    elapsed = t.done()
    print(f"ACCEPTANCE 3 PASS: ray fan max independent set k+1 for k <= 5 "
          f"({elapsed:.2f}s)")


def test_criterion_4_octant_tightness():
    t = _Timer(5)
    inst = gen_octant4()
    _, weight = exact_min_cover(inst)
    assert weight == F(3)
    assert exact_extraction_number(inst) == F(4)
    coloring = color_instance(inst)
    assert coloring.kappa == 4
    assert check_proper(inst, coloring).proper
    elapsed = t.done()
    print(f"ACCEPTANCE 4 PASS: four octants cover 3, extraction exactly 4, "
          f"proper 4-coloring ({elapsed:.2f}s)")


def test_criterion_5_kbox():
    t = _Timer(60)
    extraction_numbers = {}
    for k in (2, 3):
        inst = gen_kbox(k)
        assert inst.m == 4 * k * k
        for p in inst.points:
            n, _ = depth(inst, p)
            assert n == 2
        coloring = color_instance(inst)
        assert len(coloring.used_colors()) <= 4
        assert check_proper(inst, coloring).proper
        res = extract(inst, coloring)
        assert res.extracted_weight >= F(inst.m, 4)
        extraction_numbers[k] = exact_extraction_number(inst)
    assert extraction_numbers == {2: F(2), 3: F(12, 5)}
    assert extraction_numbers[3] > extraction_numbers[2]
    elapsed = t.done()
    print(f"ACCEPTANCE 5 PASS: k-box m=4k^2, depth-2 crosses, proper <=4 "
          f"colors, removed >= m/4, extraction 2 -> 12/5 ({elapsed:.2f}s)")


def test_kbox_extraction_numbers_are_pinned():
    # The exact vertex cover with the cover cap lifted: the factor peaks at
    # k = 4 and stays at or below 8/3 through k = 8.
    got = {
        k: exact_extraction_number(gen_kbox(k), size_cap=10**6) for k in range(2, 9)
    }
    assert got == {
        2: F(2), 3: F(12, 5), 4: F(8, 3), 5: F(5, 2), 6: F(8, 3), 7: F(28, 11),
        8: F(8, 3),
    }


def test_criterion_6_property_suites():
    t = _Timer(120)
    for cls in ObjectClass:
        max_n = CLASS_MAX_N[cls]
        for seed in range(200):
            n = 1 + (seed * 7 + 3) % max_n
            inst = gen_random(cls, n, seed)
            coloring = color_instance(inst)
            verdict = check_proper(inst, coloring)
            assert verdict.proper, (cls, seed, verdict.edge)
            if cls is ObjectClass.RAYS:
                cap = max(ray_type_profile(inst.objects).type, 2)
            else:
                cap = COLOR_CAP[cls]
            assert len(coloring.used_colors()) <= cap, (cls, seed)
            res = extract(inst, coloring)
            w_all = total_weight(inst, inst.indices())
            assert res.extracted_weight * coloring.kappa >= w_all, (cls, seed)
            assert check_cover(inst, res.sol).covered, (cls, seed)
    elapsed = t.done()
    print(f"ACCEPTANCE 6 PASS: 200 seeded instances per class, all proper, "
          f"color caps respected, removed >= W/kappa, covers verified "
          f"({elapsed:.2f}s)")


def test_criterion_7_oracle_self_validation():
    t = _Timer(60)
    for cls in ObjectClass:
        for seed in range(100):
            inst = gen_random(cls, 1 + (seed * 5 + 1) % 8, seed)
            grid = enumerate_hyperedges(inst)
            dense = enumerate_hyperedges_dense(inst)
            assert grid.edge_set == dense.edge_set, (cls, seed)
    elapsed = t.done()
    print(f"ACCEPTANCE 7 PASS: event-grid enumeration equals dense sampling "
          f"on 100 instances per class ({elapsed:.2f}s)")


def test_criterion_8_clipping_equivalence():
    t = _Timer(30)
    checked = 0
    seed = 0
    while checked < 100:
        inst = gen_random(ObjectClass.RAYS, 4 + seed % 9, seed)
        seed += 1
        if ray_type_profile(inst.objects).type != 4:
            continue
        segments, _ = clip_rays_to_box(list(inst.objects))
        seg_inst = Instance(
            ObjectClass.SEGMENTS, tuple(segments), inst.weights, ()
        )
        assert (
            enumerate_hyperedges(inst).edge_set
            == enumerate_hyperedges(seg_inst).edge_set
        ), seed
        checked += 1
    elapsed = t.done()
    print(f"ACCEPTANCE 8 PASS: ray hypergraph equals clipped-segment "
          f"hypergraph on {checked} type-4 instances ({elapsed:.2f}s)")
