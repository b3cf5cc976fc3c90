import random
from fractions import Fraction as F

import pytest

from geomextract import (
    Coloring,
    ObjectClass,
    check_proper,
    color_octants,
    color_triangles,
    compute_cmax,
    compute_domination,
    enumerate_hyperedges,
    gen_octant4,
    gen_random,
    make_instance,
    project,
)
from geomextract.core import (
    Octant,
    PlaneTriangle,
    SizeCapError,
    triangle_contains,
)
from geomextract.oracle import enumerate_triangle_hyperedges


def _oct(a, b, c):
    return Octant((F(a), F(b), F(c)))


def test_domination_simple_chain():
    dag = compute_domination([_oct(0, 0, 0), _oct(1, 1, 1)])
    assert dag.nondominated == (0,)
    assert dag.dominator_of == {1: 0}


def test_domination_incomparable():
    dag = compute_domination([_oct(0, 1, 0), _oct(1, 0, 0)])
    assert dag.nondominated == (0, 1)
    assert dag.dominator_of == {}


def test_domination_duplicates_keep_lowest_index():
    dag = compute_domination([_oct(0, 0, 0), _oct(0, 0, 0)])
    assert dag.nondominated == (0,)
    assert dag.dominator_of == {1: 0}


def test_domination_transitive_chain_resolves_to_minimal():
    dag = compute_domination([_oct(2, 2, 2), _oct(1, 1, 1), _oct(0, 0, 0)])
    assert dag.nondominated == (2,)
    assert dag.dominator_of == {0: 2, 1: 2}


def test_cmax_pair():
    assert compute_cmax([_oct(0, 1, 0), _oct(1, 0, 0)]) == F(2)


def test_cmax_singleton_degenerates():
    assert compute_cmax([_oct(0, 0, 0)]) == F(1)


def test_cmax_majorizes_every_pair():
    rng = random.Random(4)
    octs = [_oct(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            for _ in range(7)]
    cm = compute_cmax(octs)
    for i in range(len(octs)):
        for j in range(i + 1, len(octs)):
            cij = sum(max(octs[i].apex[d], octs[j].apex[d]) for d in range(3))
            assert cij <= cm


def test_project_single_octant():
    tri = project([_oct(0, 0, 0)], F(3))
    assert tri == [PlaneTriangle(F(0), F(0), F(3))]


def test_project_pair_intersects():
    octs = [_oct(0, 1, 0), _oct(1, 0, 0)]
    tris = project(octs, compute_cmax(octs))
    # corner of the joint region lies in both triangles
    u, v = F(1), F(1)
    assert triangle_contains(tris[0], u, v) and triangle_contains(tris[1], u, v)


def test_project_rejects_apex_above_plane():
    from geomextract.core import AlgorithmInvariantError

    with pytest.raises(AlgorithmInvariantError):
        project([_oct(5, 5, 5)], F(3))


def test_color_single_triangle():
    col = color_triangles([PlaneTriangle(F(0), F(0), F(3))])
    assert col.colors == (1,)


def test_color_octant4_triangles_need_all_four_colors():
    inst = gen_octant4()
    dag = compute_domination(inst.objects)
    kept = [inst.objects[i] for i in dag.nondominated]
    tris = project(kept, compute_cmax(kept))
    col = color_triangles(tris)
    assert sorted(col.colors) == [1, 2, 3, 4]


def test_color_triangles_respects_extra_edges():
    tris = [PlaneTriangle(F(0), F(0), F(10)), PlaneTriangle(F(1), F(1), F(9))]
    base = color_triangles(tris)
    assert len(set(base.colors)) == 2
    col = color_triangles(tris, extra_edges=[frozenset({0, 1})])
    assert col.colors[0] != col.colors[1]


def test_dominated_octant_gets_other_color():
    inst = make_instance(ObjectClass.OCTANTS, [_oct(0, 0, 0), _oct(1, 1, 1)])
    col = color_octants(inst)
    assert col.colors[0] != col.colors[1]


def test_octant4_pipeline():
    inst = gen_octant4()
    col = color_octants(inst)
    assert col.kappa == 4
    assert check_proper(inst, col).proper


def test_random_octants_proper():
    for seed in range(60):
        inst = gen_random(ObjectClass.OCTANTS, 1 + (seed * 7) % 15, seed)
        col = color_octants(inst)
        assert len(col.used_colors()) <= 4
        assert check_proper(inst, col).proper, seed


def test_plane_only_constraints_insufficient_regression():
    # For this antichain a coloring proper on the projected triangles alone
    # can leave an off-plane pair cell monochromatic; the pipeline must
    # therefore use the full 3D cells and still come out proper.
    apexes = [(3, 4, 0), (0, 2, 8), (7, 0, 8), (1, 8, 3), (2, 6, 5),
              (5, 2, 3), (8, 1, 7)]
    inst = make_instance(ObjectClass.OCTANTS, [_oct(*a) for a in apexes])
    dag = compute_domination(inst.objects)
    assert dag.nondominated == tuple(range(7))
    kept = list(inst.objects)
    tris = project(kept, compute_cmax(kept))
    plane_edges = enumerate_triangle_hyperedges(tris).edge_set
    cell_edges = enumerate_hyperedges(inst).edge_set
    assert not (cell_edges <= plane_edges)
    col = color_octants(inst)
    assert check_proper(inst, col).proper


def test_size_cap_enforced():
    inst = gen_random(ObjectClass.OCTANTS, 12, 0)
    with pytest.raises(SizeCapError):
        color_octants(inst, size_cap=10)


def test_triangle_slices_match_dense_sampling():
    # Dense baseline: quarter-integer lattice over the triangle bounding
    # box; integer triangle parameters make every cell contain such a point.
    rng = random.Random(21)
    for _ in range(40):
        octs = [
            _oct(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            for _ in range(rng.randint(2, 7))
        ]
        dag = compute_domination(octs)
        kept = [octs[i] for i in dag.nondominated]
        tris = project(kept, compute_cmax(kept))
        got = enumerate_triangle_hyperedges(tris).edge_set

        u_lo = min(t.a for t in tris) - 1
        u_hi = max(t.s - t.b for t in tris) + 1
        v_lo = min(t.b for t in tris) - 1
        v_hi = max(t.s - t.a for t in tris) + 1
        dense = set()
        step = F(1, 4)
        u = u_lo
        while u <= u_hi:
            v = v_lo
            while v <= v_hi:
                cov = frozenset(
                    i for i, t in enumerate(tris) if triangle_contains(t, u, v)
                )
                if len(cov) >= 2:
                    dense.add(cov)
                v += step
            u += step
        assert got == dense


def test_improper_coloring_detected_by_final_verification():
    inst = gen_octant4()
    bad = Coloring((1, 1, 1, 1), 4)
    assert not check_proper(inst, bad).proper
