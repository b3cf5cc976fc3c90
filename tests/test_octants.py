import hashlib
import random
from fractions import Fraction as F
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from geomextract import (
    Coloring,
    ObjectClass,
    check_proper,
    color_octants,
    color_triangles,
    compute_cmax,
    compute_domination,
    depth,
    enumerate_hyperedges,
    exact_chromatic,
    gen_octant4,
    gen_random,
    make_instance,
    project,
)
from geomextract import core, octants, oracle
from geomextract.core import (
    AlgorithmInvariantError,
    GeomExtractError,
    NoFourColoringError,
    Octant,
    PlaneTriangle,
    SizeCapError,
    triangle_contains,
)
from geomextract.octants import join_cover_edges
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


def _domination_by_pairs(octs):
    """Pairwise reference: i dominates j iff a_i <= a_j, ties to the lower index."""
    def dominates(i, j):
        below = all(u <= v for u, v in zip(octs[i].apex, octs[j].apex))
        return i != j and below and (octs[i].apex != octs[j].apex or i < j)

    n = len(octs)
    kept = tuple(j for j in range(n) if not any(dominates(i, j) for i in range(n)))
    return kept, {
        j: min(i for i in kept if dominates(i, j)) for j in range(n) if j not in kept
    }


def test_domination_matches_pairwise_reference():
    rng = random.Random(9)
    for _ in range(1500):
        pool = [F(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(4)]
        octs = []
        for _ in range(rng.randint(1, 14)):
            r = rng.random()
            if octs and r < 0.2:  # duplicate apex
                octs.append(rng.choice(octs))
            elif octs and r < 0.4:  # nested inside an earlier octant
                base = rng.choice(octs).apex
                octs.append(Octant(tuple(v + rng.choice([0, F(1, 2), 1]) for v in base)))
            else:
                octs.append(Octant(tuple(rng.choice(pool) for _ in range(3))))
        dag = compute_domination(octs)
        assert (dag.nondominated, dag.dominator_of) == _domination_by_pairs(octs), octs


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


def test_search_cap_holds_under_a_larger_size_cap():
    # The exponential search stays capped at DEFAULT_SIZE_CAP nondominated
    # octants even when the caller allows more objects.
    inst = _perfbench_antichain(octants.DEFAULT_SIZE_CAP + 1)
    with pytest.raises(SizeCapError):
        color_octants(inst, size_cap=60)


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


# ---------------------------------------------------------------------------
# Join-cover kernel
# ---------------------------------------------------------------------------

def _messy_octants(rng):
    """Random apexes with duplicates, nested apexes and half-integers.
    Some sets draw their fresh apexes on a plane x+y+z = const, so that few
    of them are dominated: one in ten small sets and half the large ones."""
    big = rng.random() < 0.04
    n = rng.randint(30, 40) if big else rng.randint(2, 14)
    hi, den = rng.choice([2, 3, 5, 8, 20]), rng.choice([1, 1, 2])
    plane = rng.random() < (0.5 if big else 0.1)
    octs = []
    for _ in range(n):
        r = rng.random()
        if octs and r < 0.15:
            octs.append(rng.choice(octs))
        elif octs and r < 0.3:
            base = rng.choice(octs).apex
            octs.append(Octant(tuple(v + F(rng.randint(0, 2), den) for v in base)))
        elif plane:
            a, b = (F(rng.randint(0, 3 * hi * den), den) for _ in range(2))
            octs.append(Octant((a, b, 6 * hi - a - b)))
        else:
            octs.append(Octant(tuple(F(rng.randint(0, hi * den), den) for _ in range(3))))
    return octs


def _minimal(edges):
    return {e for e in edges if not any(f < e for f in edges)}


def test_join_covers_match_grid_minimal_edges():
    # On the nondominated octants, as color_octants reads them, and on every
    # octant, twins and dominated ones included, on the frame's ints, as
    # exact_chromatic reads them: there the list must be the grid's own.
    rng = random.Random(8)
    sizes, kept_sizes = [], []
    for _ in range(520):
        octs = _messy_octants(rng)
        dag = compute_domination(octs)
        kept = [octs[i] for i in dag.nondominated]
        sub = make_instance(ObjectClass.OCTANTS, kept)
        got = [oracle.bits(e) for e in join_cover_edges(kept)]
        assert got == sorted(got, key=lambda e: (len(e), e))
        assert {frozenset(e) for e in got} == _minimal(
            enumerate_hyperedges(sub).edge_set
        ), octs
        full = make_instance(ObjectClass.OCTANTS, octs)
        assert join_cover_edges(full.frame.objects, full.frame.unit) == (
            oracle.minimal_masks(enumerate_hyperedges(full).masks)
        ), octs
        sizes.append(len(octs))
        kept_sizes.append(len(kept))
    assert max(sizes) == 40 and max(kept_sizes) >= 30


def _perfbench_antichain(n, plane=10**6):
    """The benchmark's octant-antichain shape: fixed axis orders on
    x+y+z = plane, with jitter drawn from seed 0."""
    shape = random.Random(f"octant-antichain/shape/{n}/0")
    while True:
        xs, ys = shape.sample(range(4 * n), n), shape.sample(range(4 * n), n)
        if len({x + y for x, y in zip(xs, ys)}) == n:
            break
    jitter = random.Random(0)
    step = plane // (8 * n)
    a = [x * step + jitter.randrange(step // 4) for x in xs]
    b = [y * step + jitter.randrange(step // 4) for y in ys]
    return make_instance(
        ObjectClass.OCTANTS,
        [_oct(x, y, plane - x - y) for x, y in zip(a, b)],
    )


def test_join_covers_of_antichain_are_pairs():
    inst = _perfbench_antichain(20)
    edges = join_cover_edges(list(inst.objects))
    assert len(edges) == 47 and all(e.bit_count() == 2 for e in edges)
    for n in (10, 20, 30, 40):
        inst = _perfbench_antichain(n)
        assert join_cover_edges(inst.frame.objects, inst.frame.unit) == (
            oracle.minimal_masks(enumerate_hyperedges(inst).masks)
        ), n


# Colorings of the plane-triangle pipeline that the join-cover kernel
# replaced, one digit per octant.
_FROZEN_RANDOM_COLORS = {
    (4, 0): "1221",
    (4, 1): "3221",
    (4, 2): "2111",
    (4, 3): "3211",
    (4, 4): "2212",
    (12, 0): "311213211111",
    (12, 1): "111112321122",
    (12, 2): "311111211111",
    (12, 3): "123222112122",
    (12, 4): "112111111111",
    (20, 0): "11111131112223121111",
    (20, 1): "41111321321112111111",
    (20, 2): "31111121111111111111",
    (20, 3): "23311122221111111212",
    (20, 4): "11312112111111111111",
    (30, 0): "211211312112132122112111111211",
    (30, 1): "411113213211121111111112111121",
    (30, 2): "312111211121111111111111111121",
    (30, 3): "112111111211311111111111111321",
    (30, 4): "113121121111111111111111111111",
    (40, 0): "1111112111113211111111111213211121111112",
    (40, 1): "4111132132111211111111121111211121111121",
    (40, 2): "3121112111211111111111111111211122122112",
    (40, 3): "2132122121221222222211221212222122122222",
    (40, 4): "1131111211111121111111111111112111111111",
}
_FROZEN_ANTICHAIN_COLORS = {
    20: "33224142131331214411",
    30: "433423131313112341422233131212",
    40: "4221414324332122434113311222334211131132",
}


def test_colorings_frozen_random():
    for (n, seed), want in _FROZEN_RANDOM_COLORS.items():
        col = color_octants(gen_random(ObjectClass.OCTANTS, n, seed))
        assert "".join(map(str, col.colors)) == want, (n, seed)


def test_colorings_frozen_antichains():
    for n, want in _FROZEN_ANTICHAIN_COLORS.items():
        col = color_octants(_perfbench_antichain(n))
        assert "".join(map(str, col.colors)) == want, n


def _pinned_hyperedge_instances():
    for cls in ObjectClass:
        for n in range(1, 13):
            for seed in range(6):
                yield gen_random(cls, n, seed)
    # the greedy coloring fails on these two, so their colorings come from
    # the backtracking fallback
    yield gen_random(ObjectClass.OCTANTS, 4, 50)
    yield gen_random(ObjectClass.OCTANTS, 14, 0)
    for n in (10, 20, 30, 40):
        yield _perfbench_antichain(n)


def test_hyperedge_consumers_are_frozen():
    # sha256 over exact_chromatic (or the exception's name), check_proper's
    # verdict, sorted edge and witness on seeded random colorings with
    # kappa = 1..4, and the octant colorings. Computed while the searches
    # still read frozenset hyperedges.
    h = hashlib.sha256()
    rng = random.Random(21)
    for inst in _pinned_hyperedge_instances():
        try:
            h.update(f"chi {exact_chromatic(inst)};".encode())
        except GeomExtractError as err:
            h.update(f"chi {type(err).__name__};".encode())
        for kappa in range(1, 5):
            colors = tuple(rng.randint(1, kappa) for _ in range(inst.m))
            got = check_proper(inst, Coloring(colors, kappa))
            edge = None if got.edge is None else sorted(got.edge)
            witness = None if got.witness is None else [str(v) for v in got.witness]
            h.update(f"proper {got.proper} {edge} {witness};".encode())
        if inst.cls is ObjectClass.OCTANTS:
            h.update(f"colors {color_octants(inst).colors};".encode())
    assert h.hexdigest() == (
        "13290dfa12a82a219fe0e463b8b7cf61a3a75502e835103de606c2fa0176b3e6"
    )


def test_color_octants_never_enumerates_the_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid or triangle view called on the coloring path")

    inst = make_instance(ObjectClass.OCTANTS, [_oct(0, 0, 0), _oct(1, 1, 1)]
                         + list(gen_octant4().objects))
    monkeypatch.setattr(oracle, "enumerate_hyperedges", forbidden)
    monkeypatch.setattr(oracle, "enumerate_triangle_hyperedges", forbidden)
    monkeypatch.setattr(octants, "project", forbidden)
    monkeypatch.setattr(octants, "color_triangles", forbidden)
    monkeypatch.setattr(core, "depth", forbidden)  # the join check is on ints
    col = color_octants(inst)
    monkeypatch.undo()
    assert check_proper(inst, col).proper


def test_exact_chromatic_of_octants_never_enumerates_the_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid or depth called on the chromatic path")

    octant4 = gen_octant4()
    inst = make_instance(ObjectClass.OCTANTS, [_oct(0, 0, 0), _oct(1, 1, 1)]
                         + list(octant4.objects))
    monkeypatch.setattr(oracle, "enumerate_hyperedges", forbidden)
    monkeypatch.setattr(core, "depth", forbidden)
    assert exact_chromatic(octant4) == 4
    # the octant at the origin lies in every covering set: two colors do
    assert exact_chromatic(inst) == 2
    assert exact_chromatic(make_instance(ObjectClass.OCTANTS, [])) == 1
    with pytest.raises(SizeCapError, match="5 objects exceed cap 4"):
        exact_chromatic(make_instance(ObjectClass.OCTANTS, inst.objects[:5]),
                        size_cap=4)


_coord = st.builds(F, st.integers(-3, 6), st.sampled_from([1, 1, 2, 3]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_join_verdict_matches_grid(data):
    # Fresh apexes on fractional coordinates, twins and dominated octants;
    # colorings drawn at random over 1-4 colors, or the colorer's output
    # with one entry redrawn, so proper and near-proper ones are common.
    octs = [Octant(data.draw(st.tuples(_coord, _coord, _coord)))]
    for _ in range(data.draw(st.integers(0, 11))):
        kind = data.draw(st.sampled_from(["fresh", "twin", "dominated"]))
        if kind == "fresh":
            octs.append(Octant(data.draw(st.tuples(_coord, _coord, _coord))))
        elif kind == "twin":
            octs.append(data.draw(st.sampled_from(octs)))
        else:
            base = data.draw(st.sampled_from(octs)).apex
            step = st.sampled_from([F(0), F(1, 2), F(1)])
            octs.append(Octant(tuple(map(add, base, data.draw(st.tuples(step, step, step))))))
    inst = make_instance(ObjectClass.OCTANTS, octs)
    n = len(octs)
    if data.draw(st.booleans()):
        kappa = data.draw(st.integers(1, 4))
        colors = data.draw(st.lists(st.integers(1, kappa), min_size=n, max_size=n))
    else:
        kappa, colors = 4, list(color_octants(inst).colors)
        colors[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, 4))
    coloring = Coloring(tuple(colors), kappa)

    got = octants.check_at_joins(inst, coloring)
    assert got.proper == check_proper(inst, coloring).proper
    if not got.proper:
        assert got.edge == depth(inst, got.witness)[1]
        assert len(got.edge) >= 2 and len({colors[i] for i in got.edge}) == 1


def test_improper_search_result_raises_with_a_join_witness(monkeypatch):
    # octant4 colored all 1 by the search, plus an octant dominated by
    # octant 0 that therefore gets color 2
    objects = list(gen_octant4().objects) + [_oct(1, 5, 4)]
    inst = make_instance(ObjectClass.OCTANTS, objects)
    colors = [1, 1, 1, 1, 2]
    monkeypatch.setattr(octants, "_search_coloring",
                        lambda n, edges, max_colors: [1] * n)
    with pytest.raises(AlgorithmInvariantError) as info:
        color_octants(inst)
    witness = info.value.witness
    edge = depth(inst, witness)[1]
    assert len(edge) >= 2 and {colors[i] for i in edge} == {1}
    assert any(witness == tuple(map(max, objects[i].apex, objects[j].apex))
               for i in edge for j in edge if i < j)


def test_corrupted_join_cover_raises_with_a_join_witness(monkeypatch):
    # octant4 on quarter coordinates, so the frame's unit is not 1; the
    # corrupted lookup drops the top bit of every mask of two or more
    # octants, which leaves the apexes' singleton covers (the domination)
    # alone and breaks every join cover.
    objects = [Octant(tuple(v / 4 for v in o.apex)) for o in gen_octant4().objects]
    inst = make_instance(ObjectClass.OCTANTS, objects)
    lookup = octants._covers

    def corrupted(octs, points):
        return [m & ~(1 << m.bit_length() - 1) if m & (m - 1) else m
                for m in lookup(octs, points)]

    monkeypatch.setattr(octants, "_covers", corrupted)
    joins = {tuple(map(max, o.apex, p.apex))
             for i, o in enumerate(objects) for p in objects[i + 1:]}
    for run in (color_octants, exact_chromatic):
        with pytest.raises(AlgorithmInvariantError) as info:
            run(inst)
        witness = info.value.witness
        assert all(type(v) is F for v in witness) and witness in joins, run


def test_search_node_budget_raises_size_cap(monkeypatch):
    # A triangle of pairs is not 2-colorable: the search visits exactly
    # three nodes (the root and two placements) before giving up.
    triangle = [0b011, 0b110, 0b101]
    monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", 3)
    assert octants._search_coloring(3, triangle, (2,)) is None
    monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", 2)
    with pytest.raises(SizeCapError):
        octants._search_coloring(3, triangle, (2,))


def _greedy_reference(n, masks):
    """The greedy pass the coloring search once ran before backtracking:
    along the reverse degeneracy order of the pair graph, each vertex takes
    the lowest color that no pair neighbour colored before it has."""
    adjacency = [0] * n
    for e in masks:
        if e.bit_count() == 2:
            a, b = oracle.bits(e)
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    colors = [0] * n
    for v in octants._degeneracy_order(adjacency)[::-1]:
        taken = {colors[u] for u in oracle.bits(adjacency[v])}
        colors[v] = next(c for c in range(1, n + 2) if c not in taken)
    return colors


def test_first_descent_is_the_greedy_coloring(monkeypatch):
    # Wherever the greedy coloring fits k colors and is proper, the search
    # returns it after n + 1 nodes: the root and one placement per vertex.
    ticks = []
    budget = octants.node_budget

    def counted(search):
        tick = budget(search)

        def counting():
            ticks.append(search)
            tick()

        return counting

    monkeypatch.setattr(octants, "node_budget", counted)
    rng = random.Random(24)
    graphs = []
    for _ in range(400):
        n = rng.randint(2, 12)
        sizes = [min(n, rng.choice([2, 2, 3, 4])) for _ in range(rng.randint(1, 20))]
        masks = {sum(1 << v for v in rng.sample(range(n), size)) for size in sizes}
        graphs.append((n, oracle.minimal_masks(masks)))
    for _ in range(60):
        octs = _messy_octants(rng)
        graphs.append((len(octs), join_cover_edges(octs)))
    for n in (10, 20, 30, 40):
        inst = _perfbench_antichain(n)
        graphs.append((n, join_cover_edges(inst.frame.objects, inst.frame.unit)))
    settled = 0
    for n, masks in graphs:
        greedy = _greedy_reference(n, masks)
        for k in range(2, 6):
            if max(greedy) <= k and oracle.monochromatic(masks, greedy) is None:
                ticks.clear()
                assert octants._search_coloring(n, masks, (k,)) == greedy, (n, masks, k)
                assert len(ticks) == n + 1
                settled += 1
    assert settled >= 1000


def test_exhausted_search_reports_kept_octants(monkeypatch):
    inst = make_instance(ObjectClass.OCTANTS, [_oct(0, 0, 0), _oct(1, 1, 1)]
                         + list(gen_octant4().objects))
    monkeypatch.setattr(octants, "_search_coloring", lambda n, edges, max_colors: None)
    with pytest.raises(NoFourColoringError) as info:
        color_octants(inst)
    kept = compute_domination(inst.objects).nondominated
    assert info.value.objects == [inst.objects[i] for i in kept]
