import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geomextract import (
    Coloring,
    DepthPreconditionError,
    ObjectClass,
    UncoverablePointError,
    check_cover,
    check_proper,
    color_instance,
    depth,
    enumerate_hyperedges,
    enumerate_hyperedges_dense,
    exact_chromatic,
    exact_min_cover,
    extract,
    gen_interval_pair,
    gen_kbox,
    gen_octant4,
    gen_random,
    make_instance,
    total_weight,
)
from geomextract import docio, oracle
from geomextract.core import (
    AlgorithmInvariantError,
    Axis,
    Interval,
    Octant,
    PlaneTriangle,
    Ray,
    Segment,
    SizeCapError,
)


def test_two_overlapping_intervals_single_edge():
    inst = gen_interval_pair()
    hes = enumerate_hyperedges(inst)
    assert hes.edge_set == frozenset({frozenset({0, 1})})


def test_kbox_every_edge_is_a_pair_matching_its_cross():
    inst = gen_kbox(2)
    hes = enumerate_hyperedges(inst)
    assert all(len(e) == 2 for e in hes.edge_set)
    cross_pairs = {depth(inst, p)[1] for p in inst.points}
    assert hes.edge_set == frozenset(cross_pairs)
    assert len(hes) == len(inst.points)


def test_two_octants_edge_and_witness():
    inst = make_instance(
        ObjectClass.OCTANTS,
        [Octant((F(0), F(1), F(0))), Octant((F(1), F(0), F(0)))],
    )
    hes = enumerate_hyperedges(inst)
    assert hes.edge_set == frozenset({frozenset({0, 1})})
    witness = hes.edges[frozenset({0, 1})]
    assert witness[0] >= 1 and witness[1] >= 1 and witness[2] >= 0


def test_witnesses_realize_their_edges():
    for seed in range(30):
        for cls in ObjectClass:
            inst = gen_random(cls, 1 + seed % 8, seed)
            hes = enumerate_hyperedges(inst)
            for edge, witness in hes.edges.items():
                assert depth(inst, witness)[1] == edge


def test_enumeration_deterministic():
    inst = gen_random(ObjectClass.SEGMENTS, 9, 23)
    a = enumerate_hyperedges(inst)
    b = enumerate_hyperedges(inst)
    assert a.edges == b.edges


def test_grid_matches_dense_sampling_all_classes():
    for cls in ObjectClass:
        for seed in range(30):
            inst = gen_random(cls, 1 + seed % 8, seed)
            grid = enumerate_hyperedges(inst)
            dense = enumerate_hyperedges_dense(inst)
            assert grid.edge_set == dense.edge_set, (cls, seed)


def test_grid_matches_dense_on_fractional_coordinates():
    # Events such as 0, 2/7, 1/2 on every axis: the sampling lattice must
    # still hit all of them, and degenerate and open extents must meet them.
    cases = [
        make_instance(
            ObjectClass.INTERVALS,
            [Interval(F(0), F(2, 7)), Interval(F(2, 7), F(1, 2)),
             Interval(F(1, 4), F(3))],
        ),
        make_instance(
            ObjectClass.SEGMENTS,
            [Segment(Axis.HORIZONTAL, F(1, 2), F(0), F(2, 7)),
             Segment(Axis.VERTICAL, F(2, 7), F(1, 4), F(3, 2)),
             Segment(Axis.HORIZONTAL, F(1, 2), F(1, 4), F(1)),
             Segment(Axis.VERTICAL, F(0), F(1, 2), F(1))],
        ),
        make_instance(
            ObjectClass.RAYS,
            [Ray(1, (F(2, 7), F(1, 2))), Ray(2, (F(1, 2), F(1, 2))),
             Ray(3, (F(1, 3), F(0))), Ray(4, (F(1, 3), F(1, 2))),
             Ray(2, (F(0), F(1, 4)))],
        ),
        make_instance(
            ObjectClass.OCTANTS,
            [Octant((F(0), F(1, 2), F(1, 3))), Octant((F(1, 3), F(0), F(1, 2))),
             Octant((F(1, 2), F(1, 3), F(0))), Octant((F(1, 3), F(1, 3), F(1, 3)))],
        ),
    ]
    for inst in cases:
        grid = enumerate_hyperedges(inst)
        assert len(grid) >= 2, inst.cls
        assert grid.edge_set == enumerate_hyperedges_dense(inst).edge_set, inst.cls


# Half-integer coordinates on a short range, so apexes share lines and
# extreme events often: several rays open toward -x or -y on one line give
# cells that exist only past the lowest event, and octants give cells that
# exist only past the highest.
_halves = st.integers(0, 6).map(lambda k: F(k, 2))
_rays = st.lists(
    st.builds(Ray, st.integers(1, 4), st.tuples(_halves, _halves)),
    min_size=2, max_size=6,
)
_octants = st.lists(
    st.builds(Octant, st.tuples(_halves, _halves, _halves)), min_size=2, max_size=5
)


def _assert_grid_matches_dense(cls, objects):
    inst = make_instance(cls, objects)
    assert enumerate_hyperedges(inst).edge_set == enumerate_hyperedges_dense(inst).edge_set


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rays)
def test_grid_matches_dense_on_random_fractional_rays(rays):
    _assert_grid_matches_dense(ObjectClass.RAYS, rays)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_octants)
def test_grid_matches_dense_on_random_fractional_octants(octs):
    _assert_grid_matches_dense(ObjectClass.OCTANTS, octs)


# Wide fractional coordinates (numerators -90..90 over denominators 1-6) for
# the coverage table: events collide only sometimes and gaps are narrow.
_wide = st.builds(F, st.integers(-90, 90), st.sampled_from([1, 2, 3, 5, 6]))


def _objects_on(coord):
    """One object strategy per class, every coordinate drawn from coord."""
    run = st.tuples(coord, coord).filter(lambda p: p[0] != p[1]).map(sorted)
    return {
        ObjectClass.INTERVALS: st.builds(lambda r: Interval(*r), run),
        ObjectClass.SEGMENTS: st.builds(
            lambda axis, line, r: Segment(axis, line, *r),
            st.sampled_from([Axis.HORIZONTAL, Axis.VERTICAL]), coord, run,
        ),
        ObjectClass.RAYS: st.builds(Ray, st.integers(1, 4), st.tuples(coord, coord)),
        ObjectClass.OCTANTS: st.builds(Octant, st.tuples(coord, coord, coord)),
    }


_OBJECTS = _objects_on(_wide)
_HALF_OBJECTS = _objects_on(_halves)


@pytest.mark.parametrize("cls", list(ObjectClass), ids=lambda c: c.value)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_proper_and_chromatic_match_dense_brute_force(cls, data):
    # check_proper and exact_chromatic read the grid's minimal edge masks;
    # here every dense-sampled edge is scanned instead, in (len, sorted) order.
    objects = data.draw(st.lists(_HALF_OBJECTS[cls], min_size=1, max_size=6))
    inst = make_instance(cls, objects)
    dense = sorted(
        (sorted(e) for e in enumerate_hyperedges_dense(inst).edges),
        key=lambda e: (len(e), e),
    )

    def first_monochromatic(colors):
        return next((e for e in dense if len({colors[i] for i in e}) == 1), None)

    kappa = data.draw(st.integers(1, 4))
    colors = data.draw(st.lists(st.integers(1, kappa), min_size=inst.m, max_size=inst.m))
    verdict = check_proper(inst, Coloring(tuple(colors), kappa))
    expected = first_monochromatic(colors)
    assert verdict.proper == (expected is None)
    if expected is not None:
        assert sorted(verdict.edge) == expected
        assert depth(inst, verdict.witness)[1] == verdict.edge

    chromatic = next(
        k
        for k in range(1, inst.m + 1)
        if any(
            first_monochromatic(c) is None
            for c in itertools.product(range(1, k + 1), repeat=inst.m)
        )
    )
    assert exact_chromatic(inst) == chromatic


def _coordinates(obj):
    if isinstance(obj, Interval):
        return (obj.a, obj.b)
    if isinstance(obj, Segment):
        return (obj.line, obj.lo, obj.hi)
    return obj.apex


@pytest.mark.parametrize("cls", list(ObjectClass), ids=lambda c: c.value)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_coverer_masks_match_depth(cls, data):
    # Coordinates of the points come from every defining value (events and
    # segment or ray lines), the midpoints between them, one value past
    # each end, and values over 7, 11 and 13, denominators no object uses
    # (so a frame built from the objects alone would miss them); with no
    # objects at all every mask must be 0.
    objects = data.draw(st.lists(_OBJECTS[cls], max_size=10))
    values = sorted({v for o in objects for v in _coordinates(o)}) or [F(1, 3)]
    pool = [values[0] - 1, values[-1] + 1, *values]
    pool += [(a + b) / 2 for a, b in zip(values, values[1:])]
    off = st.builds(lambda v, d: v + F(1, d), st.sampled_from(values),
                    st.sampled_from([7, 11, 13, -7, -11, -13]))
    axis = st.one_of(st.sampled_from(pool), off)
    points = data.draw(
        st.lists(st.tuples(*[axis] * cls.dimension), min_size=1, max_size=12)
    )
    weights = [F(1 + i % 5, 1 + i % 3) for i in range(len(objects))]
    inst = make_instance(cls, objects, weights, points=points)
    indices = range(len(objects))
    chosen = sorted(data.draw(st.sets(st.sampled_from(indices)))) if objects else []

    def mask_of(p, order):  # bit k for order[k]
        covering = depth(inst, p)[1]
        return sum(1 << k for k, i in enumerate(order) if i in covering)

    masks = [mask_of(p, indices) for p in points]
    assert oracle.coverer_masks(inst) == masks

    # The readers of the masks agree with depth as well.
    missed = [k for k, p in enumerate(points) if not mask_of(p, chosen)]
    verdict = check_cover(inst, chosen)
    assert verdict.covered == (not missed)
    assert verdict.point_index == (missed[0] if missed else None)
    if not all(masks):
        with pytest.raises(UncoverablePointError):
            exact_min_cover(inst)
    else:  # against every subset, by the masks depth gave
        _, w_cover = exact_min_cover(inst)
        assert w_cover == min(
            total_weight(inst, [i for i in indices if s >> i & 1])
            for s in range(1 << len(objects))
            if all(m & s for m in masks)
        )
    if objects:
        col = color_instance(inst)
        if all(m & (m - 1) for m in masks):
            sol = extract(inst, col).sol
            assert all(depth(inst, p)[1] & sol for p in points)
        else:
            with pytest.raises(DepthPreconditionError):
                extract(inst, col)


# Rays draw their orientations from a random nonempty subset first, so one-,
# two- and three-orientation instances are as common as four-orientation ones.
_ray_lists = st.lists(
    st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=4, unique=True
).flatmap(
    lambda kinds: st.lists(
        st.builds(Ray, st.sampled_from(kinds), st.tuples(_wide, _wide)),
        min_size=1, max_size=12,
    )
)


@pytest.mark.parametrize("cls", list(ObjectClass), ids=lambda c: c.value)
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_colorer_is_proper(cls, data):
    if cls is ObjectClass.RAYS:
        objects = data.draw(_ray_lists)
    else:
        objects = data.draw(st.lists(_OBJECTS[cls], min_size=1, max_size=12))
    inst = make_instance(cls, objects)
    col = color_instance(inst)
    assert set(col.colors) <= set(range(1, col.kappa + 1))
    assert check_proper(inst, col).proper


def test_size_cap():
    inst = gen_random(ObjectClass.INTERVALS, 12, 0)
    with pytest.raises(SizeCapError):
        enumerate_hyperedges(inst, size_cap=10)


def test_check_proper_counterexample_witness_in_overlap():
    inst = gen_interval_pair()
    verdict = check_proper(inst, Coloring((1, 1), 2))
    assert not verdict.proper
    assert verdict.edge == frozenset({0, 1})
    assert F(1) <= verdict.witness[0] <= F(2)


def test_check_proper_disjoint_family_any_coloring():
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(1)), Interval(F(5), F(6))]
    )
    assert check_proper(inst, Coloring((1, 1), 2)).proper


def test_check_cover_examples():
    pair = gen_interval_pair()
    assert check_cover(pair, {0}).covered
    empty = check_cover(pair, set())
    assert not empty.covered and empty.point_index == 0

    oct4 = gen_octant4()
    for i in range(4):
        for j in range(i + 1, 4):
            assert not check_cover(oct4, {i, j}).covered


def test_check_cover_unknown_index():
    with pytest.raises(IndexError):
        check_cover(gen_interval_pair(), {9})


def test_octant_sentinel_catches_far_cells():
    # two octants whose joint region starts beyond both apexes on every axis
    inst = make_instance(
        ObjectClass.OCTANTS,
        [Octant((F(0), F(5), F(5))), Octant((F(5), F(0), F(0)))],
    )
    hes = enumerate_hyperedges(inst)
    assert frozenset({0, 1}) in hes.edge_set


def test_ray_unbounded_overlap_detected():
    inst = make_instance(
        ObjectClass.RAYS, [Ray(1, (F(0), F(0))), Ray(1, (F(4), F(0)))]
    )
    hes = enumerate_hyperedges(inst)
    assert hes.edge_set == frozenset({frozenset({0, 1})})


def test_ray_lower_sentinel_witness():
    # {0, 1} lives only left of x = 0, past every apex on the open side
    inst = make_instance(
        ObjectClass.RAYS,
        [Ray(2, (F(0), F(0))), Ray(2, (F(5), F(0))), Ray(1, (F(0), F(0)))],
    )
    hes = enumerate_hyperedges(inst)
    assert hes.edges[frozenset({0, 1})] == (F(-1), F(0))


def test_witness_disagreeing_with_depth_raises_with_witness(monkeypatch):
    # The re-check runs core's membership test for the class, the one
    # core.depth applies, on the objects scaled into the integer frame.
    inst = gen_interval_pair()
    witness = enumerate_hyperedges(inst).edges[frozenset({0, 1})]
    monkeypatch.setitem(oracle.core.MEMBERSHIP, ObjectClass.INTERVALS, lambda o, p: False)
    with pytest.raises(AlgorithmInvariantError) as err:
        enumerate_hyperedges(inst)
    assert err.value.witness == witness

    tris = [PlaneTriangle(F(0), F(0), F(2)), PlaneTriangle(F(1), F(0), F(3))]
    witness = oracle.enumerate_triangle_hyperedges(tris).edges[frozenset({0, 1})]
    monkeypatch.setattr(oracle, "triangle_contains", lambda t, u, v: False)
    with pytest.raises(AlgorithmInvariantError) as err:
        oracle.enumerate_triangle_hyperedges(tris)
    assert err.value.witness == witness


# instance_digest(gen_random(cls, n, seed)) for n in (8, 30), seeds 0-4.
# Target points are oracle witnesses, so these pin every witness.
_RANDOM_DIGESTS = {
    "intervals": [
        "6f56d6ec61344dd35271070ff0decedb2d4e41d00397c642d988301f02516eb4",
        "2384856e1f309e6c44ad5073b97c02fc26bb1df50c7060ac54a603b79a565ba8",
        "e8abb3c5d5c5a6e9e0c78a344eea35ccd366e6a56ba10e8c8e12db79a0529433",
        "180596d761a17b39ff5bdb0ab43b41dc8989c167dd1a0d953834979eeecf6706",
        "a58ae28fa53f96d865e8c9708245f09b226256773fc1bd8a3edacded05ebdbd4",
        "79ae641e55efd134a8805b03d1ce90c809a4adbed3857843f446ecd214b2dd82",
        "3ac17a2d1bea0eb15b4e0e17d5bf6ac487153235744de9db4bfa9a15ef9c8720",
        "329e2ecdccd25e689b2c802c8fcb021e03b94393a8c4529a5b604af59bad7af7",
        "9816f0ff9fb8fbea42f5bfcb0a9afdbbe605d4ec3670b76574fab07b6bd0bed2",
        "3d8c127e9d308f4a20b7a3de310aac1a533cb84cfbfa022d5dad451d15804df2",
    ],
    "segments": [
        "250a7186efad4a4c5784e74c85a809031183440bd15c7ddca907d1abddbf563b",
        "c688f8ebed48704f6dc287abcc73ae4c15f8233e9279ab6978ee7660bdbd7b43",
        "6f6bf93ef7b818ae663f41fd6d1a999b030d27ceca29932fe58156f7aa9c826c",
        "c52b28637caf5ae92ebfd627a8011c2a7125aaf1b24856874d3868abc0f6fedc",
        "bc9887810d71239bd9357bb2dcbc8c0989a948b08a4183da3517d6b9ba8f9ebe",
        "4900594ddc5fd7c984aab1f7dc28c78169479c6dc257b9115e08b83f6f0d926d",
        "42dd0088613341344dd60b477c91b6e39a92cab7abfb5061357fad1ba1f880fe",
        "931b488ed8dcfb20fecb591e995bd4f3fd26c6ef76a23fd3470a1bb3ece9bd78",
        "71049c4d04dc56a6652f5200ba6c2155590e96314601b7fc47340ac46bf185b6",
        "4e2bbddf59dfb6e43f6249413666e3c3ccf0339d6170782f9dc189375dd8174e",
    ],
    "rays": [
        "76e9e29136bb96455820cea0b8c7e13274b20672fb49e73d06b5039650c4441b",
        "efd450229db8007ab325726cedf126f71c685055e3fc786aca8def8c6f7e4fd0",
        "118cb87079f4d77021788435f36b9ceb175bc55760e7f33b002c527e396b6c17",
        "8a67a3036c1fc63105d2aa7ef2d16e5937672c860b8e27b97b06b78258f65991",
        "c20c6fb86c2fcde3cde29f4e45080fe385b6ab8a01b068a540f1fe1a5ea6c9e8",
        "af3fe4fdb8a5bb1aa1a542a42b45ac21cd98c7c1ce08e42a083a78d92fb42205",
        "a4ff33d9f0d8447d38f85ad929b37f8bb1996cda8ba37040cecd678bf05cfdc1",
        "dcc112c9256ddf268f7e53068b2f7e2526d8de333e1961c4b66c3f2f9f9b551e",
        "910bdaf874d66e9cccfe49de650264efc6a1e1e485e6da9c4c0073f0bbd3a991",
        "715207cefab213c15ab1391f191839c78ba96a16b8250a64a70b421dd83e7b59",
    ],
    "octants": [
        "f1d873d4632e2847ec600fdf9fa059c9681d5a58d608c33711ef2bec6f90471f",
        "dc98c0559b2c9731679bff38de3bc65f1c34eb33e3a89e8f42f864f95efe2942",
        "5d591040e338cfc291c8519acdb77e5a2f22c4c03181d9d82747fc156c7533af",
        "989848890d6034efba9a1b8ea9962214b2319cb2fbb0faaf441d6af052047af1",
        "72ae73a3f212bfb73271ff45dcbd555ae4e6aaea5c25002d8f2d2a303cd6ffe1",
        "84e6e17476666909b3694c83a987386bbc12b0599acc8b2e9e0bd878f88011c5",
        "77e7076b77885fc4271fe10205000c85e6f79a8bad3130e65d037db03807d6a3",
        "863208a85f5914b8cd7e9f65381bb4f85ed9533e9bc899cc90a7ba413ce13e7d",
        "b4c1e4a129464fce188363d0fee2e9dda392eb7ecef26767f314724e47ff4501",
        "efc96e792b4c7ac690c76db5ce5b9b8c9f011267b66d3b1adcd3fcb2ea5773c4",
    ],
}


def test_random_instance_digests_pin_witnesses():
    for cls in ObjectClass:
        got = [
            docio.instance_digest(gen_random(cls, n, seed))
            for n in (8, 30)
            for seed in range(5)
        ]
        assert got == _RANDOM_DIGESTS[cls.value], cls


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _frame_instance(k):
    """Seeded instance k of class k % 4; every third has prime denominators."""
    rng = random.Random(k)
    cls = list(ObjectClass)[k % 4]
    n = rng.randint(2, 10)
    dens = rng.sample(_PRIMES, n) if k % 3 == 0 else [1] * n

    def coords(d, count):  # half on a small integer range, so ends collide
        return [F(rng.randint(-2, 6)) if rng.random() < 0.5
                else F(rng.randint(-2 * d, 6 * d), d) for _ in range(count)]

    objects = []
    for d in dens:
        if cls is ObjectClass.INTERVALS:
            a, b = sorted(coords(d, 2))
            objects.append(Interval(a, b + F(1, d)))
        elif cls is ObjectClass.SEGMENTS:
            line, lo, hi = coords(d, 3)
            lo, hi = sorted((lo, hi))
            axis = rng.choice((Axis.HORIZONTAL, Axis.VERTICAL))
            objects.append(Segment(axis, line, lo, hi + F(1, d)))
        elif cls is ObjectClass.RAYS:
            objects.append(Ray(rng.randint(1, 4), tuple(coords(d, 2))))
        else:
            objects.append(Octant(tuple(coords(d, 3))))
    return make_instance(cls, objects)


# sha256 over every (edge, witness) that enumerate_hyperedges returns for
# _frame_instance(k), k < 400, in insertion order. Computed with the grid
# walked on Fractions, so it pins the integer frame to the same output.
_FRAME_DIGEST = "d7b1a273c3aa8577d4b481ecc199cd2b8fad91c56e759ed1b843f0253232fd3c"


def _frame_digest(check):
    h = hashlib.sha256()
    for k in range(400):
        inst = _frame_instance(k)
        for edge, w in enumerate_hyperedges(inst).edges.items():
            check(inst, edge, w)
            h.update(repr((sorted(edge), [str(v) for v in w])).encode())
        h.update(b";")
    return h.hexdigest()


def test_integer_frame_keeps_edges_witnesses_and_order():
    def check(inst, edge, w):
        assert all(type(v) is F for v in w), w
        assert depth(inst, w)[1] == edge, w

    assert _frame_digest(check) == _FRAME_DIGEST


def test_witness_recheck_survives_python_O():
    script = (
        "import sys\n"
        "from geomextract import ObjectClass, core, enumerate_hyperedges, gen_interval_pair\n"
        "inst = gen_interval_pair()\n"
        "witness = enumerate_hyperedges(inst).edges[frozenset({0, 1})]\n"
        "core.MEMBERSHIP[ObjectClass.INTERVALS] = lambda o, p: False\n"
        "try:\n"
        "    enumerate_hyperedges(inst)\n"
        "except core.AlgorithmInvariantError as err:\n"
        "    print(sys.flags.optimize, err.witness == witness)\n"
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 2**10 - 1), max_size=14))
def test_minimal_masks_match_brute_force(masks):
    def members(s):
        return [i for i in range(10) if s >> i & 1]

    minimal = [s for s in set(masks) if not any(t != s and t & s == t for t in masks)]
    expected = sorted(minimal, key=lambda s: (len(members(s)), members(s)))
    assert oracle.minimal_masks(masks) == expected
