import hashlib
import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geomextract import (
    Coloring,
    ObjectClass,
    check_proper,
    color_intervals,
    color_rays,
    color_segments,
    gen_random,
    make_instance,
)
from geomextract import axis2d, intervals
from geomextract.cli import main
from geomextract.core import AlgorithmInvariantError, Axis, Interval, Ray, Segment
from geomextract.docio import instance_to_json
from geomextract.intervals import (
    build_key_chain,
    connected_components,
    find_monochromatic,
    two_color,
)


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
    # A "component" that is not connected cannot be spanned by one chain:
    # the scan stops short of it and raises with the keys built so far.
    with pytest.raises(AlgorithmInvariantError) as info:
        build_key_chain([(F(0), F(1)), (F(5), F(6))], [0, 1])
    assert info.value.witness == (0,)
    rng = random.Random(20261022)
    for k in range(1200):
        pairs = _random_pairs(rng, rng.randint(2, 30), ints=k % 2 == 1)
        subset = [i for i in range(len(pairs)) if rng.random() < 0.5] or [0]
        expected = _reference_keys(pairs, subset)
        if len(connected_components([pairs[i] for i in subset])) == 1:
            assert build_key_chain(pairs, subset).keys == expected, (pairs, subset)
            continue
        with pytest.raises(AlgorithmInvariantError) as info:
            build_key_chain(pairs, subset)
        assert info.value.witness == expected, (pairs, subset)


# ---------------------------------------------------------------------------
# The quadratic colorer the scan/bisect one replaced, kept as a reference:
# each key rescans the component, each overlap scans every non-key, each
# non-key scans every overlap and key.
# ---------------------------------------------------------------------------

def _reference_keys(pairs, component):
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
            return tuple(keys)
        keys.append(min(candidates, key=lambda i: (-pairs[i][1], pairs[i][0], i)))


def _reference_color_component(pairs, component, keys, colors):
    nonkeys = [i for i in component if i not in keys]
    overlaps = [
        (pairs[keys[j + 1]][0], pairs[keys[j]][1]) for j in range(len(keys) - 1)
    ]
    colors[keys[0]] = 1
    for j, (olo, ohi) in enumerate(overlaps):
        same = any(pairs[i][0] <= olo and ohi <= pairs[i][1] for i in nonkeys)
        prev = colors[keys[j]]
        colors[keys[j + 1]] = prev if same else 3 - prev
    for i in nonkeys:
        a, b = pairs[i]
        inside_overlap = [
            j for j, (olo, ohi) in enumerate(overlaps) if olo <= a and b <= ohi
        ]
        inside = [j for j, k in enumerate(keys) if pairs[k][0] <= a and b <= pairs[k][1]]
        around = [j for j, (olo, ohi) in enumerate(overlaps) if a <= olo and ohi <= b]
        if inside_overlap:
            assert len(inside_overlap) == 1
            colors[i] = 3 - colors[keys[inside_overlap[0]]]
        elif inside:
            assert len(inside) == 1
            colors[i] = 3 - colors[keys[inside[0]]]
        else:
            assert len(around) == 1
            colors[i] = 3 - colors[keys[around[0]]]


def _reference_two_color(pairs):
    colors = {}
    chains = []
    for component in connected_components(pairs):
        keys = _reference_keys(pairs, component)
        chains.append(keys)
        _reference_color_component(pairs, component, keys, colors)
    return [colors[i] for i in range(len(pairs))], chains


def _random_pairs(rng, n, ints=False):
    """Half-integer endpoints on a short range, with duplicates and nesting
    common and touching endpoints frequent; with ints, integer endpoints on
    a shorter range (the frame's ints), so most endpoints tie."""
    pairs = []
    for _ in range(n):
        if ints:
            a = rng.randint(0, 12)
            pairs.append((a, a + rng.randint(1, 5)))
        else:
            a = F(rng.randint(0, 40), 2)
            pairs.append((a, a + F(rng.randint(1, 16), 2)))
    for _ in range(rng.randint(0, n // 4)):
        pairs.append(rng.choice(pairs))  # duplicate
    for _ in range(rng.randint(0, n // 4)):
        a, b = rng.choice(pairs)
        pairs.append((a, b + rng.randint(0, 2)) if rng.random() < 0.5 else (a - 1, b))
    rng.shuffle(pairs)
    return pairs


def test_colorer_matches_quadratic_reference():
    rng = random.Random(20261019)
    for k in range(2400):
        pairs = _random_pairs(rng, rng.randint(1, 40), ints=k % 2 == 1)
        expected_colors, expected_chains = _reference_two_color(pairs)
        chains = [build_key_chain(pairs, c).keys for c in connected_components(pairs)]
        assert chains == expected_chains, pairs
        assert two_color(pairs) == expected_colors, pairs


def _staircase(rng, n, offset=0):
    """(lo, hi) pairs where each interval overlaps exactly the next two,
    half of the ends on a half-integer (the benchmark's staircase shape)."""
    starts = [offset + 10 * i + rng.randint(0, 2) for i in range(n + 3)]
    out = []
    for i in range(n):
        hi = F(rng.randint(starts[i + 2] + 1, starts[i + 3] - 1))
        if rng.random() < 0.5:
            hi -= F(1, 2)
        out.append((F(starts[i]), hi))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_staircase_coloring_frozen(seed):
    pairs = _staircase(random.Random(seed), 400)
    (component,) = connected_components(pairs)
    assert build_key_chain(pairs, component).keys == tuple(range(0, 400, 2)) + (399,)
    assert two_color(pairs) == [1, 2] * 200


def test_segment_staircase_coloring_frozen():
    rng = random.Random(7)
    segments = []
    for k in range(4):  # two horizontal and two vertical lines, no crossing
        axis = Axis.HORIZONTAL if k < 2 else Axis.VERTICAL
        line = F(7 * k if k < 2 else -1000 * (k - 1))
        offset = 0 if k < 2 else 10**5
        segments += [Segment(axis, line, lo, hi) for lo, hi in _staircase(rng, 100, offset)]
    colors = color_segments(make_instance(ObjectClass.SEGMENTS, segments)).colors
    digest = hashlib.sha256("".join(map(str, colors)).encode()).hexdigest()
    assert digest[:16] == "c773b812610e57bc"


def test_long_staircase_colors_fast():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(a, b) for a, b in _staircase(random.Random(1600), 1600)],
    )
    start = time.perf_counter()
    col = color_intervals(inst)
    assert time.perf_counter() - start < 1.0  # the quadratic colorer took ~10 s
    assert col.colors == (1, 2) * 800


# ---------------------------------------------------------------------------
# Sweep verifier
# ---------------------------------------------------------------------------

def test_sweep_reports_monochromatic_endpoint():
    assert find_monochromatic(_pairs((0, 1), (1, 2)), [1, 1]) == (F(1), (0, 1))
    assert find_monochromatic(_pairs((0, 1), (1, 2)), [1, 2]) is None
    assert find_monochromatic(_pairs((0, 1), (2, 3)), [1, 1]) is None


def test_sweep_reports_monochromatic_gap():
    # Every endpoint sees both colors; only the open gap (1, 3) does not.
    pairs = _pairs((0, 1), (1, 3), (1, 3), (3, 4))
    assert find_monochromatic(pairs, [2, 1, 1, 2]) == (F(2), (1, 2))


def test_improper_interval_coloring_raises_with_witness(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(intervals, "two_color", lambda pairs: [1] * len(pairs))
    inst = make_instance(
        ObjectClass.INTERVALS, [Interval(F(0), F(2)), Interval(F(5), F(6)), Interval(F(1), F(3))]
    )
    with pytest.raises(AlgorithmInvariantError) as info:
        color_intervals(inst)
    assert info.value.witness == ((F(1),), (0, 2))
    doc = tmp_path / "inst.json"
    doc.write_text(instance_to_json(inst))
    assert main(["color", str(doc)]) == 4
    assert "not proper" in capsys.readouterr().err


def test_improper_segment_coloring_raises_with_witness(monkeypatch):
    monkeypatch.setattr(intervals, "two_color", lambda pairs: [1] * len(pairs))
    segments = [
        Segment(Axis.HORIZONTAL, F(0), F(0), F(2)),
        Segment(Axis.VERTICAL, F(9), F(0), F(4)),
        Segment(Axis.VERTICAL, F(9), F(3), F(5)),
    ]
    with pytest.raises(AlgorithmInvariantError) as info:
        color_segments(make_instance(ObjectClass.SEGMENTS, segments))
    assert info.value.witness == ((F(9), F(3)), (1, 2))


def test_improper_four_orientation_ray_coloring_raises_with_witness(
    monkeypatch, tmp_path, capsys
):
    # The rays are clipped on the instance frame, but the witness is the
    # document point and the covering rays' own indices.
    monkeypatch.setattr(intervals, "two_color", lambda pairs: [1] * len(pairs))
    rays = [
        Ray(3, (F(5, 2), F(-1))),
        Ray(1, (F(1, 3), F(1, 2))),
        Ray(2, (F(0), F(1, 2))),
        Ray(4, (F(5, 2), F(2))),
    ]
    inst = make_instance(ObjectClass.RAYS, rays)
    with pytest.raises(AlgorithmInvariantError) as info:
        color_rays(inst)
    assert info.value.witness == ((F(5, 2), F(-1)), (0, 3))
    doc = tmp_path / "rays.json"
    doc.write_text(instance_to_json(inst))
    assert main(["color", str(doc)]) == 4
    assert "not proper" in capsys.readouterr().err


# Wide fractional coordinates: denominators up to 6 on a range of 30, so
# endpoints collide only sometimes and cells are narrow. Up to 12 objects
# keeps every instance under the grid oracle's cap.
_coord = st.builds(F, st.integers(0, 180), st.sampled_from([1, 2, 3, 5, 6])).map(
    lambda x: x / 6
)
_interval = st.tuples(_coord, _coord).filter(lambda p: p[0] != p[1]).map(
    lambda p: (min(p), max(p))
)
_intervals = st.lists(_interval, min_size=1, max_size=12)
_segment = st.builds(
    lambda axis, line, ends: Segment(axis, line, *ends),
    st.sampled_from([Axis.HORIZONTAL, Axis.VERTICAL]),
    st.sampled_from([F(0), F(1, 2), F(3)]),
    _interval,
)
_segments = st.lists(_segment, min_size=1, max_size=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_intervals, st.randoms(use_true_random=False))
def test_sweep_agrees_with_grid_oracle_on_intervals(pairs, rng):
    inst = make_instance(ObjectClass.INTERVALS, [Interval(a, b) for a, b in pairs])
    colors = [rng.randint(1, 2) for _ in pairs]
    verdict = check_proper(inst, Coloring(tuple(colors), 2))
    bad = find_monochromatic(pairs, colors)
    assert (bad is None) == verdict.proper
    # The same sweep on the frame's ints finds the same point and coverers.
    on_frame = find_monochromatic(inst.frame.extents[0], colors)
    if bad is None:
        assert on_frame is None
    else:
        assert (F(on_frame[0], inst.frame.unit), on_frame[1]) == bad
    col = color_intervals(inst)
    assert find_monochromatic(pairs, col.colors) is None
    assert check_proper(inst, col).proper


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_segments, st.randoms(use_true_random=False))
def test_sweep_agrees_with_grid_oracle_on_segments(segments, rng):
    # Palettes {1, 2} and {3, 4} by axis, as the colorer uses them, so every
    # crossing point is bichromatic and the per-line sweep decides.
    inst = make_instance(ObjectClass.SEGMENTS, segments)
    colors = [rng.randint(1, 2) + (0 if s.axis is Axis.HORIZONTAL else 2) for s in segments]
    sweep_proper = all(
        find_monochromatic([(segments[i].lo, segments[i].hi) for i in g.members],
                           [colors[i] for i in g.members]) is None
        for g in axis2d.line_groups(segments)
    )
    assert sweep_proper == check_proper(inst, Coloring(tuple(colors), 4)).proper
    assert check_proper(inst, color_segments(inst)).proper
