import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from geomextract import (
    Instance,
    ObjectClass,
    check_proper,
    clip_rays_to_box,
    color_rays,
    color_segments,
    enumerate_hyperedges,
    gen_kbox,
    gen_kbox_rays,
    gen_random,
    gen_rayfan,
    make_instance,
    ray_type_profile,
)
from geomextract import axis2d
from geomextract.axis2d import dominating_rays, line_groups
from geomextract.cli import main
from geomextract.core import AlgorithmInvariantError, Axis, Ray, Segment
from geomextract.docio import instance_to_json


def _seg(axis, line, lo, hi):
    return Segment(axis, F(line), F(lo), F(hi))


def test_crossing_pair_gets_disjoint_palettes():
    inst = make_instance(
        ObjectClass.SEGMENTS,
        [_seg(Axis.HORIZONTAL, 0, -1, 1), _seg(Axis.VERTICAL, 0, -1, 1)],
    )
    col = color_segments(inst)
    assert col.kappa == 4
    assert col.colors[0] in (1, 2) and col.colors[1] in (3, 4)


def test_collinear_overlapping_horizontals_use_first_palette():
    inst = make_instance(
        ObjectClass.SEGMENTS,
        [_seg(Axis.HORIZONTAL, 0, 0, 4), _seg(Axis.HORIZONTAL, 0, 2, 6)],
    )
    col = color_segments(inst)
    assert sorted(col.colors) == [1, 2]


def test_kbox3_coloring_proper():
    inst = gen_kbox(3)
    col = color_segments(inst)
    assert len(col.used_colors()) <= 4
    assert check_proper(inst, col).proper


def test_line_groups_partition_by_exact_coordinate():
    segs = [
        _seg(Axis.HORIZONTAL, 1, 0, 1),
        _seg(Axis.HORIZONTAL, 1, 2, 3),
        _seg(Axis.HORIZONTAL, 2, 0, 1),
        _seg(Axis.VERTICAL, 1, 0, 1),
    ]
    groups = line_groups(segs)
    assert {(g.axis, g.line): g.members for g in groups} == {
        (Axis.HORIZONTAL, F(1)): (0, 1),
        (Axis.HORIZONTAL, F(2)): (2,),
        (Axis.VERTICAL, F(1)): (3,),
    }


def test_cross_axis_hyperedges_always_bichromatic():
    for seed in range(80):
        inst = gen_random(ObjectClass.SEGMENTS, 1 + seed % 12, seed)
        col = color_segments(inst)
        for edge in enumerate_hyperedges(inst).sorted_edges():
            by_axis = {}
            for i in edge:
                by_axis.setdefault(inst.objects[i].axis, set()).add(
                    inst.objects[i].line
                )
            # same-axis members of one hyperedge share their line exactly
            for lines in by_axis.values():
                assert len(lines) == 1
            if len(by_axis) == 2:
                assert len({col.colors[i] for i in edge}) >= 2
                palettes = {
                    (1, 2) if col.colors[i] <= 2 else (3, 4) for i in edge
                }
                assert len(palettes) == 2


# ---------------------------------------------------------------------------
# Rays
# ---------------------------------------------------------------------------

def test_two_opposite_rays_on_one_line_differ():
    inst = make_instance(
        ObjectClass.RAYS, [Ray(1, (F(0), F(0))), Ray(2, (F(5), F(0)))]
    )
    col = color_rays(inst)
    assert col.kappa == 2
    assert col.colors[0] != col.colors[1]
    assert check_proper(inst, col).proper


def test_rayfan_three_colors_proper():
    inst = gen_rayfan(4)
    col = color_rays(inst)
    assert col.kappa == 3
    assert col.used_colors() <= {1, 2, 3}
    assert check_proper(inst, col).proper


def test_kbox_rays_type4_proper():
    inst = gen_kbox_rays(2)
    assert ray_type_profile(inst.objects).type == 4
    col = color_rays(inst)
    assert col.kappa == 4
    assert check_proper(inst, col).proper


def test_dominating_ray_contains_all_on_its_line():
    rng = random.Random(13)
    rays = [
        Ray(rng.randint(1, 4), (F(rng.randint(0, 4)), F(rng.randint(0, 4))))
        for _ in range(30)
    ]
    doms = dominating_rays(rays)
    from geomextract import contains

    for d in doms:
        for i, r in enumerate(rays):
            if r.orientation == rays[d].orientation and i != d:
                same_line = (
                    r.apex[1] == rays[d].apex[1]
                    if r.orientation in (1, 2)
                    else r.apex[0] == rays[d].apex[0]
                )
                if same_line:
                    assert contains(rays[d], r.apex)


def test_type1_two_coloring_proper():
    for seed in range(40):
        rng = random.Random(seed)
        rays = [Ray(1, (F(rng.randint(0, 6)), F(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 8))]
        inst = make_instance(ObjectClass.RAYS, rays)
        col = color_rays(inst)
        assert col.kappa == 2
        assert check_proper(inst, col).proper


def test_type3_vertical_pair_rotation():
    # orientations {2,3,4}: the axis-sharing pair is the vertical {3,4}, so
    # up and down rays take colors 1 and 2 and the left rays' dominating rays
    # take 3; the result must still be proper with three colors.
    rays = [
        Ray(3, (F(0), F(0))),
        Ray(4, (F(0), F(5))),
        Ray(3, (F(2), F(1))),
        Ray(4, (F(2), F(4))),
        Ray(2, (F(3), F(2))),
        Ray(2, (F(1), F(3))),
    ]
    inst = make_instance(ObjectClass.RAYS, rays)
    assert ray_type_profile(rays).type == 3
    col = color_rays(inst)
    assert col.kappa == 3
    assert col.used_colors() <= {1, 2, 3}
    assert check_proper(inst, col).proper


def test_ray_palettes_separate_first_colors_for_every_orientation_subset():
    # Two rays per orientation on one line: the dominating one takes its
    # orientation's first color, the other its second.
    rays_of = {
        1: [Ray(1, (F(0), F(0))), Ray(1, (F(1), F(0)))],
        2: [Ray(2, (F(0), F(1))), Ray(2, (F(1), F(1)))],
        3: [Ray(3, (F(5), F(0))), Ray(3, (F(5), F(1)))],
        4: [Ray(4, (F(6), F(0))), Ray(4, (F(6), F(1)))],
    }
    subsets = [s for k in (1, 2, 3) for s in itertools.combinations(range(1, 5), k)]
    assert len(subsets) == 14
    for subset in subsets:
        rays = [r for o in subset for r in rays_of[o]]
        col = color_rays(make_instance(ObjectClass.RAYS, rays))
        doms = dominating_rays(rays)
        firsts = []
        for j in range(0, len(rays), 2):
            dom, rest = (j, j + 1) if j in doms else (j + 1, j)
            assert col.colors[dom] != col.colors[rest], subset
            firsts.append(col.colors[dom])
        assert len(set(firsts)) == len(firsts), subset


def test_dominating_ray_lemma_is_checked(monkeypatch, tmp_path, capsys):
    # With no dominating ray, every ray takes its second color: the check
    # raises (exit 4) instead of returning an unverified coloring.
    monkeypatch.setattr(axis2d, "dominating_rays", lambda rays: set())
    rays = [Ray(1, (F(0), F(0))), Ray(1, (F(1, 2), F(0))), Ray(3, (F(2), F(1)))]
    inst = make_instance(ObjectClass.RAYS, rays)
    with pytest.raises(AlgorithmInvariantError) as info:
        color_rays(inst)
    assert info.value.witness == ((F(0), F(0)), (0, 1))
    doc = tmp_path / "rays.json"
    doc.write_text(instance_to_json(inst))
    assert main(["color", str(doc)]) == 4
    assert "dominating-ray lemma" in capsys.readouterr().err


def test_type_counts_cap_colors():
    for seed in range(120):
        inst = gen_random(ObjectClass.RAYS, 1 + seed % 12, seed)
        t = ray_type_profile(inst.objects).type
        col = color_rays(inst)
        assert len(col.used_colors()) <= max(t, 2)
        assert check_proper(inst, col).proper


def _frozen_ray_instances():
    """Seeded gen_random rays (mostly 3 or 4 orientations), then wide
    fractional rays restricted to every kind of orientation subset."""
    for n in (4, 6, 9, 12, 20, 30):
        for seed in range(5):
            yield gen_random(ObjectClass.RAYS, n, seed)
    rng = random.Random(2411)
    subsets = [(1,), (3,), (4,), (1, 2), (3, 4), (1, 3), (2, 4),
               (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]
    for subset in subsets:
        for _ in range(3):
            rays = [
                Ray(rng.choice(subset),
                    tuple(F(rng.randint(-90, 90), rng.choice((1, 2, 3, 5, 6)))
                          for _ in range(2)))
                for _ in range(rng.randint(1, 16))
            ]
            yield make_instance(ObjectClass.RAYS, rays)


def test_ray_colorings_frozen():
    # Colors and kappa of every instance above, pinned by one digest so that
    # a rewrite of color_rays keeps every output.
    text = "|".join(
        f"{col.kappa}:{''.join(map(str, col.colors))}"
        for col in map(color_rays, _frozen_ray_instances())
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest[:16] == "41a71e31bbbc25df"


def _four_orientation_ray_instances():
    """Seeded gen_random rays of all four orientations, then rays whose
    coordinates mix several fractional denominators."""
    for seed in range(200):
        inst = gen_random(ObjectClass.RAYS, 4 + seed % 9, seed)
        if ray_type_profile(inst.objects).type == 4:
            yield inst
    rng = random.Random(1865)
    for _ in range(40):
        extra = [rng.randint(1, 4) for _ in range(rng.randint(0, 10))]
        rays = [
            Ray(o, tuple(F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 6)))
                         for _ in range(2)))
            for o in [1, 2, 3, 4] + extra
        ]
        yield make_instance(ObjectClass.RAYS, rays)


def test_four_orientation_rays_color_as_document_clipped_segments():
    # color_rays clips the rays on the instance frame; its colors must be
    # those of the segment colorer on the rays clipped in document Fractions.
    count = 0
    for inst in _four_orientation_ray_instances():
        segments, _ = clip_rays_to_box(inst.objects)
        clipped = Instance(ObjectClass.SEGMENTS, tuple(segments), inst.weights, ())
        assert color_rays(inst) == color_segments(clipped), inst.objects
        count += 1
    assert count > 100


def test_empty_ray_instance_rejected():
    with pytest.raises(ValueError):
        color_rays(Instance(ObjectClass.RAYS, (), (), ()))


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

def test_clip_single_ray():
    segs, box = clip_rays_to_box([Ray(1, (F(0), F(0)))])
    assert box == (F(-1), F(1), F(-1), F(1))
    assert segs[0] == Segment(Axis.HORIZONTAL, F(0), F(0), F(1))


def test_clip_two_opposite_rays():
    segs, _ = clip_rays_to_box([Ray(1, (F(0), F(0))), Ray(2, (F(5), F(0)))])
    assert segs[0] == Segment(Axis.HORIZONTAL, F(0), F(0), F(6))
    assert segs[1] == Segment(Axis.HORIZONTAL, F(0), F(-1), F(5))


def test_clipping_preserves_hypergraph():
    checked = 0
    seed = 0
    while checked < 40:
        inst = gen_random(ObjectClass.RAYS, 4 + seed % 9, seed)
        seed += 1
        if ray_type_profile(inst.objects).type != 4:
            continue
        segs, _ = clip_rays_to_box(list(inst.objects))
        seg_inst = Instance(ObjectClass.SEGMENTS, tuple(segs), inst.weights, ())
        assert (
            enumerate_hyperedges(inst).edge_set
            == enumerate_hyperedges(seg_inst).edge_set
        )
        checked += 1
