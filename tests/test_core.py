import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from geomextract import (
    Axis,
    ClassMismatchError,
    Coloring,
    Instance,
    Interval,
    ObjectClass,
    Octant,
    ParseError,
    Ray,
    Segment,
    SizeCapError,
    contains,
    depth,
    make_instance,
    parse_rational,
    total_weight,
)
from geomextract.core import MAX_UNIT_BITS


def test_parse_rational_forms():
    assert parse_rational(3) == F(3)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("3/6") == F(1, 2)
    assert parse_rational(F(5, 3)) == F(5, 3)


@pytest.mark.parametrize("bad", [1.5, "1.5", "1/0", "a", True, None, "1/-2"])
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


_TWO_PASS_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="0123456789+-/ _.\n\u0663", max_size=9))
@example("+12/4 ")
@example("-0/7")
@example("\u0663/\u0664")
def test_parse_rational_accepts_what_the_two_pass_reading_did(text):
    # Reference: the earlier reading, a regex check and then Fraction(str).
    want = F(text.strip()) if _TWO_PASS_RE.match(text.strip()) else None
    try:
        got = parse_rational(text)
    except ParseError:
        got = None
    assert got == want


def test_degenerate_objects_rejected():
    with pytest.raises(ValueError):
        Interval(F(1), F(1))
    with pytest.raises(ValueError):
        Segment(Axis.HORIZONTAL, F(0), F(2), F(2))
    with pytest.raises(ValueError):
        Ray(5, (F(0), F(0)))


def test_contains_interval_closed_endpoint():
    assert contains(Interval(F(0), F(2)), (F(2),))
    assert not contains(Interval(F(0), F(2)), (F(5, 2),))


def test_contains_octant_coordinate_below_apex():
    assert not contains(Octant((F(0), F(0), F(0))), (F(-1), F(5), F(5)))
    assert contains(Octant((F(0), F(0), F(0))), (F(0), F(0), F(0)))


def test_contains_ray_apex_included():
    ray = Ray(1, (F(3), F(1)))
    assert contains(ray, (F(3), F(1)))
    assert contains(ray, (F(10), F(1)))
    assert not contains(ray, (F(2), F(1)))
    assert not contains(ray, (F(4), F(2)))


def test_contains_segment_both_axes():
    h = Segment(Axis.HORIZONTAL, F(1), F(0), F(4))
    v = Segment(Axis.VERTICAL, F(2), F(-1), F(3))
    assert contains(h, (F(2), F(1)))
    assert not contains(h, (F(2), F(2)))
    assert contains(v, (F(2), F(0)))
    assert not contains(v, (F(1), F(0)))


def test_contains_dimension_mismatch():
    with pytest.raises(ClassMismatchError):
        contains(Interval(F(0), F(1)), (F(0), F(0)))


def test_total_weight_examples():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(1)), Interval(F(2), F(3))],
    )
    assert total_weight(inst, {0, 1}) == F(2)
    assert total_weight(inst, set()) == F(0)
    inst2 = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(1)), Interval(F(2), F(3))],
        weights=[F(1, 2), F(1, 3)],
    )
    assert total_weight(inst2, {0, 1}) == F(5, 6)
    with pytest.raises(IndexError):
        total_weight(inst, {5})


def test_total_weight_additive_over_disjoint_subsets():
    rng = random.Random(3)
    ws = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(8)]
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(i), F(i + 1)) for i in range(8)],
        weights=ws,
    )
    a, b = {0, 2, 4}, {1, 5, 7}
    assert total_weight(inst, a | b) == total_weight(inst, a) + total_weight(inst, b)


def test_depth_examples():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(2)), Interval(F(1), F(3))],
    )
    assert depth(inst, (F(3, 2),)) == (2, frozenset({0, 1}))
    assert depth(inst, (F(5),)) == (0, frozenset())


def test_depth_matches_naive_loop():
    rng = random.Random(11)
    objs = [Octant(tuple(F(rng.randint(0, 5)) for _ in range(3))) for _ in range(9)]
    inst = make_instance(ObjectClass.OCTANTS, objs)
    for _ in range(50):
        p = tuple(F(rng.randint(-1, 7)) for _ in range(3))
        n, cov = depth(inst, p)
        naive = {i for i, o in enumerate(objs) if contains(o, p)}
        assert cov == frozenset(naive) and n == len(naive)


def test_octant_membership_monotone():
    rng = random.Random(7)
    for _ in range(200):
        o = Octant(tuple(F(rng.randint(0, 6)) for _ in range(3)))
        p = tuple(F(rng.randint(-2, 8)) for _ in range(3))
        q = tuple(v + F(rng.randint(0, 4)) for v in p)
        if contains(o, p):
            assert contains(o, q)


def test_instance_validation():
    with pytest.raises(ClassMismatchError):
        make_instance(ObjectClass.SEGMENTS, [Interval(F(0), F(1))])
    with pytest.raises(ValueError):
        make_instance(
            ObjectClass.INTERVALS, [Interval(F(0), F(1))], weights=[F(0)]
        )
    with pytest.raises(ClassMismatchError):
        make_instance(
            ObjectClass.INTERVALS, [Interval(F(0), F(1))], points=[(F(0), F(0))]
        )
    with pytest.raises(ValueError):
        Instance(ObjectClass.INTERVALS, (Interval(F(0), F(1)),), (), ())


def test_frame_scales_weights_by_the_lcm_of_their_denominators():
    inst = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(1, 4)), Interval(F(0), F(1)), Interval(F(1), F(2))],
        weights=[F(1, 2), F(1, 3), F(5, 6)],
    )
    assert (inst.frame.unit, inst.frame.weight_unit) == (8, 6)
    assert inst.frame.weights == (3, 2, 5)


def test_frame_unit_past_the_bit_cap_raises():
    # L = 2 * lcm of the coordinate denominators, D = lcm of the weight ones;
    # a unit of exactly MAX_UNIT_BITS bits passes, one bit more raises.
    def frame(coordinate_den, weight_den):
        return make_instance(
            ObjectClass.INTERVALS,
            [Interval(F(0), F(1, coordinate_den))],
            weights=[F(1, weight_den)],
        ).frame

    cap = MAX_UNIT_BITS
    assert frame(2 ** (cap - 2), 1).unit.bit_length() == cap
    assert frame(1, 2 ** (cap - 1)).weight_unit.bit_length() == cap
    for coordinate_den, weight_den in ((2 ** (cap - 1), 1), (1, 2**cap)):
        with pytest.raises(SizeCapError, match=f"^{cap + 1}-bit frame unit"):
            frame(coordinate_den, weight_den)


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring((0,), 2)
    with pytest.raises(ValueError):
        Coloring((3,), 2)
    c = Coloring((1, 2, 1), 2)
    assert c.used_colors() == {1, 2}
