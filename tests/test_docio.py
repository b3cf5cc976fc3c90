import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomextract import (
    ObjectClass,
    ParseError,
    gen_kbox,
    gen_octant4,
    gen_random,
    gen_rayfan,
    instance_digest,
    instance_to_json,
    parse_coloring,
    parse_instance,
    serialize_coloring,
)
from geomextract.core import Axis, Coloring, Interval, Octant, Ray, Segment, make_instance


GOOD_DOC = {
    "class": "segments",
    "objects": [
        {"axis": "horizontal", "line": 0, "lo": 1, "hi": "5/2"},
        {"axis": "vertical", "line": 2, "lo": -1, "hi": 1},
    ],
    "weights": [1, "1/2"],
    "points": [[2, 0]],
}


def test_deeply_nested_json_is_a_parse_error():
    deep = "[" * 5000 + "]" * 5000
    with pytest.raises(ParseError):
        parse_instance('{"class": "intervals", "objects": [], "meta": ' + deep + "}")
    with pytest.raises(ParseError):
        parse_coloring(deep)


@pytest.mark.parametrize(
    "weight, point",
    [
        ("1" * 5000, "0"),  # a JSON integer over the 4300-digit limit
        ('"' + "1" * 5000 + '"', "0"),  # a rational string
        ('"1/' + "1" * 5000 + '"', "0"),  # its denominator
        ("1", '"' + "1" * 5000 + '"'),  # a point coordinate string
        ("1", "1" * 5000),  # a point coordinate integer
    ],
    ids=["weight-int", "weight-str", "denominator", "coord-str", "coord-int"],
)
def test_over_long_numbers_are_parse_errors(weight, point):
    with pytest.raises(ParseError):
        parse_instance('{"class": "intervals", "objects": [{"a": 0, "b": 1}], '
                       f'"weights": [{weight}], "points": [[{point}]]}}')


def test_parse_instance_basic():
    inst = parse_instance(json.dumps(GOOD_DOC))
    assert inst.cls is ObjectClass.SEGMENTS
    assert inst.objects[0].hi == F(5, 2)
    assert inst.weights == (F(1), F(1, 2))
    assert inst.points == ((F(2), F(0)),)


def test_weights_default_to_unit():
    doc = {"class": "intervals", "objects": [{"a": 0, "b": 1}]}
    inst = parse_instance(doc)
    assert inst.weights == (F(1),)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(surprise=1),
        lambda d: d["objects"][0].update(color=3),
        lambda d: d["objects"][0].update(a=1.5),
        lambda d: d.update(weights=[1]),
        lambda d: d.update(weights=[0, 1]),
        lambda d: d.update({"class": "disks"}),
        lambda d: d["objects"][0].pop("lo"),
        lambda d: d["objects"].__setitem__(0, {"axis": "diagonal", "line": 0, "lo": 0, "hi": 1}),
    ],
)
def test_parse_instance_rejects_bad_documents(mutate):
    doc = json.loads(json.dumps(GOOD_DOC))
    mutate(doc)
    with pytest.raises(ParseError):
        parse_instance(doc)


def test_parse_rejects_degenerate_interval():
    with pytest.raises(ParseError):
        parse_instance({"class": "intervals", "objects": [{"a": 1, "b": 1}]})


def test_meta_is_accepted_and_round_trips():
    inst = gen_random(ObjectClass.RAYS, 5, seed=9)
    text = instance_to_json(inst)
    again = parse_instance(text)
    assert again.meta == inst.meta
    assert again.meta["seed"] == 9


@pytest.mark.parametrize(
    "make",
    [gen_octant4, lambda: gen_kbox(2), lambda: gen_rayfan(3),
     lambda: gen_random(ObjectClass.INTERVALS, 7, 1)],
)
def test_round_trip_preserves_digest(make):
    inst = make()
    again = parse_instance(instance_to_json(inst))
    assert again.cls is inst.cls
    assert again.objects == inst.objects
    assert again.weights == inst.weights
    assert again.points == inst.points
    assert instance_digest(again) == instance_digest(inst)


# Fractional values, negative and positive, some far from integers.
_value = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))
_weight = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))
_ends = st.tuples(_value, _value).filter(lambda p: p[0] != p[1]).map(sorted)
_OBJECT = {
    ObjectClass.INTERVALS: _ends.map(lambda e: Interval(*e)),
    ObjectClass.SEGMENTS: st.builds(lambda axis, line, e: Segment(axis, line, *e),
                                    st.sampled_from(list(Axis)), _value, _ends),
    ObjectClass.RAYS: st.builds(Ray, st.integers(1, 4), st.tuples(_value, _value)),
    ObjectClass.OCTANTS: st.builds(Octant, st.tuples(_value, _value, _value)),
}


@st.composite
def _instances(draw):
    cls = draw(st.sampled_from(list(ObjectClass)))
    objects = draw(st.lists(_OBJECT[cls], max_size=8))
    weights = draw(st.lists(_weight, min_size=len(objects), max_size=len(objects)))
    points = draw(st.lists(st.tuples(*[_value] * cls.dimension), max_size=5))
    return make_instance(cls, objects, weights, points)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_documents_round_trip_through_the_digest(inst):
    text = instance_to_json(inst)
    again = parse_instance(text)
    assert again.cls is inst.cls
    assert again.objects == inst.objects
    assert again.weights == inst.weights
    assert again.points == inst.points
    assert instance_digest(again) == instance_digest(inst)
    assert instance_to_json(again) == text


def test_digest_ignores_meta_but_not_geometry():
    a = gen_random(ObjectClass.INTERVALS, 6, 5)
    b = parse_instance(
        {k: v for k, v in json.loads(instance_to_json(a)).items() if k != "meta"}
    )
    assert instance_digest(a) == instance_digest(b)
    c = gen_random(ObjectClass.INTERVALS, 6, 6)
    assert instance_digest(a) != instance_digest(c)


def test_coloring_round_trip():
    col = Coloring((1, 2, 4), 4)
    doc = serialize_coloring(col)
    assert parse_coloring(json.dumps(doc)) == col


@pytest.mark.parametrize(
    "doc",
    [
        {"kappa": 2},
        {"colors": [1]},
        {"kappa": 2, "colors": [1], "extra": 1},
        {"kappa": 2, "colors": [3]},
        {"kappa": 2, "colors": [1.0]},
        {"kappa": "2", "colors": [1]},
    ],
)
def test_parse_coloring_rejects_bad_documents(doc):
    with pytest.raises(ParseError):
        parse_coloring(doc)
