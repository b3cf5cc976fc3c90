"""Instance and coloring documents: JSON text in, exact objects out.

All numbers in documents are integers or "p/q" strings; floats are rejected
so nothing inexact can enter. Unknown fields are rejected rather than
ignored, except the optional free-form "meta" block (generator provenance
such as the RNG seed lives there).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .core import (
    Axis,
    Coloring,
    Instance,
    Interval,
    ObjectClass,
    Octant,
    ParseError,
    Ray,
    Segment,
    make_instance,
    parse_rational,
    rational_repr,
)

_INSTANCE_FIELDS = {"class", "objects", "weights", "points", "meta"}
_OBJECT_FIELDS = {
    ObjectClass.INTERVALS: {"a", "b"},
    ObjectClass.SEGMENTS: {"axis", "line", "lo", "hi"},
    ObjectClass.RAYS: {"orientation", "apex"},
    ObjectClass.OCTANTS: {"apex"},
}


def _check_fields(record: dict, allowed: set, what: str) -> None:
    unknown = set(record) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) in {what}: {sorted(unknown)}")


def _parse_point(raw: Any, dim: int) -> tuple:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"point must be an array of {dim} coordinates: {raw!r}")
    return tuple(parse_rational(v) for v in raw)


def _parse_object(raw: Any, cls: ObjectClass):
    if not isinstance(raw, dict):
        raise ParseError(f"object record must be a mapping: {raw!r}")
    _check_fields(raw, _OBJECT_FIELDS[cls], f"{cls.value} record")
    missing = _OBJECT_FIELDS[cls] - set(raw)
    if missing:
        raise ParseError(f"missing field(s) in {cls.value} record: {sorted(missing)}")
    try:
        if cls is ObjectClass.INTERVALS:
            return Interval(parse_rational(raw["a"]), parse_rational(raw["b"]))
        if cls is ObjectClass.SEGMENTS:
            try:
                axis = Axis(raw["axis"])
            except ValueError:
                raise ParseError(f"bad axis: {raw['axis']!r}") from None
            return Segment(
                axis,
                parse_rational(raw["line"]),
                parse_rational(raw["lo"]),
                parse_rational(raw["hi"]),
            )
        if cls is ObjectClass.RAYS:
            orientation = raw["orientation"]
            if not isinstance(orientation, int) or isinstance(orientation, bool):
                raise ParseError(f"bad ray orientation: {orientation!r}")
            return Ray(orientation, _parse_point(raw["apex"], 2))
        return Octant(_parse_point(raw["apex"], 3))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _load(doc: Any) -> Any:
    """Decode JSON text; an already-loaded document passes through."""
    if not isinstance(doc, (str, bytes)):
        return doc
    try:
        return json.loads(doc)
    except ValueError as exc:  # bad JSON, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def parse_instance(doc: Any) -> Instance:
    """Parse an instance document (JSON text or an already-loaded mapping)."""
    doc = _load(doc)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    _check_fields(doc, _INSTANCE_FIELDS, "instance document")
    if "class" not in doc or "objects" not in doc:
        raise ParseError('instance document needs "class" and "objects"')
    try:
        cls = ObjectClass(doc["class"])
    except ValueError:
        raise ParseError(f"unknown object class: {doc['class']!r}") from None
    raw_objects = doc["objects"]
    if not isinstance(raw_objects, list):
        raise ParseError('"objects" must be an array')
    objects = [_parse_object(r, cls) for r in raw_objects]

    raw_weights = doc.get("weights")
    if raw_weights is None:
        weights = None
    else:
        if not isinstance(raw_weights, list) or len(raw_weights) != len(objects):
            raise ParseError('"weights" must align with "objects"')
        weights = [parse_rational(w) for w in raw_weights]

    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        raise ParseError('"points" must be an array')
    dim = cls.dimension
    points = [_parse_point(p, dim) for p in raw_points]

    try:
        return make_instance(cls, objects, weights, points, meta=doc.get("meta"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _object_record(obj) -> dict:
    if isinstance(obj, Interval):
        return {"a": rational_repr(obj.a), "b": rational_repr(obj.b)}
    if isinstance(obj, Segment):
        return {
            "axis": obj.axis.value,
            "line": rational_repr(obj.line),
            "lo": rational_repr(obj.lo),
            "hi": rational_repr(obj.hi),
        }
    if isinstance(obj, Ray):
        return {
            "orientation": obj.orientation,
            "apex": [rational_repr(v) for v in obj.apex],
        }
    return {"apex": [rational_repr(v) for v in obj.apex]}


def serialize_instance(instance: Instance, with_meta: bool = True) -> dict:
    """Canonical document form of an instance."""
    doc = {
        "class": instance.cls.value,
        "objects": [_object_record(o) for o in instance.objects],
        "weights": [rational_repr(w) for w in instance.weights],
        "points": [[rational_repr(v) for v in p] for p in instance.points],
    }
    if with_meta and instance.meta is not None:
        doc["meta"] = instance.meta
    return doc


def instance_to_json(instance: Instance) -> str:
    return json.dumps(serialize_instance(instance), indent=2, sort_keys=True) + "\n"


def instance_digest(instance: Instance) -> str:
    """Stable hash of the canonicalized geometry (meta excluded)."""
    canonical = json.dumps(
        serialize_instance(instance, with_meta=False),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Coloring documents
# ---------------------------------------------------------------------------

def parse_coloring(doc: Any) -> Coloring:
    doc = _load(doc)
    if not isinstance(doc, dict):
        raise ParseError("coloring document must be a JSON object")
    _check_fields(doc, {"kappa", "colors"}, "coloring document")
    if "kappa" not in doc or "colors" not in doc:
        raise ParseError('coloring document needs "kappa" and "colors"')
    kappa = doc["kappa"]
    colors = doc["colors"]
    if not isinstance(kappa, int) or isinstance(kappa, bool):
        raise ParseError(f'bad "kappa": {kappa!r}')
    if not isinstance(colors, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in colors
    ):
        raise ParseError('"colors" must be an array of integers')
    try:
        return Coloring(tuple(colors), kappa)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_coloring(coloring: Coloring) -> dict:
    return {"kappa": coloring.kappa, "colors": list(coloring.colors)}


def coloring_to_json(coloring: Coloring) -> str:
    return json.dumps(serialize_coloring(coloring), indent=2, sort_keys=True) + "\n"
