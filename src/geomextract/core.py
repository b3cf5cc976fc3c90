"""Exact geometric primitives shared by every other module.

All coordinates and weights are `fractions.Fraction` values; every predicate
is an exact rational comparison, so there is no tolerance anywhere. All
object classes are closed sets (endpoints and apexes included), which makes
touching objects intersect. Membership has one test per object class
(MEMBERSHIP); contains() validates its input, depth() picks the test once,
and covering_mask() gives the int mask of the objects containing a point,
on whichever frame the objects and the point share.

The fast paths read ints: Instance.frame, the instance scaled once by L = 2 *
lcm of the denominators of all object and target-point coordinates and its
weights by D = lcm of theirs, built on first use, refused past MAX_UNIT_BITS
bits. Witnesses leave as Fraction(W, L), weights as Fraction(w, D); depth()
stays on Fractions.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Any, Iterable, Sequence, Union

Point = tuple  # tuple of Fraction, length 1, 2 or 3

MAX_UNIT_BITS = 2**16  # bit length past which Instance.frame refuses a unit


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GeomExtractError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GeomExtractError, ValueError):
    """Malformed instance or coloring document."""


class ClassMismatchError(GeomExtractError, ValueError):
    """Object, point or instance used with the wrong object class."""


class SizeCapError(GeomExtractError, RuntimeError):
    """Instance exceeds the size cap of an exact (exponential) procedure."""


class AlgorithmInvariantError(GeomExtractError, RuntimeError):
    """An invariant the algorithm's correctness argument relies on failed.

    Never swallowed: carrying the witness makes the failure reportable.
    """

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class ImproperColoringError(GeomExtractError, ValueError):
    """A coloring supplied from outside turned out not to be proper."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class NoFourColoringError(GeomExtractError, RuntimeError):
    """Exhaustive search found no proper 4-coloring; carries the objects."""

    def __init__(self, message: str, objects: Any = None):
        super().__init__(message)
        self.objects = objects


class DepthPreconditionError(GeomExtractError, ValueError):
    """A target point is not covered at least twice."""

    def __init__(self, message: str, point: Any = None):
        super().__init__(message)
        self.point = point


class UncoverablePointError(GeomExtractError, ValueError):
    """A target point is covered by no object at all."""

    def __init__(self, message: str, point: Any = None):
        super().__init__(message)
        self.point = point


class UnboundedExtractionError(GeomExtractError, RuntimeError):
    """The minimum cover takes all weight, so no extraction factor exists."""


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string.

    Floats are rejected: accepting them would silently break the exactness
    contract.
    """
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if not match:
            raise ParseError(f"not a rational: {value!r}")
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except ValueError as exc:  # over the int conversion digit limit
            raise ParseError(f"not a rational: {exc}") from None
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ParseError(f"not a rational: {value!r}")


def rational_repr(value: Fraction) -> Union[int, str]:
    """Canonical document form: plain int when integral, else "p/q"; a
    number past the int-to-str digit limit has none, and is a SizeCapError."""
    try:
        text = str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SizeCapError(f"number over the {limit}-digit string limit") from None
    return value.numerator if value.denominator == 1 else text


# ---------------------------------------------------------------------------
# Object classes
# ---------------------------------------------------------------------------

class ObjectClass(Enum):
    INTERVALS = "intervals"
    SEGMENTS = "segments"
    RAYS = "rays"
    OCTANTS = "octants"

    @property
    def dimension(self) -> int:
        return {"intervals": 1, "segments": 2, "rays": 2, "octants": 3}[self.value]


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] on the line, a < b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"degenerate interval: [{self.a}, {self.b}]")


@dataclass(frozen=True)
class Segment:
    """Closed axis-parallel segment.

    `line` is the shared y for horizontal segments and the shared x for
    vertical ones; [lo, hi] is the extent along the other axis, lo < hi.
    """

    axis: Axis
    line: Fraction
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate segment: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Ray:
    """Closed axis-parallel ray.

    Orientation 1: along +x, 2: along -x, 3: along +y, 4: along -y,
    always starting at (and including) the apex.
    """

    orientation: int
    apex: tuple

    def __post_init__(self):
        if self.orientation not in (1, 2, 3, 4):
            raise ValueError(f"bad ray orientation: {self.orientation}")
        if len(self.apex) != 2:
            raise ValueError("ray apex must be a 2D point")


@dataclass(frozen=True)
class Octant:
    """The closed region {x >= a, y >= b, z >= c} toward (+inf,+inf,+inf)."""

    apex: tuple

    def __post_init__(self):
        if len(self.apex) != 3:
            raise ValueError("octant apex must be a 3D point")


@dataclass(frozen=True)
class PlaneTriangle:
    """Projection of an octant: {u >= a, v >= b, u + v <= s} in the plane.

    Using (u, v) = (x, y) with z eliminated keeps all coordinates rational;
    the triangles are homothets with identical orientation. Nonempty when
    a + b <= s (a single point when equal).
    """

    a: Fraction
    b: Fraction
    s: Fraction

    def __post_init__(self):
        if self.a + self.b > self.s:
            raise ValueError("empty plane triangle")


GeomObject = Union[Interval, Segment, Ray, Octant]

_CLASS_OF_TYPE = {
    Interval: ObjectClass.INTERVALS,
    Segment: ObjectClass.SEGMENTS,
    Ray: ObjectClass.RAYS,
    Octant: ObjectClass.OCTANTS,
}


def class_of(obj: GeomObject) -> ObjectClass:
    try:
        return _CLASS_OF_TYPE[type(obj)]
    except KeyError:
        raise ClassMismatchError(f"not a geometric object: {obj!r}") from None


# ---------------------------------------------------------------------------
# Membership and the box model
# ---------------------------------------------------------------------------

def _in_interval(obj: Interval, p: Point) -> bool:
    return obj.a <= p[0] <= obj.b


def _in_segment(obj: Segment, p: Point) -> bool:
    x, y = p
    if obj.axis is Axis.HORIZONTAL:
        return y == obj.line and obj.lo <= x <= obj.hi
    return x == obj.line and obj.lo <= y <= obj.hi


def _in_ray(obj: Ray, p: Point) -> bool:
    (x, y), (ax, ay), o = p, obj.apex, obj.orientation
    if o <= 2:  # horizontal: 1 along +x, 2 along -x
        return y == ay and (x >= ax if o == 1 else x <= ax)
    return x == ax and (y >= ay if o == 3 else y <= ay)


def _in_octant(obj: Octant, p: Point) -> bool:
    a, b, c = obj.apex
    return p[0] >= a and p[1] >= b and p[2] >= c


# Unchecked: the object must be of the class, the point of its dimension.
MEMBERSHIP = {
    ObjectClass.INTERVALS: _in_interval,
    ObjectClass.SEGMENTS: _in_segment,
    ObjectClass.RAYS: _in_ray,
    ObjectClass.OCTANTS: _in_octant,
}


def covering_mask(cls: ObjectClass, objects: Sequence, p: Point) -> int:
    """Mask of the objects containing p, bit i for objects[i], by the class's
    MEMBERSHIP test. Unchecked like MEMBERSHIP: objects and p must be of cls
    and on one frame, the instance's Fractions or Instance.frame's ints."""
    inside, mask = MEMBERSHIP[cls], 0
    for i, obj in enumerate(objects):
        if inside(obj, p):
            mask |= 1 << i
    return mask


def contains(obj: GeomObject, p: Point) -> bool:
    """Exact closed-set membership of point p in obj."""
    cls = class_of(obj)
    if len(p) != cls.dimension:
        raise ClassMismatchError(
            f"{cls.value} expect {cls.dimension}D points, got {len(p)}D"
        )
    return MEMBERSHIP[cls](obj, p)


def triangle_contains(t: PlaneTriangle, u: Fraction, v: Fraction) -> bool:
    return u >= t.a and v >= t.b and u + v <= t.s


def _box(obj: GeomObject) -> tuple:
    """Per-axis closed extents (lo, hi) of obj; None marks an open end."""
    if isinstance(obj, Interval):
        return ((obj.a, obj.b),)
    if isinstance(obj, Segment):
        run, line = (obj.lo, obj.hi), (obj.line, obj.line)
        return (run, line) if obj.axis is Axis.HORIZONTAL else (line, run)
    if isinstance(obj, Ray):  # orientation 1: +x, 2: -x, 3: +y, 4: -y
        (ax, ay), o = obj.apex, obj.orientation
        if o <= 2:
            return ((ax, None) if o == 1 else (None, ax)), (ay, ay)
        return (ax, ax), ((ay, None) if o == 3 else (None, ay))
    return tuple((v, None) for v in obj.apex)


def _scale(unit: int, v):
    """The integer v * unit (v a multiple of 1/unit); None stays None."""
    if v is None:
        return None
    n, d = v.as_integer_ratio()
    return n * (unit // d)


def _scaled(obj: GeomObject, s) -> GeomObject:
    """obj with every coordinate v replaced by the integer s(v)."""
    if isinstance(obj, Interval):
        return Interval(s(obj.a), s(obj.b))
    if isinstance(obj, Segment):
        return Segment(obj.axis, s(obj.line), s(obj.lo), s(obj.hi))
    if isinstance(obj, Ray):
        return Ray(obj.orientation, tuple(map(s, obj.apex)))
    return Octant(tuple(map(s, obj.apex)))


@dataclass(frozen=True)
class Frame:
    """Instance.frame: coordinate v is v * unit, weight w is w * weight_unit.
    Each part is built on first use: extents[d][i], object i's (lo, hi) on
    axis d (None if open), the target points, the objects, and the weights."""

    unit: int
    weight_unit: int
    source: tuple = field(repr=False)  # (extents, objects, points, weights), unscaled

    @cached_property
    def extents(self) -> tuple:
        s = partial(_scale, self.unit)
        return tuple(tuple((s(a), s(b)) for a, b in axis) for axis in self.source[0])

    @cached_property
    def points(self) -> tuple:
        return tuple(tuple(map(partial(_scale, self.unit), p)) for p in self.source[2])

    @cached_property
    def objects(self) -> tuple:
        return tuple(_scaled(o, partial(_scale, self.unit)) for o in self.source[1])

    @cached_property
    def weights(self) -> tuple:
        return tuple(map(partial(_scale, self.weight_unit), self.source[3]))


# ---------------------------------------------------------------------------
# Instances and colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A list of same-class objects, positive weights, and target points T."""

    cls: ObjectClass
    objects: tuple
    weights: tuple
    points: tuple
    meta: Any = field(default=None, compare=False)

    def __post_init__(self):
        for obj in self.objects:
            if class_of(obj) is not self.cls:
                raise ClassMismatchError(
                    f"object {obj!r} does not belong to class {self.cls.value}"
                )
        if len(self.weights) != len(self.objects):
            raise ValueError("weights must align with objects")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise ValueError(f"weights must be rationals, got {w!r}")
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
        dim = self.cls.dimension
        for p in self.points:
            if len(p) != dim:
                raise ClassMismatchError(
                    f"point {p!r} has wrong dimension for {self.cls.value}"
                )

    @property
    def m(self) -> int:
        return len(self.objects)

    @cached_property
    def frame(self) -> Frame:
        """This instance on integers, computed on first use and then kept. L
        and D grow one distinct denominator at a time, to stop at the cap."""
        boxes = [_box(o) for o in self.objects]
        units = []
        for denominators in (
            {2 * v.denominator for b in boxes for ext in b for v in ext if v is not None}
            | {2 * v.denominator for p in self.points for v in p} | {2},
            {w.denominator for w in self.weights},
        ):
            unit = 1
            for d in denominators:
                unit = math.lcm(unit, d)
                if unit.bit_length() > MAX_UNIT_BITS:
                    raise SizeCapError(f"{unit.bit_length()}-bit frame unit over the cap")
            units.append(unit)
        axes = tuple(tuple(b[d] for b in boxes) for d in range(self.cls.dimension))
        return Frame(*units, (axes, self.objects, self.points, self.weights))

    def indices(self) -> range:
        return range(len(self.objects))


def make_instance(
    cls: ObjectClass,
    objects: Sequence[GeomObject],
    weights: Sequence[Fraction] | None = None,
    points: Sequence[Point] = (),
    meta: Any = None,
) -> Instance:
    """Build an Instance; weights default to 1 per object."""
    objs = tuple(objects)
    if weights is None:
        ws = tuple(Fraction(1) for _ in objs)
    else:
        ws = tuple(weights)
    return Instance(cls, objs, ws, tuple(tuple(p) for p in points), meta)


@dataclass(frozen=True)
class Coloring:
    """Total color assignment, colors[i] in {1..kappa}."""

    colors: tuple
    kappa: int

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be positive")
        for c in self.colors:
            if not 1 <= c <= self.kappa:
                raise ValueError(f"color {c} outside 1..{self.kappa}")

    def used_colors(self) -> set:
        return set(self.colors)


# ---------------------------------------------------------------------------
# Depth and weight
# ---------------------------------------------------------------------------

def depth(instance: Instance, p: Point) -> tuple:
    """Return (|o(p)|, o(p)): how many and which objects contain p.

    The Instance validated its objects' class; only p's dimension is checked.
    """
    if len(p) != instance.cls.dimension:
        raise ClassMismatchError(
            f"point {p!r} has wrong dimension for {instance.cls.value}"
        )
    inside = MEMBERSHIP[instance.cls]
    covering = frozenset(
        [i for i, obj in enumerate(instance.objects) if inside(obj, p)]
    )
    return len(covering), covering


def total_weight(instance: Instance, subset: Iterable[int]) -> Fraction:
    """Exact sum of weights over subset; empty subset sums to 0."""
    total = Fraction(0)
    for i in subset:
        if not 0 <= i < len(instance.objects):
            raise IndexError(f"unknown object index {i}")
        total += instance.weights[i]
    return total
