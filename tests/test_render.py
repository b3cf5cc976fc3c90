"""SVG rendering: frozen output bytes and the six-decimal formatter."""

import hashlib
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from geomextract import (
    ObjectClass,
    gen_interval_pair,
    gen_kbox,
    gen_kbox_rays,
    gen_octant4,
    gen_random,
    gen_rayfan,
    make_instance,
    render_svg,
)
from geomextract.cli import color_instance
from geomextract.core import Axis, Coloring, Interval, Octant, Ray, Segment
from geomextract.render import fmt6

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
HALF = 2_000_000  # k / HALF with k odd sits exactly between two printed values


def _objects(cls, rng, n, coord):
    objects = []
    while len(objects) < n:
        if cls is ObjectClass.INTERVALS:
            a, b = coord(), coord()
            if a != b:
                objects.append(Interval(min(a, b), max(a, b)))
        elif cls is ObjectClass.SEGMENTS:
            lo, hi = coord(), coord()
            if lo != hi:
                axis = rng.choice([Axis.HORIZONTAL, Axis.VERTICAL])
                objects.append(Segment(axis, coord(), min(lo, hi), max(lo, hi)))
        elif cls is ObjectClass.RAYS:
            objects.append(Ray(rng.randint(1, 4), (coord(), coord())))
        else:
            objects.append(Octant((coord(), coord(), coord())))
    return objects


def _fractional(cls, rng, n, coord):
    points = [tuple(coord() for _ in range(cls.dimension)) for _ in range(n // 2)]
    return make_instance(cls, _objects(cls, rng, n, coord), points=points)


def _corpus():
    """(instance, coloring or None) pairs covering all four classes."""
    rng = random.Random(1518)
    docs = [gen_interval_pair(), gen_kbox(2), gen_kbox(3), gen_kbox_rays(2),
            gen_rayfan(2), gen_rayfan(3), gen_octant4()]
    for cls in ObjectClass:
        docs += [gen_random(cls, n, seed) for n in (3, 9) for seed in range(3)]
        # Every object on its own prime denominator, negative coordinates.
        primes = iter(PRIMES * 4)
        docs.append(_fractional(
            cls, rng, 24, lambda: F(rng.randint(-400, 400), next(primes))))
        # Exact half-steps of the last printed digit, and values that print
        # as -0.000000, on both sides of zero.
        docs.append(_fractional(
            cls, rng, 12,
            lambda: F(rng.choice([-1, 1]) * rng.choice([1, 3, 2 * rng.randint(0, 9) + 1]),
                      rng.choice([HALF, 3_000_000, 4_000_000]))))
        docs.append(_fractional(
            cls, rng, 10, lambda: F(rng.randint(-9, 9), rng.choice([1, 2, 3]))))
        # Single objects: a lone octant has no pair to fix the plane, and its
        # c_max is a + b + c + 1.
        docs.append(_fractional(cls, rng, 1, lambda: F(rng.randint(-9, 9), 7)))
    for cls in (ObjectClass.INTERVALS, ObjectClass.SEGMENTS, ObjectClass.OCTANTS):
        docs.append(make_instance(cls, []))
        docs.append(make_instance(cls, [], points=[(F(-1, HALF),) * cls.dimension]))

    pairs = []
    for inst in docs:
        pairs.append((inst, None))
        if inst.m:
            pairs.append((inst, Coloring(tuple(rng.randint(1, 4) for _ in range(inst.m)), 4)))
    for inst in (gen_kbox(2), gen_rayfan(2), gen_octant4(), gen_random(ObjectClass.INTERVALS, 9, 0)):
        pairs.append((inst, color_instance(inst)))
    return pairs


def test_render_bytes_are_frozen():
    svgs = [render_svg(inst, col) for inst, col in _corpus()]
    text = "".join(svgs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest[:16] == "40deab94103587c4"
    # The corpus reaches the rounding corner cases the digest guards: exact
    # half-steps of the last digit, and negatives that print as -0.000000.
    assert "-0.000000" in text and "0.000001" in text


def _fmt6_reference(x: F) -> str:
    sign = "-" if x < 0 else ""
    y = -x if x < 0 else x
    q, r = divmod(int((y * 2_000_000 + 1) // 2), 1_000_000)
    return f"{sign}{q}.{r:06d}"


_wide = st.one_of(
    st.integers(-10**30, 10**30),
    st.integers(-10**7, 10**7),
    st.just(0),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_wide, st.one_of(st.integers(1, 10**30), st.sampled_from([1, 2, 3, 1_000_000, HALF, 4_000_000])))
def test_fmt6_matches_fraction_reference(n, d):
    assert fmt6(n, d) == _fmt6_reference(F(n, d))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 5))
def test_fmt6_rounds_exact_halves_away_from_zero(k, scale):
    # 2k + 1 halves of the last digit, written over a non-reduced denominator.
    n, d = (2 * k + 1) * scale, HALF * scale
    assert fmt6(n, d) == _fmt6_reference(F(n, d))
    assert fmt6(-abs(n), d) == "-" + fmt6(abs(n), d)
