"""Seeded document families for the three workloads.

Every workload is a list of Cases. A Case is one instance document plus the
CLI steps it goes through; one round of a workload runs every Case once, so
a round is the same fixed work for a given seed. Geometry comes from
`random.Random(f"{workload}/{seed}")`; the sizes are fixed per workload so
that runs with different seeds do comparable work. Octant antichains keep
one fixed shape per size (axis orders and weights) and the seed only
jitters their coordinates, because the exact cover search and the
enumeration vary from one shape to the next (several-fold for the cover
search on random antichains).

Families built here (octant antichains, interval staircases, wide rays and
octants) are benchmark code; only mixed-cli also draws documents from the
package's own generators, as a user of `geomextract gen` would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import checks

# step -> (command whose latency it counts toward, documented exit code)
STEPS = {
    "color": ("color", 0),
    "verify-coloring": ("verify", 0),
    "extract": ("extract", 0),
    "verify-cover": ("verify", 0),
    "bounds": ("bounds", 0),
    "bounds-over-cap": ("bounds", 3),
    "render": ("render", 0),
    "color-over-cap": ("color", 3),
    "extract-improper": ("extract", 4),
    "extract-depth1": ("extract", 5),
}
FULL_CYCLE = ("color", "verify-coloring", "extract", "bounds", "render")
# Where a document takes seconds to color, the commands that take a small
# fraction of that run three times each, so their medians rest on enough
# samples.
OCTANT_CYCLE = ("color", "verify-coloring") + ("extract",) * 3 + ("bounds",) * 3 + ("render",) * 3
# Staircases are over the 40-object cover cap, so `bounds` is refused with
# exit 3 after parsing; that refusal is the bounds latency a user sees there.
STAIRCASE_CYCLE = ("color", "extract", "verify-cover") + ("bounds-over-cap",) * 3 + ("render",) * 3

SIZES = {
    # The documents of a heavy workload share one size, small enough that a
    # run takes each of them through its cycle several times: a command's
    # median is then a median of many like samples spread over the whole
    # run, which a slow phase of the machine moves far less than it moves a
    # median of a few multi-second samples of documents of different sizes.
    # The octant documents are copies of one shape, so that a command's
    # median is not a median of a few samples from each of several shapes
    # of different cost, which lands between two of them.
    "full": {
        "octant-antichain": [20] * 5,
        "staircase-intervals": [400, 400, 400],
        "staircase-lines": [(2, 2, 100)],  # (horizontal, vertical, per line)
        # Random rays stop at 30: at 40 their exact cover search is heavy-tailed
        # (one seed in a few needs ten times the time and memory), which made
        # peak memory and throughput depend on the seed rather than the code.
        # Six documents per size: the total work of a mixed-cli round, and
        # with it instances_per_ref_s, varies from seed to seed with the
        # drawn geometry, and more documents average that out.
        "random": [6, 12, 20, 30, 40] * 6,
        "random-rays": [6, 12, 20, 30] * 6,
        "wide-rays": [16, 24, 32] * 6,
        "wide-octants": [12, 16, 20] * 6,
        "rayfan": [2, 3, 4, 5],
        "kbox": [2, 3],
    },
    "tiny": {
        "octant-antichain": [6, 8],
        "staircase-intervals": [45],
        "staircase-lines": [(1, 1, 24)],
        "random": [6],
        "random-rays": [6],
        "wide-rays": [8],
        "wide-octants": [6],
        "rayfan": [2],
        "kbox": [2],
    },
}


@dataclass
class Case:
    name: str
    text: str  # instance document
    steps: tuple
    refs: dict = field(default_factory=dict)  # closed-form values bounds must report
    coloring: Optional[str] = None  # supplied coloring document, if any
    error_case: bool = False  # expected nonzero exit; kept out of latencies

    def __post_init__(self):
        self.doc = checks.parse_doc(self.text)


def _num(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _document(cls: str, objects: list, weights: list, points: list = ()) -> dict:
    return {
        "class": cls,
        "objects": objects,
        "weights": [_num(w) for w in weights],
        "points": [[_num(v) for v in p] for p in points],
    }


def _weights(rng: random.Random, n: int) -> list:
    return [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)]


def _with_targets(raw: dict) -> str:
    """Document text with one witness per depth-2 cell as its target points."""
    raw["points"] = [[_num(v) for v in p] for p in checks.witnesses(checks.parse_doc(raw), 2)]
    return json.dumps(raw, sort_keys=True)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def antichain(rng: random.Random, n: int, plane: int = 10**6) -> dict:
    """n octants with apexes on x+y+z = plane, distinct on every axis.

    Apexes on one such plane are pairwise incomparable, so nothing is
    dominated, and distinct coordinates keep every cell of the arrangement
    separate: the regime where octant coloring does its enumeration work.
    """
    while True:
        a = [rng.randint(0, plane // 2) for _ in range(n)]
        b = [rng.randint(0, plane // 2) for _ in range(n)]
        c = [plane - x - y for x, y in zip(a, b)]
        if all(len(set(axis)) == n for axis in (a, b, c)):
            break
    objects = [{"apex": list(apex)} for apex in zip(a, b, c)]
    return _document("octants", objects, _weights(rng, n))


def antichain_shape(n: int, j: int) -> tuple:
    """Fixed x and y ranks (with distinct sums) and weights of antichain j.

    The ranks fix the order of the apexes on every axis, and with it the
    whole arrangement hypergraph, so the exact solvers and the enumeration
    do the same work for every seed.
    """
    rng = random.Random(f"octant-antichain/shape/{n}/{j}")
    while True:
        xs, ys = rng.sample(range(4 * n), n), rng.sample(range(4 * n), n)
        if len({x + y for x, y in zip(xs, ys)}) == n:
            return xs, ys, _weights(rng, n)


def jittered_antichain(rng: random.Random, shape: tuple, plane: int = 10**6) -> dict:
    """The antichain of `shape` on x+y+z = plane, each apex moved by a
    seeded jitter smaller than a quarter of the rank step, which keeps
    every axis order."""
    xs, ys, weights = shape
    step = plane // (8 * len(xs))
    a = [x * step + rng.randrange(step // 4) for x in xs]
    b = [y * step + rng.randrange(step // 4) for y in ys]
    objects = [{"apex": [x, y, plane - x - y]} for x, y in zip(a, b)]
    return _document("octants", objects, weights)


def staircase(rng: random.Random, n: int, offset: int = 0) -> list:
    """(lo, hi) pairs where each interval overlaps exactly the next two.

    Starts step by 10 with jitter 0..2, so start i+2 is at most 10i+22 and
    start i+3 at least 10i+30; ends fall in between, half of them on a
    half-integer.
    """
    starts = [offset + 10 * i + rng.randint(0, 2) for i in range(n + 3)]
    out = []
    for i in range(n):
        hi = Fraction(rng.randint(starts[i + 2] + 1, starts[i + 3] - 1))
        if rng.random() < 0.5:
            hi -= Fraction(1, 2)
        out.append((Fraction(starts[i]), hi))
    return out


def staircase_intervals(rng: random.Random, n: int) -> str:
    objects = [{"a": _num(lo), "b": _num(hi)} for lo, hi in staircase(rng, n)]
    return _with_targets(_document("intervals", objects, _weights(rng, n)))


def staircase_lines(rng: random.Random, horizontal: int, vertical: int, per_line: int) -> str:
    """A staircase on each of a few lines. Horizontal lines run over x >= 0
    and vertical ones over y >= 10**5 on x < 0, so no two lines cross."""
    objects = []
    for k in range(horizontal + vertical):
        axis = "horizontal" if k < horizontal else "vertical"
        line = 7 * k if k < horizontal else -1000 * (k - horizontal + 1)
        offset = 0 if k < horizontal else 10**5
        for lo, hi in staircase(rng, per_line, offset):
            objects.append({"axis": axis, "line": line, "lo": _num(lo), "hi": _num(hi)})
    return _with_targets(_document("segments", objects, _weights(rng, len(objects))))


def wide_rays(rng: random.Random, n: int) -> str:
    objects = [
        {"orientation": rng.randint(1, 4), "apex": [rng.randint(0, 100), rng.randint(0, 100)]}
        for _ in range(n)
    ]
    return _with_targets(_document("rays", objects, _weights(rng, n)))


def wide_octants(rng: random.Random, n: int) -> str:
    objects = [{"apex": [rng.randint(0, 1000) for _ in range(3)]} for _ in range(n)]
    return _with_targets(_document("octants", objects, _weights(rng, n)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def octant_antichain_cases(seed: int, scale: str, gx) -> list:
    rng = random.Random(f"octant-antichain/{seed}")
    return [
        Case(f"antichain-{j}-{n}",
             _with_targets(jittered_antichain(rng, antichain_shape(n, 0))), OCTANT_CYCLE)
        for j, n in enumerate(SIZES[scale]["octant-antichain"])
    ]


def interval_staircase_cases(seed: int, scale: str, gx) -> list:
    rng = random.Random(f"interval-staircase/{seed}")
    sizes = SIZES[scale]
    cases = [
        Case(f"staircase-{j}-{n}", staircase_intervals(rng, n), STAIRCASE_CYCLE)
        for j, n in enumerate(sizes["staircase-intervals"])
    ]
    cases += [
        Case(f"lines-{h}h{v}v-{k}", staircase_lines(rng, h, v, k), STAIRCASE_CYCLE)
        for h, v, k in sizes["staircase-lines"]
    ]
    return cases


def mixed_cli_cases(seed: int, scale: str, gx) -> list:
    """Many small documents, some drawn from the package's own generators."""
    rng = random.Random(f"mixed-cli/{seed}")
    sizes = SIZES[scale]
    to_json = gx.docio.instance_to_json
    cases = []
    for cls in gx.ObjectClass:
        for j, n in enumerate(sizes["random-rays" if cls.value == "rays" else "random"]):
            inst = gx.gen_random(cls, n, rng.randrange(2**31))
            cases.append(Case(f"random-{cls.value}-{j}-{n}", to_json(inst), FULL_CYCLE))
    for j, n in enumerate(sizes["wide-rays"]):
        cases.append(Case(f"wide-rays-{j}-{n}", wide_rays(rng, n), FULL_CYCLE))
    for j, n in enumerate(sizes["wide-octants"]):
        cases.append(Case(f"wide-octants-{j}-{n}", wide_octants(rng, n), FULL_CYCLE))

    # Tightness families with their closed-form values.
    F = Fraction
    tight = [("interval-pair", gx.gen_interval_pair(), {"extraction_number": F(2)}),
             ("octant4", gx.gen_octant4(),
              {"min_cover_weight": F(3), "extraction_number": F(4)}),
             ("kbox-rays-2", gx.gen_kbox_rays(2), {})]
    kbox_alpha = {2: F(2), 3: F(12, 5)}
    tight += [(f"kbox-{k}", gx.gen_kbox(k), {"extraction_number": kbox_alpha[k]})
              for k in sizes["kbox"]]
    tight += [(f"rayfan-{k}", gx.gen_rayfan(k),
               {"min_cover_weight": F(2 * k - 1), "extraction_number": F(3 * k, k + 1)})
              for k in sizes["rayfan"]]
    cases += [Case(name, to_json(inst), FULL_CYCLE, refs) for name, inst, refs in tight]

    # Documents whose correct outcome is a documented nonzero exit.
    over_cap = json.dumps(antichain(rng, 41))
    pair = json.dumps(_document("intervals", [{"a": 0, "b": 2}, {"a": 1, "b": 3}],
                                [F(1), F(1)], [(F(3, 2),)]))
    shallow = json.dumps(_document("intervals", [{"a": 0, "b": 2}, {"a": 1, "b": 3}],
                                   [F(1), F(1)], [(F(1, 2),)]))
    cases += [
        Case("over-cap", over_cap, ("color-over-cap",), error_case=True),
        Case("improper-coloring", pair, ("extract-improper",),
             coloring=json.dumps({"kappa": 2, "colors": [1, 1]}), error_case=True),
        Case("depth-1-target", shallow, ("extract-depth1",), error_case=True),
    ]
    return cases


# name -> builder(seed, scale, gx), where gx is the freshly imported package
WORKLOADS = {
    "octant-antichain": octant_antichain_cases,
    "interval-staircase": interval_staircase_cases,
    "mixed-cli": mixed_cli_cases,
}
