"""Output checks that share no code with the program under test.

Documents are read back from their JSON text with this module's own parser,
membership is this module's own per-axis predicate, and properness is
decided by a brute-force sweep over event coordinates. Nothing here imports
geomextract.

Each per-axis membership condition is one of four kinds, and a point's
covering set is the AND of its per-axis masks (one bit per object):

  ("range", lo, hi)  lo <= v <= hi
  ("eq", c)          v == c
  ("ge", c)          v >= c
  ("le", c)          v <= c
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

# Colors a class's colorer may use: rays get one color per orientation
# present, but never fewer than two.
CLASS_BOUND = {"intervals": 2, "segments": 4, "octants": 4}


def frac(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact number: {v!r}")
    return Fraction(v)


@dataclass(frozen=True)
class Doc:
    """An instance document as plain tuples: per object, one condition per axis."""

    cls: str
    conds: tuple  # conds[i][axis] = condition tuple
    weights: tuple
    points: tuple

    @property
    def m(self) -> int:
        return len(self.conds)

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @cached_property
    def axes(self) -> list:
        return [AxisIndex([c[d] for c in self.conds]) for d in range(len(self.conds[0]))]

    @cached_property
    def point_masks(self) -> list:
        """Covering set of each target point, one bit per object."""
        out = []
        per_axis = [axis.masks(p[d] for p in self.points) for d, axis in enumerate(self.axes)]
        for p in self.points:
            m = -1
            for masks, v in zip(per_axis, p):
                m &= masks[v]
            out.append(m)
        return out

    def covers(self, subset) -> bool:
        chosen = sum(1 << i for i in set(subset))
        return all(m & chosen for m in self.point_masks)

    def kappa_bound(self) -> int:
        if self.cls == "rays":
            return max(2, len({(x[0], y[0]) for x, y in self.conds}))
        return CLASS_BOUND[self.cls]


def _object_conds(cls: str, rec: dict) -> tuple:
    if cls == "intervals":
        return (("range", frac(rec["a"]), frac(rec["b"])),)
    if cls == "segments":
        along = ("range", frac(rec["lo"]), frac(rec["hi"]))
        line = ("eq", frac(rec["line"]))
        return (along, line) if rec["axis"] == "horizontal" else (line, along)
    if cls == "rays":
        x, y = (frac(v) for v in rec["apex"])
        return {
            1: (("ge", x), ("eq", y)),
            2: (("le", x), ("eq", y)),
            3: (("eq", x), ("ge", y)),
            4: (("eq", x), ("le", y)),
        }[rec["orientation"]]
    return tuple(("ge", frac(v)) for v in rec["apex"])


def parse_doc(text) -> Doc:
    """A Doc from instance JSON text or an already-loaded mapping."""
    raw = json.loads(text) if isinstance(text, str) else text
    cls = raw["class"]
    conds = tuple(_object_conds(cls, r) for r in raw["objects"])
    weights = tuple(frac(w) for w in raw.get("weights", [1] * len(conds)))
    points = tuple(tuple(frac(v) for v in p) for p in raw.get("points", []))
    return Doc(cls, conds, weights, points)


# ---------------------------------------------------------------------------
# Per-axis masks
# ---------------------------------------------------------------------------

class _Sweep:
    """OR of the bits whose key is <= v (upward) or >= v (downward)."""

    def __init__(self, keyed: list, upward: bool):
        keyed = sorted(keyed)
        self.keys = [k for k, _ in keyed]
        self.upward = upward
        acc, self.acc = 0, []
        for _, bit in (keyed if upward else reversed(keyed)):
            acc |= bit
            self.acc.append(acc)
        if not upward:
            self.acc.reverse()

    def masks(self, values: list) -> list:
        """Masks for ascending values, by one merge over the sorted keys."""
        out, k, n = [], 0, len(self.keys)
        for v in values:
            if self.upward:
                while k < n and self.keys[k] <= v:
                    k += 1
                out.append(self.acc[k - 1] if k else 0)
            else:
                while k < n and self.keys[k] < v:
                    k += 1
                out.append(self.acc[k] if k < n else 0)
        return out


class AxisIndex:
    """Covering masks along one axis for every object's condition on it."""

    def __init__(self, conds: list):
        ge, le, lo, hi = [], [], [], []
        self.eq: dict = {}
        values = set()
        for i, c in enumerate(conds):
            bit = 1 << i
            if c[0] == "range":
                lo.append((c[1], bit))
                hi.append((c[2], bit))
                values.update((c[1], c[2]))
            elif c[0] == "eq":
                self.eq[c[1]] = self.eq.get(c[1], 0) | bit
                values.add(c[1])
            else:
                (ge if c[0] == "ge" else le).append((c[1], bit))
                values.add(c[1])
        self.values = sorted(values)
        self._sweeps = [_Sweep(ge, True), _Sweep(le, False), _Sweep(lo, True), _Sweep(hi, False)]

    def masks(self, values) -> dict:
        """value -> covering mask along this axis, for any iterable of values."""
        vals = sorted(set(values))
        ge, le, lo, hi = (s.masks(vals) for s in self._sweeps)
        return {
            v: ge[k] | le[k] | (lo[k] & hi[k]) | self.eq.get(v, 0)
            for k, v in enumerate(vals)
        }

    def candidates(self) -> list:
        """Every event value, the midpoint of each gap, and one value beyond
        each end, ascending: membership is constant between events."""
        vals = self.values
        out = [vals[0] - 1]
        for a, b in zip(vals, vals[1:]):
            out += [a, (a + b) / 2]
        return out + [vals[-1], vals[-1] + 1]


def cell_masks(doc: Doc) -> dict:
    """Covering set (bitmask) of every arrangement cell -> one witness point.

    Intervals: every event and gap value. Segments and rays: the same along
    each object line, since a covered point lies on the line of an object
    covering it. Octants: the apex grid, since snapping a point down to the
    next apex value on each axis keeps its covering set.
    """
    axes = doc.axes
    out: dict = {}
    if len(axes) == 1:
        for x, m in axes[0].masks(axes[0].candidates()).items():
            out.setdefault(m, (x,))
    elif len(axes) == 2:
        xs, ys = (list(a.masks(a.candidates()).items()) for a in axes)
        for x in sorted(axes[0].eq):
            mx = axes[0].masks([x])[x]
            for y, my in ys:
                out.setdefault(mx & my, (x, y))
        for y in sorted(axes[1].eq):
            my = axes[1].masks([y])[y]
            for x, mx in xs:
                out.setdefault(mx & my, (x, y))
    else:
        cols = [list(a.masks(a.values).items()) for a in axes]
        for x, mx in cols[0]:
            for y, my in cols[1]:
                mxy = mx & my
                if mxy:
                    for z, mz in cols[2]:
                        out.setdefault(mxy & mz, (x, y, z))
    return out


def improper_edge(doc: Doc, colors: list):
    """A covering set of size >= 2 that sees one color, or None."""
    by_color: dict = {}
    for i, c in enumerate(colors):
        by_color[c] = by_color.get(c, 0) | (1 << i)
    for m in cell_masks(doc):
        if m & (m - 1) and any(m & ~cm == 0 for cm in by_color.values()):
            return sorted(i for i in range(doc.m) if m >> i & 1)
    return None


def witnesses(doc: Doc, size: int) -> list:
    """One point per covering set of exactly `size` objects."""
    return [p for m, p in cell_masks(doc).items() if m.bit_count() == size]


# ---------------------------------------------------------------------------
# Command report checks
# ---------------------------------------------------------------------------

def check_coloring(doc: Doc, result: dict, coloring_text: str) -> list:
    errors = []
    kappa, colors = result["kappa"], result["colors"]
    if kappa > doc.kappa_bound():
        errors.append(f"kappa {kappa} above class bound {doc.kappa_bound()}")
    if len(colors) != doc.m or not all(1 <= c <= kappa for c in colors):
        errors.append("coloring not total over 1..kappa")
        return errors
    written = json.loads(coloring_text)
    if written != {"kappa": kappa, "colors": colors}:
        errors.append("coloring file differs from the color report")
    edge = improper_edge(doc, colors)
    if edge is not None:
        errors.append(f"monochromatic covering set {edge}")
    return errors


def check_extract(doc: Doc, colors: list, kappa: int, result: dict) -> list:
    errors = []
    sol, extracted = set(result["sol"]), set(result["extracted"])
    if sol & extracted or sol | extracted != set(range(doc.m)):
        errors.append("sol and extracted do not partition the objects")
    removed = {colors[i] for i in extracted}
    if len(removed) != 1 or any(colors[i] in removed for i in sol):
        errors.append("extracted set is not one whole color class")
    w = sum((doc.weights[i] for i in extracted), Fraction(0))
    if frac(result["extracted_weight"]) != w:
        errors.append("extracted_weight is not the sum of extracted weights")
    if w * kappa < doc.total_weight:
        errors.append("extracted weight times kappa below W")
    if w and frac(result["ratio"]) != doc.total_weight / w:
        errors.append("ratio is not W / extracted_weight")
    if not doc.covers(sol):
        errors.append("residual sol misses a target point")
    return errors


def check_bounds(doc: Doc, result: dict, kappa: int, sol_weight: Fraction) -> list:
    errors = []
    cover = result["min_cover"]
    w = sum((doc.weights[i] for i in cover), Fraction(0))
    if frac(result["min_cover_weight"]) != w:
        errors.append("min_cover_weight is not the sum of its weights")
    if not doc.covers(cover):
        errors.append("min_cover misses a target point")
    if w > sol_weight:
        errors.append("min_cover heavier than the extracted residual cover")
    total = doc.total_weight
    want = "unbounded" if w == total else total / (total - w)
    got = result["extraction_number"]
    if (got == "unbounded") != (want == "unbounded") or (
        want != "unbounded" and frac(got) != want
    ):
        errors.append(f"extraction_number {got} is not W/(W - mincover)")
    elif want != "unbounded" and want > kappa:
        errors.append("extraction number above kappa")
    if result["chromatic"] is not None and not 1 <= result["chromatic"] <= kappa:
        errors.append("chromatic number outside 1..kappa")
    return errors


def check_svg(doc: Doc, svg: str, result: dict) -> list:
    errors = []
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        errors.append("render output is not one SVG element")
    if svg.count('class="obj"') != doc.m or result["objects"] != doc.m:
        errors.append("render does not draw every object once")
    return errors
