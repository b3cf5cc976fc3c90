"""One frozen digest over what the CLI reports for a fixed corpus.

Every document below is built here, from the generators and from explicit
coordinates, and sent through color, verify (--coloring with the colorer's
output and with one color for everything, and --cover), extract, bounds and
render. The digest takes each command's exit code, its report without
timings_ms, the first line of its stderr and each --out payload. A change
that moves any color, witness, cover, bound or SVG byte changes it.
"""

import hashlib
import json
from fractions import Fraction as F

from geomextract import (
    Axis,
    Interval,
    ObjectClass,
    Octant,
    Ray,
    Segment,
    depth,
    gen_interval_pair,
    gen_kbox,
    gen_kbox_rays,
    gen_octant4,
    gen_random,
    gen_rayfan,
    make_instance,
)
from geomextract.cli import main
from geomextract.docio import instance_to_json

_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_OFF = (F(1, 7), F(2, 11), F(3, 13))  # denominators no object below uses


def _deep(objects, cls, candidates):
    """The candidate points of depth >= 2, without repeats, in order."""
    probe = make_instance(cls, objects)
    seen = []
    for p in candidates:
        if p not in seen and depth(probe, p)[0] >= 2:
            seen.append(p)
    return seen


def _on(obj, t):
    """A point of obj at parameter t in (0, 1), one per class."""
    if isinstance(obj, Interval):
        return (obj.a + (obj.b - obj.a) * t,)
    if isinstance(obj, Segment):
        run = obj.lo + (obj.hi - obj.lo) * t
        return (run, obj.line) if obj.axis is Axis.HORIZONTAL else (obj.line, run)
    if isinstance(obj, Ray):
        (x, y), o = obj.apex, obj.orientation
        step = t if o in (1, 3) else -t
        return (x + step, y) if o <= 2 else (x, y + step)
    return tuple(v + d for v, d in zip(obj.apex, _OFF))


def _prime_objects(cls, n):
    """n objects, object i on denominator _PRIMES[i], ends colliding often."""
    objects = []
    for i, p in enumerate(_PRIMES[:n]):
        a, b = F(i % 4 * p + 1, p), F((i % 4 + 3) * p + i, p)
        if cls is ObjectClass.INTERVALS:
            objects.append(Interval(a, b))
        elif cls is ObjectClass.SEGMENTS:
            axis = Axis.HORIZONTAL if i % 2 else Axis.VERTICAL
            objects.append(Segment(axis, F(i % 3), a, b))
        elif cls is ObjectClass.RAYS:
            objects.append(Ray(1 + i % 4, (F(i % 3), a if i % 2 else F(i % 3))))
        else:
            objects.append(Octant((a, F(4 - i % 4), b - 2)))
    return objects


def _corpus():
    docs = {
        "interval-pair": gen_interval_pair(),
        "kbox-2": gen_kbox(2),
        "kbox-3": gen_kbox(3),
        "kbox-rays-2": gen_kbox_rays(2),
        "octant4": gen_octant4(),
    }
    for k in range(2, 6):
        docs[f"rayfan-{k}"] = gen_rayfan(k)
    for cls in ObjectClass:
        for n, seed in ((1, 0), (5, 1), (9, 2), (14, 3)):
            docs[f"random-{cls.value}-{n}"] = gen_random(cls, n, seed)
        # Wide documents on distinct prime denominators, targets at events.
        objects = _prime_objects(cls, 10)
        events = [_on(o, t) for o in objects for t in (F(0), F(1))]
        docs[f"primes-{cls.value}"] = make_instance(
            cls, objects, [F(i + 2, i + 1) for i in range(10)],
            _deep(objects, cls, events),
        )
        # Targets on denominators 7, 11 and 13, which no object uses.
        base = gen_random(cls, 10, 40 + cls.dimension)
        inner = [_on(o, t) for o in base.objects for t in _OFF]
        docs[f"offgrid-{cls.value}"] = make_instance(
            cls, base.objects, base.weights, _deep(base.objects, cls, inner)
        )
        docs[f"empty-{cls.value}"] = make_instance(cls, [])
    # Exit 5: a target of depth 1.
    docs["depth-one"] = make_instance(
        ObjectClass.INTERVALS,
        [Interval(F(0), F(2)), Interval(F(1), F(3))],
        points=[(F(1, 2),)],
    )
    # Exit 3 on color and bounds: over the default caps.
    docs["over-cap"] = gen_random(ObjectClass.OCTANTS, 41, 5)
    texts = {name: instance_to_json(inst) for name, inst in docs.items()}
    # Exit 2: a float coordinate and a non-positive weight.
    texts["float-coordinate"] = '{"class": "intervals", "objects": [{"a": 0.5, "b": 1}]}'
    texts["negative-weight"] = (
        '{"class": "intervals", "objects": [{"a": 0, "b": 1}], "weights": ["-1/2"]}'
    )
    return texts


def _run(capsys, h, *argv, out=None):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = None
    if captured.out.strip():
        report = json.loads(captured.out)
        report.pop("timings_ms")
    payload = None
    if out is not None:  # emptied before each document, so never stale
        with open(out, encoding="utf-8") as fh:
            payload = fh.read()
    h.update(json.dumps(
        [list(argv), code, report, captured.err.split("\n")[0], payload],
        sort_keys=True,
    ).encode())
    h.update(b"\n")
    return code


def _cli_digest(capsys):
    h = hashlib.sha256()
    for name, text in _corpus().items():
        for stale in ("col.json", "ext.json", "out.svg"):
            with open(stale, "w", encoding="utf-8"):
                pass
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        m = len(json.loads(text)["objects"])
        with open("mono.json", "w", encoding="utf-8") as fh:
            json.dump({"kappa": 1, "colors": [1] * m}, fh)
        code = _run(capsys, h, "color", path, "--out", "col.json", out="col.json")
        coloring = "col.json" if code == 0 else "mono.json"
        _run(capsys, h, "verify", path, "--coloring", coloring)
        _run(capsys, h, "verify", path, "--coloring", "mono.json")
        _run(capsys, h, "verify", path, "--cover", ",".join(map(str, range(0, m, 2))))
        _run(capsys, h, "extract", path, "--out", "ext.json", out="ext.json")
        _run(capsys, h, "extract", path, "--coloring", "mono.json")
        _run(capsys, h, "bounds", path)
        _run(capsys, h, "render", path, "--coloring", coloring, "--out", "out.svg",
             out="out.svg")
    return h.hexdigest()


# Computed before the coverage tables, endpoint ranks, grid and render shared
# one integer frame, each scaling or comparing its own coordinates; pins
# every CLI output to those values.
_CLI_DIGEST = "293d08285ed6343967e778f6f0938cc74b3664ab57d386fad41419d6cb98bce0"


def test_cli_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _cli_digest(capsys) == _CLI_DIGEST
