"""Command-line front end.

Subcommands: gen, color, extract, verify, bounds, render. Each invocation
handles one instance and prints a JSON report to stdout; --out writes the
payload document (instance, coloring, or SVG) only after it was fully
computed, so a failed command leaves no partial output. A new path or an
existing regular file gets a fresh file, written beside it and renamed
onto it, and a failed write leaves the old file as it was; symlinks,
devices and FIFOs are written through in place (see _write_out). An --out
path that cannot be written exits 2, like an input that cannot be read.

Exit codes: 0 success, 2 parse or class errors, 3 size caps, 4 algorithm
invariant violations (including an improper supplied coloring), 5 depth
precondition violations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import time

from . import axis2d, docio, extraction, generators, intervals, octants, oracle, render
from .core import (
    AlgorithmInvariantError,
    ClassMismatchError,
    Coloring,
    DepthPreconditionError,
    GeomExtractError,
    ImproperColoringError,
    Instance,
    NoFourColoringError,
    ObjectClass,
    ParseError,
    SizeCapError,
    UnboundedExtractionError,
    UncoverablePointError,
    rational_repr,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4
EXIT_DEPTH = 5
# The exit code of a failed command: the first row whose classes match.
EXIT_CODES = (
    ((ParseError, ClassMismatchError), EXIT_PARSE),
    (SizeCapError, EXIT_CAP),
    ((AlgorithmInvariantError, NoFourColoringError, ImproperColoringError),
     EXIT_INVARIANT),
    ((DepthPreconditionError, UncoverablePointError), EXIT_DEPTH),
    (GeomExtractError, EXIT_INVARIANT),
    ((ValueError, IndexError), EXIT_PARSE),
)


def color_instance(
    instance: Instance, size_cap: int = octants.DEFAULT_SIZE_CAP
) -> Coloring:
    """Dispatch to the class-appropriate colorer."""
    if instance.cls is ObjectClass.INTERVALS:
        return intervals.color_intervals(instance)
    if instance.cls is ObjectClass.SEGMENTS:
        return axis2d.color_segments(instance)
    if instance.cls is ObjectClass.RAYS:
        return axis2d.color_rays(instance)
    return octants.color_octants(instance, size_cap)


def _read(path: str, parse):
    """parse applied to the text of path; an unreadable path is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_out(path: str, text: str) -> None:
    """Write text to path; failures raise ParseError ("cannot write ...").

    A new path, or a regular file with one link that this process owns, gets
    a fresh file: text goes to a temporary file beside it, the old file is
    unlinked, and the temporary file (with the old file's permission bits)
    is renamed onto the path. Truncating the old file or renaming over it
    instead makes some filesystems (ext4 with auto_da_alloc) flush the new
    data, tens of milliseconds per rewrite. A failed write removes the
    temporary file and leaves the old one as it was; if the final rename
    fails, the old file is already gone and the error names the temporary
    file that holds the output. Anything else (a symlink, a device, a FIFO,
    a file with other links or another owner) is opened and written in
    place. Crash durability is not promised. An empty path is refused
    before anything is created.
    """
    if not path:
        raise ParseError("cannot write an empty path")
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None
    if old is not None and not (
        stat.S_ISREG(old.st_mode)
        and old.st_nlink == 1
        and (old.st_uid, old.st_gid) == (os.geteuid(), os.getegid())
    ):
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from None
        return

    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            fh.write(text)
        if old is not None:
            os.unlink(path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {path}: {exc}") from None
        raise
    try:
        os.rename(tmp, path)
    except OSError as exc:
        raise ParseError(
            f"cannot write {path}: {exc}; the output is in {tmp}"
        ) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> tuple:
    if args.kind == "interval-pair":
        instance = generators.gen_interval_pair()
    elif args.kind == "kbox":
        instance = generators.gen_kbox(args.k)
    elif args.kind == "kbox-rays":
        instance = generators.gen_kbox_rays(args.k)
    elif args.kind == "rayfan":
        instance = generators.gen_rayfan(args.k)
    elif args.kind == "octant4":
        instance = generators.gen_octant4()
    else:
        try:
            cls = ObjectClass(args.klass)
        except ValueError:
            raise ParseError(f"unknown class {args.klass!r}") from None
        instance = generators.gen_random(cls, args.n, args.seed)
    text = docio.instance_to_json(instance)
    if args.out is not None:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return instance, {
        "kind": args.kind,
        "m": instance.m,
        "points": len(instance.points),
        "written": args.out,
    }


def _cmd_color(args) -> tuple:
    instance = _read(args.input, docio.parse_instance)
    if args.klass and instance.cls is not ObjectClass(args.klass):
        raise ClassMismatchError(
            f"instance class {instance.cls.value} does not match --class {args.klass}"
        )
    coloring = color_instance(instance, args.size_cap)
    result = {
        "class": instance.cls.value,
        "kappa": coloring.kappa,
        "colors": list(coloring.colors),
        "colors_used": sorted(coloring.used_colors()),
    }
    if instance.cls is ObjectClass.RAYS:
        profile = axis2d.ray_type_profile(instance.objects)
        result["ray_type"] = profile.type
        if profile.type == 1:
            result["notes"] = (
                "single-orientation rays: 2-coloring provided, but no "
                "extraction guarantee is claimed for type 1"
            )
    if args.out is not None:
        _write_out(args.out, docio.coloring_to_json(coloring))
    return instance, result


def _cmd_extract(args) -> tuple:
    instance = _read(args.input, docio.parse_instance)
    if args.coloring is not None:
        coloring = _read(args.coloring, docio.parse_coloring)
    else:
        coloring = color_instance(instance, args.size_cap)
    res = extraction.extract(instance, coloring)
    result = {
        "sol": sorted(res.sol),
        "extracted": sorted(res.extracted),
        "extracted_weight": rational_repr(res.extracted_weight),
        "ratio": rational_repr(res.ratio),
        "kappa": res.kappa,
    }
    if args.out is not None:
        _write_out(args.out, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return instance, result


def _cmd_verify(args) -> tuple:
    instance = _read(args.input, docio.parse_instance)
    if (args.coloring is None) == (args.cover is None):
        raise ParseError("verify needs exactly one of --coloring or --cover")
    if args.coloring is not None:
        coloring = _read(args.coloring, docio.parse_coloring)
        if len(coloring.colors) != instance.m:
            raise ParseError("coloring length does not match instance")
        verdict = oracle.check_proper(instance, coloring, size_cap=args.size_cap)
        result = {"verdict": "proper" if verdict.proper else "improper"}
        if not verdict.proper:
            result["monochromatic_edge"] = sorted(verdict.edge)
            result["witness"] = [rational_repr(v) for v in verdict.witness]
    else:
        try:
            subset = [int(tok) for tok in args.cover.split(",") if tok.strip()]
        except ValueError:
            raise ParseError(f"bad --cover list: {args.cover!r}") from None
        verdict = oracle.check_cover(instance, subset)
        result = {"verdict": "covers" if verdict.covered else "uncovered"}
        if not verdict.covered:
            result["uncovered_point"] = [rational_repr(v) for v in verdict.point]
            result["point_index"] = verdict.point_index
    return instance, result


def _cmd_bounds(args) -> tuple:
    instance = _read(args.input, docio.parse_instance)
    cover, weight = extraction.exact_min_cover(instance, size_cap=args.size_cap)
    result = {
        "min_cover": sorted(cover),
        "min_cover_weight": rational_repr(weight),
    }
    try:
        result["extraction_number"] = rational_repr(
            extraction.extraction_number(instance, weight)
        )
    except UnboundedExtractionError:
        result["extraction_number"] = "unbounded"
    if instance.m <= args.chromatic_cap:
        result["chromatic"] = extraction.exact_chromatic(
            instance, size_cap=args.chromatic_cap
        )
    else:
        result["chromatic"] = None
        result["notes"] = f"chromatic skipped: {instance.m} objects over cap"
    return instance, result


def _cmd_render(args) -> tuple:
    instance = _read(args.input, docio.parse_instance)
    coloring = (_read(args.coloring, docio.parse_coloring)
                if args.coloring is not None else None)
    if coloring is not None and len(coloring.colors) != instance.m:
        raise ParseError("coloring length does not match instance")
    svg = render.render_svg(instance, coloring)
    if args.out is not None:
        _write_out(args.out, svg)
    else:
        sys.stdout.write(svg)
    return instance, {
        "objects": instance.m,
        "points": len(instance.points),
        "written": args.out,
    }


# ---------------------------------------------------------------------------
# Parser and entry
# ---------------------------------------------------------------------------

def cap(text: str) -> int:
    """argparse type of the cap options; 0 is a valid cap that refuses every object."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"cap must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomextract",
        description="Geometric hypergraph colorings and residual-cover extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", required=True, choices=[
        "interval-pair", "kbox", "kbox-rays", "rayfan", "octant4", "random",
    ])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--class", dest="klass",
                   choices=[c.value for c in ObjectClass])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="compute a proper coloring")
    p.add_argument("input")
    p.add_argument("--class", dest="klass",
                   choices=[c.value for c in ObjectClass])
    p.add_argument("--size-cap", type=cap, default=octants.DEFAULT_SIZE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("extract", help="extract a heavy residual class")
    p.add_argument("input")
    p.add_argument("--coloring")
    p.add_argument("--size-cap", type=cap, default=octants.DEFAULT_SIZE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="check a coloring or a cover")
    p.add_argument("input")
    p.add_argument("--coloring")
    p.add_argument("--cover")
    p.add_argument("--size-cap", type=cap, default=oracle.DEFAULT_SIZE_CAP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="exact min cover, extraction, chromatic")
    p.add_argument("input")
    p.add_argument("--size-cap", type=cap, default=extraction.DEFAULT_COVER_CAP)
    p.add_argument("--chromatic-cap", type=cap,
                   default=extraction.DEFAULT_CHROMATIC_CAP)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("render", help="emit an SVG figure")
    p.add_argument("input")
    p.add_argument("--coloring")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        instance, result = args.func(args)
    except (GeomExtractError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in EXIT_CODES if isinstance(exc, classes))
    print(json.dumps({
        "command": args.command,
        "instance_digest": docio.instance_digest(instance),
        "result": result,
        "timings_ms": int((time.perf_counter() - started) * 1000),
    }, indent=2, sort_keys=True))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
