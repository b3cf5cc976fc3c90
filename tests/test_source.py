"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import geomextract

SOURCES = sorted(Path(geomextract.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; invariants raise
    # AlgorithmInvariantError instead so that they always run.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_names_resolve_in_package():
    # The benchmark's tracer rebinds each (module, function) of its TARGETS
    # by name, and a traced run crashes on a name the package lost. The file
    # is parsed, not imported.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    names = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not hasattr(importlib.import_module(f"geomextract.{module}"), function)
    ]
    assert missing == []


def test_lcm_only_in_the_instance_frame():
    # One integer frame per instance: a second function calling lcm would be
    # a second scaling of the coordinates.
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "lcm" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add(f"{path.name}:{func.name}")
    assert callers == {"core.py:frame"}


def test_instances_built_only_by_core_docio_and_generators():
    # Colorers, checkers and render read the instance they are given (and
    # its frame); building a second Instance would scale a second frame.
    builders = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and {"Instance", "make_instance"} & {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            }:
                builders.add(path.name)
    assert builders == {"core.py", "docio.py", "generators.py"}


def test_membership_read_only_in_core():
    # One membership re-check: every other module asks core.covering_mask
    # (or contains, or depth) rather than reading the per-class tests.
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> its outermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        for node in ast.walk(tree):
            if "MEMBERSHIP" in (getattr(node, "id", None), getattr(node, "attr", None)):
                if isinstance(node.ctx, ast.Load):
                    readers.add(f"{path.name}:{owner.get(node, '<module>')}")
    assert readers == {"core.py:contains", "core.py:depth", "core.py:covering_mask"}


def test_axis_table_read_only_in_oracle():
    # One coverage lookup: everything outside the oracle asks oracle.covers
    # or coverer_masks, and nothing else decodes the per-axis table's slots.
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_axis_table" in (getattr(node, "id", None), getattr(node, "attr", None)):
                readers.add(path.name)
    assert readers == {"oracle.py"}


def test_search_loops_build_no_sets_or_tuples():
    # One hyperedge type: the node loop of every exact search reads int
    # masks, and builds no frozenset or set, and calls no tuple(), per node.
    # Each search (vertex cover, set cover, coloring) is a while loop that
    # ticks the node budget, with no rec, so no search depth overflows the
    # stack. A loop inside a counted loop (the vertex cover's search inside
    # its component loop) is counted once.
    loops, found = set(), []
    for path in SOURCES:
        for func in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(func, ast.FunctionDef):
                continue
            for loop in ast.walk(func):
                if loop is not func and getattr(loop, "name", None) == "rec":
                    kind = "rec"
                elif isinstance(loop, ast.While) and any(
                    getattr(getattr(node, "func", None), "id", None) == "tick"
                    for node in ast.walk(loop)
                ):
                    kind = "loop"
                else:
                    continue
                loops.add(f"{path.name}:{func.name}:{kind}")
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(loop)
                    if isinstance(node, ast.SetComp)
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in {"frozenset", "set", "tuple"}
                ]
    assert sorted(loops) == [
        "extraction.py:_min_weight_set_cover:loop",
        "extraction.py:_min_weight_vertex_cover:loop",
        "octants.py:_search_coloring:loop",
    ]
    assert found == []


def test_cover_searches_name_no_fraction():
    # The greedy cover and both exact cover searches add the weights they
    # are given, the frame's ints (Frame.weights) on every library path.
    tree = ast.parse((SOURCES[0].parent / "extraction.py").read_text(encoding="utf-8"))
    searches = {"_greedy", "_min_weight_vertex_cover", "_min_weight_set_cover"}
    funcs = [f for f in tree.body if getattr(f, "name", None) in searches]
    assert len(funcs) == len(searches)
    found = [
        f"{func.name}:{node.lineno}"
        for func in funcs
        for node in ast.walk(func)
        if {"Fraction", "as_integer_ratio"}
        & {getattr(node, "id", None), getattr(node, "attr", None)}
    ]
    assert found == []
