"""Span tracing by rebinding module attributes from outside the package.

`Tracer.install` replaces each listed function with a wrapper in every
geomextract module that holds it, including names bound by `from ... import`
(such as `axis2d.two_color` or `geomextract.color_instance`) and calls a
module makes to its own functions through its globals. No file of the
package changes; `uninstall` puts the originals back.

A span is (name, start, end, parent index, case id). Spans stay in memory
and are written once, by `dump`. A layer is the part of a span name before
the first dot, and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# Layers whose self time is reported; generator spans only time the set-up.
LAYERS = ("core", "docio", "intervals", "axis2d", "octants", "oracle",
          "extraction", "render", "cli")
COMMANDS = ("color", "verify", "extract", "bounds", "render")


def _edges(args, kwargs, result) -> dict:
    subject = args[0] if args else kwargs.get("subject")
    if type(subject).__name__ != "Instance":
        return {}
    return {"oracle.enumerate_calls": 1, "oracle.edges": len(result),
            "oracle.pair_edges": sum(1 for e in result.edges if len(e) == 2)}


def _parsed_bytes(key: str) -> Callable:
    def count(args, kwargs, result) -> dict:
        doc = args[0] if args else kwargs.get("doc")
        return {key: len(doc)} if isinstance(doc, (str, bytes)) else {}
    return count


# (module, function, span name, counter of work done in the call)
TARGETS = [
    ("core", "depth", "core.depth", lambda a, k, r: {"core.depth_calls": 1}),
    ("core", "total_weight", "core.total_weight", None),
    ("docio", "parse_instance", "docio.parse_instance", _parsed_bytes("docio.doc_bytes")),
    ("docio", "parse_coloring", "docio.parse_coloring", _parsed_bytes("docio.doc_bytes")),
    ("docio", "instance_digest", "docio.digest", None),
    ("docio", "instance_to_json", "docio.to_json", None),
    ("docio", "coloring_to_json", "docio.to_json", None),
    ("intervals", "color_intervals", "intervals.color", None),
    ("intervals", "two_color", "intervals.two_color", None),
    ("intervals", "connected_components", "intervals.components",
     lambda a, k, r: {"intervals.components": len(r)}),
    ("intervals", "build_key_chain", "intervals.key_chain",
     lambda a, k, r: {"intervals.keys": len(r.keys)}),
    ("axis2d", "color_segments", "axis2d.color_segments", None),
    ("axis2d", "color_rays", "axis2d.color_rays", None),
    ("axis2d", "line_groups", "axis2d.line_groups",
     lambda a, k, r: {"axis2d.line_groups": len(r)}),
    ("axis2d", "clip_rays_to_box", "axis2d.clip_rays", None),
    ("axis2d", "dominating_rays", "axis2d.dominating_rays", None),
    ("octants", "color_octants", "octants.color", None),
    ("octants", "compute_domination", "octants.domination",
     lambda a, k, r: {"octants.dominated": len(r.dominator_of)}),
    ("octants", "compute_cmax", "octants.cmax", None),
    ("octants", "project", "octants.project", None),
    ("octants", "color_triangles", "octants.color_triangles", None),
    ("oracle", "enumerate_triangle_hyperedges", "oracle.enum_triangle",
     lambda a, k, r: {"oracle.triangle_edges": len(r)}),
    ("oracle", "enumerate_hyperedges", "oracle.enumerate", _edges),
    ("oracle", "enumerate_hyperedges_dense", "oracle.enumerate_dense", None),
    ("oracle", "check_proper", "oracle.check_proper", None),
    ("oracle", "check_cover", "oracle.check_cover", None),
    ("extraction", "extract", "extraction.extract", None),
    ("extraction", "exact_min_cover", "extraction.min_cover",
     lambda a, k, r: {"extraction.min_cover_calls": 1}),
    ("extraction", "exact_extraction_number", "extraction.extraction_number", None),
    ("extraction", "exact_chromatic", "extraction.chromatic", None),
    ("render", "render_svg", "render.svg", lambda a, k, r: {"render.svg_bytes": len(r)}),
    ("cli", "color_instance", "cli.color_instance", None),
    ("generators", "gen_interval_pair", "generators.gen", None),
    ("generators", "gen_kbox", "generators.gen", None),
    ("generators", "gen_kbox_rays", "generators.gen", None),
    ("generators", "gen_rayfan", "generators.gen", None),
    ("generators", "gen_octant4", "generators.gen", None),
    ("generators", "gen_random", "generators.gen", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.case: Optional[int] = None
        self._saved: list = []

    def span(self, name: str, fn: Callable, *args, count=None, **kwargs):
        """Call fn inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append(None)  # reserve: parents precede their children
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.case)
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.counts[key] += value
        return result

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)
        return traced

    def install(self, package: str = "geomextract") -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, fn_name, span_name, count in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- analysis -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: inclusive seconds (outermost span of a name only)
        and self seconds; per layer: self seconds; and the share of `color`
        command time spent in oracle spans."""
        inclusive, self_s = defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        root = [0] * len(self.spans)
        nested = [False] * len(self.spans)  # inside a span of the same name
        oracle_in_color = color_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                p = parent
                while p >= 0 and not nested[i]:
                    nested[i] = self.spans[p][0] == name
                    p = self.spans[p][3]
            own = end - start - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if not nested[i]:
                inclusive[name] += end - start
            top = self.spans[root[i]][0]
            if top == "cli.color":
                if i == root[i]:
                    color_total += end - start
                elif name.startswith("oracle."):
                    oracle_in_color += own
        return {
            "inclusive": dict(inclusive), "self": dict(self_s),
            "layer_self": dict(layer_self),
            "oracle_color_share": oracle_in_color / color_total if color_total else 0.0,
        }

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, start, end, parent, case]) + "\n")
