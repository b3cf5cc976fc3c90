#!/usr/bin/env python3
"""Benchmark of the geomextract CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src and driven
in-process through `cli.main(argv)` with stdout captured: one process, one
thread, one client in a closed loop (the next command starts when the
previous one returns). A round takes every document of the workload's
seeded corpus through its command sequence.

With --trace 0 the corpus runs document by document, at least one whole
round and until S seconds have passed; the last stdout line carries the
end-to-end metrics, timed with tracing off. Between commands, at least
every REF_EVERY_S seconds, the run also times a fixed reference loop of
benchmark code, and each command's latency is reported in units of the
reference loops nearest it in time (see REF_MS); the wall-clock latencies
are in the report line. With --trace 1 one untraced round is
followed by whole traced rounds until S seconds have passed; the last line
carries per-layer metrics per round, the traced throughput and the tracing
overhead against the untraced round, and the spans go to .perfbench_out/.
Outputs are checked outside the timed region (checks.py); a failed check
makes the run exit 1 after printing its result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

# Set-up repeats at least this often and for at least this long; its median
# is setup_s, so a short set-up is timed often enough to be steady. It runs
# only before the commands: set-ups after a run take about 25 % longer.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
COMMANDS = tracing.COMMANDS
# A shared 2-vCPU Xeon VM has phases of tens of seconds in which all code
# runs up to twice as slowly; a whole run can fall into one, and no
# statistic of the run's own wall times removes that. The run therefore
# times a fixed reference loop between commands, and divides each command's
# latency by the median of the (up to) four reference loops nearest it in
# time: 1 ref_ms is 1/REF_MS of one reference loop, about a wall
# millisecond on a 2-vCPU Xeon VM in a quiet phase. Wall-clock medians and
# tails are in the report line.
REF_MS = 10.0
REF_EVERY_S = 0.25
# Counts that repeat exactly for a given seed (per round).
EXACT_COUNTS = (
    "core.depth_calls", "oracle.enumerate_calls", "oracle.edges", "oracle.pair_edges",
    "oracle.triangle_edges", "octants.dominated", "intervals.keys",
    "intervals.components", "axis2d.line_groups", "extraction.min_cover_calls",
    "render.svg_bytes", "docio.doc_bytes",
)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package():
    """Import geomextract afresh from ./src, never from an installed copy."""
    for name in [k for k in sys.modules if k == "geomextract" or k.startswith("geomextract.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    gx = importlib.import_module("geomextract")
    if not Path(gx.__file__).resolve().is_relative_to(src):
        raise ImportError(f"geomextract imported from {gx.__file__}, not {src}")
    return gx


def setup(workload: str, seed: int, scale: str):
    """Import the package and build the corpus, repeatedly; the last
    package and corpus, and the time of each set-up."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()
        start = time.perf_counter()
        gx = import_package()
        cases = corpus.WORKLOADS[workload](seed, scale, gx)
        times.append(time.perf_counter() - start)
    return gx, cases, times


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does (tuples, dict
    and set updates, frozensets, sorting, Fraction arithmetic); about 10 ms
    on the machine named at REF_MS. It uses nothing from the package."""
    counts: dict = {}
    seen = set()
    for i in range(5000):
        key = (i % 97, i * 7 % 101)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset(key))
    total = Fraction(0)
    for i in range(1, 450):
        total += Fraction(i, i + 1)
    return len(sorted(counts, key=lambda k: (k[1], k[0]))) + len(seen) + total.denominator % 7


def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

class Runner:
    """Runs rounds of the corpus through `cli.main` and checks the outputs."""

    def __init__(self, cases: list, workdir: Path):
        self.cli = sys.modules["geomextract.cli"]
        self.cases = cases
        self.workdir = workdir
        self.tracer = None
        self.reference: dict = {}  # (case, step) -> result block of its first run
        self.checked: set = set()
        self.digest = hashlib.sha256()
        self.attempted = self.failed = self.documents = 0
        self.command_s = 0.0
        self.samples: list = []  # (start, seconds, command, in latency metrics)
        self.reference_s: list = []  # (start, seconds) of each reference loop
        self.reference_every: Optional[float] = None  # seconds, when timing them
        self._last_reference = 0.0
        self.failures: list = []
        for k, case in enumerate(cases):
            self._path(k, "doc.json").write_text(case.text)
            if case.coloring is not None:
                self._path(k, "supplied.json").write_text(case.coloring)

    def _path(self, k: int, suffix: str) -> Path:
        return self.workdir / f"{k}-{suffix}"

    def _argv(self, k: int, step: str, sol) -> list:
        doc, col = str(self._path(k, "doc.json")), str(self._path(k, "col.json"))
        return {
            "color": ["color", doc, "--out", col],
            "verify-coloring": ["verify", doc, "--coloring", col],
            "extract": ["extract", doc, "--coloring", col],
            "verify-cover": ["verify", doc, "--cover", ",".join(map(str, sol or []))],
            "bounds": ["bounds", doc],
            "bounds-over-cap": ["bounds", doc],
            "render": ["render", doc, "--coloring", col, "--out", str(self._path(k, "svg"))],
            "color-over-cap": ["color", doc],
            "extract-improper": ["extract", doc, "--coloring", str(self._path(k, "supplied.json"))],
            "extract-depth1": ["extract", doc],
        }[step]

    def _invoke(self, cmd: str, argv: list):
        # Each command starts with no garbage left by earlier ones, as a
        # separate CLI process would; otherwise a collection triggered by a
        # large command's garbage lands on whichever small command follows.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.span(f"cli.{cmd}", self.cli.main, argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return code, start, elapsed, out.getvalue()

    def run_case(self, k: int) -> None:
        """Take case k through its steps; the first time, check every output."""
        case = self.cases[k]
        first = k not in self.checked
        self.checked.add(k)
        if self.tracer is not None:
            self.tracer.case = k
        state: dict = {"digests": set()}
        ok_case = True
        for step in case.steps:
            cmd, expect = corpus.STEPS[step]
            if (self.reference_every is not None
                    and time.perf_counter() - self._last_reference >= self.reference_every):
                self.time_reference()
            code, start, elapsed, out = self._invoke(cmd, self._argv(k, step, state.get("sol")))
            self.command_s += elapsed
            self.attempted += 1
            self.samples.append((start, elapsed, cmd, not case.error_case))
            errors = [] if code == expect else [f"exit {code!r}, expected {expect}"]
            if not errors and code == 0:
                try:
                    report = json.loads(out)
                    result = {key: v for key, v in report["result"].items() if key != "written"}
                    state["digests"].add(report["instance_digest"])
                    if step == "extract":
                        state["sol"] = result["sol"]
                    if first:
                        errors = self._check(k, case, step, result, state)
                        self.reference[(k, step)] = result
                        self.digest.update(json.dumps([case.name, step, result],
                                                      sort_keys=True).encode())
                    elif result != self.reference[(k, step)]:
                        errors = ["result differs from the first run"]
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    errors = [f"malformed report: {type(exc).__name__}: {exc}"]
            elif first and not errors:
                self.digest.update(json.dumps([case.name, step, code]).encode())
            if len(state["digests"]) > 1:
                errors.append("instance digest changed between commands")
            if errors:
                ok_case = False
                self.failed += 1
                self.failures.append(f"{case.name} {step}: {'; '.join(errors)}")
        if ok_case and not case.error_case:
            self.documents += 1

    def time_reference(self) -> None:
        """Time one reference loop, with no collection inside it."""
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            self._last_reference = time.perf_counter()
            self.reference_s.append((start, self._last_reference - start))
        finally:
            gc.enable()

    def round(self) -> None:
        for k in range(len(self.cases)):
            self.run_case(k)

    def _check(self, k: int, case, step: str, result: dict, state: dict) -> list:
        doc = case.doc
        if step == "color":
            state["colors"], state["kappa"] = result["colors"], result["kappa"]
            return checks.check_coloring(doc, result, self._path(k, "col.json").read_text())
        if step == "verify-coloring":
            return [] if result["verdict"] == "proper" else [f"verdict {result['verdict']}"]
        if step == "extract":
            state["sol_weight"] = doc.total_weight - checks.frac(result["extracted_weight"])
            return checks.check_extract(doc, state["colors"], state["kappa"], result)
        if step == "verify-cover":
            return [] if result["verdict"] == "covers" else [f"verdict {result['verdict']}"]
        if step == "bounds":
            errors = checks.check_bounds(doc, result, state["kappa"], state["sol_weight"])
            for key, want in case.refs.items():
                if checks.frac(result[key]) != want:
                    errors.append(f"{key} {result[key]}, closed form {want}")
            return errors
        if step == "render":
            return checks.check_svg(doc, self._path(k, "svg").read_text(), result)
        return [f"no check for step {step}"]


def run_for(runner: Runner, seconds: float) -> None:
    """The corpus in order, document by document, for at least one whole
    round and until `seconds` of wall time have passed; a reference loop
    runs first, last and between commands at least every REF_EVERY_S."""
    start = time.perf_counter()
    runner.reference_every = REF_EVERY_S
    runner.time_reference()
    done = 0
    while done < len(runner.cases) or time.perf_counter() - start < seconds:
        runner.run_case(done % len(runner.cases))
        done += 1
    runner.time_reference()
    runner.reference_every = None


def run_rounds(runner: Runner, seconds: float) -> int:
    """Whole rounds until `seconds` of wall time have passed; at least one."""
    rounds, start = 0, time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        runner.round()
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100 * (n - 10) / n, "ms": 1000 * ordered[n - 11], "n": n}


def in_ref_ms(runner: Runner) -> list:
    """Each command sample's duration in ref_ms: its wall seconds times
    REF_MS over the median of the (up to) four reference loops nearest it."""
    starts = [start for start, _ in runner.reference_s]
    out = []
    for start, seconds, _, _ in runner.samples:
        i = bisect.bisect(starts, start)
        near = [s for _, s in runner.reference_s[max(0, i - 2):i + 2]]
        out.append(seconds * REF_MS / statistics.median(near))
    return out


def per_command(runner: Runner, durations: list) -> dict:
    """The durations of each command's samples, without error documents."""
    out = {cmd: [] for cmd in COMMANDS}
    for (_, _, cmd, timed), duration in zip(runner.samples, durations):
        if timed:
            out[cmd].append(duration)
    return out


def end_to_end(runner: Runner) -> dict:
    """Every end-to-end metric but setup_s."""
    durations = in_ref_ms(runner)
    latency = per_command(runner, durations)
    metrics = {"instances_per_ref_s": (1000 * runner.documents / sum(durations), "1/ref_s")}
    for cmd in COMMANDS:
        metrics[f"{cmd}_ref_ms.p50"] = (statistics.median(latency[cmd]), "ref_ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer, rounds: int, gen_s: float, traced_ips: float, untraced_ips: float) -> dict:
    t = tracer.totals()
    inc, own = t["inclusive"], t["self"]
    counts = {key: tracer.counts.get(key, 0) for key in EXACT_COUNTS}
    metrics = {}

    def secs(name: str, value: float) -> None:
        metrics[name] = (value / rounds, "s")

    secs("core.depth_s", inc.get("core.depth", 0.0))
    for name in ("parse_instance", "parse_coloring", "digest", "to_json"):
        secs(f"docio.{name}_s", inc.get(f"docio.{name}", 0.0))
    secs("intervals.color_s", inc.get("intervals.color", 0.0))
    secs("intervals.key_chain_s", inc.get("intervals.key_chain", 0.0))
    secs("axis2d.color_segments_s", inc.get("axis2d.color_segments", 0.0))
    secs("axis2d.color_rays_s", inc.get("axis2d.color_rays", 0.0))
    for name in ("color", "domination", "project"):
        secs(f"octants.{name}_s", inc.get(f"octants.{name}", 0.0))
    secs("octants.color_triangles_self_s", own.get("octants.color_triangles", 0.0))
    for name in ("enum_triangle", "enumerate", "check_proper", "check_cover"):
        secs(f"oracle.{name}_s", inc.get(f"oracle.{name}", 0.0))
    metrics["oracle.color_share"] = (t["oracle_color_share"], "ratio")
    for name in ("extract", "min_cover", "chromatic"):
        secs(f"extraction.{name}_s", inc.get(f"extraction.{name}", 0.0))
    secs("render.svg_s", inc.get("render.svg", 0.0))
    for cmd in COMMANDS:
        secs(f"cli.{cmd}_self_s", own.get(f"cli.{cmd}", 0.0))
    for layer in tracing.LAYERS:
        secs(f"{layer}.self_s", t["layer_self"].get(layer, 0.0))
    for key, value in counts.items():
        if value % rounds:
            raise RuntimeError(f"{key} differs between identical rounds")
        metrics[key] = (value // rounds, "bytes" if key.endswith("_bytes") else "count")
    metrics["generators.gen_s"] = (gen_s, "s")
    metrics["trace.instances_per_s"] = (traced_ips, "1/s")
    overhead = 100 * (untraced_ips / traced_ips - 1) if traced_ips else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """One run: returns the result line and a detail report."""
    gx, cases, setup_times = setup(workload, seed, scale)
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cases, workdir)
        # The corpus and the checkers' copies of it live for the whole run;
        # keep them out of the program's garbage collections.
        gc.collect()
        gc.freeze()
        detail = {"workload": workload, "seed": seed, "documents_per_round": sum(
            1 for c in cases if not c.error_case), "cases": len(cases)}
        if not trace:
            run_for(runner, seconds)
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **end_to_end(runner)}
        else:
            runner.round()
            untraced_ips = runner.documents / runner.command_s
            tracer = tracing.Tracer()
            tracer.install()
            try:
                corpus.WORKLOADS[workload](seed, scale, gx)
                gen_s = tracer.totals()["inclusive"].get("generators.gen", 0.0)
                tracer.reset()
                runner.tracer = tracer
                before_docs, before_s = runner.documents, runner.command_s
                rounds = run_rounds(runner, seconds)
                traced_ips = (runner.documents - before_docs) / (runner.command_s - before_s)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, rounds, gen_s, traced_ips, untraced_ips)
            detail["traced_rounds"] = rounds
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{workload}-seed{seed}.jsonl.gz"
            tracer.dump(spans)
            detail["spans"] = str(spans.relative_to(ROOT))
            detail["span_count"] = len(tracer.spans)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({
        "documents": runner.documents,
        "per_command": {
            cmd: {"n": len(v), "p50_ms": 1000 * statistics.median(v), "tail": tail(v)}
            for cmd, v in per_command(runner, [s for _, s, _, _ in runner.samples]).items() if v
        },
        "ops_failed_ratio": runner.failed / runner.attempted,
        "instances_per_s": runner.documents / runner.command_s if runner.command_s else None,
        "reference_ms": {"n": len(runner.reference_s), "p50": 1000 * statistics.median(
            s for _, s in runner.reference_s)} if runner.reference_s else None,
        "output_digest": runner.digest.hexdigest(),
        "failures": runner.failures[:20],
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"report": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
