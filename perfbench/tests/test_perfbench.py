"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, detail = run.measure(workload, 3, 0, trace=False, scale="tiny")
    _assert_metrics(result, SPEC["end_to_end"])
    assert detail["ops_failed_ratio"] == 0
    for name in SPEC["end_to_end"]:
        if name["name"] != "setup_s":
            assert result["metrics"][name["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, d1 = run.measure(workload, 5, 0, trace=True, scale="tiny")
    second, d2 = run.measure(workload, 5, 0, trace=True, scale="tiny")
    for result in (first, second):
        _assert_metrics(result, SPEC["per_layer"])
    for key in run.EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert d1["output_digest"] == d2["output_digest"]
    assert (ROOT / d1["spans"]).is_file()
    counts = first["metrics"]
    if workload == "interval-staircase":
        assert counts["oracle.enumerate_calls"]["value"] == 0
        assert counts["intervals.keys"]["value"] > 0
    else:
        assert counts["oracle.enumerate_calls"]["value"] > 0


def test_checks_reject_bad_outputs():
    pair = checks.parse_doc({"class": "intervals",
                             "objects": [{"a": 0, "b": 2}, {"a": 1, "b": 3}],
                             "points": [["3/2"]]})
    assert checks.improper_edge(pair, [1, 1]) == [0, 1]
    assert checks.improper_edge(pair, [1, 2]) is None
    assert not pair.covers([]) and pair.covers([1])
    bounds = {"min_cover": [0], "min_cover_weight": 1, "extraction_number": 2,
              "chromatic": 2}
    assert checks.check_bounds(pair, bounds, 2, Fraction(1)) == []
    assert checks.check_bounds(pair, dict(bounds, extraction_number=3), 2, Fraction(1))


def test_command_line_output():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-cli", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert {"python", "nproc", "cpu", "commit", "seed"} <= set(env)
    _assert_metrics(json.loads(lines[-1]), SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
