import json
import os
import random
import stat
import sys
import threading

import pytest

from geomextract import gen_kbox, gen_octant4, octants, parse_coloring, parse_instance, render_svg
from geomextract.cli import main
from geomextract.docio import instance_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    reports = [json.loads(chunk) for chunk in _report_chunks(out)]
    return code, reports[-1] if reports else None, out


def _report_chunks(out):
    # stdout may hold a document followed by the report; reports start at
    # the last top-level '{' line that parses as a report object
    decoder = json.JSONDecoder()
    chunks = []
    idx = 0
    while idx < len(out):
        brace = out.find("{", idx)
        if brace == -1:
            break
        try:
            obj, end = decoder.raw_decode(out[brace:])
        except json.JSONDecodeError:
            idx = brace + 1
            continue
        if isinstance(obj, dict) and "command" in obj:
            chunks.append(out[brace:brace + end])
        idx = brace + end
    return chunks


def test_gen_color_verify_extract_bounds_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "fan.json"
    col_path = tmp_path / "fan-col.json"

    code, report, _ = run(capsys, "gen", "--kind", "rayfan", "--k", "4",
                          "--out", str(inst_path))
    assert code == 0
    assert report["result"]["m"] == 12
    digest = report["instance_digest"]

    code, report, _ = run(capsys, "color", str(inst_path), "--out", str(col_path))
    assert code == 0
    assert report["instance_digest"] == digest
    assert report["result"]["kappa"] == 3

    coloring = parse_coloring(col_path.read_text())
    assert coloring.kappa == 3

    code, report, _ = run(capsys, "verify", str(inst_path),
                          "--coloring", str(col_path))
    assert code == 0
    assert report["result"]["verdict"] == "proper"

    code, report, _ = run(capsys, "bounds", str(inst_path))
    assert code == 0
    assert report["result"]["min_cover_weight"] == 7
    assert report["result"]["extraction_number"] == "12/5"
    assert report["result"]["chromatic"] == 3

    code, report, _ = run(capsys, "extract", str(inst_path),
                          "--coloring", str(col_path))
    assert code == 0
    assert report["result"]["ratio"] == 3


def test_gen_parse_round_trip_digest(tmp_path, capsys):
    p = tmp_path / "kbox.json"
    code, report, _ = run(capsys, "gen", "--kind", "kbox", "--k", "2",
                          "--out", str(p))
    assert code == 0
    assert report["result"]["m"] == 16
    inst = parse_instance(p.read_text())
    assert instance_to_json(inst) == p.read_text()


def test_gen_random_seed_flag(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--kind", "random", "--class", "octants", "--n", "6",
        "--seed", "3", "--out", str(a))
    run(capsys, "gen", "--kind", "random", "--class", "octants", "--n", "6",
        "--seed", "3", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_color_class_mismatch_exit_2(tmp_path, capsys):
    p = tmp_path / "fan.json"
    run(capsys, "gen", "--kind", "rayfan", "--k", "2", "--out", str(p))
    code, _, _ = run(capsys, "color", str(p), "--class", "segments")
    assert code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"class": "intervals", "objects": [], "bogus": 1}')
    code, _, _ = run(capsys, "color", str(p))
    assert code == 2
    code, _, _ = run(capsys, "color", str(tmp_path / "missing.json"))
    assert code == 2


def test_deeply_nested_documents_exit_2(tmp_path, capsys):
    deep = "[" * 5000 + "]" * 5000
    inst = tmp_path / "deep.json"
    inst.write_text('{"class": "intervals", "objects": [], "meta": ' + deep + "}")
    code, _, _ = run(capsys, "color", str(inst))
    assert code == 2
    ok = tmp_path / "ok.json"
    ok.write_text(instance_to_json(gen_octant4()))
    col = tmp_path / "col.json"
    col.write_text(deep)
    code, _, _ = run(capsys, "extract", str(ok), "--coloring", str(col))
    assert code == 2


def test_5000_digit_weight_exits_2(tmp_path, capsys):
    digits = "1" * 5000
    for weight in (digits, f'"{digits}"'):  # a JSON integer and a "p/q" string
        p = tmp_path / "big.json"
        p.write_text('{"class": "intervals", "objects": [{"a": 0, "b": 1}], '
                     f'"weights": [{weight}]}}')
        code, _, _ = run(capsys, "bounds", str(p))
        assert code == 2


def test_frame_unit_past_the_bit_cap_exits_3(tmp_path, capsys):
    # 200 distinct 300-digit denominators, on the coordinates or on the
    # weights: the frame's unit would pass 10^5 bits.
    rng = random.Random(3)
    dens = [rng.randrange(10**299, 10**300) | 1 for _ in range(200)]
    objects = [{"a": k, "b": f"{k * d + 2 * d + 1}/{d}"} for k, d in enumerate(dens)]
    on_coordinates = {"class": "intervals", "objects": objects}
    on_weights = {"class": "intervals",
                  "objects": [{"a": k, "b": k + 2} for k in range(200)],
                  "weights": [f"1/{d}" for d in dens]}
    for doc in (on_coordinates, on_weights):
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        for argv in (["color"], ["render"], ["verify", "--cover", "0"], ["extract"]):
            code, _, _ = run(capsys, argv[0], str(p), *argv[1:])
            assert code == 3, argv


def test_reported_number_over_the_digit_limit_exits_3(tmp_path, capsys):
    # Each weight fits the 4300-digit limit, but W and the ratios do not.
    big = 10**2999
    p = tmp_path / "pair.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": 0, "b": 2}, {"a": 1, "b": 3}],
        "weights": [f"{big + 1}/{big + 2}", f"{big + 3}/{big + 4}"],
        "points": [["3/2"]],
    }))
    for command in ("extract", "bounds"):
        assert main([command, str(p)]) == 3
        assert "4300-digit" in capsys.readouterr().err


def test_size_cap_exit_3(tmp_path, capsys):
    p = tmp_path / "kbox3.json"
    run(capsys, "gen", "--kind", "kbox", "--k", "3", "--out", str(p))
    code, _, _ = run(capsys, "bounds", str(p), "--size-cap", "10")
    assert code == 3


def test_explicit_zero_caps_are_honored(tmp_path, capsys):
    p, col = tmp_path / "oct.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "random", "--class", "octants", "--n", "12",
        "--out", str(p))
    run(capsys, "color", str(p), "--out", str(col))
    for argv in (["color"], ["extract"], ["verify", "--coloring", str(col)],
                 ["bounds"]):
        code, _, _ = run(capsys, argv[0], str(p), *argv[1:], "--size-cap", "0")
        assert code == 3, argv
    code, report, _ = run(capsys, "bounds", str(p), "--chromatic-cap", "0")
    assert code == 0
    assert report["result"]["chromatic"] is None
    assert "chromatic skipped" in report["result"]["notes"]


def test_bounds_exits_3_past_the_search_node_budget(tmp_path, capsys, monkeypatch):
    # The 4-ray fan needs 3 colors, so exact_chromatic backtracks at k = 2.
    p = tmp_path / "fan.json"
    run(capsys, "gen", "--kind", "rayfan", "--k", "4", "--out", str(p))
    monkeypatch.setattr(octants, "SEARCH_NODE_BUDGET", 0)
    code, report, _ = run(capsys, "bounds", str(p))
    assert code == 3
    assert report is None


def test_bounds_chromatic_cap_reaches_the_oracle(tmp_path, capsys):
    # 65 intervals: over the oracle's default cap of 60, under both caps given
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": i, "b": i + 2} for i in range(65)],
        "points": [[i + 1] for i in range(0, 64, 3)],
    }))
    code, report, _ = run(capsys, "bounds", str(p), "--size-cap", "65",
                          "--chromatic-cap", "70")
    assert code == 0
    assert report["result"]["chromatic"] == 2


def test_bounds_on_a_deep_chain_exits_0(tmp_path, capsys):
    # 1,000 intervals [k, k + 3]: the coloring search goes 1,000 deep
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": k, "b": k + 3} for k in range(1000)],
    }))
    code, report, _ = run(capsys, "bounds", str(p), "--size-cap", "1000",
                          "--chromatic-cap", "1000")
    assert code == 0
    assert report["result"]["chromatic"] == 2


def test_bounds_cover_search_needs_no_stack_depth(tmp_path, capsys):
    # 300 intervals [k, k + 3] and a target in every triple overlap: the set
    # cover's first descent goes about 100 picks deep. A recursive search
    # overflowed this lowered limit (a RecursionError traceback, exit 1);
    # 60 frames is about twice what the command needs around its searches.
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": k, "b": k + 3} for k in range(300)],
        "points": [[f"{2 * k + 7}/2"] for k in range(297)],
    }))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        code = main(["bounds", str(p), "--size-cap", "300", "--chromatic-cap", "0"])
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert json.loads(out)["result"]["min_cover_weight"] == 99


def test_negative_caps_exit_2(tmp_path, capsys):
    p = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(p))
    for argv in (["color", "--size-cap"], ["extract", "--size-cap"],
                 ["verify", "--cover", "0", "--size-cap"],
                 ["bounds", "--size-cap"], ["bounds", "--chromatic-cap"]):
        with pytest.raises(SystemExit) as info:
            main([argv[0], str(p), *argv[1:], "-1"])
        assert info.value.code == 2, argv
        assert "cap must be >= 0" in capsys.readouterr().err


def test_improper_supplied_coloring_exit_4(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    col = tmp_path / "bad-col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst))
    col.write_text('{"kappa": 2, "colors": [1, 1]}')
    code, _, _ = run(capsys, "extract", str(inst), "--coloring", str(col))
    assert code == 4


def test_extract_cost_does_not_grow_with_kappa(tmp_path, capsys):
    # The class weights run over the colors in use; allocating every color
    # up to kappa took seconds at kappa 4*10**6 and cannot finish at 10**12.
    inst = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst))
    reports = []
    for kappa in (2, 10**12):
        col = tmp_path / f"col-{kappa}.json"
        col.write_text(json.dumps({"kappa": kappa, "colors": [1, 2]}))
        code, report, _ = run(capsys, "extract", str(inst), "--coloring", str(col))
        assert code == 0
        assert report["result"].pop("kappa") == kappa
        report.pop("timings_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_depth_precondition_exit_5(tmp_path, capsys):
    p = tmp_path / "shallow.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": 0, "b": 2}, {"a": 5, "b": 7}],
        "points": [[1]],
    }))
    code, _, _ = run(capsys, "extract", str(p))
    assert code == 5


def test_verify_cover_subcommand(tmp_path, capsys):
    p = tmp_path / "oct.json"
    run(capsys, "gen", "--kind", "octant4", "--out", str(p))
    code, report, _ = run(capsys, "verify", str(p), "--cover", "0,1,2")
    assert code == 0
    assert report["result"]["verdict"] == "covers"
    code, report, _ = run(capsys, "verify", str(p), "--cover", "0,1")
    assert code == 0
    assert report["result"]["verdict"] == "uncovered"


def test_verify_cover_unknown_index_exits_2(tmp_path, capsys):
    p = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(p))
    assert main(["verify", str(p), "--cover", "0,99"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unknown object index 99\n")


def test_color_and_extract_octant4(tmp_path, capsys):
    p = tmp_path / "oct.json"
    run(capsys, "gen", "--kind", "octant4", "--out", str(p))
    code, report, _ = run(capsys, "color", str(p))
    assert code == 0
    assert report["result"]["kappa"] == 4
    code, report, _ = run(capsys, "extract", str(p))
    assert code == 0
    assert report["result"]["ratio"] == 4


def test_verify_needs_exactly_one_mode(tmp_path, capsys):
    p = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(p))
    code, _, _ = run(capsys, "verify", str(p))
    assert code == 2


def test_color_interval_pair_kappa(tmp_path, capsys):
    p = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(p))
    code, report, _ = run(capsys, "color", str(p), "--class", "intervals")
    assert code == 0
    assert report["result"]["kappa"] == 2


def test_color_single_orientation_rays_notes_no_guarantee(tmp_path, capsys):
    p = tmp_path / "mono.json"
    p.write_text(json.dumps({
        "class": "rays",
        "objects": [
            {"orientation": 1, "apex": [0, 0]},
            {"orientation": 1, "apex": [3, 0]},
        ],
    }))
    code, report, _ = run(capsys, "color", str(p))
    assert code == 0
    assert report["result"]["ray_type"] == 1
    assert report["result"]["kappa"] == 2
    assert "no extraction guarantee" in report["result"]["notes"]


def test_empty_ray_instance_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text('{"class": "rays", "objects": []}')
    code, _, _ = run(capsys, "color", str(p))
    assert code == 2


def test_unbounded_extraction_reported(tmp_path, capsys):
    p = tmp_path / "solo.json"
    p.write_text(json.dumps({
        "class": "intervals",
        "objects": [{"a": 0, "b": 2}],
        "points": [[1]],
    }))
    code, report, _ = run(capsys, "bounds", str(p))
    assert code == 0
    assert report["result"]["extraction_number"] == "unbounded"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_interval_pair_counts(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    svg_path = tmp_path / "pair.svg"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst))
    code, _, _ = run(capsys, "render", str(inst), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count('class="obj"') == 2
    assert svg.count('class="cross"') == 1


def test_render_kbox3_counts():
    inst = gen_kbox(3)
    svg = render_svg(inst)
    assert svg.count('class="obj"') == 36
    assert svg.count('class="cross"') == len(inst.points)


def test_render_octant4_counts_and_colors():
    inst = gen_octant4()
    from geomextract import color_instance

    svg = render_svg(inst, color_instance(inst))
    assert svg.count("<polygon") == 4
    assert svg.count('class="cross"') == 6


def test_render_rays_have_arrows():
    from geomextract import gen_rayfan

    svg = render_svg(gen_rayfan(2))
    assert svg.count('class="obj"') == 6
    assert svg.count('class="arrow"') == 6


def test_render_byte_identical():
    inst = gen_octant4()
    assert render_svg(inst) == render_svg(inst)
    inst2 = gen_kbox(2)
    assert render_svg(inst2) == render_svg(inst2)


def test_render_empty_octant_document(tmp_path, capsys):
    # No objects means no plane to project onto: draw the target points only,
    # as for the other classes, instead of failing on an empty c_max.
    inst, svg_path = tmp_path / "empty.json", tmp_path / "empty.svg"
    inst.write_text('{"class": "octants", "objects": [], "points": [[1, 2, 3]]}')
    code, _, _ = run(capsys, "render", str(inst), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<polygon") == 0
    assert svg.count('class="cross"') == 1
    inst.write_text('{"class": "octants", "objects": []}')
    code, _, _ = run(capsys, "render", str(inst), "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count("<polygon") == 0


def test_render_empty_ray_document(tmp_path, capsys):
    # No rays means no box to clip them to: draw the target points only, as
    # for the other classes. Coloring the same document stays exit 2.
    inst, svg_path = tmp_path / "empty.json", tmp_path / "empty.svg"
    inst.write_text('{"class": "rays", "objects": [], "points": [[1, 2]]}')
    code, _, _ = run(capsys, "render", str(inst), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count('class="obj"') == svg.count('class="arrow"') == 0
    assert svg.count('class="cross"') == 1
    inst.write_text('{"class": "rays", "objects": []}')
    code, _, _ = run(capsys, "render", str(inst), "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count('class="obj"') == 0
    code, _, _ = run(capsys, "color", str(inst))
    assert code == 2


def test_render_rejects_wrong_coloring_length(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    col = tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst))
    col.write_text('{"kappa": 2, "colors": [1]}')
    code, _, _ = run(capsys, "render", str(inst), "--coloring", str(col))
    assert code == 2


def test_color_out_replaces_existing_file(tmp_path, capsys):
    inst_path, col_path = tmp_path / "pair.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    col_path.write_text("stale contents that are longer than the coloring " * 20)
    code, report, _ = run(capsys, "color", str(inst_path), "--out", str(col_path))
    assert code == 0
    assert parse_coloring(col_path.read_text()).colors == tuple(report["result"]["colors"])


def test_color_out_leaves_no_temp_file(tmp_path, capsys):
    inst_path, col_path = tmp_path / "pair.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    for _ in range(2):  # once onto a new path, once over the existing file
        code, _, _ = run(capsys, "color", str(inst_path), "--out", str(col_path))
        assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["col.json", "pair.json"]


def test_failed_out_write_keeps_old_file(tmp_path, capsys, monkeypatch):
    import geomextract.cli as cli

    inst_path, col_path = tmp_path / "pair.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    col_path.write_text("old")

    class FullDisk:
        def __init__(self, fd, *args, **kwargs):
            self.fd = fd

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            cli.os.close(self.fd)

        def write(self, data):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "fdopen", FullDisk)
    code = main(["color", str(inst_path), "--out", str(col_path)])
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 2
    assert col_path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["col.json", "pair.json"]


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    code = main(["gen", "--kind", "interval-pair", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write" in err
    assert not target.parent.exists()


def test_color_out_writes_through_symlink(tmp_path, capsys):
    inst_path, real, link = tmp_path / "pair.json", tmp_path / "real.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    real.write_text("stale")
    link.symlink_to(real)
    code, report, _ = run(capsys, "color", str(inst_path), "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert parse_coloring(real.read_text()).colors == tuple(report["result"]["colors"])


def test_color_out_writes_into_fifo_without_unlinking_it(tmp_path, capsys):
    inst_path, fifo = tmp_path / "pair.json", tmp_path / "pipe"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    code, report, _ = run(capsys, "color", str(inst_path), "--out", str(fifo))
    reader.join(timeout=10)
    assert code == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert parse_coloring(received[0]).colors == tuple(report["result"]["colors"])


def test_color_out_keeps_hard_links_and_mode(tmp_path, capsys):
    inst_path, col_path, other = (tmp_path / n for n in ("pair.json", "col.json", "other.json"))
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    col_path.write_text("stale")
    col_path.chmod(0o640)
    code, report, _ = run(capsys, "color", str(inst_path), "--out", str(col_path))
    assert code == 0
    assert stat.S_IMODE(col_path.stat().st_mode) == 0o640  # fresh file, old mode
    os.link(col_path, other)
    other.write_text("stale")
    code, _, _ = run(capsys, "color", str(inst_path), "--out", str(col_path))
    assert code == 0
    assert os.path.samefile(col_path, other)  # written in place, link kept
    assert parse_coloring(other.read_text()).colors == tuple(report["result"]["colors"])


def test_failed_rename_names_the_temp_file(tmp_path, capsys, monkeypatch):
    import geomextract.cli as cli

    inst_path, col_path = tmp_path / "pair.json", tmp_path / "col.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst_path))
    col_path.write_text("old")

    def failing_rename(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(cli.os, "rename", failing_rename)
    code = main(["color", str(inst_path), "--out", str(col_path)])
    monkeypatch.undo()
    err = capsys.readouterr().err
    (kept,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert code == 2
    assert str(kept) in err
    assert parse_coloring(kept.read_text()).colors


def _empty_path_run(tmp_path, capsys, monkeypatch, *argv):
    # Runs from tmp_path/work on the interval pair at tmp_path/pair.json
    # ("{inst}" in argv) and returns the exit code, stdout and stderr; an
    # empty --out must create nothing, neither in the working directory nor
    # beside it.
    inst = tmp_path / "pair.json"
    run(capsys, "gen", "--kind", "interval-pair", "--out", str(inst))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = main([str(inst) if a == "{inst}" else a for a in argv])
    captured = capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json", "work"]
    assert list(work.iterdir()) == []
    return code, captured.out, captured.err


def test_gen_empty_out_exit_2(tmp_path, capsys, monkeypatch):
    code, out, err = _empty_path_run(
        tmp_path, capsys, monkeypatch, "gen", "--kind", "kbox", "--out", "")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write an empty path\n"


def test_color_empty_out_exit_2(tmp_path, capsys, monkeypatch):
    code, out, err = _empty_path_run(
        tmp_path, capsys, monkeypatch, "color", "{inst}", "--out", "")
    assert (code, out, err) == (2, "", "error: cannot write an empty path\n")


def test_extract_empty_coloring_or_out_exit_2(tmp_path, capsys, monkeypatch):
    code, out, err = _empty_path_run(
        tmp_path, capsys, monkeypatch, "extract", "{inst}", "--coloring", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read :")
    code = main(["extract", str(tmp_path / "pair.json"), "--out", ""])
    assert capsys.readouterr().err == "error: cannot write an empty path\n"
    assert code == 2
    assert list((tmp_path / "work").iterdir()) == []


def test_verify_empty_coloring_exit_2_and_empty_cover_kept(tmp_path, capsys, monkeypatch):
    code, out, err = _empty_path_run(
        tmp_path, capsys, monkeypatch, "verify", "{inst}", "--coloring", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read :")
    # --cover "" is the empty cover, which misses the pair's target point.
    code, report, _ = run(capsys, "verify", str(tmp_path / "pair.json"), "--cover", "")
    assert code == 0
    assert report["result"]["verdict"] == "uncovered"
    assert report["result"]["point_index"] == 0


def test_render_empty_coloring_or_out_exit_2(tmp_path, capsys, monkeypatch):
    code, out, err = _empty_path_run(
        tmp_path, capsys, monkeypatch, "render", "{inst}", "--coloring", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read :")
    code = main(["render", str(tmp_path / "pair.json"), "--out", ""])
    assert capsys.readouterr() == ("", "error: cannot write an empty path\n")
    assert code == 2
    assert list((tmp_path / "work").iterdir()) == []
