"""Tools outside the library must keep working against it."""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from ldga.cedga import m821_grid

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "make_m821_fixture.py"
TRACING = REPO / "perfbench" / "tracing.py"


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_layers_resolve_to_library_functions():
    # `--trace 1` wraps these by name; a rename must fail here, not there
    for module, function, span, _ in load_by_path(TRACING).LAYERS:
        assert module.startswith("ldga."), span
        assert callable(getattr(importlib.import_module(module), function, None)), span


def test_tracer_counts_a_traced_pipeline():
    # `--trace 1` reads these counters off the traced calls' arguments and
    # results; a change to a traced return type must fail here, not there
    from ldga import augment, cedga, diagram, linhom, obstruct

    tracer = load_by_path(TRACING).Tracer()
    with tracer.installed():
        cedga.build_dga(diagram.resolve(diagram.grid_to_front(cedga.m821_grid())))
        obstruct.certify_nongeometric("classB_twist", n=5, schedule=[3])
        trefoil = cedga.build_dga(cedga.trefoil_projection())
        for eps in augment.enumerate_augmentations(trefoil, 2):
            # class B no longer ranks over F2, so the field ranks come from here
            linhom.homology_field(augment.linearized_complex(trefoil, eps))
        twist = augment.parse_polysystem((REPO / "fixtures" / "twist_variety.sys").read_text())
        assert augment.variety_points(twist, 4) == 3  # q - 1 points on ab = -1
    for metric in ("diagram.crossings", "cedga.disks", "linhom.field_rank_cells",
                   "linhom.snf_cells", "augment.solutions", "augment.conjugate_calls"):
        assert tracer.counts.get(metric, 0) > 0, metric
    # both callers of the one solver keep a span, so its time stays attributed
    names = {span[0] for span in tracer.spans}
    assert {"augment.enumerate", "augment.variety_points"} <= names, names


def test_m821_tool_polynomial_multiset():
    tool = load_by_path(TOOL)
    polys = tool.polynomial_multiset(m821_grid())
    assert tool.TARGET_POLY == {-1: 1, 0: 4, 1: 2}
    assert tool.TARGET_POLY in polys
    # the docstring's profile: exactly 2 + t and t^-1 + 4 + 2t
    distinct = {tuple(sorted(p.items())) for p in polys}
    assert distinct == {((0, 2), (1, 1)), ((-1, 1), (0, 4), (1, 2))}


def test_m821_tool_braid_word_and_alexander_pinned():
    tool = load_by_path(TOOL)
    word = tool.find_braid_word()
    assert word == (1, 1, 1, 2, -1, -1, 2, 2)
    assert tool.braid_alexander(word) == tool.TARGET_ALEXANDER == (1, -4, 5, -4, 1)
    # unknot, trefoil, figure-eight, T(2,5)
    known = {(1, 2): (1,), (1, 1, 1, 2): (1, -1, 1), (1, -2, 1, -2): (1, -3, 1),
             (1, 1, 1, 1, 1, 2): (1, -1, 1, -1, 1)}
    for w, alexander in known.items():
        assert tool.braid_closure_is_knot(w)
        assert tool.braid_alexander(w) == alexander, w


def test_m821_tool_bracket_invariant_pinned():
    tool = load_by_path(TOOL)
    assert tool.grid_invariant(m821_grid()) == (
        (-22, -2), (-14, -1), (-6, 1), (2, 1), (6, -1),
    )


AB_BENCH = REPO / "tools" / "ab_bench.py"


def result_line(correct, pass_s, setup_s=0.2):
    """One canned last line of perfbench/run.py."""
    return (
        f'{{"correct": {"true" if correct else "false"}, "attempted": 10, "failed": 0, '
        f'"metrics": {{"setup_s": {{"value": {setup_s}, "unit": "s"}}, '
        f'"pass_s.ref": {{"value": {pass_s}, "unit": "s"}}}}}}'
    )


def test_ab_bench_summary_of_canned_pairs():
    import json

    tool = load_by_path(AB_BENCH)
    metrics = list(tool.metric_directions())
    assert metrics == ["setup_s", "pass_s.ref", "ops_per_s.ref", "peak_rss_mb"]
    pairs = [
        (json.loads(result_line(True, a)), json.loads(result_line(True, b)))
        for a, b in [(0.30, 0.27), (0.31, 0.28), (0.32, 0.33)]
    ]
    lines, ok = tool.summarize(pairs, metrics)
    assert ok
    by_metric = {line.split(":")[0]: line for line in lines}
    # ratios 0.9, 0.9032, 1.03125: the median is the middle one
    assert by_metric["pass_s.ref"] == (
        "pass_s.ref: A 0.31 [0.3, 0.32], B 0.28 [0.27, 0.33]; "
        "median B/A 0.9032 over 3 pairs, B below A in 2"
    )
    assert by_metric["setup_s"].endswith("median B/A 1.0000 over 3 pairs, B below A in 0")
    assert by_metric["peak_rss_mb"] == "peak_rss_mb: no pairs"
    assert "pass_s.ref 0.3 -> 0.27" in tool.pair_line("pair 0", *pairs[0], metrics)


def test_ab_bench_fails_on_an_incorrect_or_missing_side():
    import json

    tool = load_by_path(AB_BENCH)
    good = json.loads(result_line(True, 0.3))
    bad = json.loads(result_line(False, 0.2))
    assert not tool.summarize([(good, good), (good, bad)], ["pass_s.ref"])[1]
    assert not tool.summarize([(None, good)], ["pass_s.ref"])[1]
    assert "B NOT CORRECT" in tool.pair_line("pair 1", good, bad, ["pass_s.ref"])
    assert tool.summarize([(good, good)], ["pass_s.ref"])[1]


def test_ab_bench_fails_when_b_fails_a_larger_share_of_ops():
    # an op that raises counts as failed but leaves `correct` true
    import json

    tool = load_by_path(AB_BENCH)
    clean = json.loads(result_line(True, 0.3))
    raising = {**clean, "failed": 3}
    pairs = [(clean, clean), (clean, raising)]
    assert all(tool.is_correct(r) for pair in pairs for r in pair)
    lines, ok = tool.summarize(pairs, ["pass_s.ref"])
    assert not ok
    assert lines[-1] == "B fails a larger share of its ops than A: 3/20 against 0/20"
    assert tool.failed_ops(pairs) == [(0, 20), (3, 20)]
    assert "A correct failed 0/10, B correct failed 3/10" in tool.pair_line(
        "pair 1", *pairs[1], ["pass_s.ref"])
    # the same share on both sides, or fewer failures on B, passes
    assert tool.summarize([(raising, raising)], ["pass_s.ref"])[1]
    assert tool.summarize([(raising, clean)], ["pass_s.ref"])[1]


def test_ab_bench_keeps_a_zero_on_side_a():
    import json

    tool = load_by_path(AB_BENCH)
    pairs = [
        (json.loads(result_line(True, a)), json.loads(result_line(True, b)))
        for a, b in [(0.0, 0.1), (0.2, 0.1), (0.4, 0.2)]
    ]
    (line,), ok = tool.summarize(pairs, ["pass_s.ref"])
    assert ok
    # quartiles over all three pairs; ratios only where A is nonzero
    assert line.startswith("pass_s.ref: A 0.2 [0, 0.4], B 0.1 [0.1, 0.2]; ")
    assert line.endswith(
        "median B/A 0.5000 over 2 pairs, B below A in 2 (1 pairs with A = 0 have no ratio)"
    )
    (line,), _ = tool.summarize(pairs[:1], ["pass_s.ref"])
    assert line.endswith("no ratio (1 pairs with A = 0 have no ratio)")


def test_ab_bench_runs_write_no_bytecode(monkeypatch, tmp_path):
    # every run compiles what it imports, as a run from a fresh checkout
    # does: none may start from bytecode that an earlier run left in its tree
    import subprocess
    import types

    tool = load_by_path(AB_BENCH)
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        return types.SimpleNamespace(returncode=0, stdout=result_line(True, 0.3), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert tool.run_side(tmp_path, "cli-small", 1, 1.0)["correct"]
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["env"]["PATH"] == os.environ["PATH"]


def test_ab_bench_counts_non_blank_source_lines(tmp_path):
    tool = load_by_path(AB_BENCH)
    src = tmp_path / "src" / "ldga"
    src.mkdir(parents=True)
    (src / "a.py").write_text("import os\n\n\ndef f():\n    return 1\n")
    (src / "b.py").write_text("   \nx = 1")
    (src / "notes.txt").write_text("not\ncounted\n")
    assert tool.source_lines(tmp_path) == 4


def test_ab_bench_ends_with_a_json_summary(monkeypatch, capsys):
    # the text summary and the JSON line come from the same canned pairs
    import json

    tool = load_by_path(AB_BENCH)
    canned = iter(result_line(True, p, setup_s=s)
                  for p, s in [(0.30, 0.20), (0.27, 0.21), (0.33, 0.20), (0.28, 0.19)])
    monkeypatch.setattr(tool, "export", lambda rev, dest: dest)
    monkeypatch.setattr(tool, "source_lines", lambda tree: {"a": 100, "b": 90}[tree.name])
    monkeypatch.setattr(tool, "run_side", lambda *args: json.loads(next(canned)))
    assert tool.main(["A", "B", "--workload", "m821-fields", "--pairs", "2", "--seed", "5"]) == 0
    *text, last = capsys.readouterr().out.splitlines()
    assert "failed ops: A 0/20, B 0/20" in text
    summary = json.loads(last)
    assert {k: summary[k] for k in ("workload", "rev_a", "rev_b", "seed", "pairs", "ok")} == {
        "workload": "m821-fields", "rev_a": "A", "rev_b": "B", "seed": 5, "pairs": 2, "ok": True}
    assert summary["source_lines"] == {"A": 100, "B": 90}
    assert summary["ops"] == {"A": {"failed": 0, "attempted": 20},
                              "B": {"failed": 0, "attempted": 20}}
    # pair 0 runs A first (0.30, then B 0.27), pair 1 runs B first (0.33, then A 0.28)
    passes = summary["metrics"]["pass_s.ref"]
    assert passes["A"]["median"] == pytest.approx(0.29) and passes["B"]["median"] == pytest.approx(0.30)
    assert (passes["pairs"], passes["ratios"], passes["b_below_a"], passes["b_wins"]) == (2, 2, 1, 1)
    assert passes["median_ratio"] == pytest.approx((0.27 / 0.30 + 0.33 / 0.28) / 2)
    assert summary["metrics"]["ops_per_s.ref"] is None  # no side reports it
    a, b = ("{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**passes[side]) for side in "AB")
    assert f"pass_s.ref: A {a}, B {b}; median B/A {passes['median_ratio']:.4f} over 2 pairs, " \
        "B below A in 1" in text


def test_ab_bench_counts_wins_in_the_better_direction():
    import json

    tool = load_by_path(AB_BENCH)
    pairs = [
        (json.loads(result_line(True, a)), json.loads(result_line(True, b)))
        for a, b in [(0.3, 0.2), (0.3, 0.4), (0.3, 0.5)]
    ]
    lower = tool.metric_summary(pairs, "pass_s.ref", "lower")
    higher = tool.metric_summary(pairs, "pass_s.ref", "higher")
    assert (lower["b_wins"], higher["b_wins"], lower["b_below_a"]) == (1, 2, 1)
    assert tool.metric_directions()["ops_per_s.ref"] == "higher"


def test_committed_bench_records_name_a_workload_and_its_metrics():
    # each BENCH_*.json is the last line of tools/ab_bench.py on one workload
    import json

    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    records = sorted(REPO.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["workload"] in workloads, path.name
        assert path.name == f"BENCH_{record['workload']}.json"
        assert set(record["metrics"]) == end_to_end, path.name
