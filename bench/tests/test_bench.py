"""Tests of the benchmark's own logic: span arithmetic, layer wrapping,
output checks, the metric lists in BENCHMARK.json, and a tiny-scale smoke
run of both workloads.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from session import ROOT, Op, check_session
from spans import COUNT_SPAN, Recorder, covered, install, summarize, uninstall
from workloads import DESK, FLEET

TINY = {
    "desk": dataclasses.replace(DESK, duration=120.0, epochs=2000, machines=4, ticks=300),
    "fleet": dataclasses.replace(FLEET, hosts=2, inputs=6, outputs=6, deps=2, epochs=600,
                                 metrics=30, causes=3, cause_width=5, clusters=3,
                                 machines=20, ticks=100),
}


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered(0.0, 10.0, [(8.0, 12.0), (-2.0, 1.0)]) == 3.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7), (20.0, 30.0)]) == 1.0


def test_self_time_of_nested_fake_spans():
    fake = [
        ("cli.discover", 0.0, 10.0, -1),      # 0: root
        ("discovery.local", 1.0, 7.0, 0),     # 1
        ("stats.ks", 2.0, 3.0, 1),            # 2
        ("stats.ks", 4.0, 6.5, 1),            # 3
        ("stats.cdf", 4.5, 5.0, 3),           # 4: grandchild
        (COUNT_SPAN, 7.0, 7.5, 0),            # 5: bookkeeping, excluded
        ("cli.retrieve", 20.0, 22.0, -1),     # 6: second root
        ("stats.ks", 20.5, 21.0, 6),          # 7
    ]
    s = summarize(fake)
    assert s["cli.discover"]["self_s"] == pytest.approx(10.0 - 6.0 - 0.5)
    assert s["discovery.local"]["self_s"] == pytest.approx(6.0 - 1.0 - 2.5)
    assert s["stats.ks"]["self_s"] == pytest.approx(1.0 + 2.0 + 0.5)
    assert s["stats.cdf"]["self_s"] == pytest.approx(0.5)
    assert s["stats.ks"]["calls"] == 3
    assert s["stats.ks"]["calls_in.cli.discover"] == 2
    assert s["stats.ks"]["calls_in.cli.retrieve"] == 1
    assert COUNT_SPAN not in s
    total_self = sum(v["self_s"] for v in s.values())
    assert total_self == pytest.approx(10.0 + 2.0 - 0.5)  # roots minus bookkeeping


def test_recorder_links_parents_and_counts_items():
    rec = Recorder()
    inner = rec.wrap("inner", lambda n: list(range(n)), items=lambda args, result: len(result))
    outer = rec.wrap("outer", lambda: [inner(3), inner(4)])
    outer()
    named = [s for s in rec.spans if s[0] != COUNT_SPAN]
    assert [s[0] for s in named] == ["outer", "inner", "inner"]
    assert [s[3] for s in named] == [-1, 0, 0]
    assert rec.items["inner"] == 7
    assert summarize(rec.spans)["inner"]["calls"] == 2

    miscounted = rec.wrap("miscounted", lambda: 1, items=lambda args, result: args[5])
    assert miscounted() == 1
    assert rec.items["miscounted"] == 0


def test_install_wraps_callers_bindings_and_reports_absent(monkeypatch):
    import statops.discovery
    import statops.traces

    original = statops.discovery.delay_samples
    monkeypatch.delattr(statops.discovery, "build_graph")
    rec = Recorder()
    patches, absent = install(rec)
    try:
        assert absent == ["discovery.build_graph"]
        assert statops.discovery.delay_samples is not original
        assert statops.traces.delay_samples is original  # only the caller's binding
    finally:
        uninstall(patches)
    assert statops.discovery.delay_samples is original


def test_check_session_and_byte_comparison_flag_bad_outputs(tmp_path):
    (tmp_path / "mine").mkdir()
    (tmp_path / "mine" / "watchdogs.csv").write_text("# x\nwatchdog,estimated_fp_rate\n")
    ops = [Op("repair_mine", ["repair-mine", "log", "--out", str(tmp_path / "mine")], code=0),
           Op("repair_sim", ["repair-sim", "--out", str(tmp_path / "repair.log")], code=3)]
    check_session(TINY["desk"], None, tmp_path, ops)
    assert "KeyError" in ops[0].problem or "FileNotFoundError" in ops[0].problem
    assert ops[1].problem == "exit code 3"

    ok = Op("repair_sim", ["repair-sim", "--out", str(tmp_path / "repair.log")], code=0)
    run.compare_outputs([ok], tmp_path, {"repair.log": "a", "mine/x": "b"},
                        {"repair.log": "a", "mine/x": "c"})
    assert ok.problem == ""
    run.compare_outputs([ok], tmp_path, {"repair.log.truth": "a"}, {"repair.log.truth": "b"})
    assert ok.problem == "output differs from the first session's"


def test_trimmed_mean_drops_the_extreme_tenth():
    assert run.trimmed_mean([2.0, 1.0, 3.0]) == 2.0
    assert run.trimmed_mean([1.0, 1.0, 1.0, 1.0, 9.0]) == 1.0
    assert run.trimmed_mean([0.0] + [1.0] * 18 + [50.0]) == 1.0
    assert run.trimmed_mean([0.0, 0.5] + [1.0] * 16 + [2.0, 50.0]) == 1.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name, tmp_path):
    w = TINY[name]
    metrics, ops, details = run.timed_run(w, seed=3, seconds=0, work=tmp_path / "timed")
    assert details["sessions"] == run.MIN_SESSIONS
    assert [op for op in ops if op.failed] == []
    assert set(metrics) == {n for n, _ in run.END_TO_END}
    assert all(v > 0 for v in metrics.values())

    metrics, ops, details = run.traced_run(w, seed=3, seconds=0, work=tmp_path / "traced")
    assert [op for op in ops if op.failed] == []
    assert details["absent_layers"] == []
    assert set(metrics) == {n for n, _, _ in spans.per_layer_names()}
    assert metrics["discovery.tested_ratio"] == 1.0
    assert metrics["discovery.shifted.pairs"] == w.inputs * w.outputs
    assert metrics["diagnosis.retrieve.signatures_per_query"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
