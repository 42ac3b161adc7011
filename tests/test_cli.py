from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys

import pytest

from statops import diagnosis
from statops.cli import main

TRACE_SPEC = """\
kind=trace host=desktop duration=300 seed=11
kind=channel dir=in service=http remote=web01 rate=2.0
kind=channel dir=in service=ldap remote=dc01 rate=2.0
kind=channel dir=out service=sql remote=db01 rate=0.5
kind=channel dir=out service=dns remote=ns01 rate=0.5
kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9
"""


def _write_spec(tmp_path, text=TRACE_SPEC):
    spec = tmp_path / "trace.spec"
    spec.write_text(text, encoding="utf-8")
    return spec


def _metrics_file(tmp_path, seed=0, n_epochs=800):
    ds, cause, _ = diagnosis.synth_metrics(
        n_epochs=n_epochs, n_metrics=9,
        cause_metric_sets=((0, 1, 2), (3, 4, 5), (6, 7, 8)), seed=seed,
    )
    path = tmp_path / "metrics.csv"
    path.write_text(diagnosis.write_metrics_csv(ds), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# gen-trace
# ---------------------------------------------------------------------------


def test_gen_trace_writes_trace_and_truth(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "host.trace"
    assert main(["gen-trace", str(spec), "--out", str(out)]) == 0
    assert out.is_file()
    truth = (tmp_path / "host.trace.truth").read_text()
    assert truth == (
        "kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01\n"
    )


def test_gen_trace_rerun_bit_identical(tmp_path):
    spec = _write_spec(tmp_path)
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["gen-trace", str(spec), "--out", str(out1)]) == 0
    assert main(["gen-trace", str(spec), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_trace_seed_flag_overrides_spec_file(tmp_path):
    spec = _write_spec(tmp_path)
    base, other = tmp_path / "base.trace", tmp_path / "other.trace"
    assert main(["gen-trace", str(spec), "--out", str(base)]) == 0
    assert main(["gen-trace", str(spec), "--seed", "999", "--out", str(other)]) == 0
    assert base.read_bytes() != other.read_bytes()
    again = tmp_path / "again.trace"
    assert main(["gen-trace", str(spec), "--seed", "11", "--out", str(again)]) == 0
    assert base.read_bytes() == again.read_bytes()  # spec file carries seed=11


def test_gen_trace_missing_spec_exits_2(tmp_path, capsys):
    assert main(["gen-trace", str(tmp_path / "nope.spec"), "--out", str(tmp_path / "x")]) == 2
    assert "not found" in capsys.readouterr().err


def test_gen_trace_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("kind=channel dir=in service=s remote=r rate=1\n")
    assert main(["gen-trace", str(spec), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("bad_line,message", [
    # the generated trace would fail to parse: discover rejects host == remote
    ("kind=channel dir=out service=dns remote=desktop rate=0.5",
     "line 7: host equals remote 'desktop'"),
    ("kind=trace host=desktop duration=300 seed=-3", "line 1: bad seed '-3'"),
    ("kind=trace host=desktop duration=300 seed=7.9", "line 1: bad seed '7.9'"),
    ("kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 "
     "mean_delay=0.05 prob=0", "line 7: bad prob '0': must be in (0, 1]"),
], ids=["remote-is-host", "negative-seed", "fractional-seed", "zero-prob"])
def test_gen_trace_bad_spec_line_names_file_and_line_exit_2(tmp_path, capsys, bad_line,
                                                           message):
    lines = TRACE_SPEC.splitlines()
    if bad_line.startswith("kind=trace"):
        lines[0] = bad_line
    else:
        lines.append(bad_line)
    spec = _write_spec(tmp_path, "".join(line + "\n" for line in lines))
    out = tmp_path / "host.trace"
    assert main(["gen-trace", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {spec}: {message}\n"
    assert not out.exists() and not (tmp_path / "host.trace.truth").exists()


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


def test_discover_finds_planted_edges(tmp_path):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    out = tmp_path / "report"
    assert main(["discover", str(trace), "--out", str(out), "--seed", "5"]) == 0
    payload = json.loads((out / "graph.json").read_text())
    edges = {(e["from"], e["to"], e["service"]) for e in payload["edges"]}
    assert ("web01", "desktop", "http") in edges
    assert ("desktop", "db01", "sql") in edges
    assert payload["config"]["seed"] == 5
    pairs = (out / "pairs.csv").read_text()
    assert pairs.startswith("#") and "seed=5" in pairs.splitlines()[0]


def test_discover_epoch_timestamps_tests_every_pair(tmp_path):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    epoch = tmp_path / "epoch.trace"
    epoch.write_text("".join(
        f"ts={float(line.split()[0][3:]) + 1.7e9!r} {line.split(' ', 1)[1]}\n"
        for line in trace.read_text().splitlines()
    ))
    out = tmp_path / "report"
    assert main(["discover", str(epoch), "--out", str(out)]) == 0
    rows = (out / "pairs.csv").read_text().splitlines()[2:]
    assert len(rows) == 4 and all(row.endswith(",false") for row in rows)
    payload = json.loads((out / "graph.json").read_text())
    edges = {(e["from"], e["to"], e["service"]) for e in payload["edges"]}
    assert ("web01", "desktop", "http") in edges


def test_discover_empty_trace_warns_exit_1(tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    out = tmp_path / "report"
    assert main(["discover", str(trace), "--out", str(out)]) == 1
    payload = json.loads((out / "graph.json").read_text())
    assert payload["edges"] == [] and payload["nodes"] == []


def test_discover_two_empty_traces_warn_exit_1(tmp_path, capsys):
    # both parse to host '', which is no repeated host
    first, second = tmp_path / "a.trace", tmp_path / "b.trace"
    first.write_text("")
    second.write_text("\n")
    out = tmp_path / "report"
    assert main(["discover", str(first), str(second), "--out", str(out)]) == 1
    assert "warning: at least one host had no testable channel pairs" in capsys.readouterr().err
    payload = json.loads((out / "graph.json").read_text())
    assert payload["edges"] == [] and payload["nodes"] == []


def test_discover_malformed_trace_exit_2(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("ts=1.0 host=h remote=x service=http dir=sideways\n")
    assert main(["discover", str(trace), "--out", str(tmp_path / "r")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_discover_log_odds_method(tmp_path):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    out = tmp_path / "report"
    assert main(["discover", str(trace), "--out", str(out),
                 "--method", "log-odds"]) == 0
    payload = json.loads((out / "graph.json").read_text())
    edges = {(e["from"], e["to"], e["service"]) for e in payload["edges"]}
    assert ("web01", "desktop", "http") in edges


def test_discover_dot_output(tmp_path):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    out = tmp_path / "report"
    assert main(["discover", str(trace), "--out", str(out), "--format", "dot"]) == 0
    text = (out / "graph.dot").read_text()
    assert text.startswith("//")
    assert "digraph constellation {" in text


@pytest.mark.parametrize("empty", [False, True], ids=["trace", "empty-trace"])
@pytest.mark.parametrize("horizon", ["inf", "nan", "0"])
def test_discover_bad_horizon_exit_2_writes_nothing(horizon, empty, tmp_path, capsys):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    if empty:
        trace.write_text("")
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["discover", str(trace), "--horizon", horizon, "--method", "log-odds",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: horizon must be a finite number > 0, got {float(horizon)}\n"
    assert not out.exists()


def test_discover_repeated_host_exit_2_writes_nothing(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["discover", str(trace), str(trace), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: host ids must be distinct\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_timeline_has_three_clusters(tmp_path):
    metrics = _metrics_file(tmp_path)
    out = tmp_path / "diag"
    code = main([
        "diagnose", str(metrics), "--slo-threshold", "200",
        "--actions", "train,signatures,cluster", "--clusters", "3",
        "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["accuracy"] >= 0.9
    rows = [l for l in (out / "timeline.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    states = {r.split(",")[2] for r in rows}
    assert states == {"compliant", "violation"}
    clusters = {r.split(",")[3] for r in rows if r.split(",")[2] == "violation"}
    assert clusters == {"0", "1", "2"}
    assert all(r.split(",")[3] == "-1" for r in rows if r.split(",")[2] == "compliant")


def test_diagnose_single_class_exit_2(tmp_path, capsys):
    ds, _, _ = diagnosis.synth_metrics(n_epochs=100, n_metrics=4,
                                       cause_metric_sets=((0, 1),), seed=1)
    path = tmp_path / "m.csv"
    path.write_text(diagnosis.write_metrics_csv(ds))
    # a threshold above every ART value leaves a single class
    assert main(["diagnose", str(path), "--slo-threshold", "100000",
                 "--actions", "train", "--out", str(tmp_path / "d")]) == 2
    assert "both classes" in capsys.readouterr().err


def test_diagnose_retrieve_round_trip(tmp_path):
    metrics = _metrics_file(tmp_path, seed=4)
    out = tmp_path / "diag"
    assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                 "--actions", "signatures", "--out", str(out)]) == 0
    catalog = out / "signatures.jsonl"
    assert catalog.is_file()
    first_violation_ts = json.loads(catalog.read_text().splitlines()[0])["ts"]
    code = main([
        "diagnose", str(metrics), "--slo-threshold", "200", "--actions", "retrieve",
        "--catalog", str(catalog), "--query-epoch", str(first_violation_ts),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "retrieval.json").read_text())
    assert len(payload["results"]) == 3
    assert payload["results"][0]["distance"] == 0.0


def test_diagnose_retrieve_computes_only_the_query_signature(tmp_path, monkeypatch):
    metrics = _metrics_file(tmp_path, seed=4)
    out = tmp_path / "diag"
    assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                 "--actions", "signatures", "--out", str(out)]) == 0
    calls = []
    real_signatures = diagnosis.signatures
    monkeypatch.setattr(diagnosis, "signatures",
                        lambda model, rows, epochs: calls.append(len(rows))
                        or real_signatures(model, rows, epochs))
    query_ts = json.loads((out / "signatures.jsonl").read_text().splitlines()[0])["ts"]
    assert main(["diagnose", str(metrics), "--slo-threshold", "200", "--actions", "retrieve",
                 "--catalog", str(out / "signatures.jsonl"), "--query-epoch", str(query_ts),
                 "--out", str(out)]) == 0
    assert calls == [1]


def test_diagnose_retrieve_empty_catalog_exit_2(tmp_path, capsys):
    metrics = _metrics_file(tmp_path, seed=5, n_epochs=300)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                 "--actions", "retrieve", "--catalog", str(empty),
                 "--query-epoch", "10", "--out", str(tmp_path / "d")]) == 2
    assert "empty" in capsys.readouterr().err


def _bad_diagnose_input(case, tmp_path):
    """(argv, expected stderr) of one diagnose run that must fail before
    writing anything."""
    metrics = _metrics_file(tmp_path, seed=6, n_epochs=300)
    assert main(["diagnose", str(metrics), "--slo-threshold", "200", "--actions", "signatures",
                 "--out", str(tmp_path / "made")]) == 0
    catalog = tmp_path / "made" / "signatures.jsonl"
    entries = catalog.read_text().splitlines()
    lines = metrics.read_text().splitlines()
    argv = ["diagnose", str(metrics), "--slo-threshold", "200", "--out", str(tmp_path / "out")]
    retrieve = ["--actions", "train,retrieve", "--catalog", str(catalog), "--query-epoch", "10"]
    if case == "ragged-row":
        lines[4] = lines[4].rsplit(",", 1)[0]
        metrics.write_text("\n".join(lines) + "\n")
        return argv, f"error: {metrics}: line 5: 10 fields, the header has 11\n"
    if case == "nan-cell":
        cells = lines[6].split(",")
        lines[6] = ",".join(cells[:3] + ["nan"] + cells[4:])
        metrics.write_text("\n".join(lines) + "\n")
        return argv, (f"error: {metrics}: line 7: 'nan' in column 'metric_01' is not a "
                      "finite number\n")
    if case in ("too-many-clusters", "zero-clusters"):
        k = "100000" if case == "too-many-clusters" else "0"
        return ([*argv, "--clusters", k], f"error: --clusters must lie in [1, {len(entries)}], "
                f"the number of violations, got {k}\n")
    if case == "no-catalog":
        return [*argv, *retrieve[:2], *retrieve[4:]], "error: retrieve requires --catalog\n"
    if case == "no-query-epoch":
        return [*argv, *retrieve[:4]], "error: retrieve requires --query-epoch\n"
    if case in ("nan-query-epoch", "inf-query-epoch"):
        epoch = case.split("-")[0]
        return ([*argv, *retrieve[:-1], epoch],
                f"error: --query-epoch must be a finite number, got {epoch}\n")
    if case == "missing-catalog":
        catalog.unlink()
        return [*argv, *retrieve], f"error: catalog not found: {catalog}\n"
    if case == "bad-catalog-json":
        entries[1] = "{oops"
        catalog.write_text("\n".join(entries) + "\n")
        return [*argv, *retrieve], (f"error: {catalog}: line 2: bad JSON: Expecting property "
                                    "name enclosed in double quotes\n")
    if case == "catalog-width":
        narrow = [json.dumps({**json.loads(e), "attributions": [0.0, 1.0, 2.0]}) for e in entries]
        catalog.write_text("\n".join(narrow) + "\n")
        return [*argv, *retrieve], (f"error: {catalog}: catalog entries have 3 attributions, "
                                    "the metrics log has 9 metrics\n")
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "ragged-row", "nan-cell", "too-many-clusters", "zero-clusters", "no-catalog",
    "no-query-epoch", "nan-query-epoch", "inf-query-epoch", "missing-catalog",
    "bad-catalog-json", "catalog-width",
])
def test_diagnose_bad_input_exit_2_writes_nothing(case, tmp_path, capsys):
    argv, message = _bad_diagnose_input(case, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (["--actions", ","], "--actions must name at least one action, got ','"),
    (["--actions", ""], "--actions must name at least one action, got ''"),
    (["--actions", "train,bogus"], "unknown actions: ['bogus']"),
    (["--actions", "retrieve", "--query-epoch", "5"], "retrieve requires --catalog"),
    (["--actions", "retrieve", "--catalog", "c.jsonl"], "retrieve requires --query-epoch"),
    (["--actions", "retrieve", "--catalog", "c.jsonl", "--query-epoch", "inf"],
     "--query-epoch must be a finite number, got inf"),
    (["--actions", "retrieve", "--catalog", "c.jsonl", "--query-epoch", "5", "--top-k", "0"],
     "--top-k must be >= 1"),
], ids=["comma-actions", "empty-actions", "unknown-action", "no-catalog", "no-query-epoch",
        "inf-query-epoch", "zero-top-k"])
def test_diagnose_bad_flag_fails_before_reading_metrics(flags, message, tmp_path, capsys):
    # the metrics path does not exist: the flag error must come first
    out = tmp_path / "out"
    argv = ["diagnose", str(tmp_path / "missing.csv"), "--slo-threshold", "200", *flags,
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# repair-sim / repair-mine
# ---------------------------------------------------------------------------


def test_repair_sim_and_mine_zero_faults(tmp_path):
    log = tmp_path / "repair.log"
    assert main(["repair-sim", "--machines", "4", "--ticks", "50",
                 "--seed", "2", "--out", str(log)]) == 0
    assert log.is_file() and (tmp_path / "repair.log.truth").is_file()
    out = tmp_path / "mine"
    assert main(["repair-mine", str(log), "--out", str(out)]) == 0
    payload = json.loads((out / "policy.json").read_text())
    assert payload["availability"] == 1.0
    assert payload["total_cost"] == 0.0


def test_repair_mine_missing_file_exit_2(tmp_path, capsys):
    assert main(["repair-mine", str(tmp_path / "nope.log"),
                 "--out", str(tmp_path / "m")]) == 2
    assert "not found" in capsys.readouterr().err


def test_repair_sim_bad_watchdog_spec_exit_2(tmp_path, capsys):
    assert main(["repair-sim", "--watchdog", "broken", "--out",
                 str(tmp_path / "x.log")]) == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--machines", "0", "--machines must be >= 1, got 0"),
    ("--ticks", "-1", "--ticks must be >= 1, got -1"),
    ("--watchdog", "a:x:0", "--watchdog FP and FN must be numbers, got 'a:x:0'"),
], ids=["machines", "ticks", "watchdog"])
def test_repair_sim_bad_flag_names_it_exit_2_writes_nothing(flag, value, message, tmp_path,
                                                            capsys):
    log = tmp_path / "x.log"
    assert main(["repair-sim", flag, value, "--out", str(log)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not log.exists() and not (tmp_path / "x.log.truth").exists()


@pytest.mark.parametrize("spec,name", [("a;b:0:0", "a;b"), ("a b:0:0", "a b"), (":0:0", "")],
                         ids=["semicolon", "space", "empty"])
def test_repair_sim_watchdog_name_outside_log_syntax_exit_2(tmp_path, capsys, spec, name):
    log = tmp_path / "x.log"
    assert main(["repair-sim", "--watchdog", spec, "--out", str(log)]) == 2
    assert capsys.readouterr().err == (
        "error: watchdog name must be non-empty without whitespace, ';' or ':', "
        f"got {name!r}\n")
    assert not log.exists()


def test_repair_mine_missing_truth_file_exit_2(tmp_path, capsys):
    log = tmp_path / "repair.log"
    assert main(["repair-sim", "--machines", "2", "--ticks", "5", "--out", str(log)]) == 0
    capsys.readouterr()
    out = tmp_path / "mine"
    assert main(["repair-mine", str(log), "--truth", str(tmp_path / "nope.truth"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: truth file not found: {tmp_path / 'nope.truth'}\n"
    assert not out.exists()
    (tmp_path / "repair.log.truth").unlink()  # the default sidecar stays optional
    assert main(["repair-mine", str(log), "--out", str(out)]) == 0


_GOOD_LOG_LINE = "tick=0 machine=m00 state=Healthy action=- reports=wd:OK\n"


@pytest.mark.parametrize("bad_line,message", [
    ("tick=x machine=m00 state=Healthy action=- reports=wd:OK", "line 2: bad tick 'x'"),
    ("tick=1 machine=m00 state=Healthy action=- reports=wd:OK;wd:Error",
     "line 2: duplicate watchdog 'wd'"),
], ids=["bad-tick", "duplicate-watchdog"])
def test_repair_mine_bad_log_line_names_file_and_line_exit_2(tmp_path, capsys, bad_line, message):
    log = tmp_path / "repair.log"
    log.write_text(_GOOD_LOG_LINE + bad_line + "\n", encoding="utf-8")
    out = tmp_path / "mine"
    assert main(["repair-mine", str(log), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {log}: {message}\n"
    assert not out.exists()


def test_repair_mine_bad_truth_sidecar_names_file_and_line_exit_2(tmp_path, capsys):
    log = tmp_path / "repair.log"
    log.write_text(_GOOD_LOG_LINE, encoding="utf-8")
    truth = tmp_path / "repair.log.truth"
    truth.write_text("tick=0 machine=m00 truth=weird\n", encoding="utf-8")
    out = tmp_path / "mine"
    assert main(["repair-mine", str(log), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {truth}: line 1: bad truth 'weird'\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--lookahead", "-1", "--lookahead must be >= 0, got -1"),
    ("--downtime-cost", "-5", "--downtime-cost must be a finite number >= 0, got -5.0"),
    ("--downtime-cost", "nan", "--downtime-cost must be a finite number >= 0, got nan"),
])
def test_repair_mine_bad_flag_exit_2_writes_nothing(flag, value, message, tmp_path, capsys):
    log = tmp_path / "repair.log"
    log.write_text(_GOOD_LOG_LINE, encoding="utf-8")
    out = tmp_path / "mine"
    assert main(["repair-mine", str(log), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# --seed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["gen-trace", "discover", "diagnose", "repair-sim"])
def test_negative_seed_names_the_flag_exit_2_writes_nothing(command, tmp_path, capsys):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    inputs = {
        "gen-trace": [str(spec)],
        "discover": [str(trace)],
        "diagnose": [str(_metrics_file(tmp_path)), "--slo-threshold", "200"],
        "repair-sim": [],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([command, *inputs, "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: must be a non-negative integer, got '-1'\n")
    assert not out.exists() and not (tmp_path / "out.truth").exists()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_bh_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.001 0.008 0.039 0.041 0.27 0.60"))
    assert main(["stats", "bh", "--alpha", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rejected_indices"] == [0, 1]
    assert payload["threshold"] == 0.008
    assert payload["m"] == 6


def test_stats_ks_report(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4\n2 3 4 5\n"))
    assert main(["stats", "ks"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == 0.25
    assert 0 < payload["p_value"] <= 1


def test_stats_bh_bad_input_exit_2(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5 1.7"))
    assert main(["stats", "bh"]) == 2


# ---------------------------------------------------------------------------
# packaging entry points
# ---------------------------------------------------------------------------


def test_console_script_and_module_entry():
    if shutil.which("statops"):
        proc = subprocess.run(["statops", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-trace" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "statops", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "repair-mine" in proc.stdout


# ---------------------------------------------------------------------------
# determinism across reruns
# ---------------------------------------------------------------------------


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_full_pipeline_reruns_byte_identical(tmp_path):
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    metrics = _metrics_file(tmp_path, seed=7)
    runs = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        assert main(["discover", str(trace), "--out", str(root / "disc"),
                     "--seed", "1"]) == 0
        assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                     "--actions", "train,signatures,cluster",
                     "--out", str(root / "diag"), "--seed", "1"]) == 0
        assert main(["repair-sim", "--machines", "5", "--ticks", "60", "--seed", "1",
                     "--persistent-rate", "0.01",
                     "--out", str(root / "repair.log")]) == 0
        assert main(["repair-mine", str(root / "repair.log"),
                     "--out", str(root / "mine")]) == 0
        runs.append(_tree_bytes(root))
    assert runs[0] == runs[1]
