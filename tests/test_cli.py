from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
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


def test_discover_seed_changes_only_its_echo(tmp_path):
    # the null is exact, so discover draws nothing: --seed is echoed, no more
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"report{seed}"
        assert main(["discover", str(trace), "--out", str(out), "--seed", seed]) == 0
        first, *rest = (out / "pairs.csv").read_text().splitlines()
        assert f"seed={seed}" in first
        reports.append(rest)
    assert reports[0] == reports[1] and len(reports[0]) > 1


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
    # the trace exists (full or empty): argparse refuses the flag all the same
    spec = _write_spec(tmp_path)
    trace = tmp_path / "host.trace"
    main(["gen-trace", str(spec), "--out", str(trace)])
    if empty:
        trace.write_text("")
    capsys.readouterr()
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exit_info:
        main(["discover", str(trace), "--horizon", horizon, "--method", "log-odds",
              "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"statops discover: error: argument --horizon: must be a finite number > 0, "
        f"got '{horizon}'")
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


@pytest.mark.parametrize("threshold,actions,message", [
    ("1e9", "cluster,train", "no epoch is a violation: no art_ms exceeds "
                             "--slo-threshold 1000000000.0"),
    ("1e9", "train", "no epoch is a violation: no art_ms exceeds --slo-threshold 1000000000.0"),
    ("0.001", "cluster,train", "no epoch is compliant: every art_ms exceeds "
                               "--slo-threshold 0.001"),
], ids=["none-violate-cluster", "none-violate-train", "all-violate-cluster"])
def test_diagnose_single_class_names_the_missing_class(threshold, actions, message, tmp_path,
                                                       capsys):
    # the class check comes before --clusters, which would otherwise read [1, 0]
    metrics = _metrics_file(tmp_path, seed=1, n_epochs=100)
    out = tmp_path / "d"
    assert main(["diagnose", str(metrics), "--slo-threshold", threshold, "--actions", actions,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: need both classes, but {message}\n"
    assert not out.exists()


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
    if case == "unsorted-ts":
        lines[9], lines[10] = lines[10], lines[9]
        metrics.write_text("\n".join(lines) + "\n")
        ts = [line.split(",", 1)[0] for line in lines[9:11]]
        return argv, (f"error: {metrics}: line 11: ts {float(ts[1])!r} is below the previous "
                      f"row's {float(ts[0])!r}\n")
    if case == "nan-cell":
        cells = lines[6].split(",")
        lines[6] = ",".join(cells[:3] + ["nan"] + cells[4:])
        metrics.write_text("\n".join(lines) + "\n")
        return argv, (f"error: {metrics}: line 7: 'nan' in column 'metric_01' is not a "
                      "finite number\n")
    if case == "too-many-clusters":
        return ([*argv, "--clusters", "100000"], f"error: --clusters must lie in "
                f"[1, {len(entries)}], the number of violations, got 100000\n")
    if case == "no-catalog":
        return [*argv, *retrieve[:2], *retrieve[4:]], "error: retrieve requires --catalog\n"
    if case == "no-query-epoch":
        return [*argv, *retrieve[:4]], "error: retrieve requires --query-epoch\n"
    if case == "inf-query-epoch":
        # argparse refuses it: the message is the last stderr line
        return ([*argv, *retrieve[:-1], "inf"], "statops diagnose: error: argument "
                "--query-epoch: must be a finite number, got 'inf'")
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
    "ragged-row", "unsorted-ts", "nan-cell", "too-many-clusters", "no-catalog", "no-query-epoch",
    "inf-query-epoch", "missing-catalog", "bad-catalog-json", "catalog-width",
])
def test_diagnose_bad_input_exit_2_writes_nothing(case, tmp_path, capsys):
    argv, message = _bad_diagnose_input(case, tmp_path)
    capsys.readouterr()
    if case == "inf-query-epoch":
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def _huge_metric_log(path, case):
    """A 40-epoch log (every third epoch a violation) with one cell of metric
    m0 too large to model.  "variance": 1e+200 on one compliant epoch, whose
    class variance overflows.  "attribution": 5.0 on every compliant epoch
    and 1e152 on one violation, whose variances stay finite but whose
    attribution does not."""
    rng = np.random.default_rng(0)
    cells = rng.random((40, 2))
    violation = np.arange(40) % 3 == 0
    if case == "variance":
        cells[1, 0] = 1e200
    else:
        cells[~violation, 0] = 5.0
        cells[0, 0] = 1e152
    rows = [f"{ts},{300.0 if v else 100.0},{m0!r},{m1!r}"
            for ts, (v, (m0, m1)) in enumerate(zip(violation.tolist(), cells.tolist()))]
    path.write_text("\n".join(["ts,art_ms,m0,m1", *rows]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("actions", [[], ["--actions", "signatures"]],
                         ids=["default-actions", "signatures"])
@pytest.mark.parametrize("case,what", [
    ("variance", "a class mean or variance"),
    ("attribution", "an epoch's attribution"),
], ids=["variance", "attribution"])
def test_diagnose_metric_too_large_to_model_names_it_exit_2_writes_nothing(case, what, actions,
                                                                            tmp_path, capsys):
    # the fit and the signatures fail after the reads and the checks: no
    # report may be written before them
    metrics = tmp_path / "metrics.csv"
    _huge_metric_log(metrics, case)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert main(["diagnose", str(metrics), "--slo-threshold", "200", *actions,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {metrics}: metric 'm0': {what} is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["default-actions", "train-signatures", "retrieve"])
def test_diagnose_attribution_too_large_to_compare_names_it_exit_2_writes_nothing(case, tmp_path,
                                                                                  capsys):
    # 40 epochs, a violation on every fourth; m0 is 5.0 on each compliant
    # epoch, so its variance sits at the floor, and 6 + ts on each violation
    # but 1e+100 at ts 8, whose attribution (about 5e+205) is finite but
    # squares past float range in every distance k-means or retrieve takes
    metrics = tmp_path / "metrics.csv"
    rows = [f"{ts},{300.0 if ts % 4 == 0 else 100.0},"
            f"{(1e100 if ts == 8 else 6.0 + ts) if ts % 4 == 0 else 5.0!r}" for ts in range(40)]
    metrics.write_text("\n".join(["ts,art_ms,m0", *rows]) + "\n", encoding="utf-8")
    argv = ["diagnose", str(metrics), "--slo-threshold", "200", "--out", str(tmp_path / "out")]
    message = f"{metrics}: metric 'm0': an epoch's attribution exceeds 1e+100 in magnitude"
    if case == "train-signatures":
        argv += ["--actions", "train,signatures"]
    elif case == "retrieve":
        # the catalog a signatures run would write, with a blank line: line 4
        # holds the attribution that is too large
        catalog = tmp_path / "catalog.jsonl"
        lines = diagnosis.SignatureCatalog([[5e8], [1.2e9], [5e205]], [0.0, 4.0, 8.0],
                                           ("", "", "")).to_jsonl().splitlines()
        catalog.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n", encoding="utf-8")
        argv += ["--actions", "retrieve", "--catalog", str(catalog), "--query-epoch", "8"]
        message = f"{catalog}: line 4: an attribution exceeds 1e+100 in magnitude"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (["--actions", ","], "--actions must name at least one action, got ','"),
    (["--actions", ""], "--actions must name at least one action, got ''"),
    (["--actions", "train,bogus"], "unknown actions: ['bogus']"),
    (["--actions", "retrieve", "--query-epoch", "5"], "retrieve requires --catalog"),
    (["--actions", "retrieve", "--catalog", "c.jsonl"], "retrieve requires --query-epoch"),
    (["--actions", "retrieve", "--catalog", "c.jsonl", "--query-epoch", "inf"],
     "argument --query-epoch: must be a finite number, got 'inf'"),
], ids=["comma-actions", "empty-actions", "unknown-action", "no-catalog", "no-query-epoch",
        "inf-query-epoch"])
def test_diagnose_bad_flag_fails_before_reading_metrics(flags, message, tmp_path, capsys):
    # the metrics path does not exist: the flag error must come first
    out = tmp_path / "out"
    argv = ["diagnose", str(tmp_path / "missing.csv"), "--slo-threshold", "200", *flags,
            "--out", str(out)]
    if message.startswith("argument "):
        # argparse refuses the value: it exits, printing usage first
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"statops diagnose: error: {message}"
    else:
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


@pytest.mark.parametrize("flags,message", [
    (["--watchdog", "a:0:0", "--watchdog", "a:0.1:0"],
     "--watchdog names must be distinct, 'a' repeats"),
], ids=["watchdog-repeat"])
def test_repair_sim_bad_flag_names_it_exit_2_writes_nothing(flags, message, tmp_path, capsys):
    log = tmp_path / "x.log"
    assert main(["repair-sim", *flags, "--out", str(log)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not log.exists() and not (tmp_path / "x.log.truth").exists()


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


# ---------------------------------------------------------------------------
# flag rules
# ---------------------------------------------------------------------------

# flag -> the rule its argparse type states
FLAG_RULES = {
    "--seed": "a non-negative integer", "--lookahead": "a non-negative integer",
    "--alpha": "a number in (0, 1)", "--min-samples": "an integer >= 1",
    "--horizon": "a finite number > 0", "--slo-threshold": "a finite number > 0",
    "--query-epoch": "a finite number", "--top-k": "an integer >= 1",
    "--clusters": "an integer >= 1", "--machines": "an integer >= 1", "--ticks": "an integer >= 1",
    "--transient-rate": "a number in [0, 1]", "--persistent-rate": "a number in [0, 1]",
    "--warning-rate": "a number in [0, 1]", "--downtime-cost": "a finite number >= 0",
    "--watchdog": "NAME:FP:FN with numbers FP and FN",
}
_NAME_RULE = "watchdog name must be non-empty without whitespace, control characters, ';' or ':'"
# --watchdog values of the right form that WatchdogSpec refuses -> its message
WATCHDOG_REFUSALS = {
    "a:1.5:0": "watchdog rates must lie in [0, 1), got 1.5",
    "a:0:1": "watchdog rates must lie in [0, 1), got 1.0",
    "a;b:0:0": f"{_NAME_RULE}, got 'a;b'", "a b:0:0": f"{_NAME_RULE}, got 'a b'",
    ":0:0": f"{_NAME_RULE}, got ''", "a\x01:0.1:0": f"{_NAME_RULE}, got 'a\\x01'",
}
RETRIEVE = ("--actions", "retrieve", "--catalog", "c.jsonl")


def _bad_flag(id, command, flag, value, *others):
    if command == "diagnose":
        others = ("--slo-threshold", "200", *others)
    return pytest.param(command, others, flag, value, id=id)


# (command, its other arguments, flag, bad value), one row per case
BAD_FLAGS = [
    _bad_flag("gen-trace-seed", "gen-trace", "--seed", "-1"),
    _bad_flag("discover-seed", "discover", "--seed", "-1"),
    _bad_flag("alpha-2", "discover", "--alpha", "2"),
    _bad_flag("alpha-0", "discover", "--alpha", "0"),
    _bad_flag("horizon-0", "discover", "--horizon", "0"),
    _bad_flag("horizon-nan", "discover", "--horizon", "nan"),
    _bad_flag("horizon-inf", "discover", "--horizon", "inf"),
    _bad_flag("min-samples", "discover", "--min-samples", "0"),
    _bad_flag("diagnose-seed", "diagnose", "--seed", "-1"),
    _bad_flag("zero-slo-threshold", "diagnose", "--slo-threshold", "0"),
    _bad_flag("negative-slo-threshold", "diagnose", "--slo-threshold", "-5"),
    _bad_flag("inf-slo-threshold", "diagnose", "--slo-threshold", "inf"),
    _bad_flag("nan-slo-threshold", "diagnose", "--slo-threshold", "nan"),
    _bad_flag("nan-query-epoch", "diagnose", "--query-epoch", "nan", *RETRIEVE),
    _bad_flag("zero-top-k", "diagnose", "--top-k", "0", *RETRIEVE, "--query-epoch", "5"),
    _bad_flag("zero-top-k-train", "diagnose", "--top-k", "0", "--actions", "train"),
    _bad_flag("zero-clusters", "diagnose", "--clusters", "0"),
    _bad_flag("repair-sim-seed", "repair-sim", "--seed", "-1"),
    _bad_flag("machines", "repair-sim", "--machines", "0"),
    _bad_flag("ticks", "repair-sim", "--ticks", "-1"),
    _bad_flag("transient-rate", "repair-sim", "--transient-rate", "2"),
    _bad_flag("persistent-rate", "repair-sim", "--persistent-rate", "-0.1"),
    _bad_flag("warning-rate", "repair-sim", "--warning-rate", "nan"),
    _bad_flag("watchdog", "repair-sim", "--watchdog", "a:x:0"),
    _bad_flag("watchdog-no-rates", "repair-sim", "--watchdog", "broken"),
    _bad_flag("watchdog-fp", "repair-sim", "--watchdog", "a:1.5:0"),
    _bad_flag("watchdog-fn", "repair-sim", "--watchdog", "a:0:1"),
    _bad_flag("watchdog-name-semicolon", "repair-sim", "--watchdog", "a;b:0:0"),
    _bad_flag("watchdog-name-space", "repair-sim", "--watchdog", "a b:0:0"),
    _bad_flag("watchdog-name-empty", "repair-sim", "--watchdog", ":0:0"),
    _bad_flag("watchdog-name-control-character", "repair-sim", "--watchdog", "a\x01:0.1:0"),
    _bad_flag("lookahead", "repair-mine", "--lookahead", "-1"),
    _bad_flag("negative-downtime-cost", "repair-mine", "--downtime-cost", "-5"),
    _bad_flag("nan-downtime-cost", "repair-mine", "--downtime-cost", "nan"),
    _bad_flag("stats-bh-alpha-2", "stats", "--alpha", "2", "bh"),
    _bad_flag("stats-ks-alpha-5", "stats", "--alpha", "5", "ks"),
    _bad_flag("stats-ks-alpha-nan", "stats", "--alpha", "nan", "ks"),
]
# the input file each command is given; none of them exists
INPUTS = {"gen-trace": "trace.spec", "discover": "host.trace", "diagnose": "metrics.csv",
          "repair-mine": "repair.log"}


def _bad_flag_argv(tmp_path, command, others, flag, value):
    """(argv, the last stderr line it must print) of one table row."""
    if value in WATCHDOG_REFUSALS:
        message = f"{WATCHDOG_REFUSALS[value]}, in '{value}'"
    else:
        message = f"must be {FLAG_RULES[flag]}, got '{value}'"
    inputs = [str(tmp_path / INPUTS[command])] if command in INPUTS else []
    out = [] if command == "stats" else ["--out", str(tmp_path / "out")]
    return ([command, *inputs, *others, flag, value, *out],
            f"statops {command}: error: argument {flag}: {message}")


@pytest.mark.parametrize("command,others,flag,value", BAD_FLAGS)
def test_out_of_range_flag_names_it_exit_2_writes_nothing(command, others, flag, value, tmp_path,
                                                          capsys, monkeypatch):
    # argparse refuses the value before any input is read (none exists) and
    # before anything is written, even where the actions do not use the flag
    monkeypatch.setattr("sys.stdin", io.StringIO("0.1 0.2\n0.3\n"))
    argv, last_line = _bad_flag_argv(tmp_path, command, others, flag, value)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()[-1]) == ("", last_line)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,others,flag,value", [
    row for row in BAD_FLAGS if row.id in (
        "gen-trace-seed", "horizon-inf", "zero-top-k-train", "watchdog-name-semicolon",
        "nan-downtime-cost", "stats-ks-alpha-nan")])
def test_out_of_range_flag_fails_the_same_in_a_fresh_process(command, others, flag, value,
                                                              tmp_path):
    # one row per command, as `python -m statops`
    argv, last_line = _bad_flag_argv(tmp_path, command, others, flag, value)
    proc = subprocess.run([sys.executable, "-m", "statops", *argv], input="0.1 0.2\n0.3\n",
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]) == (2, "", last_line)
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("which,stdin,message", [
    ("bh", "0.1 x", "line 1: bad p-value 'x' (want a number in [0, 1])"),
    ("bh", "0.1\n\n0.2 nan 0.3\n", "line 3: bad p-value 'nan' (want a number in [0, 1])"),
    ("bh", "0.1 -0.5", "line 1: bad p-value '-0.5' (want a number in [0, 1])"),
    ("ks", "1 2 3\n4 inf 5\n", "line 2: bad sample 'inf' (want a finite number)"),
    ("ks", "1 nan\n2\n", "line 1: bad sample 'nan' (want a finite number)"),
    ("ks", "1 2\n3 x\n", "line 2: bad sample 'x' (want a finite number)"),
], ids=["bh-word", "bh-nan-line-3", "bh-negative", "ks-inf", "ks-nan", "ks-word"])
def test_stats_bad_number_names_its_line(which, stdin, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["stats", which]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: stdin: {message}\n")


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


def test_byte_order_mark_is_dropped_from_every_input(tmp_path):
    """Inputs that start with a UTF-8 byte order mark, as some Windows tools
    write them, give the same reports as the same files without it."""
    spec = _write_spec(tmp_path)
    metrics = _metrics_file(tmp_path, seed=4)
    log = tmp_path / "repair.log"
    assert main(["repair-sim", "--machines", "3", "--ticks", "40", "--persistent-rate", "0.02",
                 "--out", str(log)]) == 0
    assert main(["diagnose", str(metrics), "--slo-threshold", "200", "--actions", "signatures",
                 "--out", str(tmp_path / "signatures")]) == 0
    catalog = tmp_path / "signatures" / "signatures.jsonl"
    query = str(json.loads(catalog.read_text().splitlines()[0])["ts"])
    runs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        inputs = tmp_path / name
        inputs.mkdir()
        for path in (spec, metrics, log, tmp_path / "repair.log.truth", catalog):
            (inputs / path.name).write_bytes(mark + path.read_bytes())
        out = inputs / "out"
        trace = inputs / "host.trace"
        assert main(["gen-trace", str(inputs / spec.name), "--out", str(trace)]) == 0
        trace.write_bytes(mark + trace.read_bytes())
        assert main(["discover", str(trace), "--out", str(out / "discover")]) == 0
        assert main(["diagnose", str(inputs / metrics.name), "--slo-threshold", "200",
                     "--actions", "train,retrieve", "--catalog", str(inputs / catalog.name),
                     "--query-epoch", query, "--out", str(out / "diagnose")]) == 0
        assert main(["repair-mine", str(inputs / log.name), "--out", str(out / "mine")]) == 0
        runs.append(_tree_bytes(out))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 6  # pairs, graph, model, retrieval, watchdogs, policy
