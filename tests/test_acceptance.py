"""Acceptance suite: one test per release criterion, at its stated tolerance.

The headline numbers are recovered from planted ground truth at desk scale;
runtimes are asserted where the criterion bounds them.  The conftest prints a
PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import io
import json
import math
import time

import numpy as np
import pytest

from ks_oracle import permutation_p_value
from statops import diagnosis, discovery, repairs, stats, traces
from statops.cli import main


def _planted_host_spec(seed, n_in=10, n_out=10, n_deps=10, duration=500.0,
                       in_rate=2.2, out_rate=1.0, prob=0.9, mean_delay=0.05):
    ins = [traces.ChannelSpec(traces.ChannelId("in", "http", f"src{i:02d}"), in_rate)
           for i in range(n_in)]
    outs = [traces.ChannelSpec(traces.ChannelId("out", "sql", f"dst{j:02d}"), out_rate)
            for j in range(n_out)]
    deps = tuple(
        traces.DependencySpec(ins[i].id, outs[i].id, mean_delay, prob)
        for i in range(n_deps)
    )
    return traces.SynthSpec("h", duration, tuple(ins + outs), deps, seed)


def _null_host_spec(seed, n_in=10, n_out=20, duration=240.0):
    ins = [traces.ChannelSpec(traces.ChannelId("in", "http", f"src{i:02d}"), 2.0)
           for i in range(n_in)]
    outs = [traces.ChannelSpec(traces.ChannelId("out", "dns", f"dst{j:02d}"), 1.0)
            for j in range(n_out)]
    return traces.SynthSpec("h", duration, tuple(ins + outs), (), seed)


def test_criterion_01_fdr_arithmetic(monkeypatch, capsys):
    assert stats.expected_false_positives(10000, 0.05) == 500.0

    # stats report reproduces the worked example: 10,000 tests, 1,000 naive
    # rejections at p <= 0.05, so half the rejections are expected to be false
    rng = np.random.default_rng(0)
    p_values = np.concatenate([
        rng.uniform(0.0, 0.05, 1000), rng.uniform(0.0500001, 1.0, 9000)
    ])
    monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(repr(float(p)) for p in p_values)))
    assert main(["stats", "bh", "--alpha", "0.05"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 10000
    assert report["naive_rejections"] == 1000
    assert report["expected_false_positives"] == 500.0
    assert report["expected_false_proportion"] == 0.5


def test_criterion_02_fdr_control_on_null_host():
    start = time.monotonic()
    fdps = []
    for seed in range(200):
        trace, _ = traces.synth_trace(_null_host_spec(seed))
        table = discovery.local_dependencies(
            trace, discovery.DiscoveryConfig(alpha=0.05)
        )
        assert len(table) == 200
        rejected = int(table.dependent[table.tested].sum())
        fdps.append(1.0 if rejected else 0.0)  # every rejection is false here
    mean_fdp = float(np.mean(fdps))
    assert mean_fdp <= 0.08

    # BH monotonicity on 1000 random p-vectors
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.random(int(rng.integers(2, 60)))
        a1, a2 = sorted(rng.uniform(0.01, 0.5, size=2))
        assert stats.bh_select(p, a1).rejected_indices <= \
            stats.bh_select(p, a2).rejected_indices
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\ncriterion 2: mean FDP {mean_fdp:.4f} <= 0.08 in {elapsed:.0f}s")


def test_criterion_03_dependency_recovery():
    start = time.monotonic()
    detected = total = 0
    for seed in range(50):
        trace, truth = traces.synth_trace(_planted_host_spec(seed))
        in_sizes = [trace.channels[c].times.size for c in trace.channels
                    if c.direction == "in"]
        assert min(in_sizes) >= 1000
        table = discovery.local_dependencies(
            trace, discovery.DiscoveryConfig(alpha=0.05)
        )
        assert len(table) >= 100
        for pair, dependent in zip(table.pairs(), table.dependent.tolist()):
            if pair in truth:
                total += 1
                detected += dependent
    rate = detected / total
    assert rate >= 0.9

    # noise-free run: the exported graph holds exactly the planted edges
    trace, truth = traces.synth_trace(_planted_host_spec(seed=0))
    table = discovery.local_dependencies(
        trace, discovery.DiscoveryConfig(alpha=0.05)
    )
    graph = discovery.build_graph([("h", table)])
    payload = json.loads(discovery.export_graph(graph, "json"))
    edges = {(e["from"], e["to"], e["service"]) for e in payload["edges"]}
    expected = {(f"src{i:02d}", "h", "http") for i in range(10)}
    expected |= {("h", f"dst{i:02d}", "sql") for i in range(10)}
    assert edges == expected
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"\ncriterion 3: detection rate {rate:.3f} >= 0.9 in {elapsed:.0f}s")


def test_criterion_04_ks_asymptotic_vs_permutation():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        shift = rng.uniform(0, 0.25)
        a = rng.normal(size=200)
        b = rng.normal(loc=shift, size=200)
        d = stats.ks_statistic(stats.empirical_cdf(a), stats.empirical_cdf(b))
        p_asym = stats.ks_p_value(d, 200, 200)
        p_perm = permutation_p_value(a, b, 1999, rng_seed=10_000 + case)
        worst = max(worst, abs(p_asym - p_perm))
    assert worst <= 0.05

    # null permutation p-values are uniform on [0, 1]
    rng = np.random.default_rng(77)
    p_values = np.sort([
        permutation_p_value(
            rng.normal(size=103), rng.normal(size=97), 99, rng_seed=50_000 + t
        )
        for t in range(1000)
    ])
    n = p_values.size
    ks_dist = max(
        float(np.max(np.arange(1, n + 1) / n - p_values)),
        float(np.max(p_values - np.arange(0, n) / n)),
    )
    assert ks_dist < 0.06
    elapsed = time.monotonic() - start
    assert elapsed < 180
    print(f"\ncriterion 4: max |asym-perm| {worst:.4f} <= 0.05, "
          f"null-p KS {ks_dist:.4f} < 0.06 in {elapsed:.0f}s")


def test_criterion_05_log_odds_closed_forms_and_null():
    model = stats.LogOddsModel(horizon=1.0, bins=2, dirichlet_alpha=1.0)
    assert stats.log_odds_dependence([], model) == pytest.approx(0.0, abs=1e-9)
    assert stats.log_odds_dependence([0.4], model) == pytest.approx(0.0, abs=1e-9)
    concentrated = stats.log_odds_dependence(np.full(10, 0.1), model)
    assert concentrated == pytest.approx(math.log(1 / 11) + 10 * math.log(2), abs=1e-9)

    null_model = stats.LogOddsModel(horizon=1.0, bins=20, dirichlet_alpha=1.0)
    rng = np.random.default_rng(3)
    values = [
        stats.log_odds_dependence(rng.uniform(0.0, 1.0, 500), null_model)
        for _ in range(100)
    ]
    assert float(np.mean(values)) <= 0.5
    print(f"\ncriterion 5: closed forms exact, null mean log BF {np.mean(values):+.2f} <= 0.5")


def test_criterion_06_diagnosis_on_planted_causes():
    start = time.monotonic()
    cause_sets = tuple(tuple(range(10 * j, 10 * j + 10)) for j in range(3))
    dataset, cause, planted = diagnosis.synth_metrics(
        n_epochs=10_000, n_metrics=30, cause_metric_sets=cause_sets, seed=42
    )
    labels = diagnosis.label_slo(dataset, diagnosis.SloConfig(200.0))
    model = diagnosis.fit_classifier(dataset, labels)

    pred = diagnosis.predict(model, dataset.metrics)
    balanced = 0.5 * (np.mean(pred[labels]) + np.mean(~pred[~labels]))
    assert balanced >= 0.9

    # attribution identity on every epoch
    log_prior = math.log(model.prior[1]) - math.log(model.prior[0])
    violation_idx = np.nonzero(labels)[0]
    every_epoch = diagnosis.signatures(model, dataset.metrics, dataset.timestamps)
    for i in range(dataset.n_epochs):
        log_odds = diagnosis.log_odds(model, dataset.metrics[i:i + 1])[0]
        assert abs(every_epoch.attributions[i].sum() + log_prior - log_odds) <= 1e-9
    signatures = diagnosis.signatures(model, dataset.metrics[violation_idx],
                                      dataset.timestamps[violation_idx])

    # planted abnormal-metric recovery, per violation cause (majority vote
    # across that cause's epochs)
    jaccards = []
    for j, planted_set in enumerate(planted):
        rows = signatures.abnormal[cause[violation_idx] == j]
        voted = set(np.nonzero(np.mean(rows, axis=0) > 0.5)[0])
        jaccards.append(len(voted & planted_set) / len(voted | planted_set))
    assert min(jaccards) >= 0.8

    assignment = diagnosis.cluster_signatures(signatures.attributions, 3, seed=0)
    purity = 0
    causes = cause[violation_idx]
    for c in range(3):
        members = causes[assignment == c]
        if members.size:
            purity += np.bincount(members).max()
    purity /= len(signatures)
    assert purity >= 0.9

    catalog = diagnosis.SignatureCatalog(signatures.attributions, signatures.epochs,
                                         tuple(f"cause-{cause[i]}" for i in violation_idx))
    rng = np.random.default_rng(1)
    hits = total = 0
    for qi in rng.choice(len(signatures), 20, replace=False):
        want = f"cause-{causes[qi]}"
        for j in diagnosis.retrieve(signatures.attributions[qi], catalog, top_k=4)[0][1:]:
            total += 1
            hits += catalog.annotations[j] == want
    precision = hits / total
    assert precision >= 0.9
    elapsed = time.monotonic() - start
    assert elapsed < 180
    print(f"\ncriterion 6: balanced acc {balanced:.3f}, Jaccard {min(jaccards):.2f}, "
          f"purity {purity:.2f}, precision@3 {precision:.2f} in {elapsed:.0f}s")


def test_criterion_07_model_comparison_and_practical_significance():
    p = diagnosis.mcnemar_p_value(0, 15)
    assert p == pytest.approx(6.103515625e-05, abs=1e-6)
    assert p <= 0.05

    n = 10**6
    outcome = stats.mean_difference_test(
        np.full(n, 0.004), np.zeros(n), sigma=1.0, alpha=0.05, practical_delta=0.01
    )
    assert outcome.significant is True
    assert outcome.practically_significant is False
    print(f"\ncriterion 7: McNemar p {p:.3e}, large-n test significant "
          f"but not practical (z {outcome.statistic:.2f})")


def test_criterion_08_repair_loop():
    start = time.monotonic()

    # error predicate matches the quoted rule on all 3^3 status combinations
    statuses = (repairs.WatchdogStatus.OK, repairs.WatchdogStatus.WARNING,
                repairs.WatchdogStatus.ERROR)
    for s1 in statuses:
        for s2 in statuses:
            for s3 in statuses:
                status = np.array([repairs.STATUSES.index(s) for s in (s1, s2, s3)])
                expected = repairs.WatchdogStatus.ERROR in (s1, s2, s3)
                assert repairs.error_predicate(status) == expected

    # ... and it is the rule the simulator runs: a machine Healthy on its
    # previous row (or starting out) is in Failure exactly where it holds
    checked = 0
    for policy in (repairs.escalation_policy, repairs.always_do_nothing,
                   repairs.always_replace):
        for n_watchdogs in (2, 4):
            model = repairs.FaultModel(
                transient_rate=0.01, persistent_rate=0.002, warning_rate=0.1,
                watchdogs=tuple(repairs.WatchdogSpec(f"wd{k}", 0.005 * k, 0.1)
                                for k in range(n_watchdogs)))
            log = repairs.simulate(20, model, policy, horizon=1000, seed=n_watchdogs)
            # rows run tick-major: row (t, m) is machine m's row after (t - 1, m)
            failure = log.state.reshape(1000, 20) == repairs.STATES.index(
                repairs.MachineHealth.FAILURE)
            was_healthy = np.ones_like(failure)
            was_healthy[1:] = ~failure[:-1]
            in_error = repairs.error_predicate(log.status).reshape(1000, 20)
            np.testing.assert_array_equal(failure[was_healthy], in_error[was_healthy])
            assert in_error[was_healthy].any()
            checked += int(was_healthy.sum())
    assert checked >= 90_000

    # persistent fault is Replaced within the derived bound
    stubborn = repairs.FaultModel(
        persistent_rate=1.0,
        watchdogs=(repairs.WatchdogSpec("wd"),),
        repair_efficacy={repairs.RepairAction.REBOOT: 0.0,
                         repairs.RepairAction.REIMAGE: 0.0,
                         repairs.RepairAction.REPLACE: 1.0,
                         repairs.RepairAction.DO_NOTHING: 0.0},
    )
    log = repairs.simulate(1, stubborn, repairs.escalation_policy, horizon=30, seed=0)
    first_replace = int(log.tick[log.action == repairs.ACTIONS.index(
        repairs.RepairAction.REPLACE)][0])
    max_latency = max(stubborn.repair_latency.values())
    assert first_replace <= 3 * (max_latency + 1) + 100

    # escalation beats always-DoNothing on availability under persistent faults
    persistent = repairs.FaultModel(persistent_rate=0.004,
                                    watchdogs=(repairs.WatchdogSpec("wd"),))
    for seed in range(20):
        esc = repairs.evaluate_policy(
            repairs.simulate(10, persistent, repairs.escalation_policy, 300, seed))
        nothing = repairs.evaluate_policy(
            repairs.simulate(10, persistent, repairs.always_do_nothing, 300, seed))
        assert esc.availability > nothing.availability

    # escalation beats always-Replace on cost under transient-only faults
    transient = repairs.FaultModel(transient_rate=0.01,
                                   watchdogs=(repairs.WatchdogSpec("wd"),))
    for seed in range(20):
        esc = repairs.evaluate_policy(
            repairs.simulate(10, transient, repairs.escalation_policy, 300, seed))
        replace = repairs.evaluate_policy(
            repairs.simulate(10, transient, repairs.always_replace, 300, seed))
        assert esc.total_cost < replace.total_cost

    # watchdog FPR estimate within +/-0.02 of the simulated 0.10
    noisy = repairs.FaultModel(
        watchdogs=(repairs.WatchdogSpec("wd_a", 0.10, 0.0),
                   repairs.WatchdogSpec("wd_b", 0.0, 0.0),
                   repairs.WatchdogSpec("wd_c", 0.02, 0.0)),
    )
    log = repairs.simulate(25, noisy, repairs.always_do_nothing, horizon=500, seed=3)
    assert np.count_nonzero(log.status != repairs.ABSENT) >= 3 * 10_000
    rates = repairs.estimate_watchdog_fpr(log, lookahead=20)
    est = rates["wd_a"].estimated_fp_rate
    assert abs(est - 0.10) <= 0.02
    assert abs(rates["wd_a"].true_fp_rate - 0.10) <= 0.01
    assert "wd_b" not in rates
    assert abs(rates["wd_c"].estimated_fp_rate - 0.02) <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\ncriterion 8: predicate is the simulator's rule on {checked} rows, "
          f"Replace by tick {first_replace}, policies ordered on "
          f"20/20 paired seeds, FPR estimate {est:.4f} in {elapsed:.0f}s")


TRACE_SPEC = """\
kind=trace host=desktop duration=400 seed=13
kind=channel dir=in service=http remote=web01 rate=2.0
kind=channel dir=in service=ldap remote=dc01 rate=2.0
kind=channel dir=in service=smb remote=files01 rate=2.0
kind=channel dir=out service=sql remote=db01 rate=0.5
kind=channel dir=out service=dns remote=ns01 rate=0.5
kind=channel dir=out service=http remote=proxy01 rate=0.5
kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9
kind=dep in_service=ldap in_remote=dc01 out_service=dns out_remote=ns01 mean_delay=0.05 prob=0.9
"""


def _reference_metrics(tmp_path):
    cause_sets = tuple(tuple(range(10 * j, 10 * j + 10)) for j in range(3))
    dataset, _, _ = diagnosis.synth_metrics(
        n_epochs=10_000, n_metrics=30, cause_metric_sets=cause_sets, seed=21
    )
    path = tmp_path / "metrics.csv"
    path.write_text(diagnosis.write_metrics_csv(dataset), encoding="utf-8")
    return path


def test_criterion_09_forensic_speed_end_to_end(tmp_path):
    spec = tmp_path / "trace.spec"
    spec.write_text(TRACE_SPEC, encoding="utf-8")
    trace = tmp_path / "desktop.trace"
    metrics = _reference_metrics(tmp_path)

    start = time.monotonic()
    assert main(["gen-trace", str(spec), "--out", str(trace)]) == 0
    assert main(["discover", str(trace), "--out", str(tmp_path / "disc"),
                 "--seed", "2"]) == 0
    diagnose_start = time.monotonic()
    assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                 "--actions", "train,signatures,cluster", "--clusters", "3",
                 "--out", str(tmp_path / "diag"), "--seed", "2"]) == 0
    now = time.monotonic()
    assert now - diagnose_start < 60  # 10k epochs x 30 metrics
    elapsed = now - start
    assert elapsed < 300

    graph = json.loads((tmp_path / "disc" / "graph.json").read_text())
    assert ("web01", "desktop", "http") in {
        (e["from"], e["to"], e["service"]) for e in graph["edges"]
    }
    model = json.loads((tmp_path / "diag" / "model.json").read_text())
    assert model["accuracy"] >= 0.9
    print(f"\ncriterion 9: discover + diagnose completed in {elapsed:.0f}s < 300s")


def _run_all_pipelines(root, spec, metrics):
    trace = root / "desktop.trace"
    assert main(["gen-trace", str(spec), "--out", str(trace)]) == 0
    assert main(["discover", str(trace), "--out", str(root / "disc"),
                 "--seed", "4", "--format", "json"]) == 0
    assert main(["diagnose", str(metrics), "--slo-threshold", "200",
                 "--actions", "train,signatures,cluster",
                 "--out", str(root / "diag"), "--seed", "4"]) == 0
    assert main(["repair-sim", "--machines", "8", "--ticks", "200", "--seed", "4",
                 "--persistent-rate", "0.005", "--transient-rate", "0.01",
                 "--watchdog", "wd_a:0.02:0.05", "--watchdog", "wd_b:0:0",
                 "--out", str(root / "repair.log")]) == 0
    assert main(["repair-mine", str(root / "repair.log"),
                 "--out", str(root / "mine")]) == 0


def test_criterion_10_reruns_byte_identical(tmp_path):
    spec = tmp_path / "trace.spec"
    spec.write_text(TRACE_SPEC, encoding="utf-8")
    cause_sets = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    dataset, _, _ = diagnosis.synth_metrics(
        n_epochs=1500, n_metrics=9, cause_metric_sets=cause_sets, seed=6
    )
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(diagnosis.write_metrics_csv(dataset), encoding="utf-8")

    trees = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        root.mkdir()
        _run_all_pipelines(root, spec, metrics)
        trees.append({
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    assert trees[0] == trees[1]
    print(f"\ncriterion 10: {len(trees[0])} report files byte-identical across reruns")
