from __future__ import annotations

import math

import numpy as np
import pytest

from delay_oracle import delay_samples
from statops.discovery import (
    DependencyGraph,
    DiscoveryConfig,
    PairTable,
    build_graph,
    export_graph,
    local_dependencies,
)
from statops.stats import (
    LogOddsModel,
    kolmogorov_sf,
    ks_uniform_segments,
)
from statops.traces import (
    ChannelId,
    ChannelSeries,
    ChannelSpec,
    DependencySpec,
    HostTrace,
    SynthSpec,
    null_delay_cdf,
    synth_trace,
)


def planted_host_spec(seed, n_in=10, n_out=10, n_deps=10, duration=500.0,
                      in_rate=2.0, out_rate=1.0, prob=0.9, mean_delay=0.05):
    """n_in x n_out candidate pairs with the first n_deps diagonal pairs planted."""
    ins = [ChannelSpec(ChannelId("in", "http", f"src{i:02d}"), in_rate) for i in range(n_in)]
    outs = [ChannelSpec(ChannelId("out", "sql", f"dst{j:02d}"), out_rate) for j in range(n_out)]
    deps = tuple(
        DependencySpec(ins[i].id, outs[i].id, mean_delay, prob) for i in range(n_deps)
    )
    return SynthSpec("h", duration, tuple(ins + outs), deps, seed)


def null_host_spec(seed, n_in=10, n_out=20, duration=240.0):
    ins = [ChannelSpec(ChannelId("in", "http", f"src{i:02d}"), 2.0) for i in range(n_in)]
    outs = [ChannelSpec(ChannelId("out", "dns", f"dst{j:02d}"), 1.0) for j in range(n_out)]
    return SynthSpec("h", duration, tuple(ins + outs), (), seed)


# ---------------------------------------------------------------------------
# local dependence testing
# ---------------------------------------------------------------------------


def _columns(table):
    return {name: getattr(table, name) for name in
            ("n_delays", "statistic", "p_value", "log_odds", "q_value", "dependent", "tested")}


def test_empty_trace_yields_empty_result():
    table = local_dependencies(HostTrace("h", {}), DiscoveryConfig())
    assert len(table) == 0 and table.pairs() == []
    assert all(column.size == 0 for column in _columns(table).values())


def test_planted_dependency_detected():
    trace, truth = synth_trace(planted_host_spec(seed=1, n_in=3, n_out=3, n_deps=1,
                                                 duration=300.0))
    table = local_dependencies(trace, DiscoveryConfig(alpha=0.05))
    planted = [k for k, pair in enumerate(table.pairs()) if pair in truth]
    assert planted and table.dependent[planted].all()


@pytest.mark.parametrize("method", ["ks", "log_odds", "both"])
def test_dependent_implies_q_below_alpha(method):
    # What "dependent" implies depends on the method; an untested pair is
    # never dependent and has no statistic, p-value or q-value under any.
    trace, _ = synth_trace(planted_host_spec(seed=2, n_in=4, n_out=4, n_deps=2,
                                             duration=300.0))
    config = DiscoveryConfig(alpha=0.05, method=method)
    table = local_dependencies(trace, config)
    dependent = table.dependent
    assert dependent.any() and not (dependent & ~table.tested).any()
    if method in ("ks", "both"):
        assert (table.q_value[dependent] <= config.alpha).all()
    if method in ("log_odds", "both"):
        assert (table.log_odds[dependent] >= math.log(20.0)).all()
    untested = ~table.tested
    for column in (table.statistic, table.p_value, table.q_value):
        assert np.isnan(column[untested]).all() and np.isfinite(column[table.tested]).all()


def test_local_dependencies_deterministic():
    trace, _ = synth_trace(planted_host_spec(seed=3, n_in=3, n_out=3, n_deps=1,
                                             duration=200.0))
    config = DiscoveryConfig(alpha=0.05)
    first, second = local_dependencies(trace, config), local_dependencies(trace, config)
    assert first.pairs() == second.pairs()
    for name, column in _columns(first).items():
        np.testing.assert_array_equal(column, getattr(second, name), err_msg=name)


def test_insufficient_pairs_are_flagged_not_tested():
    # one output channel far too sparse to reach min_samples
    ins = (ChannelSpec(ChannelId("in", "http", "src"), 2.0),)
    outs = (ChannelSpec(ChannelId("out", "sql", "dst"), 0.01),)
    trace, _ = synth_trace(SynthSpec("h", 100.0, ins + outs, (), seed=4))
    table = local_dependencies(trace, DiscoveryConfig(min_samples=50))
    assert len(table) and not table.tested.any()


def test_input_without_null_mass_is_not_tested():
    # The input's only event ends the window, so no output can follow it by
    # a positive delay: its pairs have no null and are not tested.
    inp, out = ChannelId("in", "http", "src"), ChannelId("out", "sql", "dst")
    trace = HostTrace("h", {inp: ChannelSeries(inp, np.array([10.0])),
                            out: ChannelSeries(out, np.arange(1.0, 11.0))})
    table = local_dependencies(trace, DiscoveryConfig(min_samples=1))
    assert table.n_delays.tolist() == [1] and not table.tested.any()
    assert table.log_odds.tolist() == [0.0] and np.isnan(table.p_value).all()


def test_method_log_odds_uses_bayes_threshold():
    trace, truth = synth_trace(planted_host_spec(seed=5, n_in=3, n_out=3, n_deps=1,
                                                 duration=300.0))
    table = local_dependencies(trace, DiscoveryConfig(method="log_odds"))
    tested = table.tested
    np.testing.assert_array_equal(table.dependent[tested],
                                  table.log_odds[tested] >= math.log(20.0))
    assert any(d for d, pair in zip(table.dependent, table.pairs()) if pair in truth)


def test_log_odds_flags_few_pairs_on_null_hosts():
    # 50 hosts without dependencies, 200 pairs each; under an exact null
    # E[BF] = 1, so Markov's inequality caps each pair's P(BF >= 20) at 5%
    flagged = tested = 0
    for seed in range(50):
        trace, _ = synth_trace(null_host_spec(seed))
        table = local_dependencies(trace, DiscoveryConfig(method="log_odds"))
        flagged += int(table.dependent.sum())
        tested += int(table.tested.sum())
    assert tested >= 9000
    assert flagged / tested <= 0.05


def test_log_odds_recovers_planted_pairs():
    detected = total = 0
    for seed in range(20):
        trace, truth = synth_trace(planted_host_spec(seed, duration=300.0))
        table = local_dependencies(trace, DiscoveryConfig(method="log_odds"))
        for pair, dependent in zip(table.pairs(), table.dependent.tolist()):
            if pair in truth:
                total += 1
                detected += dependent
    assert total == 200
    assert detected / total >= 0.9


def test_method_both_requires_both_signals():
    trace, _ = synth_trace(planted_host_spec(seed=6, n_in=3, n_out=3, n_deps=1,
                                             duration=300.0))
    ks, bf, both = (local_dependencies(trace, DiscoveryConfig(method=method))
                    for method in ("ks", "log_odds", "both"))
    assert both.pairs() == ks.pairs() == bf.pairs()
    np.testing.assert_array_equal(both.dependent, ks.dependent & bf.dependent)


def _closed_form_log_odds(delays, model, p):
    """The log Bayes factor's closed form for bin probabilities p, term by term."""
    k, a = model.bins, model.dirichlet_alpha
    c = np.bincount(np.minimum((delays / (model.horizon / k)).astype(int), k - 1), minlength=k)
    return (math.lgamma(k * a) - math.lgamma(delays.size + k * a)
            + sum(math.lgamma(ck + a) - math.lgamma(a) - (ck * math.log(pk) if ck else 0.0)
                  for ck, pk in zip(c.tolist(), p.tolist())))


def test_batched_pairs_match_single_pair_functions():
    # Channel sizes far apart, so the per-input batches are ragged and some
    # pairs fall short of min_samples.
    rates = [25.0, 3.0, 0.05]
    ins = [ChannelSpec(ChannelId("in", "http", f"src{i}"), r) for i, r in enumerate(rates)]
    outs = [ChannelSpec(ChannelId("out", "sql", f"dst{j}"), r) for j, r in enumerate(rates)]
    deps = (DependencySpec(ins[1].id, outs[0].id, 0.05, 0.9),)
    trace, _ = synth_trace(SynthSpec("h", 200.0, tuple(ins + outs), deps, seed=12))
    config = DiscoveryConfig()
    model = LogOddsModel(config.horizon)
    edges = np.append(np.arange(model.bins) * (config.horizon / model.bins), config.horizon)
    table = local_dependencies(trace, config)
    assert not table.tested.all()
    for k, (cin, cout) in enumerate(table.pairs()):
        delays = delay_samples(trace.channels[cin], trace.channels[cout], config.horizon)
        f0 = null_delay_cdf(trace.channels[cin].times, trace.window[1], config.horizon)
        assert table.n_delays[k] == delays.size
        assert table.log_odds[k] == pytest.approx(
            _closed_form_log_odds(delays, model, np.diff(f0(edges))), rel=1e-12, abs=1e-9)
        assert table.tested[k] == (delays.size >= config.min_samples)
        if not table.tested[k]:
            continue
        d = ks_uniform_segments(f0(np.sort(delays)), [delays.size])[0]
        assert table.statistic[k] == d
        assert table.p_value[k] == kolmogorov_sf([d * math.sqrt(delays.size)])[0]


def _shifted(trace, offset):
    return HostTrace(trace.host, {cid: ChannelSeries(cid, s.times + offset)
                                  for cid, s in trace.channels.items()})


@pytest.mark.parametrize("offset", [250.0, 1000.0, 1.7e9])
def test_time_origin_does_not_change_the_answer(offset):
    # The null depends only on the input's gaps and the window's end, so
    # moving every timestamp (say, to Unix epoch time) leaves every pair
    # tested and the answer unchanged, up to the rounding of the shifted
    # timestamps.  The statistic reads the delays' values, not only their
    # ranks, so a rounding error of one spacing of doubles at the offset
    # reaches the q-values scaled by F0's density, sqrt(n_delays) and BH.
    trace, truth = synth_trace(planted_host_spec(seed=8, n_in=4, n_out=4, n_deps=2,
                                                 duration=300.0))
    config = DiscoveryConfig(alpha=0.05)
    base = local_dependencies(trace, config)
    moved = local_dependencies(_shifted(trace, offset), config)
    assert base.tested.sum() == 16
    np.testing.assert_array_equal(moved.tested, base.tested)
    dependent = {pair for pair, d in zip(base.pairs(), base.dependent) if d}
    assert truth <= dependent
    assert {pair for pair, d in zip(moved.pairs(), moved.dependent) if d} == dependent
    assert moved.pairs() == base.pairs()
    assert np.abs(base.q_value - moved.q_value).max() <= 1e-6 + 200 * np.spacing(offset)


def test_sparse_planted_dependency_still_detected():
    # tens of delay samples with a strong effect: detection rate >= 0.5
    detected = 0
    total = 0
    for seed in range(50):
        ins = [ChannelSpec(ChannelId("in", "http", f"src{i:02d}"), 2.0) for i in range(10)]
        outs = [ChannelSpec(ChannelId("out", "dns", f"dst{j:02d}"), 1.0) for j in range(9)]
        planted_out = ChannelSpec(ChannelId("out", "sql", "planted"), 0.01)
        dep = DependencySpec(ins[0].id, planted_out.id, mean_delay=0.05, response_prob=0.027)
        spec = SynthSpec("h", 500.0, tuple(ins + outs + [planted_out]), (dep,), seed)
        trace, truth = synth_trace(spec)
        table = local_dependencies(trace, DiscoveryConfig(alpha=0.05))
        for pair, dependent in zip(table.pairs(), table.dependent.tolist()):
            if pair in truth:
                total += 1
                detected += dependent
    assert total == 50
    assert detected / total >= 0.5


# ---------------------------------------------------------------------------
# graph building, diffing, export
# ---------------------------------------------------------------------------


def _result(in_remote, out_remote, q=0.001, dependent=True, in_service="http",
            out_service="sql", n=50, stat=0.5):
    return (ChannelId("in", in_service, in_remote), ChannelId("out", out_service, out_remote),
            q, dependent, n, stat)


def _table(results):
    """A PairTable that tested the given pairs; the rest of its input x
    output grid is untested."""
    inputs = tuple(sorted({r[0] for r in results}))
    outputs = tuple(sorted({r[1] for r in results}))
    size = len(inputs) * len(outputs)
    nan = np.full(size, np.nan)
    table = PairTable(inputs, outputs, n_delays=np.zeros(size, dtype=np.int64),
                      statistic=nan.copy(), p_value=nan.copy(), log_odds=np.zeros(size),
                      q_value=nan.copy(), dependent=np.zeros(size, dtype=bool),
                      tested=np.zeros(size, dtype=bool))
    for cin, cout, q, dependent, n, stat in results:
        k = inputs.index(cin) * len(outputs) + outputs.index(cout)
        table.n_delays[k], table.statistic[k], table.p_value[k] = n, stat, q / 10
        table.log_odds[k], table.q_value[k] = 10.0, q
        table.dependent[k], table.tested[k] = dependent, True
    return table


def test_build_graph_empty():
    g = build_graph([])
    assert g.nodes == frozenset() and g.edges == {}


def test_build_graph_single_dependent_pair():
    g = build_graph([("h", _table([_result("x", "y")]))])
    assert g.nodes == {"h", "x", "y"}
    assert set(g.edges) == {("x", "h", "http"), ("h", "y", "sql")}


def test_build_graph_ignores_non_dependent():
    g = build_graph([("h", _table([_result("x", "y", dependent=False)]))])
    assert g.nodes == frozenset() and g.edges == {}


def test_build_graph_keeps_strongest_evidence_and_is_idempotent():
    results = _table([_result("x", "y", q=0.01), _result("x", "z", q=0.002)])
    g1 = build_graph([("h", results)])
    # edge x->h comes from both pairs; the smaller q wins
    assert g1.edges[("x", "h", "http")].q_value == 0.002
    g2 = build_graph([("h", results), ("h2", _table([]))])
    assert g1.edges == g2.edges
    # merging identical host results twice changes nothing
    with pytest.raises(ValueError):
        build_graph([("h", results), ("h", results)])


def test_constellation_shape_from_desktop_trace():
    # one desktop with 5 planted server dependencies fans out around the root
    ins = [ChannelSpec(ChannelId("in", f"svc{i}", f"server{i}"), 2.0) for i in range(5)]
    outs = [ChannelSpec(ChannelId("out", f"rsvc{i}", f"backend{i}"), 1.0) for i in range(5)]
    deps = tuple(DependencySpec(ins[i].id, outs[i].id, 0.05, 0.9) for i in range(5))
    trace, truth = synth_trace(SynthSpec("desktop", 400.0, tuple(ins + outs), deps, seed=7))
    results = local_dependencies(trace, DiscoveryConfig(alpha=0.05))
    g = build_graph([("desktop", results)])
    assert "desktop" in g.nodes
    assert all("desktop" in (src, dst) for src, dst, _ in g.edges)
    planted_edges = {(f"server{i}", "desktop", f"svc{i}") for i in range(5)}
    planted_edges |= {("desktop", f"backend{i}", f"rsvc{i}") for i in range(5)}
    assert set(g.edges) == planted_edges


def test_export_empty_dot():
    g = DependencyGraph(nodes=frozenset(), edges={})
    assert export_graph(g, "dot").decode().split() == ["digraph", "constellation", "{", "}"]


def test_export_dot_sorted_edges():
    g = build_graph([("h", _table([_result("x", "y"), _result("a", "b", out_service="dns")]))])
    text = export_graph(g, "dot").decode()
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(edge_lines) == 4
    assert edge_lines == sorted(edge_lines)
    assert 'service="http"' in text and "q_value=" in text


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_graph(DependencyGraph(frozenset(), {}), "svg")

