"""The testing core against scipy as an independent oracle (tests only:
scipy is not a runtime dependency), including the batched kernels'
per-pair outputs on random ragged segments, discovery's one-sample KS
against the gap null, and the diagnosis attributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from statops.diagnosis import (
    SloConfig,
    fit_classifier,
    label_slo,
    log_odds,
    signatures,
    synth_metrics,
)
from statops.discovery import DiscoveryConfig, local_dependencies
from statops.stats import (
    LogOddsModel,
    bh_select,
    empirical_cdf,
    ks_p_value,
    ks_statistic,
    log_odds_dependence,
    log_odds_segments,
)
from statops.traces import (
    ChannelId,
    ChannelSpec,
    SynthSpec,
    null_delay_cdf,
    pair_delays,
    synth_trace,
)

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


def _ragged(rng, n_segments, low, high, lattice=None):
    """Segment sizes plus their values laid end to end; a lattice forces ties."""
    counts = rng.integers(low, high, n_segments)
    values = rng.uniform(0.0, 1.0, counts.sum())
    if lattice:
        values = np.round(values * lattice) / lattice
    return counts, values


def _split(values, counts):
    return np.split(values, np.cumsum(counts)[:-1])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("lattice", [None, 20])
def test_ks_statistic_matches_ks_2samp(seed, lattice):
    rng = np.random.default_rng(seed)
    for n, m in [(1, 1), (3, 7), (50, 40), (400, 1000)]:
        a, b = rng.uniform(0, 1, n), rng.uniform(0.1, 1.1, m)
        if lattice:
            a, b = np.round(a * lattice) / lattice, np.round(b * lattice) / lattice
        expected = scipy_stats.ks_2samp(a, b).statistic
        assert abs(ks_statistic(empirical_cdf(a), empirical_cdf(b)) - expected) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("lattice", [None, 10])
def test_batched_ks_matches_ks_2samp_per_segment(seed, lattice):
    # ks_statistic over many ragged sample sizes, with and without ties
    rng = np.random.default_rng(100 + seed)
    a_counts, a = _ragged(rng, 40, 1, 80, lattice)
    b_counts, b = _ragged(rng, 40, 1, 300, lattice)
    for xa, xb in zip(_split(a, a_counts), _split(b, b_counts)):
        d = ks_statistic(empirical_cdf(xa), empirical_cdf(xb))
        assert abs(d - scipy_stats.ks_2samp(xa, xb).statistic) <= 1e-12
        lam = d * math.sqrt(xa.size * xb.size / (xa.size + xb.size))
        assert abs(ks_p_value(d, xa.size, xb.size) - scipy_stats.kstwobign.sf(lam)) <= 1e-10


_P_VALUE_CASES = [
    (lam, n, m)
    for lam in (0.0, 0.04, 0.05, 0.2, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0, 5.0)
    for n, m in ((10, 10), (37, 250), (5000, 4800))
    if lam <= math.sqrt(n * m / (n + m))  # D = lam / sqrt(nm/(n+m)) <= 1
]


@pytest.mark.parametrize("lam,n,m", _P_VALUE_CASES)
def test_ks_p_value_matches_kstwobign_sf(lam, n, m):
    d = lam / math.sqrt(n * m / (n + m))
    exact_lam = d * math.sqrt(n * m / (n + m))
    assert abs(ks_p_value(d, n, m) - scipy_stats.kstwobign.sf(exact_lam)) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_discovery_ks_matches_kstest_against_gap_null(seed):
    # every tested pair's D is scipy's one-sample KS of its delays against
    # F0, and its p-value the Kolmogorov limit at D * sqrt(n)
    ins = [ChannelSpec(ChannelId("in", "http", f"src{i}"), r)
           for i, r in enumerate((0.5, 2.0, 8.0))]
    outs = [ChannelSpec(ChannelId("out", "dns", f"dst{j}"), r)
            for j, r in enumerate((0.3, 1.0, 4.0))]
    trace, _ = synth_trace(SynthSpec("h", 300.0, tuple(ins + outs), (), seed=400 + seed))
    config = DiscoveryConfig()
    table = local_dependencies(trace, config)
    assert table.tested.sum() >= 7
    for k, (cin, cout) in enumerate(table.pairs()):
        if not table.tested[k]:
            continue
        in_times = trace.channels[cin].times
        delays = pair_delays(in_times, trace.channels[cout].times, config.horizon)[0]
        f0 = null_delay_cdf(in_times, trace.window[1], config.horizon)
        expected = scipy_stats.kstest(delays, f0)
        assert abs(table.statistic[k] - expected.statistic) <= 1e-12
        lam = table.statistic[k] * math.sqrt(delays.size)
        assert abs(table.p_value[k] - scipy_stats.kstwobign.sf(lam)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_bh_q_values_match_false_discovery_control(seed):
    rng = np.random.default_rng(200 + seed)
    p = np.concatenate([rng.uniform(0, 1, 300), rng.uniform(0, 1e-3, 30),
                        np.round(rng.uniform(0, 1, 50), 2), [0.0, 1.0, 1.0]])
    expected = scipy_stats.false_discovery_control(p, method="bh")
    assert np.max(np.abs(bh_select(p, 0.05).q_values - expected)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("bins,alpha", [(20, 1.0), (7, 0.5)])
def test_batched_log_odds_matches_gammaln_closed_form(seed, bins, alpha):
    model = LogOddsModel(horizon=1.0, bins=bins, dirichlet_alpha=alpha)
    rng = np.random.default_rng(300 + seed)
    counts = rng.integers(0, 200, 30)
    delays = rng.beta(0.5, 3.0, counts.sum())
    batched = log_odds_segments(delays, counts, model, np.full(bins, -math.log(bins)))
    for value, x in zip(batched, _split(delays, counts)):
        assert value == log_odds_dependence(x, model)
        c = np.bincount(np.minimum((x / (1.0 / bins)).astype(int), bins - 1), minlength=bins)
        gl = scipy_special.gammaln
        expected = (gl(bins * alpha) - gl(x.size + bins * alpha)
                    + np.sum(gl(c + alpha) - gl(alpha)) + x.size * math.log(bins))
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-9)


def test_attributions_and_log_odds_match_normal_logpdf():
    ds, _, _ = synth_metrics(n_epochs=400, n_metrics=8, cause_metric_sets=((0, 1), (5,)),
                             seed=17)
    model = fit_classifier(ds, label_slo(ds, SloConfig(200.0)))
    rows = ds.metrics * np.random.default_rng(18).uniform(0.8, 1.2, ds.metrics.shape)
    want = (scipy_stats.norm.logpdf(rows, model.mean_violation, np.sqrt(model.var_violation))
            - scipy_stats.norm.logpdf(rows, model.mean_compliant, np.sqrt(model.var_compliant)))
    got = signatures(model, rows, ds.timestamps).attributions
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        log_odds(model, rows),
        math.log(model.prior[1] / model.prior[0]) + want.sum(axis=1), rtol=1e-9, atol=1e-9)
