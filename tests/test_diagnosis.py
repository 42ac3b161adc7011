from __future__ import annotations

import math

import numpy as np
import pytest

from statops.diagnosis import (
    MetricDataset,
    SignatureCatalog,
    SloConfig,
    catalog_from_jsonl,
    cluster_signatures,
    fit_classifier,
    label_slo,
    load_metrics_csv,
    log_odds,
    mcnemar_p_value,
    predict,
    retrieve,
    signatures,
    synth_metrics,
    write_metrics_csv,
)


def _dataset(x, y, names=None):
    x = np.asarray(x, dtype=float)
    names = names or tuple(f"m{i}" for i in range(x.shape[1]))
    art = np.where(y, 300.0, 100.0)
    return MetricDataset(np.arange(float(len(x))), x, art, tuple(names))


def _informative_noise(seed, n=600, k=10, shift=2.5):
    rng = np.random.default_rng(seed)
    y = rng.random(n) < 0.4
    x = rng.standard_normal((n, k))
    x[y, 0] += shift
    return _dataset(x, y), y


# ---------------------------------------------------------------------------
# SLO labeling
# ---------------------------------------------------------------------------


def test_label_slo_strict_threshold():
    ds = MetricDataset([0.0, 1.0], [[0.0], [0.0]], [100.0, 300.0], ("m0",))
    assert list(label_slo(ds, SloConfig(200.0))) == [False, True]
    ds_eq = MetricDataset([0.0], [[0.0]], [200.0], ("m0",))
    assert list(label_slo(ds_eq, SloConfig(200.0))) == [False]
    ds_lo = MetricDataset([0.0, 1.0], [[0.0], [0.0]], [10.0, 20.0], ("m0",))
    assert not label_slo(ds_lo, SloConfig(200.0)).any()


@pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
def test_slo_config_rejects_threshold_that_is_not_finite_and_positive(threshold):
    message = f"^threshold must be a finite number > 0, got {threshold}$"
    with pytest.raises(ValueError, match=message):
        SloConfig(threshold)


def test_label_slo_monotone_in_art():
    rng = np.random.default_rng(0)
    art = rng.uniform(0, 400, 50)
    ds = MetricDataset(np.arange(50.0), np.zeros((50, 1)), art, ("m0",))
    before = label_slo(ds, SloConfig(200.0))
    ds_up = MetricDataset(np.arange(50.0), np.zeros((50, 1)), art + 30.0, ("m0",))
    after = label_slo(ds_up, SloConfig(200.0))
    assert np.all(after >= before)


# ---------------------------------------------------------------------------
# classifier fit and scoring
# ---------------------------------------------------------------------------


def test_fit_recovers_separated_clusters():
    ds, y = _informative_noise(1, shift=4.0)
    model = fit_classifier(ds, y)
    assert np.mean(predict(model, ds.metrics) == y) >= 0.95


def test_fit_priors_from_counts():
    rng = np.random.default_rng(2)
    y = np.zeros(100, dtype=bool)
    y[:30] = True
    x = rng.standard_normal((100, 2))
    x[y, 0] += 3
    model = fit_classifier(_dataset(x, y), y)
    assert model.prior == (0.7, 0.3)


def test_fit_requires_both_classes():
    ds, _ = _informative_noise(3)
    with pytest.raises(ValueError, match="need both classes"):
        fit_classifier(ds, np.zeros(ds.n_epochs, dtype=bool))
    with pytest.raises(ValueError, match="need both classes"):
        fit_classifier(ds, np.ones(ds.n_epochs, dtype=bool))


def test_classify_symmetric_model_midpoint():
    # equal priors, mirrored conditionals: the midpoint carries no evidence
    y = np.array([False, False, True, True])
    x = np.array([[0.0], [2.0], [4.0], [6.0]])  # class means 1 and 5, equal var
    model = fit_classifier(_dataset(x, y), y)
    assert log_odds(model, [[3.0]])[0] == pytest.approx(0.0, abs=1e-9)


def test_classify_hand_computed_two_feature_case():
    # priors (.5,.5); per feature: compliant N(0,1), violation N(2,1); x=(2,2)
    # each attribution = logpdf(2;2,1) - logpdf(2;0,1) = 0 - (-2) = 2
    y = np.array([False, False, True, True])
    x = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    model = fit_classifier(_dataset(x, y), y)
    lo = log_odds(model, [[2.0, 2.0]])[0]
    expected = (
        (-0.5 * math.log(2 * math.pi) - 0.0) - (-0.5 * math.log(2 * math.pi) - 2.0)
    ) * 2
    assert lo == pytest.approx(expected, abs=1e-9)
    assert lo == pytest.approx(4.0, abs=1e-9)


def test_scale_invariance_of_predicted_class():
    ds, y = _informative_noise(7, k=4)
    model = fit_classifier(ds, y)
    scaled = ds.metrics.copy()
    scaled[:, 2] *= 1000.0
    ds_scaled = MetricDataset(ds.timestamps, scaled, ds.art, ds.metric_names)
    model_scaled = fit_classifier(ds_scaled, y)
    rng = np.random.default_rng(8)
    for _ in range(30):
        v = rng.standard_normal(4)
        v_scaled = v.copy()
        v_scaled[2] *= 1000.0
        assert predict(model, v[None, :]) == predict(model_scaled, v_scaled[None, :])


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_signature_constant_feature_attribution_zero():
    y = np.array([False, True, False, True] * 10)
    rng = np.random.default_rng(9)
    x = np.column_stack([np.full(40, 7.0), rng.standard_normal(40) + 2.0 * y])
    model = fit_classifier(_dataset(x, y), y)
    s = signatures(model, [[7.0, 1.0]], [0.0])
    assert s.attributions[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert not s.abnormal[0, 0]


def test_signature_sum_identity():
    ds, y = _informative_noise(10)
    model = fit_classifier(ds, y)
    rng = np.random.default_rng(11)
    log_prior = math.log(model.prior[1]) - math.log(model.prior[0])
    for _ in range(100):
        v = rng.standard_normal(ds.n_metrics) * 3
        s = signatures(model, v[None, :], [0.0])
        assert s.attributions[0].sum() + log_prior == pytest.approx(
            log_odds(model, v[None, :])[0], abs=1e-9)
        np.testing.assert_array_equal(s.abnormal, s.attributions > 0)


def test_signature_driver_metric_abnormal_on_violations():
    ds, cause, planted = synth_metrics(
        n_epochs=3000, n_metrics=6,
        cause_metric_sets=((0, 1), (2, 3), (4, 5)), seed=12,
    )
    labels = label_slo(ds, SloConfig(200.0))
    model = fit_classifier(ds, labels)
    viol = np.nonzero(labels)[0]
    s = signatures(model, ds.metrics[viol], ds.timestamps[viol])
    hits = []
    for row, i in enumerate(viol):
        driver = next(iter(planted[cause[i]]))
        hits.append(bool(s.abnormal[row, driver]))
    assert np.mean(hits) >= 0.9


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------


def test_mcnemar_exact_values():
    assert mcnemar_p_value(0, 15) == pytest.approx(2 * 0.5**15, rel=1e-12)
    assert mcnemar_p_value(0, 0) == 1.0
    assert mcnemar_p_value(7, 7) == 1.0


# ---------------------------------------------------------------------------
# clustering and retrieval
# ---------------------------------------------------------------------------


def _planted_signatures(seed, n_epochs=2000):
    ds, cause, planted = synth_metrics(
        n_epochs=n_epochs, n_metrics=9,
        cause_metric_sets=((0, 1, 2), (3, 4, 5), (6, 7, 8)), seed=seed,
    )
    labels = label_slo(ds, SloConfig(200.0))
    model = fit_classifier(ds, labels)
    viol = np.nonzero(labels)[0]
    sigs = signatures(model, ds.metrics[viol], ds.timestamps[viol])
    return sigs, cause[viol], planted


def _annotated(sigs, causes, rows=slice(None)):
    return SignatureCatalog(sigs.attributions[rows], sigs.epochs[rows],
                            tuple(f"cause-{c}" for c in causes[rows]))


def test_cluster_k1_and_errors():
    sigs, _, _ = _planted_signatures(20, n_epochs=200)
    assert set(cluster_signatures(sigs.attributions, 1, seed=0)) == {0}
    with pytest.raises(ValueError):
        cluster_signatures(sigs.attributions[:2], 3, seed=0)
    with pytest.raises(ValueError):
        cluster_signatures(sigs.attributions, 0, seed=0)


def test_cluster_purity_on_planted_causes():
    purities = []
    for seed in range(20):
        sigs, causes, _ = _planted_signatures(seed, n_epochs=600)
        assign = cluster_signatures(sigs.attributions, 3, seed=seed)
        total = 0
        for c in range(3):
            members = causes[assign == c]
            if members.size:
                total += np.bincount(members).max()
        purities.append(total / len(sigs))
    assert np.mean(purities) >= 0.9


def test_duplicate_signatures_share_cluster():
    sigs, _, _ = _planted_signatures(21, n_epochs=300)
    dup = sigs.attributions[[0, 0, 1, 2, 3]]
    assign = cluster_signatures(dup, 2, seed=3)
    assert assign[0] == assign[1]


def test_retrieve_exact_match_first_and_overlong_k():
    sigs, causes, _ = _planted_signatures(22, n_epochs=300)
    catalog = _annotated(sigs, causes, slice(10))
    order, distances = retrieve(sigs.attributions[3], catalog, top_k=3)
    assert order[0] == 3
    assert distances[0] == 0.0
    assert len(retrieve(sigs.attributions[3], catalog, top_k=99)[0]) == 10


def test_retrieve_precision_on_planted_cause():
    sigs, causes, _ = _planted_signatures(23, n_epochs=800)
    catalog = _annotated(sigs, causes)
    rng = np.random.default_rng(24)
    hits = total = 0
    for qi in rng.choice(len(sigs), 20, replace=False):
        want = f"cause-{causes[qi]}"
        for j in retrieve(sigs.attributions[qi], catalog, top_k=4)[0][1:]:
            total += 1
            hits += catalog.annotations[j] == want
    assert hits / total >= 0.9


def test_retrieve_rejects_empty_catalog():
    sigs, _, _ = _planted_signatures(25, n_epochs=200)
    with pytest.raises(ValueError, match="empty"):
        retrieve(sigs.attributions[0], SignatureCatalog(np.empty((0, 9)), [], ()), top_k=1)


def test_catalog_jsonl_round_trip():
    sigs, causes, _ = _planted_signatures(26, n_epochs=200)
    catalog = _annotated(sigs, causes, slice(5))
    back = catalog_from_jsonl(catalog.to_jsonl())
    assert len(back) == 5
    assert back.annotations == catalog.annotations
    np.testing.assert_allclose(back.attributions, catalog.attributions)
    np.testing.assert_array_equal(back.abnormal, catalog.abnormal)


# ---------------------------------------------------------------------------
# metric log format
# ---------------------------------------------------------------------------


def test_metrics_csv_round_trip():
    ds, _, _ = synth_metrics(n_epochs=50, n_metrics=4,
                             cause_metric_sets=((0, 1), (2, 3)), seed=40)
    back = load_metrics_csv(write_metrics_csv(ds))
    np.testing.assert_array_equal(back.timestamps, ds.timestamps)
    np.testing.assert_array_equal(back.metrics, ds.metrics)
    np.testing.assert_array_equal(back.art, ds.art)
    assert back.metric_names == ds.metric_names


def test_metrics_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        load_metrics_csv("time,art,m0\n1,2,3\n")


@pytest.mark.parametrize("text", [
    "ts,art_ms,m0\n1,2,3\n\n# note\n0.5,2,3\n",
    "ts,art_ms,m0\n1,2,3\n\n# note\n0.5,2,1_0\n",  # read cell by cell
])
def test_metrics_csv_names_line_whose_ts_goes_back(text):
    with pytest.raises(ValueError, match=r"^line 5: ts 0\.5 is below the previous row's 1\.0$"):
        load_metrics_csv(text)
