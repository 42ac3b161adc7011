"""Batch signatures, the columnar catalog and the diagnose input checks.

The batch path is checked against the one-row path bit for bit: a signature
row, a log-odds value and a retrieval distance must not depend on how many
rows were computed together.  The catalog and metrics readers get a table of
every rejected input with its exact ``line N`` message, and the catalog a
hypothesis round trip.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statops.diagnosis import (
    SignatureCatalog,
    SloConfig,
    catalog_from_jsonl,
    classify,
    fit_classifier,
    label_slo,
    load_metrics_csv,
    log_odds,
    predict,
    retrieve,
    signatures,
    synth_metrics,
)


@pytest.fixture(scope="module")
def planted():
    ds, _, _ = synth_metrics(n_epochs=600, n_metrics=12,
                             cause_metric_sets=((0, 1), (4, 5, 6), (9,)), seed=41)
    labels = label_slo(ds, SloConfig(200.0))
    return ds, fit_classifier(ds, labels, feature_set=(0, 1, 3, 4, 5, 6, 9, 11))


def test_batch_attributions_and_log_odds_match_per_row_classify(planted):
    ds, model = planted
    rows = ds.metrics * np.random.default_rng(42).uniform(0.5, 1.5, ds.metrics.shape)
    batch = signatures(model, rows, ds.timestamps)
    lo = log_odds(model, rows)
    log_prior = math.log(model.prior[1]) - math.log(model.prior[0])
    for i, row in enumerate(rows):
        c = classify(model, row)
        assert lo[i] == c.log_odds
        assert log_prior + batch.attributions[i].sum() == c.log_odds
        one = signatures(model, row[None, :], ds.timestamps[i:i + 1])
        assert one.attributions.tobytes() == batch.attributions[i].tobytes()
    off_features = [j for j in range(ds.n_metrics) if j not in model.feature_set]
    assert not batch.attributions[:, off_features].any()
    np.testing.assert_array_equal(batch.epochs, ds.timestamps)
    np.testing.assert_array_equal(batch.abnormal, batch.attributions > 0)
    np.testing.assert_array_equal(predict(model, rows), lo > 0)


@pytest.mark.parametrize("k", [1, 3, 12, 150])
def test_retrieve_distances_are_the_per_row_norms(k):
    rng = np.random.default_rng(k)
    attributions = rng.standard_normal((300, k)) * rng.uniform(0.1, 50.0, k)
    attributions[100:110] = attributions[5]  # equal distances must keep catalog order
    catalog = SignatureCatalog(attributions, np.arange(300.0), ("",) * 300)
    for query in (attributions[5], rng.standard_normal(k)):
        order, distances = retrieve(query, catalog, top_k=300)
        norms = np.array([float(np.linalg.norm(row - query)) for row in attributions])
        assert distances.tobytes() == norms[order].tobytes()
        np.testing.assert_array_equal(order, np.argsort(norms, kind="stable"))


def test_retrieve_rejects_a_query_of_another_width():
    catalog = SignatureCatalog(np.zeros((2, 3)), [0.0, 1.0], ("a", "b"))
    with pytest.raises(ValueError, match="3 attributions"):
        retrieve(np.zeros(4), catalog, top_k=1)


def test_catalog_columns_must_agree():
    with pytest.raises(ValueError, match="row count"):
        SignatureCatalog(np.zeros((2, 3)), [0.0], ("a", "b"))
    with pytest.raises(ValueError, match="row count"):
        SignatureCatalog(np.zeros((2, 3)), [0.0, 1.0], ("a",))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def catalogs(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 6))
    values = draw(st.lists(finite, min_size=n * k, max_size=n * k))
    epochs = draw(st.lists(finite, min_size=n, max_size=n))
    annotations = draw(st.lists(st.text(), min_size=n, max_size=n))
    return SignatureCatalog(np.array(values).reshape(n, k), epochs, annotations)


@settings(max_examples=100, deadline=None)
@given(catalogs())
def test_catalog_jsonl_round_trip_is_exact(catalog):
    back = catalog_from_jsonl(catalog.to_jsonl())
    assert len(back) == len(catalog)
    if len(catalog):
        assert back.attributions.tobytes() == catalog.attributions.tobytes()
    assert back.epochs.tobytes() == catalog.epochs.tobytes()
    assert back.annotations == catalog.annotations


def _entry(**fields):
    obj = {"ts": 1.0, "attributions": [0.5, -0.5], "abnormal": [True, False],
           "annotation": "disk full"}
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not None})


GOOD = _entry()

BAD_CATALOGS = {
    "bad JSON": (GOOD + "\n\n{\"ts\": 1.0,\n", "line 3: bad JSON: Expecting property name "
                 "enclosed in double quotes"),
    "not an object": (GOOD + "\n[1, 2]\n", "line 2: want an object with a numeric ts and "
                      "a list of numeric attributions"),
    "missing ts": (_entry(ts=None) + "\n", "line 1: missing key 'ts'"),
    "missing attributions": (GOOD + "\n" + _entry(attributions=None) + "\n",
                             "line 2: missing key 'attributions'"),
    "missing annotation": (_entry(annotation=None) + "\n", "line 1: missing key 'annotation'"),
    "attributions not a list": (_entry(attributions="12") + "\n",
                                "line 1: want an object with a numeric ts and a list of "
                                "numeric attributions"),
    "attribution not a number": (_entry(attributions=[0.5, "x"]) + "\n",
                                 "line 1: want an object with a numeric ts and a list of "
                                 "numeric attributions"),
    "ts not a number": (_entry(ts=[1]) + "\n", "line 1: want an object with a numeric ts "
                        "and a list of numeric attributions"),
    "ragged width": (GOOD + "\n\n" + _entry(attributions=[1.0, 2.0, 3.0]) + "\n",
                     "line 3: 3 attributions, the first entry has 2"),
    "nan attribution": (GOOD + "\n" + _entry(attributions=[0.5, math.nan]) + "\n",
                        "line 2: non-finite ts or attribution"),
    "infinite ts": (GOOD + "\n" + GOOD + "\n" + _entry(ts=math.inf) + "\n",
                    "line 3: non-finite ts or attribution"),
}


@pytest.mark.parametrize("text,message", BAD_CATALOGS.values(), ids=BAD_CATALOGS)
def test_catalog_reader_rejects_with_line_number(text, message):
    with pytest.raises(ValueError) as info:
        catalog_from_jsonl(text)
    assert str(info.value) == message


def test_catalog_reader_ignores_abnormal():
    text = _entry(abnormal=None) + "\n" + _entry(abnormal=[False, True]) + "\n"
    catalog = catalog_from_jsonl(text)
    np.testing.assert_array_equal(catalog.abnormal, [[True, False], [True, False]])


METRICS_HEAD = "# metrics\nts,art_ms,cpu,disk\n\n"

BAD_METRICS = {
    "short row": (METRICS_HEAD + "0,100,1,2\n1,100,1\n", "line 5: 3 fields, the header has 4"),
    "long row": (METRICS_HEAD + "0,100,1,2,3\n", "line 4: 5 fields, the header has 4"),
    "nan cell": (METRICS_HEAD + "0,100,1,2\n# c\n2,100,nan,2\n",
                 "line 6: 'nan' in column 'cpu' is not a finite number"),
    "inf cell": (METRICS_HEAD + "0,100,1, -inf\n",
                 "line 4: '-inf' in column 'disk' is not a finite number"),
    "infinite ts": (METRICS_HEAD + "Infinity,100,1,2\n",
                    "line 4: 'Infinity' in column 'ts' is not a finite number"),
    "not a number": (METRICS_HEAD + "0,100,1,2\n1,fast,1,2\n",
                     "line 5: 'fast' in column 'art_ms' is not a finite number"),
    "empty cell": (METRICS_HEAD + "0,100,,2\n",
                   "line 4: '' in column 'cpu' is not a finite number"),
}


@pytest.mark.parametrize("text,message", BAD_METRICS.values(), ids=BAD_METRICS)
def test_metrics_reader_rejects_with_line_number(text, message):
    with pytest.raises(ValueError) as info:
        load_metrics_csv(text)
    assert str(info.value) == message


def test_metrics_reader_accepts_padding_comments_and_crlf():
    ds = load_metrics_csv("# c\r\nts, art_ms ,cpu\r\n\r\n 0 ,100.5, 1e3\r\n# c\r\n1,90,-2\r\n")
    assert ds.metric_names == ("cpu",)
    np.testing.assert_array_equal(ds.timestamps, [0.0, 1.0])
    np.testing.assert_array_equal(ds.art, [100.5, 90.0])
    np.testing.assert_array_equal(ds.metrics, [[1000.0], [-2.0]])
