"""Batch signatures, the columnar catalog and the diagnose input checks.

The batch path is checked against the one-row path bit for bit: a signature
row, a log-odds value and a retrieval distance must not depend on how many
rows were computed together.  The catalog and metrics readers get a table of
every rejected input with its exact ``line N`` message, and the catalog a
hypothesis round trip.  The metrics reader's one-pass path is checked
against its line-checked path: the same bits for every text both accept,
and the same error for every text either rejects.  On generated catalog
texts the catalog reader must return each line's values or name a line.
The catalog writer is checked against one ``json.dumps(..., sort_keys=True)``
per row.
"""

from __future__ import annotations

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statops import diagnosis
from statops.diagnosis import (
    SignatureCatalog,
    SloConfig,
    catalog_from_jsonl,
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
    return ds, fit_classifier(ds, labels)


def test_batch_attributions_and_log_odds_match_per_row_classify(planted):
    ds, model = planted
    rows = ds.metrics * np.random.default_rng(42).uniform(0.5, 1.5, ds.metrics.shape)
    batch = signatures(model, rows, ds.timestamps)
    lo = log_odds(model, rows)
    log_prior = math.log(model.prior[1]) - math.log(model.prior[0])
    for i, row in enumerate(rows):
        row_log_odds = log_odds(model, row[None, :])[0]
        assert lo[i] == row_log_odds
        assert log_prior + batch.attributions[i].sum() == row_log_odds
        one = signatures(model, row[None, :], ds.timestamps[i:i + 1])
        assert one.attributions.tobytes() == batch.attributions[i].tobytes()
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
    "ts a numeric string": (GOOD + "\n" + _entry(ts="5") + "\n", "line 2: want an object with a "
                            "numeric ts and a list of numeric attributions"),
    "ts a bool": (_entry(ts=True) + "\n", "line 1: want an object with a numeric ts and a list "
                  "of numeric attributions"),
    "ts beyond float range": (_entry(ts=10**400) + "\n", "line 1: want an object with a "
                              "numeric ts and a list of numeric attributions"),
    "attribution beyond float range": (GOOD + "\n" + _entry(attributions=[0.5, -10**400]) + "\n",
                                       "line 2: want an object with a numeric ts and a list of "
                                       "numeric attributions"),
    "attribution a numeric string": (_entry(attributions=[0.5, "1_0"]) + "\n", "line 1: want "
                                     "an object with a numeric ts and a list of numeric "
                                     "attributions"),
    "attribution a bool among floats": (GOOD + "\n" + _entry(attributions=[True, 1.5]) + "\n",
                                        "line 2: want an object with a numeric ts and a list of "
                                        "numeric attributions"),
    "attributions all bools": (_entry(attributions=[True, False]) + "\n", "line 1: want an "
                               "object with a numeric ts and a list of numeric attributions"),
    "annotation null": (GOOD + "\n" + GOOD.replace('"disk full"', "null") + "\n",
                        "line 2: annotation must be a string, got null"),
    "annotation a number": (_entry(annotation=3) + "\n",
                            "line 1: annotation must be a string, got 3"),
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


# ---------------------------------------------------------------------------
# one-pass readers and writer against their line-checked references
# ---------------------------------------------------------------------------


def _outcome(read, text):
    """What a reader makes of a text: its arrays' bytes, or its error."""
    try:
        result = read(text)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
                  for v in vars(result).values()]


def _metrics_per_cell(text):
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return load_metrics_csv(text)


# Cells float() reads (some of which np.loadtxt does not) and cells neither
# may accept.
ODD_CELLS = (" 1.5 ", "+1", ".5", "5.", "-0", "1e400", "1_0", "\uff11", "nan", "Infinity",
             "", "2#3", "\t7", "0x10", "1 2")


@st.composite
def metric_texts(draw):
    n_metrics = draw(st.integers(1, 3))
    cell = st.one_of(finite.map(repr), finite.map(repr), st.sampled_from(ODD_CELLS))
    lines = [draw(st.sampled_from(["# exported", ""]))] if draw(st.booleans()) else []
    lines.append("ts,art_ms," + ",".join(f"m{j}" for j in range(n_metrics)))
    for _ in range(draw(st.integers(1, 5))):
        width = n_metrics + 2 + draw(st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1)))
        lines.append(",".join(draw(st.lists(cell, min_size=width, max_size=width))))
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t", "# note", "#"]), max_size=1))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@settings(max_examples=300, deadline=None)
@given(metric_texts())
@example("ts,art_ms,m\r\n 1.5 ,+1,.5\r\n\r\n5.,-0,1_0\r\n  \r\n\uff11,2,3\r\n")
@example("ts,art_ms,m\n1,2,1e400\n")
@example("ts,art_ms,m\n1,2,3 # note\n")
def test_metrics_one_pass_reader_matches_per_cell_reader(text):
    assert _outcome(load_metrics_csv, text) == _outcome(_metrics_per_cell, text)


@pytest.mark.parametrize("cell", ODD_CELLS)
def test_metrics_readers_agree_on_each_odd_cell(cell):
    text = f"ts,art_ms,m\n0,100,1\n1,100,{cell}\n"
    assert _outcome(load_metrics_csv, text) == _outcome(_metrics_per_cell, text)


def test_metrics_well_formed_log_takes_one_loadtxt_pass():
    ds, _, _ = synth_metrics(n_epochs=50, n_metrics=4, cause_metric_sets=((0,),), seed=5)
    text = diagnosis.write_metrics_csv(ds)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        back = load_metrics_csv(text)
    assert loadtxt.call_count == 1
    for name in ("timestamps", "art", "metrics"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()


# (values the reader takes, values it may not) per key
_ENTRY_PARTS = {
    "ts": (("1.5", "-0.0", "7", "1e300"), ('"5"', "true", "null", "[1]", "1e400", "NaN")),
    "attributions": (("[0.5, -0.5]", "[1, 2]", "[-1e-300, 3]"),
                     ("[0.5]", "[]", '[0.5, "x"]', "[true, 0.0]", "[0.5, NaN]", "[-Infinity, 1.0]",
                      '"12"', "[[1], [2]]", "{}", "[1" + "0" * 400 + ", 0.5]")),
    "annotation": (('"disk full"', '""', '"r\\u00e9seau \\"q\\" }, {"'), ("3", "null", "[1]")),
    "abnormal": (("[true, false]", "[]"), ()),
}


@st.composite
def catalog_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        keys = [k for k in _ENTRY_PARTS if draw(st.integers(0, 49))]  # a key is mostly present
        entry = "{" + ", ".join(
            f'"{k}": {draw(st.sampled_from(_ENTRY_PARTS[k][0] * 6 + _ENTRY_PARTS[k][1]))}'
            for k in keys) + "}"
        odd = [" " + entry + "\t", entry + entry, entry + ", " + entry, entry[:-1], "[1, 2]"]
        entry = draw(st.sampled_from([entry] * 30 + odd))
        lines += [entry] + draw(st.lists(st.sampled_from(["", " "]), max_size=1))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


# Two lines whose joined text is two well-formed entries, though the first
# line alone is not JSON: the reader must reject it.
SPLIT_ENTRY = ('{"ts": 1, "attributions": [1.0], "annotation": "a", "x": [{}\n'
               '{}], "abnormal": []}, {"ts": 2, "attributions": [2.0], "annotation": "b"}\n')


@settings(max_examples=300, deadline=None)
@given(catalog_texts())
@example(SPLIT_ENTRY)
@example('{"ts": 1, "attributions": [1.0\n2.0], "annotation": "a"}\n')
@example('{"ts": 1, "attributions": [1.0], "annotation": "a"}{"ts": 2, "attributions": [2.0], '
         '"annotation": "b"}\n')
def test_catalog_reader_returns_each_line_or_names_one(text):
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    try:
        catalog = catalog_from_jsonl(text)
    except ValueError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match and int(match[1]) in dict(numbered), str(exc)
        return
    entries = [json.loads(line) for _, line in numbered]
    assert catalog.epochs.tolist() == [e["ts"] for e in entries]
    assert catalog.attributions.tolist() == [e["attributions"] for e in entries]
    assert catalog.annotations == tuple(e["annotation"] for e in entries)


def test_catalog_reader_rejects_an_entry_split_across_lines():
    with pytest.raises(ValueError, match="^line 1: bad JSON: "):
        catalog_from_jsonl(SPLIT_ENTRY)
    two = GOOD + GOOD + "\n"
    with pytest.raises(ValueError, match="^line 1: bad JSON: Extra data$"):
        catalog_from_jsonl(two)


any_float = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308]))


@st.composite
def any_catalogs(draw):
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, 5))
    values = draw(st.lists(any_float, min_size=n * k, max_size=n * k))
    epochs = draw(st.lists(any_float, min_size=n, max_size=n))
    annotation = st.one_of(st.text(), st.sampled_from(['say "hi"', "tab\tnew\nline\x00",
                                                       "r\u00e9seau \u78c1\u76d8", "\U0001f600"]))
    annotations = draw(st.lists(annotation, min_size=n, max_size=n))
    return SignatureCatalog(np.array(values).reshape(n, k), epochs, annotations)


@settings(max_examples=200, deadline=None)
@given(any_catalogs())
def test_to_jsonl_is_json_dumps_per_row(catalog):
    reference = "".join(
        json.dumps({"ts": ts, "attributions": attr, "abnormal": [a > 0 for a in attr],
                    "annotation": annotation}, sort_keys=True) + "\n"
        for ts, attr, annotation in zip(catalog.epochs.tolist(), catalog.attributions.tolist(),
                                        catalog.annotations))
    assert catalog.to_jsonl() == reference


def test_to_jsonl_writes_non_finite_values_as_json_does():
    catalog = SignatureCatalog([[math.nan, math.inf, -math.inf, 1e308]], [0.0], ("x",))
    assert catalog.to_jsonl() == ('{"abnormal": [false, true, false, true], "annotation": "x", '
                                  '"attributions": [NaN, Infinity, -Infinity, 1e+308], '
                                  '"ts": 0.0}\n')
