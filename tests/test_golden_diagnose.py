"""Golden digests of the bytes ``diagnose`` writes.

For every (metrics log shape, seed) in a small grid the test writes a
synthetic metrics log, runs ``diagnose --actions train,signatures,cluster``
and three ``--actions retrieve`` queries, and compares the sha256 of
``model.json``, ``signatures.jsonl``, ``timeline.csv`` and each
``retrieval.json`` with the digests recorded in ``golden_diagnose.json``.
The shapes are a long narrow log and a short wide one.

The retrieve queries cover top-k 1 and 3, a query epoch that falls halfway
between two epochs (the nearer-epoch lookup then ties), and a hand-annotated
catalog made from the written signatures by seeded edits: annotations, some
with non-ASCII text, rows shuffled and the query's own row duplicated, so that
equal distances must keep catalog order.

One more case writes the long narrow log as a hand edit might leave it: a
comment line first, CRLF line ends, blank lines, space-padded cells and
digit separators (``1_234.0``) in the timestamps.  The separators send the
body through the per-cell reader instead of the one-pass one; the values are
the plain log's, so its digests equal that case's.

After an intended change to the report bytes, regenerate the digests with

    PYTHONPATH=src python tests/test_golden_diagnose.py

and name the changed bytes and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

from statops import diagnosis
from statops.cli import main

GOLDEN = Path(__file__).with_name("golden_diagnose.json")

SEEDS = (3, 11, 29)
# (epochs, metrics, metrics per planted cause)
SHAPES = {"long-narrow": (3000, 6, 2), "wide": (300, 60, 12)}
EDITED = "-hand-edited"  # suffix of a shape whose log is written as a hand edit
SLO_THRESHOLD = "200.0"
TRAIN_REPORTS = ("model.json", "signatures.jsonl", "timeline.csv")
ANNOTATIONS = ("disk full", "GC pause", "cache miss storm", "réseau saturé", "磁盘已满")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_metrics(shape: str, seed: int, path: Path) -> None:
    epochs, metrics, width = SHAPES[shape.removesuffix(EDITED)]
    causes = tuple(tuple(range(c * width, (c + 1) * width)) for c in range(3))
    dataset, _, _ = diagnosis.synth_metrics(
        n_epochs=epochs, n_metrics=metrics, cause_metric_sets=causes, seed=seed)
    text = diagnosis.write_metrics_csv(dataset)
    path.write_bytes((_hand_edited(text) if shape.endswith(EDITED) else text).encode())


def _hand_edited(text: str) -> str:
    """The same log with a comment line, CRLF ends, a blank line after every
    seventh row, cells padded with spaces and a '_' after the first digit
    of every timestamp of two or more digits."""
    lines = ["# exported by hand"]
    for i, line in enumerate(text.splitlines()):
        ts, *rest = line.split(",")
        lines.append(", ".join([re.sub(r"^(\d)(?=\d)", r"\1_", ts), *rest]) + " ")
        if i % 7 == 6:
            lines.append("")
    return "".join(line + "\r\n" for line in lines)


def _annotated_catalog(signatures: str, query_ts: float, rng: random.Random) -> str:
    """A hand-edited catalog: 40 annotated rows in shuffled order, with the
    query's own row present three times and a few other rows twice."""
    rows = [json.loads(line) for line in signatures.splitlines()]
    query = next(r for r in rows if r["ts"] == query_ts)
    picked = rng.sample([r for r in rows if r is not query], 36)
    picked += [query, query, query] + picked[:4]
    rng.shuffle(picked)
    lines = []
    for r in picked:
        r = {**r, "annotation": rng.choice(ANNOTATIONS)}
        lines.append(json.dumps(r, ensure_ascii=rng.random() < 0.5))
    return "".join(line + "\n" for line in lines)


def diagnose_digests(shape: str, seed: int, work: Path) -> dict[str, str]:
    metrics = work / "metrics.csv"
    _write_metrics(shape, seed, metrics)
    base = ["diagnose", str(metrics), "--slo-threshold", SLO_THRESHOLD, "--seed", str(seed)]
    out = work / "diagnose"
    assert main([*base, "--actions", "train,signatures,cluster", "--clusters", "3",
                 "--out", str(out)]) == 0
    digests = {name: _digest(out / name) for name in TRAIN_REPORTS}

    signatures = (out / "signatures.jsonl").read_text(encoding="utf-8")
    ts = [json.loads(line)["ts"] for line in signatures.splitlines()]
    rng = random.Random(f"{shape.removesuffix(EDITED)}/{seed}")
    annotated = work / "annotated.jsonl"
    query_ts = rng.choice(ts)
    annotated.write_text(_annotated_catalog(signatures, query_ts, rng), encoding="utf-8")
    queries = {
        "retrieval-between-k1.json": (out / "signatures.jsonl", rng.choice(ts) + 0.5, 1),
        "retrieval-between-k3.json": (out / "signatures.jsonl", rng.choice(ts) - 0.5, 3),
        "retrieval-annotated-k3.json": (annotated, query_ts, 3),
    }
    for name, (catalog, epoch, top_k) in queries.items():
        q_out = work / name
        assert main([*base, "--actions", "retrieve", "--catalog", str(catalog),
                     "--query-epoch", repr(epoch), "--top-k", str(top_k),
                     "--out", str(q_out)]) == 0
        digests[name] = _digest(q_out / "retrieval.json")
    return digests


CASES = [(shape, seed) for shape in SHAPES for seed in SEEDS] + [("long-narrow" + EDITED, 3)]


def case_id(shape: str, seed: int) -> str:
    return f"{shape}/seed{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("shape,seed", CASES, ids=[case_id(*c) for c in CASES])
def test_diagnose_reports_match_golden_digests(shape, seed, tmp_path, golden):
    assert diagnose_digests(shape, seed, tmp_path) == golden[case_id(shape, seed)]


def test_hand_edited_log_reports_match_the_plain_log(golden):
    assert golden[case_id("long-narrow" + EDITED, 3)] == golden[case_id("long-narrow", 3)]


def regenerate() -> None:
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case_id(*case)] = diagnose_digests(*case, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
