"""SLO violation diagnosis from low-level server metrics.

An epoch is a violation when its average response time exceeds the agreed
threshold.  A Gaussian naive Bayes classifier maps the per-epoch metric
vector to the SLO state; its per-metric log-likelihood contributions form a
*signature* of each violation, with positive contributions marking the
abnormal metrics.  Signatures are clustered and indexed so recurring
problems can be recognized and past annotations retrieved.

Metric logs are CSV: header ``ts,art_ms,<metric_1>,...,<metric_k>`` followed
by numeric rows; a metric too large to model (a class variance or an
attribution overflows) raises ValueError naming it.  Catalogs persist as JSON
lines ``{ts, attributions, abnormal, annotation}`` of finite numbers, on write
and on read; ``abnormal`` is written for readers and ignored on read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MetricDataset",
    "SloConfig",
    "DiagnosisModel",
    "SignatureCatalog",
    "VARIANCE_FLOOR",
    "ATTRIBUTION_LIMIT",
    "label_slo",
    "fit_classifier",
    "log_odds",
    "predict",
    "signatures",
    "mcnemar_p_value",
    "cluster_signatures",
    "retrieve",
    "load_metrics_csv",
    "write_metrics_csv",
    "synth_metrics",
]

# Constant metrics must not collapse a class-conditional to a point mass.
VARIANCE_FLOOR = 1e-6
# Signatures keep every attribution within +-ATTRIBUTION_LIMIT, so that each
# squared distance k-means and retrieval sum stays finite (for n * k < 4e107).
ATTRIBUTION_LIMIT = 1e100
# Lloyd iterations cluster_signatures runs at most before it stops unconverged.
_KMEANS_MAX_ITER = 100


@dataclass(eq=False)
class MetricDataset:
    """Epoch-stamped server metrics with the monitored average response time."""

    timestamps: np.ndarray  # (n,)
    metrics: np.ndarray  # (n, k)
    art: np.ndarray  # (n,) average response time, milliseconds
    metric_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.metrics = np.asarray(self.metrics, dtype=float)
        self.art = np.asarray(self.art, dtype=float)
        n = self.timestamps.size
        if self.metrics.ndim != 2 or self.metrics.shape[0] != n or self.art.size != n:
            raise ValueError("timestamps, metrics and art must agree on epoch count")
        if self.metrics.shape[1] != len(self.metric_names) or not self.metric_names:
            raise ValueError("metric_names must match the metric column count")
        if n and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")

    @property
    def n_epochs(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_metrics(self) -> int:
        return int(self.metrics.shape[1])


@dataclass(frozen=True)
class SloConfig:
    threshold: float  # milliseconds

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be a finite number > 0, got {self.threshold}")


def label_slo(dataset: MetricDataset, config: SloConfig) -> np.ndarray:
    """Boolean labels per epoch: True where ART strictly exceeds the threshold."""
    return dataset.art > config.threshold


@dataclass(eq=False)
class DiagnosisModel:
    """Gaussian naive Bayes over every metric.

    prior is (P(compliant), P(violation)); the per-metric arrays are aligned
    with metric_names.
    """

    prior: tuple[float, float]
    mean_compliant: np.ndarray
    var_compliant: np.ndarray
    mean_violation: np.ndarray
    var_violation: np.ndarray
    metric_names: tuple[str, ...]


def fit_classifier(dataset: MetricDataset, labels: np.ndarray) -> DiagnosisModel:
    """Maximum-likelihood Gaussian naive Bayes with a variance floor.

    ``labels`` is the boolean violation vector; both classes must be present.
    """
    y = np.asarray(labels, dtype=bool)
    if y.size != dataset.n_epochs:
        raise ValueError("labels must align with the dataset")
    if y.all() or not y.any():
        raise ValueError("need both classes")
    viol, comp = dataset.metrics[y], dataset.metrics[~y]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        moments = comp.mean(axis=0), comp.var(axis=0), viol.mean(axis=0), viol.var(axis=0)
    mean_c, var_c, mean_v, var_v = _finite(moments, dataset.metric_names, "a class mean or variance")
    return DiagnosisModel(
        prior=(float((~y).mean()), float(y.mean())),
        mean_compliant=mean_c,
        var_compliant=np.maximum(var_c, VARIANCE_FLOOR),
        mean_violation=mean_v,
        var_violation=np.maximum(var_v, VARIANCE_FLOOR),
        metric_names=dataset.metric_names,
    )


def _finite(values, names: tuple[str, ...], what: str):
    """values, rows whose columns align with names; a ValueError names the
    first metric whose column holds a nan or inf."""
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        raise ValueError(f"metric '{names[int(bad.argmax())]}': {what} is not finite")
    return values


def _attribution_matrix(model: DiagnosisModel, rows: np.ndarray) -> np.ndarray:
    """Per-metric log-likelihood difference toward the violation class, one
    row per row of the (n, k) metric matrix; a nan or inf one raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        log_v = -0.5 * (np.log(2 * math.pi * model.var_violation)
                        + (rows - model.mean_violation) ** 2 / model.var_violation)
        log_c = -0.5 * (np.log(2 * math.pi * model.var_compliant)
                        + (rows - model.mean_compliant) ** 2 / model.var_compliant)
        return _finite(log_v - log_c, model.metric_names, "an epoch's attribution")


def log_odds(model: DiagnosisModel, rows: np.ndarray) -> np.ndarray:
    """Log posterior ratio violation:compliant per row of a (n, k) metric
    matrix: the log prior ratio plus the row's attribution sum."""
    attr = _attribution_matrix(model, np.asarray(rows, dtype=float))
    return math.log(model.prior[1]) - math.log(model.prior[0]) + attr.sum(axis=1)


def predict(model: DiagnosisModel, rows: np.ndarray) -> np.ndarray:
    """Vectorized violation predictions for a (n, k) metric matrix."""
    return log_odds(model, rows) > 0


def signatures(model: DiagnosisModel, rows: np.ndarray, epochs: np.ndarray) -> SignatureCatalog:
    """Unannotated signatures of a batch of epochs, one catalog row each; row
    i satisfies log prior ratio + attributions[i].sum() == log_odds(model,
    rows)[i] exactly.  An attribution beyond +-ATTRIBUTION_LIMIT raises
    ValueError naming its metric."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(model.metric_names):
        raise ValueError(f"metric rows must have {len(model.metric_names)} columns")
    attributions = _attribution_matrix(model, rows)
    too_large = (np.abs(attributions) > ATTRIBUTION_LIMIT).any(axis=0)
    if too_large.any():
        raise ValueError(f"metric '{model.metric_names[int(too_large.argmax())]}': an epoch's "
                         f"attribution exceeds {ATTRIBUTION_LIMIT:g} in magnitude")
    return SignatureCatalog(attributions, epochs, ("",) * rows.shape[0])


def mcnemar_p_value(n01: int, n10: int) -> float:
    """Exact two-sided McNemar p-value from discordant-prediction counts."""
    if n01 < 0 or n10 < 0:
        raise ValueError("discordant counts must be >= 0")
    n = n01 + n10
    if n == 0:
        return 1.0
    k = min(n01, n10)
    tail = sum(math.comb(n, i) for i in range(k + 1)) * 0.5**n
    return min(1.0, 2.0 * tail)


def cluster_signatures(attributions: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """k-means over the rows of an (n, k) attribution matrix (L2, seeded
    k-means++ start); returns the cluster index per row, deterministic per seed."""
    x = np.asarray(attributions, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(x) < k:
        raise ValueError(f"need at least {k} signatures, got {len(x)}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(len(x))]
    for j in range(1, k):
        d2 = np.min(((x[:, None, :] - centers[None, :j, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centers[j] = x[rng.integers(len(x))]
        else:
            centers[j] = x[rng.choice(len(x), p=d2 / total)]

    assign = np.zeros(len(x), dtype=int)
    for _ in range(_KMEANS_MAX_ITER):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        for j in range(k):
            members = x[new_assign == j]
            if members.size:
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = x[int(dist.min(axis=1).argmax())]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


@dataclass(eq=False)
class SignatureCatalog:
    """Signatures of violations, one row each, searchable by similarity.

    attributions[i, j] > 0 means metric j pushed epoch i toward the violation
    class; ``abnormal`` flags those metrics.
    """

    attributions: np.ndarray  # (n, k)
    epochs: np.ndarray  # (n,)
    annotations: tuple[str, ...]

    def __post_init__(self) -> None:
        self.attributions = np.asarray(self.attributions, dtype=float)
        self.epochs = np.asarray(self.epochs, dtype=float)
        self.annotations = tuple(self.annotations)
        if self.attributions.ndim != 2 or not (
                len(self.attributions) == self.epochs.size == len(self.annotations)):
            raise ValueError("attributions, epochs and annotations must agree on row count")

    def __len__(self) -> int:
        return int(self.epochs.size)

    @property
    def abnormal(self) -> np.ndarray:
        return self.attributions > 0

    def to_jsonl(self) -> str:
        """One line per row, the bytes of ``json.dumps(row, sort_keys=True)``
        (``repr`` is how ``json`` writes a float).  A nan or inf raises
        ValueError, as it does in ``catalog_from_jsonl``."""
        if not (np.isfinite(self.attributions).all() and np.isfinite(self.epochs).all()):
            raise ValueError("catalog holds a nan or inf ts or attribution")
        lines = []
        for ts, attr, annotation in zip(self.epochs.tolist(), self.attributions.tolist(),
                                        self.annotations):
            abnormal = ", ".join(["true" if a > 0 else "false" for a in attr])
            lines.append(f'{{"abnormal": [{abnormal}], "annotation": {json.dumps(annotation)}, '
                         f'"attributions": [{", ".join(map(repr, attr))}], "ts": {ts!r}}}\n')
        return "".join(lines)


# the types json.loads gives a JSON number; a bool is not one, though numpy
# would take [true, 1.5] as [1.0, 1.5]
_NUMBER_TYPES = frozenset((int, float))


def catalog_from_jsonl(text: str) -> SignatureCatalog:
    """Parse a JSON-lines catalog, one entry per non-blank line.  ``abnormal``
    is ignored: it is derived from the attributions.  ``ts`` and each
    attribution must be a finite JSON number, not a string or a bool, and
    ``annotation`` a string.  Errors read ``line N: ...``, N counting blank
    lines too."""
    line_nos, epochs, rows, annotations = [], [], [], []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            attr, ts, annotation = obj["attributions"], obj["ts"], obj["annotation"]
            types = set(map(type, attr))
            if not (type(ts) in _NUMBER_TYPES and type(attr) is list and types <= _NUMBER_TYPES):
                raise TypeError
            if int in types:  # an int beyond float range raises here, on its line
                attr = [float(a) for a in attr]
            ts = float(ts)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {n}: bad JSON: {exc.msg}") from None
        except KeyError as exc:
            raise ValueError(f"line {n}: missing key {exc}") from None
        except (TypeError, OverflowError):
            raise ValueError(f"line {n}: want an object with a numeric ts and a list of "
                             "numeric attributions") from None
        if type(annotation) is not str:
            raise ValueError(f"line {n}: annotation must be a string, got {json.dumps(annotation)}")
        if rows and len(attr) != len(rows[0]):
            raise ValueError(f"line {n}: {len(attr)} attributions, the first entry has "
                             f"{len(rows[0])}")
        line_nos.append(n)
        epochs.append(ts)
        rows.append(attr)
        annotations.append(annotation)
    attributions = np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0)
    finite = np.isfinite(attributions).all(axis=1) & np.isfinite(epochs)
    if not finite.all():
        raise ValueError(f"line {line_nos[int(np.argmin(finite))]}: non-finite ts or attribution")
    return SignatureCatalog(attributions, epochs, annotations)


def retrieve(
    query: np.ndarray, catalog: SignatureCatalog, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row indices, distances) of the top_k catalog rows by ascending L2
    distance to the query attributions; ties keep catalog order.  The
    stacked row product takes the dot ``np.linalg.norm`` takes for one row,
    so each distance has its bits (``norm(d, axis=1)`` and ``einsum`` sum in
    another order)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not len(catalog):
        raise ValueError("catalog is empty")
    q = np.asarray(query, dtype=float)
    if q.shape != catalog.attributions.shape[1:]:
        raise ValueError(f"query must have {catalog.attributions.shape[1]} attributions")
    d = catalog.attributions - q
    dists = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    order = np.argsort(dists, kind="stable")[:top_k]
    return order, dists[order]


def load_metrics_csv(text: str) -> MetricDataset:
    """Parse the metric log format (header ts,art_ms,<names...> then rows).

    Blank lines and lines starting with '#' are skipped.  A ragged row, a
    cell that is not a number, a nan or inf cell and a ts below the previous
    row's fail with ``line N: ...``, N counting every line of the text.

    A well-formed body is read by one ``np.loadtxt`` pass, which parses a
    cell to the bits ``float()`` gives.  Anything that pass rejects, and a ts
    going back, goes through the per-cell reader, which names the bad line
    or, for the few spellings only ``float()`` reads (digit separators,
    full-width digits), returns its values."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if not lines:
        raise ValueError("empty metrics file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 3 or header[0] != "ts" or header[1] != "art_ms":
        raise ValueError("metrics header must be ts,art_ms,<metric names>")
    body = lines[1:]
    if not body:
        raise ValueError("metrics file has no data rows")
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        rows = None
    if (rows is None or rows.shape != (len(body), len(header)) or not np.isfinite(rows).all()
            or (rows[1:, 0] < rows[:-1, 0]).any()):
        rows = _metrics_per_cell(text, header)
    return MetricDataset(rows[:, 0], rows[:, 2:], rows[:, 1], tuple(header[2:]))


def _metrics_per_cell(text: str, header: list[str]) -> np.ndarray:
    """The body rows load_metrics_csv keeps, read with float() cell by cell;
    an error names its line, counting every line of the text."""
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
                if line.strip() and not line.startswith("#")][1:]
    body = [line for _, line in numbered]
    width = len(header)
    for n, line in numbered:
        if line.count(",") != width - 1:
            raise ValueError(f"line {n}: {line.count(',') + 1} fields, the header has {width}")
    # one line's cells at a time: a list of every cell's string would set
    # the command's peak memory
    cells = itertools.chain.from_iterable(line.split(",") for line in body)
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(body) * width)
        ok = np.isfinite(values).all()
    except ValueError:
        ok = False
    if not ok:
        for n, line in numbered:
            for name, cell in zip(header, line.split(",")):
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    raise ValueError(f"line {n}: {cell.strip()!r} in column '{name}' is not "
                                     "a finite number")
    ts = values[::width].tolist()
    for (n, _), previous, now in zip(numbered[1:], ts, ts[1:]):
        if now < previous:
            raise ValueError(f"line {n}: ts {now!r} is below the previous row's {previous!r}")
    return values.reshape(len(body), width)


def write_metrics_csv(dataset: MetricDataset) -> str:
    # one row's cells at a time: a list of the whole matrix's floats would
    # set the caller's peak memory
    lines = ["ts,art_ms," + ",".join(dataset.metric_names) + "\n"]
    for ts, art, row in zip(dataset.timestamps.tolist(), dataset.art.tolist(), dataset.metrics):
        lines.append(f"{ts!r},{art!r},{','.join(map(repr, row.tolist()))}\n")
    return "".join(lines)


def synth_metrics(
    n_epochs: int = 2000,
    n_metrics: int = 10,
    cause_metric_sets: Sequence[Sequence[int]] = ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    violation_fraction: float = 0.3,
    shift: float = 4.0,
    slo_threshold: float = 200.0,
    seed: int = 0,
) -> tuple[MetricDataset, np.ndarray, tuple[frozenset[int], ...]]:
    """Synthetic benchmark with planted violation causes.

    Violation epochs are assigned a cause; that cause's metrics are shifted
    by ``shift`` standard units and the ART is pushed above the SLO
    threshold.  Returns (dataset, cause index per epoch with -1 for
    compliant, planted abnormal-metric sets).
    """
    rng = np.random.default_rng(seed)
    base_mean = rng.uniform(20.0, 80.0, n_metrics)
    base_sd = rng.uniform(0.5, 2.0, n_metrics)
    x = base_mean + base_sd * rng.standard_normal((n_epochs, n_metrics))

    violating = rng.random(n_epochs) < violation_fraction
    cause = np.full(n_epochs, -1, dtype=int)
    n_causes = len(cause_metric_sets)
    cause[violating] = rng.integers(0, n_causes, int(violating.sum()))
    for j, metric_ids in enumerate(cause_metric_sets):
        rows = cause == j
        for i in metric_ids:
            x[rows, i] += shift * base_sd[i]

    art = np.where(
        violating,
        1.5 * slo_threshold + 0.10 * slo_threshold * rng.standard_normal(n_epochs),
        0.6 * slo_threshold + 0.05 * slo_threshold * rng.standard_normal(n_epochs),
    )
    dataset = MetricDataset(np.arange(n_epochs, dtype=float), x, art,
                            tuple(f"metric_{i:02d}" for i in range(n_metrics)))
    planted = tuple(frozenset(int(i) for i in s) for s in cause_metric_sets)
    return dataset, cause, planted
