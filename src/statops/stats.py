"""Hypothesis-testing primitives shared by the discovery and diagnosis pipelines.

Implements:
- empirical CDFs and the exact two-sample Kolmogorov-Smirnov statistic
- a segmented one-sample KS statistic against any continuous CDF
- Kolmogorov's limiting p-value, one vector pass for many statistics
- Benjamini-Hochberg step-up selection with adjusted q-values
- expected-false-positive arithmetic for naive thresholding across many tests
- a known-variance mean-difference test with a practical-significance gate
- a closed-form log-odds dependence test (given bin probabilities vs.
  Dirichlet-multinomial over binned delays) that needs no sampling-based
  inference

All functions are pure in their inputs; there is no shared state, so many
tests can be evaluated in parallel with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EmpiricalCdf",
    "TestOutcome",
    "RejectionSet",
    "LogOddsModel",
    "empirical_cdf",
    "ks_statistic",
    "ks_p_value",
    "bh_select",
    "expected_false_positives",
    "mean_difference_test",
    "log_odds_dependence",
    "ks_uniform_segments",
    "kolmogorov_sf",
    "log_odds_segments",
]

_SERIES_TOL = 1e-12
# Below this value the Smirnov tail is 1 to well past double precision
# (survival mass < 1e-200), and the alternating series converges too slowly.
_LAMBDA_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous step CDF fitted to a sample."""

    sorted_samples: np.ndarray
    n: int

    def __call__(self, x: float) -> float:
        """Fraction of samples <= x."""
        return float(np.searchsorted(self.sorted_samples, x, side="right")) / self.n


@dataclass(frozen=True)
class TestOutcome:
    """Result of a single two-sample test."""

    statistic: float
    p_value: float
    n_a: int
    n_b: int
    significant: bool
    practically_significant: bool | None = None


@dataclass(frozen=True, eq=False)
class RejectionSet:
    """Benjamini-Hochberg selection over a family of p-values.

    ``threshold`` is the selected p-value cutoff (0.0 when nothing is
    rejected); ``q_values`` are the step-up adjusted p-values in input order.
    """

    m: int
    alpha: float
    threshold: float
    rejected_indices: frozenset[int]
    q_values: np.ndarray


@dataclass(frozen=True)
class LogOddsModel:
    """Binned-delay dependence model: K equal bins over [0, horizon] with a
    symmetric Dirichlet prior of concentration ``dirichlet_alpha``."""

    horizon: float
    bins: int = 20
    dirichlet_alpha: float = 1.0

    def __post_init__(self) -> None:
        # an infinite horizon makes every bin infinitely wide: all delays land in bin 0
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be a finite number > 0, got {self.horizon}")
        if not (self.dirichlet_alpha > 0):
            raise ValueError(f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}")


def empirical_cdf(samples: Sequence[float] | np.ndarray) -> EmpiricalCdf:
    """Fit a right-continuous empirical CDF to a non-empty sample."""
    a = np.asarray(samples, dtype=float)
    if a.ndim != 1:
        raise ValueError("samples must be 1-D")
    if a.size == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(a)):
        raise ValueError("samples must be finite")
    out = np.sort(a)
    out.flags.writeable = False
    return EmpiricalCdf(sorted_samples=out, n=int(out.size))


def ks_statistic(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Exact sup-distance between two empirical CDFs.

    Evaluated over the union of both sample points, where both CDFs are
    right-continuous, so the supremum is attained exactly.  The numerator
    max |n_b * count_a(x) - n_a * count_b(x)| is an integer, so that
    lattice ties compare reliably.
    """
    x = np.concatenate([a.sorted_samples, b.sorted_samples])
    count_a = np.searchsorted(a.sorted_samples, x, side="right")
    count_b = np.searchsorted(b.sorted_samples, x, side="right")
    return float(np.abs(b.n * count_a - a.n * count_b).max() / (a.n * b.n))


def ks_uniform_segments(u: np.ndarray, counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """One-sample KS statistic of many samples at once, each against the
    uniform CDF on [0, 1]: segment j is the next counts[j] values of ``u``,
    sorted ascending within the segment.  Every count must be >= 1.

    Pass u = F0(x) to test a sample x against a continuous CDF F0.  With
    u_(1) <= ... <= u_(n), D = max_i max(i/n - u_(i), u_(i) - (i-1)/n), the
    form scipy.stats.kstest evaluates.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 1).any():
        raise ValueError("every segment needs at least one value")
    starts = np.cumsum(counts) - counts
    n = np.repeat(counts, counts)
    rank = np.arange(u.size) - np.repeat(starts, counts)  # i - 1 within the segment
    return np.maximum.reduceat(np.maximum((rank + 1) / n - u, u - rank / n), starts)


def kolmogorov_sf(lam: Sequence[float] | np.ndarray) -> np.ndarray:
    """Kolmogorov's limiting KS tail Q(lambda), elementwise.

    Q(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), summed left to
    right over the terms of at least 1e-12 and clamped to [0, 1].  Below
    lambda = 0.05, Q is 1.  For a one-sample test of n values, lambda is
    D * sqrt(n).
    """
    lam = np.asarray(lam, dtype=float)
    q = np.ones(lam.shape)
    live = lam >= _LAMBDA_FLOOR
    if live.any():
        x = lam[live]
        # exp(-2 j^2 x^2) < tol once j > sqrt(log(1/tol) / 2) / x
        j = np.arange(1, int(math.sqrt(-math.log(_SERIES_TOL) / 2.0) / x.min()) + 2)
        terms = np.exp(-2.0 * np.outer(x * x, j * j))
        terms[terms < _SERIES_TOL] = 0.0
        terms[:, 1::2] *= -1.0
        q[live] = np.clip(2.0 * np.cumsum(terms, axis=1)[:, -1], 0.0, 1.0)
    return q


def ks_p_value(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample Smirnov p-value for statistic ``d``: the
    kolmogorov_sf of lambda = d * sqrt(n*m/(n+m))."""
    if not math.isfinite(d):
        raise ValueError(f"statistic must be finite, got {d}")
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {d}")
    if n < 1 or m < 1:
        raise ValueError("sample counts must be >= 1")
    return float(kolmogorov_sf([d * math.sqrt(n * m / (n + m))])[0])


def bh_select(p_values: Sequence[float] | np.ndarray, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg step-up selection at FDR level ``alpha``.

    Rejects every p-value <= p_(k*) where k* is the largest i with
    p_(i) <= i * alpha / m; q-values are the standard step-up adjustment
    min_{j: p_(j) >= p_i} (m * p_(j) / j), clamped to 1.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p_values must be 1-D")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    bad = np.nonzero(~((p >= 0.0) & (p <= 1.0)))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"p_values[{i}] = {p[i]} outside [0, 1]")

    m = int(p.size)
    if m == 0:
        return RejectionSet(0, alpha, 0.0, frozenset(), np.empty(0))

    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    ranks = np.arange(1, m + 1)

    passing = np.nonzero(p_sorted <= ranks * alpha / m)[0]
    threshold = float(p_sorted[passing[-1]]) if passing.size else 0.0
    rejected = frozenset(int(i) for i in np.nonzero(p <= threshold)[0]) if passing.size else frozenset()

    q_sorted = np.minimum.accumulate((m * p_sorted / ranks)[::-1])[::-1]
    q = np.empty(m)
    q[order] = np.minimum(q_sorted, 1.0)
    q.flags.writeable = False
    return RejectionSet(m=m, alpha=alpha, threshold=threshold, rejected_indices=rejected, q_values=q)


def expected_false_positives(m: int, p_threshold: float) -> float:
    """Expected count of falsely rejected nulls when all ``m`` tests are null
    and each is rejected at ``p_threshold``."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 0.0 <= p_threshold <= 1.0:
        raise ValueError(f"p_threshold must lie in [0, 1], got {p_threshold}")
    return float(m) * float(p_threshold)


def mean_difference_test(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    sigma: float,
    alpha: float,
    practical_delta: float,
) -> TestOutcome:
    """Two-sided z-test for a mean difference with known shared ``sigma``,
    gated on practical significance.

    With very large samples a tiny gap turns statistically significant while
    being operationally meaningless; ``practically_significant`` is therefore
    true only when the test rejects AND |mean_a - mean_b| >= practical_delta.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")
    gap = float(xa.mean() - xb.mean())
    se = sigma * math.sqrt(1.0 / xa.size + 1.0 / xb.size)
    z = gap / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    significant = p <= alpha
    return TestOutcome(
        statistic=z,
        p_value=p,
        n_a=int(xa.size),
        n_b=int(xb.size),
        significant=significant,
        practically_significant=bool(significant and abs(gap) >= practical_delta),
    )


def log_odds_dependence(delays: Sequence[float] | np.ndarray, model: LogOddsModel) -> float:
    """Closed-form log Bayes factor for delay dependence against a uniform
    delay: log_odds_segments of one sample with p_k = 1/K, which is

        log BF = lgamma(K*a) - lgamma(n + K*a)
                 + sum_k [lgamma(c_k + a) - lgamma(a)] + n * log K

    The uniform null is not the null of independent channels; discovery
    passes the input's own bin probabilities (see traces.null_delay_cdf).
    """
    if model.bins < 2:
        raise ValueError(f"need at least 2 bins, got {model.bins}")
    x = np.asarray(delays, dtype=float)
    if np.any(x < 0) or np.any(x > model.horizon):
        bad = x[(x < 0) | (x > model.horizon)][0]
        raise ValueError(f"delay {bad} outside [0, {model.horizon}]")
    uniform = np.full(model.bins, -math.log(model.bins))
    return float(log_odds_segments(x, [x.size], model, uniform)[0])


def log_odds_segments(delays: np.ndarray, counts: Sequence[int] | np.ndarray,
                      model: LogOddsModel, log_p: np.ndarray) -> np.ndarray:
    """Closed-form log Bayes factors of many delay samples at once: segment j
    is the next counts[j] values of ``delays``, all within [0, horizon].  An
    empty segment scores 0.

    Delays fall into K equal-width bins over [0, horizon], with counts c_k.
    The null gives bin k the probability p_k (``log_p``, broadcast to one
    row of K per segment); the alternative is Dirichlet-multinomial:

        log BF = lgamma(K*a) - lgamma(n + K*a)
                 + sum_k [lgamma(c_k + a) - lgamma(a) - c_k log p_k]

    with 0 log 0 read as 0, so a count in a bin of p_k = 0 scores +inf.
    Positive values favor dependence.  Conjugacy keeps this exact and cheap,
    with no simulation-based inference in the loop.

    One bincount over (segment * K + bin) yields every segment's bin
    counts.  Each segment's terms are added left to right, bin by bin, by a
    cumulative sum, so the result does not depend on how many segments
    share the call.
    """
    k, a = model.bins, model.dirichlet_alpha
    counts = np.asarray(counts, dtype=np.int64)
    width = model.horizon / k
    bins = np.minimum((delays / width).astype(int), k - 1)
    hist = np.bincount(np.repeat(np.arange(counts.size), counts) * k + bins,
                       minlength=counts.size * k).reshape(counts.size, k)
    values, where = np.unique(hist, return_inverse=True)
    terms = np.array([math.lgamma(c + a) for c in values.tolist()])[where.reshape(hist.shape)]
    terms -= hist * np.where(hist > 0, log_p, 0.0)
    head = np.array([math.lgamma(k * a) - math.lgamma(n + k * a) - k * math.lgamma(a)
                     for n in counts.tolist()])
    log_bf = head + np.cumsum(terms, axis=1)[:, -1]
    return np.where(counts > 0, log_bf, 0.0)
