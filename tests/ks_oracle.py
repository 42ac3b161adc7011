"""Permutation p-value of the two-sample KS statistic, written independently of
``statops.stats`` so the tests can check its asymptotic p-value against it."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def permutation_p_value(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    n_perm: int,
    rng_seed: int,
) -> float:
    """Permutation tail probability of the two-sample KS statistic.

    Pools both samples, re-splits ``n_perm`` times at the original sizes and
    recomputes the statistic; returns (1 + #{D_perm >= D_obs}) / (n_perm + 1).
    Deterministic for a fixed seed.
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")

    n, m = int(xa.size), int(xb.size)
    total = n + m
    pooled = np.concatenate([xa, xb])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    # The pooled multiset is permutation-invariant, so a split is fully
    # described by which sorted positions belong to sample a.  D is then the
    # max prefix discrepancy, evaluated at the last index of each tie run.
    # Comparisons use the integer numerator m*count_a - n*count_b so that
    # statistic ties (D lives on a 1/(n*m) lattice) are never split by
    # floating-point rounding.
    last_of_run = np.ones(total, dtype=bool)
    last_of_run[:-1] = pooled[:-1] != pooled[1:]
    positions = np.arange(1, total + 1)

    def numerators(member_a: np.ndarray) -> np.ndarray:
        cum_a = np.cumsum(member_a, axis=-1)
        disc = np.abs(m * cum_a - n * (positions - cum_a))
        return disc[..., last_of_run].max(axis=-1)

    observed = int(numerators((order < n).astype(np.int64)))
    rng = np.random.default_rng(rng_seed)
    exceed = 0
    chunk = max(1, min(n_perm, 4_000_000 // max(total, 1)))
    done = 0
    while done < n_perm:
        rows = min(chunk, n_perm - done)
        split = np.argsort(rng.random((rows, total)), axis=1)
        member_a = np.zeros((rows, total), dtype=np.int64)
        np.put_along_axis(member_a, split[:, :n], 1, axis=1)
        exceed += int(np.count_nonzero(numerators(member_a) >= observed))
        done += rows
    return (1 + exceed) / (n_perm + 1)
