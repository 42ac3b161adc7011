from __future__ import annotations

import math

import numpy as np
import pytest

from ks_oracle import permutation_p_value
from statops.stats import (
    LogOddsModel,
    bh_select,
    empirical_cdf,
    expected_false_positives,
    kolmogorov_sf,
    ks_p_value,
    ks_statistic,
    ks_uniform_segments,
    log_odds_dependence,
    log_odds_segments,
    mean_difference_test,
)


# ---------------------------------------------------------------------------
# empirical CDFs
# ---------------------------------------------------------------------------


def test_single_point_cdf():
    c = empirical_cdf([1.0])
    assert c(0.999) == 0.0
    assert c(1.0) == 1.0
    assert c(5.0) == 1.0


def test_cdf_sorts_and_counts():
    c = empirical_cdf([3, 1, 2])
    assert list(c.sorted_samples) == [1, 2, 3]
    assert c(2) == pytest.approx(2 / 3)


def test_cdf_of_delay_example():
    c = empirical_cdf([0.2, 0.4, 0.1])
    assert c(0.3) == pytest.approx(2 / 3)


def test_cdf_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="no samples"):
        empirical_cdf([])
    with pytest.raises(ValueError, match="finite"):
        empirical_cdf([1.0, math.nan])


def test_cdf_is_right_continuous_nondecreasing():
    rng = np.random.default_rng(1)
    c = empirical_cdf(rng.normal(size=57))
    xs = np.sort(rng.normal(size=200))
    vals = [c(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for s in c.sorted_samples[:5]:
        assert c(s) >= c(s - 1e-9)


# ---------------------------------------------------------------------------
# KS statistic and p-values
# ---------------------------------------------------------------------------


def test_ks_identical_samples_zero():
    c = empirical_cdf([1.0, 2.0, 2.0, 5.0])
    assert ks_statistic(c, c) == 0.0


def test_ks_disjoint_supports_one():
    a = empirical_cdf([0, 0, 0, 0])
    b = empirical_cdf([1, 1, 1, 1])
    assert ks_statistic(a, b) == 1.0


def test_ks_shifted_grid():
    a = empirical_cdf([1, 2, 3, 4])
    b = empirical_cdf([2, 3, 4, 5])
    assert ks_statistic(a, b) == pytest.approx(0.25)


def test_ks_tie_handling_by_hand():
    # union points {1, 2}: |2/3 - 1/3| = 1/3 at x=1, 0 at x=2
    a = empirical_cdf([1, 1, 2])
    b = empirical_cdf([1, 2, 2])
    assert ks_statistic(a, b) == pytest.approx(1 / 3)


def test_ks_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = empirical_cdf(rng.normal(size=rng.integers(1, 40)))
        b = empirical_cdf(rng.normal(loc=rng.normal(), size=rng.integers(1, 40)))
        d = ks_statistic(a, b)
        assert d == ks_statistic(b, a)
        assert 0.0 <= d <= 1.0
        assert ks_statistic(a, a) == 0.0


def test_ks_p_value_zero_statistic():
    assert ks_p_value(0.0, 10, 10) == 1.0


def test_ks_p_value_worked_example():
    # independent evaluation of the alternating series at lambda = 0.5*sqrt(50)
    lam = 0.5 * math.sqrt(100 * 100 / 200)
    expected = 2.0 * sum(
        (-1) ** (j - 1) * math.exp(-2 * j * j * lam * lam) for j in range(1, 60)
    )
    assert ks_p_value(0.5, 100, 100) == pytest.approx(expected, rel=1e-9)
    assert ks_p_value(0.5, 100, 100) == pytest.approx(2.8e-11, rel=0.02)


def test_kolmogorov_sf_batch_matches_one_element_calls():
    lam = np.array([0.0, 0.04, 0.05, 0.3, 1.0, 1.36, 2.5, 40.0])
    batch = kolmogorov_sf(lam)
    assert batch.tolist() == [kolmogorov_sf([x])[0] for x in lam.tolist()]
    assert batch[:2].tolist() == [1.0, 1.0] and batch[-1] == 0.0
    assert ks_p_value(0.5, 100, 100) == kolmogorov_sf([0.5 * math.sqrt(50)])[0]


def test_ks_uniform_segments_by_hand():
    # sample {0.1, 0.2, 0.9}: D = max(1/3 - 0.1, 2/3 - 0.2, 0.9 - 2/3, 1 - 0.9) = 7/15
    u = np.array([0.1, 0.2, 0.9, 0.5])
    np.testing.assert_allclose(ks_uniform_segments(u, [3, 1]), [7 / 15, 0.5], rtol=1e-15)
    assert ks_uniform_segments(np.empty(0), []).size == 0
    with pytest.raises(ValueError):
        ks_uniform_segments(u, [4, 0])


def test_ks_p_value_rejects_bad_statistic():
    with pytest.raises(ValueError):
        ks_p_value(math.nan, 10, 10)
    with pytest.raises(ValueError):
        ks_p_value(1.5, 10, 10)


def test_ks_p_value_monotone_in_d():
    ps = [ks_p_value(d, 50, 60) for d in np.linspace(0, 1, 21)]
    assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------


def _naive_permutation_p(a, b, n_perm, seed):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    observed = ks_statistic(empirical_cdf(a), empirical_cdf(b))
    pooled = np.concatenate([a, b])
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(pooled.size)
        pa, pb = pooled[perm[: a.size]], pooled[perm[a.size:]]
        if ks_statistic(empirical_cdf(pa), empirical_cdf(pb)) >= observed:
            exceed += 1
    return (1 + exceed) / (n_perm + 1)


def test_permutation_identical_samples():
    x = [1.0, 2.0, 3.0]
    assert permutation_p_value(x, x, 99, rng_seed=0) == 1.0


def test_permutation_disjoint_samples_small_p():
    a = np.linspace(0, 1, 50)
    b = np.linspace(10, 11, 50)
    assert permutation_p_value(a, b, 999, rng_seed=3) <= 0.01


def test_permutation_deterministic_per_seed():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=30), rng.normal(size=25)
    p1 = permutation_p_value(a, b, 199, rng_seed=11)
    p2 = permutation_p_value(a, b, 199, rng_seed=11)
    assert p1 == p2


def test_permutation_matches_naive_resplit_distribution():
    # the prefix-count implementation must behave like literally re-splitting
    # and recomputing the statistic: same null distribution, close p-values
    rng = np.random.default_rng(17)
    for shift in (0.0, 0.6):
        a = rng.normal(size=40)
        b = rng.normal(loc=shift, size=35)
        fast = permutation_p_value(a, b, 4999, rng_seed=23)
        naive = _naive_permutation_p(a, b, 4999, seed=24)
        assert abs(fast - naive) <= 0.03


def test_permutation_rejects_empty_input():
    with pytest.raises(ValueError):
        permutation_p_value([], [1.0], 9, rng_seed=0)
    with pytest.raises(ValueError):
        permutation_p_value([1.0], [2.0], 0, rng_seed=0)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg selection
# ---------------------------------------------------------------------------


def test_bh_nothing_passes():
    r = bh_select([1.0, 1.0, 1.0], 0.05)
    assert r.rejected_indices == frozenset()
    assert r.threshold == 0.0


def test_bh_worked_example():
    r = bh_select([0.001, 0.008, 0.039, 0.041, 0.27, 0.60], 0.05)
    assert r.rejected_indices == frozenset({0, 1})
    assert r.threshold == pytest.approx(0.008)
    assert list(r.q_values) == pytest.approx([0.006, 0.024, 0.0615, 0.0615, 0.324, 0.60])


def test_bh_single_test_reduces_to_plain():
    assert bh_select([0.04], 0.05).rejected_indices == frozenset({0})
    assert bh_select([0.06], 0.05).rejected_indices == frozenset()


def test_bh_rejects_out_of_range_naming_index():
    with pytest.raises(ValueError, match=r"p_values\[2\]"):
        bh_select([0.1, 0.2, 1.5], 0.05)
    with pytest.raises(ValueError):
        bh_select([0.1], 0.0)


def test_bh_rejection_matches_q_value_rule():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.random(rng.integers(1, 40))
        alpha = float(rng.uniform(0.01, 0.3))
        r = bh_select(p, alpha)
        by_q = frozenset(int(i) for i in np.nonzero(r.q_values <= alpha)[0])
        assert by_q == r.rejected_indices
        assert all(p[i] <= r.threshold for i in r.rejected_indices)


def test_bh_monotone_in_alpha():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = rng.random(30)
        a1, a2 = sorted(rng.uniform(0.01, 0.5, size=2))
        assert bh_select(p, a1).rejected_indices <= bh_select(p, a2).rejected_indices


def test_bh_global_null_false_discovery_proportion():
    # every rejection under the global null is false; the realized proportion
    # over seeds stays near the target level
    rng = np.random.default_rng(12)
    fdps = [
        1.0 if bh_select(rng.random(200), 0.05).rejected_indices else 0.0
        for _ in range(200)
    ]
    assert np.mean(fdps) <= 0.08


def test_expected_false_positives_worked_example():
    assert expected_false_positives(10000, 0.05) == 500.0
    # with 1000 rejections, half are expected to be wrong
    assert expected_false_positives(10000, 0.05) / 1000 == 0.5
    assert expected_false_positives(0, 0.05) == 0.0


# ---------------------------------------------------------------------------
# mean-difference test with practical significance
# ---------------------------------------------------------------------------


def test_mean_difference_identical_constants():
    t = mean_difference_test([2.0] * 5, [2.0] * 5, sigma=1.0, alpha=0.05, practical_delta=0.1)
    assert t.statistic == 0.0
    assert t.p_value == 1.0
    assert not t.significant and not t.practically_significant


def test_mean_difference_large_sample_statistical_not_practical():
    n = 10**6
    t = mean_difference_test(
        np.full(n, 0.004), np.zeros(n), sigma=1.0, alpha=0.05, practical_delta=0.01
    )
    assert t.statistic == pytest.approx(2.8284, abs=1e-3)
    assert t.p_value == pytest.approx(0.0047, abs=2e-4)
    assert t.significant
    assert t.practically_significant is False


def test_mean_difference_small_sample_both_flags():
    t = mean_difference_test(
        np.full(10, 2.0), np.zeros(10), sigma=1.0, alpha=0.05, practical_delta=0.5
    )
    assert t.statistic == pytest.approx(4.4721, abs=1e-3)
    assert t.p_value < 1e-4
    assert t.significant and t.practically_significant


def test_mean_difference_rejects_bad_sigma():
    with pytest.raises(ValueError):
        mean_difference_test([1.0], [1.0], sigma=0.0, alpha=0.05, practical_delta=0.1)


# ---------------------------------------------------------------------------
# log-odds dependence test
# ---------------------------------------------------------------------------


def test_log_odds_closed_form_examples():
    m = LogOddsModel(horizon=1.0, bins=2, dirichlet_alpha=1.0)
    assert log_odds_dependence([], m) == pytest.approx(0.0, abs=1e-9)
    assert log_odds_dependence([0.3], m) == pytest.approx(0.0, abs=1e-9)
    expected = math.log(1 / 11) + 10 * math.log(2)
    assert log_odds_dependence(np.full(10, 0.1), m) == pytest.approx(expected, abs=1e-9)


def test_log_odds_rejects_bad_input():
    m = LogOddsModel(horizon=1.0, bins=2)
    with pytest.raises(ValueError):
        log_odds_dependence([1.5], m)
    with pytest.raises(ValueError):
        log_odds_dependence([0.1], LogOddsModel(horizon=1.0, bins=1))


def test_log_odds_concentrated_grows_with_n():
    m = LogOddsModel(horizon=1.0, bins=2, dirichlet_alpha=1.0)
    vals = [log_odds_dependence(np.full(n, 0.2), m) for n in (10, 100, 1000)]
    assert vals[0] < vals[1] < vals[2]


def test_log_odds_uniform_null_not_favored():
    m = LogOddsModel(horizon=1.0, bins=20, dirichlet_alpha=1.0)
    rng = np.random.default_rng(4)
    vals = [log_odds_dependence(rng.uniform(0, 1, 500), m) for _ in range(20)]
    assert np.mean(vals) <= 0.5


def test_log_odds_delay_at_horizon_lands_in_last_bin():
    m = LogOddsModel(horizon=2.0, bins=4)
    assert math.isfinite(log_odds_dependence([2.0, 0.0, 1.0], m))


def test_log_odds_null_bins_with_zero_probability():
    # 0 log 0 is 0; a count in a bin the null cannot reach is decisive
    m = LogOddsModel(horizon=1.0, bins=2, dirichlet_alpha=1.0)
    log_p = np.array([0.0, -np.inf])  # every null delay falls in [0, 0.5)
    empty_bin, reached = log_odds_segments(np.array([0.1, 0.2, 0.1, 0.7]), [2, 2], m, log_p)
    assert empty_bin == pytest.approx(math.log(1 / 3), abs=1e-12)  # G(2) G(3) / G(4) = 2/6
    assert reached == math.inf
