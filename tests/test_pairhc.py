import math

import numpy as np
import pytest

from hicrit.errors import InvalidInputError
from hicrit.numerics import RngSeed
from hicrit.pairhc import (PAPER_SETTINGS, RankedPairs, corner_counts,
                           pair_hc_components, pair_hc_star, sample_bivariate_mixture,
                           simulate_pair_scores)

import oracles


def independent_pairs(rng, n):
    return RankedPairs.from_data(rng.standard_normal(n), rng.standard_normal(n))


def test_rank_construction_and_ties():
    pairs = RankedPairs.from_data([0.3, 0.1, 0.2], [1.0, 3.0, 2.0])
    np.testing.assert_array_equal(pairs.ranks_x, [3, 1, 2])
    np.testing.assert_array_equal(pairs.ranks_y, [1, 3, 2])
    # ties break by original position: still a permutation, deterministically
    tied = RankedPairs.from_data([0.5, 0.5, 0.1], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(tied.ranks_x, [2, 3, 1])
    np.testing.assert_array_equal(tied.ranks_y, [1, 2, 3])
    with pytest.raises(InvalidInputError):
        RankedPairs(np.array([1, 1]), np.array([1, 2]))


def test_corner_counts_examples():
    identical = RankedPairs(np.arange(1, 8), np.arange(1, 8))
    np.testing.assert_array_equal(corner_counts(identical), np.arange(7, 0, -1))

    two = RankedPairs(np.array([1, 2]), np.array([2, 1]))
    np.testing.assert_array_equal(corner_counts(two), [2, 0])

    reversed4 = RankedPairs(np.arange(1, 5), np.array([4, 3, 2, 1]))
    np.testing.assert_array_equal(corner_counts(reversed4), [4, 2, 0, 0])


def test_corner_counts_match_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pairs = independent_pairs(rng, int(rng.integers(2, 40)))
        want = oracles.corner_counts_brute(pairs.ranks_x.tolist(), pairs.ranks_y.tolist())
        np.testing.assert_array_equal(corner_counts(pairs), want)


def test_corner_counts_monotone():
    rng = np.random.default_rng(1)
    for _ in range(100):
        counts = corner_counts(independent_pairs(rng, 50))
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] == 50


def test_components_example():
    # n = 4, S_2 = 2: sqrt(4)(0.5 - 0.25)/sqrt(0.25*0.75) = 1.1547
    pairs = RankedPairs(np.array([1, 3, 2, 4]), np.array([2, 4, 1, 3]))
    assert corner_counts(pairs)[1] == 2
    comp = pair_hc_components(pairs)
    assert comp[1] == pytest.approx(1.15470053838, rel=1e-10)
    assert np.isnan(comp[0])  # k = 1 excluded
    assert comp[-1] == 0.0    # k = n defined as 0


def test_components_match_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(4, 60))
        pairs = independent_pairs(rng, n)
        counts = corner_counts(pairs)
        comp = pair_hc_components(pairs)
        for k in range(2, n):
            want = oracles.pair_component_brute(n, k, counts[k - 1])
            assert comp[k - 1] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_zero_component_at_null_mean():
    # S_k exactly n(1-k/n)^2 gives a zero component: n = 8, k = 4 needs S_4 = 2.
    pairs = RankedPairs(np.arange(1, 9), np.array([5, 6, 7, 8, 1, 2, 3, 4]))
    counts = corner_counts(pairs)
    assert counts[3] == 2
    assert pair_hc_components(pairs)[3] == 0.0


def test_pair_hc_star_full_dependence():
    n = 100
    pairs = RankedPairs(np.arange(1, n + 1), np.arange(1, n + 1))
    comp = pair_hc_components(pairs)
    # closed form S_k = n - k + 1: spot check the k = 90 component
    assert comp[89] == pytest.approx(10.0503781526, rel=1e-10)
    res = pair_hc_star(pairs, alpha0=0.5)
    assert res.score >= comp[89]
    assert 50 <= res.argmax_index <= 99
    # score recomputes at the reported argmax
    assert res.score == comp[res.argmax_index - 1]


def test_pair_hc_star_range():
    pairs = RankedPairs(np.arange(1, 11), np.arange(1, 11))
    res = pair_hc_star(pairs, alpha0=0.5)
    assert res.argmax_index >= 5
    with pytest.raises(InvalidInputError):
        pair_hc_star(RankedPairs(np.array([1, 2]), np.array([1, 2])), alpha0=0.5)


def test_pair_hc_star_corner_guard():
    # The guard drops corners with null expected count below one; the
    # unguarded max can only be larger, through exactly those corners.
    rng = np.random.default_rng(6)
    n = 400
    for _ in range(20):
        pairs = independent_pairs(rng, n)
        guarded = pair_hc_star(pairs)
        raw = pair_hc_star(pairs, min_expected=0.0)
        assert guarded.argmax_index <= n - math.isqrt(n)
        assert raw.score >= guarded.score


def test_rank_invariance_under_monotone_transforms():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    base = pair_hc_star(RankedPairs.from_data(x, y))
    for fx, fy in [(np.exp, lambda v: v), (lambda v: v ** 3, np.exp),
                   (lambda v: 5 * v - 2, lambda v: np.arctan(v))]:
        res = pair_hc_star(RankedPairs.from_data(fx(x), fy(y)))
        assert res.score == base.score
        assert res.argmax_index == base.argmax_index


def test_expected_corner_counts_under_independence():
    # The working formula E[S_k] = n(1-k/n)^2 treats ranks as i.i.d.; the exact
    # independent-permutation mean is n((n-k+1)/n)^2. The empirical mean must
    # match the exact form within 3 SE and the working form within its known
    # bias (< 2).
    n, reps = 100, 10_000
    rng = np.random.default_rng(4)
    totals = np.zeros(n)
    sq = np.zeros(n)
    for _ in range(reps):
        counts = corner_counts(independent_pairs(rng, n))
        totals += counts
        sq += counts.astype(float) ** 2
    mean = totals / reps
    sd = np.sqrt(np.maximum(sq / reps - mean ** 2, 0.0))
    se = sd / math.sqrt(reps) + 1e-12
    k = np.arange(1, n + 1)
    exact = n * ((n - k + 1) / n) ** 2
    working = n * (1 - k / n) ** 2
    assert np.all(np.abs(mean - exact) <= 3 * se + 1e-9)
    assert np.all(np.abs(mean - working) <= 3 * se + 2.0)


def test_full_dependence_beats_null_quantile():
    n = 100
    rng = np.random.default_rng(5)
    null_scores = [pair_hc_star(independent_pairs(rng, n)).score for _ in range(500)]
    dependent = pair_hc_star(RankedPairs(np.arange(1, n + 1), np.arange(1, n + 1)))
    assert dependent.score > np.percentile(null_scores, 99)


def test_sample_bivariate_mixture():
    x, y = sample_bivariate_mixture(2000, 0.0, 3.0, 0.9, seed=6)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.1  # eps = 0: independent
    x, y = sample_bivariate_mixture(10_000, 1.0, 0.0, 0.999, seed=7)
    assert np.corrcoef(x, y)[0, 1] > 0.99
    with pytest.raises(InvalidInputError):
        sample_bivariate_mixture(10, 0.5, 0.0, 1.5)


def test_paper_settings_preset():
    assert len(PAPER_SETTINGS) == 5
    assert PAPER_SETTINGS[0] == {"epsilon": 0.0, "tau": 0.0, "rho": 0.0}
    for s in PAPER_SETTINGS:
        assert abs(s["rho"]) < 1.0
        x, y = sample_bivariate_mixture(50, s["epsilon"], s["tau"], s["rho"], seed=8)
        assert x.size == 50 and y.size == 50


def test_simulated_scores_are_offset_from_the_seed_stream():
    got = simulate_pair_scores(60, 0.05, 2.0, 0.5, 5, RngSeed(1, 3))
    np.testing.assert_array_equal(got, simulate_pair_scores(60, 0.05, 2.0, 0.5, 8, 1)[3:])


def test_simulated_scores_use_one_stream_per_replicate():
    for n, eps, tau, rho, alpha0 in ((200, 0.05, 1.0, 0.25, 0.5), (60, 0.0, 0.0, 0.0, 0.3)):
        want = []
        for rep in range(25):
            x, y = sample_bivariate_mixture(n, eps, tau, rho, seed=RngSeed(7, rep))
            want.append(pair_hc_star(RankedPairs.from_data(x, y), alpha0).score)
        got = simulate_pair_scores(n, eps, tau, rho, 25, 7, alpha0)
        assert np.array_equal(got, np.array(want))
    with pytest.raises(InvalidInputError):
        simulate_pair_scores(50, 0.0, 0.0, 0.0, 0, 1)
    for n in (1, 0, -5):
        with pytest.raises(InvalidInputError):
            simulate_pair_scores(n, 0.0, 0.0, 0.0, 3, 1)
