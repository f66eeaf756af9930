import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from scipy.special import ndtr

from hicrit import _streams
from hicrit.arw import (ArwParams, detection_experiment, permutation_pvalue,
                        permutation_test, pvalues_one_sided, pvalues_two_sided,
                        sample_mixture, _mixture_batch, _mixture_job, _NULL_STREAMS)
from hicrit.calibrate import STREAM_BLOCK, _null_batch, simulate_critical, simulate_null_scores
from hicrit.errors import InvalidInputError
from hicrit.hc_core import hc_scores_sorted_batch
from hicrit.hct import LabeledMatrix
from hicrit.numerics import MIN_PVALUE, RngSeed, clamp_pvalues


def test_arw_params_derived():
    params = ArwParams(100_000, 0.6, 0.35)
    assert params.epsilon == pytest.approx(100_000 ** -0.6, rel=1e-15)
    assert params.tau == pytest.approx(math.sqrt(2 * 0.35 * math.log(100_000)), rel=1e-15)
    with pytest.raises(InvalidInputError):
        ArwParams(100, 1.5, 0.3)
    with pytest.raises(InvalidInputError):
        ArwParams(100, 0.5, -1.0)


def test_sample_mixture_degenerate():
    pure_null = sample_mixture(500, epsilon=0.0, tau=3.0, seed=1)
    assert pure_null.nonnull_count == 0
    all_nonnull = sample_mixture(500, epsilon=1.0, tau=0.0, seed=1)
    assert all_nonnull.nonnull_count == 500


def test_sample_mixture_count():
    # (N, eps, tau) = (1e6, 1e-3, 2): expected 1000 nonnulls, +-5 sigma.
    sample = sample_mixture(10 ** 6, epsilon=1e-3, tau=2.0, seed=7)
    assert abs(sample.nonnull_count - 1000) <= 150
    nonnull = sample.x[sample.ground_truth]
    assert nonnull.mean() == pytest.approx(2.0, abs=0.2)


def test_ground_truth_binomial_mean():
    n, eps, draws = 2000, 0.01, 1000
    counts = [sample_mixture(n, epsilon=eps, tau=1.0, seed=s).nonnull_count
              for s in range(draws)]
    se = math.sqrt(n * eps * (1 - eps) / draws)
    assert abs(np.mean(counts) - n * eps) <= 3 * se


def test_pvalues_one_sided():
    assert pvalues_one_sided([0.0]).values[0] == pytest.approx(0.5, rel=1e-15)
    assert pvalues_one_sided([1.959964]).values[0] == pytest.approx(0.025, abs=1e-8)
    x = np.array([0.5, 1.5, -1.0])
    p = pvalues_one_sided(x)
    assert p.values[0] < p.values[1] < p.values[2]  # larger x -> smaller p
    with pytest.raises(InvalidInputError):
        pvalues_one_sided([np.inf])


def test_pvalues_two_sided():
    assert pvalues_two_sided([0.0]).values[0] == 1.0
    assert pvalues_two_sided([1.959964]).values[0] == pytest.approx(0.05, abs=2e-8)
    x = np.array([0.3, -1.2, 2.2])
    np.testing.assert_array_equal(pvalues_two_sided(x).values, pvalues_two_sided(-x).values)


def test_normal_null_matches_uniform_null():
    # One-sided P-values of exact N(0,1) draws are uniform: the hc_star score
    # distributions must agree (two-sample KS over 1000 scores each).
    normal_scores = _streams.run(*_mixture_job(500, 0.0, 0.0, "star", 0.5, 1000, 13,
                                               _NULL_STREAMS), 1)
    uniform_scores = simulate_null_scores(500, "star", 0.5, 1000, seed=14)
    assert ks_2samp(normal_scores, uniform_scores).statistic <= 0.08


def test_detection_null_equals_alternative():
    summary = detection_experiment(400, reps=300, alpha=0.05, variant="plus", seed=21,
                                   epsilon=0.0, tau=0.0, calibration_reps=2000)
    assert abs(summary.power - 0.05) <= 0.05
    assert abs(summary.size - 0.05) <= 0.05


def test_detection_undetectable_point():
    # Deep inside the undetectable region: rho(0.9) ~ 0.468 >> r = 0.1.
    summary = detection_experiment(ArwParams(100_000, 0.9, 0.1), reps=100, alpha=0.05,
                                   variant="plus", seed=22, calibration_reps=1000)
    assert summary.power <= 0.05 + 0.1


def test_detection_power_monotone_in_r():
    n, vartheta = 5000, 0.55
    critical = simulate_critical(n, 0.05, "plus", 0.5, replicates=2000, seed=30).quantile
    powers = []
    for r in (0.1, 0.3, 0.5, 0.7):
        summary = detection_experiment(ArwParams(n, vartheta, r), reps=500, alpha=0.05,
                                       variant="plus", seed=31, critical=critical)
        powers.append(summary.power)
    for lo, hi in zip(powers, powers[1:]):
        assert hi >= lo - 0.02  # Monte Carlo slack


def test_detection_determinism():
    kwargs = dict(reps=50, alpha=0.05, variant="plus", seed=40, epsilon=0.01, tau=2.0,
                  critical=3.0)
    a = detection_experiment(300, **kwargs)
    b = detection_experiment(300, **kwargs)
    np.testing.assert_array_equal(a.null_scores, b.null_scores)
    np.testing.assert_array_equal(a.alt_scores, b.alt_scores)
    c = detection_experiment(300, **{**kwargs, "n_jobs": 2})
    np.testing.assert_array_equal(a.alt_scores, c.alt_scores)


def _mixture_batch_reference(params, b, rng):
    # The transform of every coordinate, then a full sort: what _mixture_batch
    # must reproduce bit for bit while transforming only the k_max smallest.
    n, eps, tau, variant, alpha0 = params
    x = rng.standard_normal((b, n))
    if eps > 0.0:
        x += tau * (rng.random((b, n)) < eps)
    p = clamp_pvalues(ndtr(-x))
    p.sort(axis=-1)
    return hc_scores_sorted_batch(p, variant, alpha0)


# With tau = 40 most nonnull P-values underflow to the clamp and tie there.
_CLAMP_TIES = (0.3, 40.0)


@pytest.mark.parametrize("alpha0", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("variant", ["star", "plus"])
@pytest.mark.parametrize("eps,tau", [(0.0, 0.0), (0.02, 2.5), _CLAMP_TIES])
def test_mixture_batch_matches_full_transform(alpha0, variant, eps, tau):
    params = (2000, eps, tau, variant, alpha0)
    got = _mixture_batch(params, 64, RngSeed(7, 3).generator())
    want = _mixture_batch_reference(params, 64, RngSeed(7, 3).generator())
    np.testing.assert_array_equal(got, want)


def test_clamp_ties_straddle_the_window():
    # In the tie case above, every row holds more clamped P-values than the
    # alpha0 = 0.1 window (200) and fewer than the alpha0 = 0.5 window (1000).
    eps, tau = _CLAMP_TIES
    rng = RngSeed(7, 3).generator()
    x = rng.standard_normal((9, 2000))
    x += tau * (rng.random((9, 2000)) < eps)
    ties = (clamp_pvalues(ndtr(-x)) == MIN_PVALUE).sum(axis=1)
    assert np.all((ties > 200) & (ties < 1000)), ties


def test_detection_pool_matches_in_process():
    # More replicates than one block, and a simulated critical value: every
    # stream of the experiment shares one pool at n_jobs = 2.
    kwargs = dict(reps=STREAM_BLOCK + 40, alpha=0.05, variant="plus", seed=41,
                  epsilon=0.02, tau=2.5, critical=None, calibration_reps=200)
    a = detection_experiment(300, n_jobs=1, **kwargs)
    b = detection_experiment(300, n_jobs=2, **kwargs)
    np.testing.assert_array_equal(a.null_scores, b.null_scores)
    np.testing.assert_array_equal(a.alt_scores, b.alt_scores)
    assert a.critical == b.critical


def test_run_all_equals_separate_runs():
    jobs = [(_null_batch, (200, "plus", 0.5), 700, 300, 200, RngSeed(5, 10)),
            (_mixture_batch, (150, 0.05, 2.0, "star", 0.5), 450, 200, 150, RngSeed(5, 99))]
    for n_jobs in (1, 2):
        together = _streams.run_all(jobs, n_jobs)
        assert len(together) == 2
        for job, got in zip(jobs, together):
            np.testing.assert_array_equal(got, _streams.run(*job, 1))


def test_detection_standard_errors():
    summary = detection_experiment(300, reps=40, alpha=0.05, variant="plus", seed=42,
                                   epsilon=0.02, tau=2.5, critical=2.0)
    q, r = summary.power, summary.alt_scores.size
    assert summary.power_se == pytest.approx(math.sqrt(q * (1 - q) / r), rel=1e-15)
    q, r = summary.size, summary.null_scores.size
    assert summary.size_se == pytest.approx(math.sqrt(q * (1 - q) / r), rel=1e-15)
    assert 0.0 < summary.size < summary.power < 1.0  # both errors are nonzero


# --------------------------------------------------------------------------- permutation


def _noise_matrix(rng, n=16, p=40):
    labels = np.repeat([1, -1], n // 2)
    return LabeledMatrix(rng.standard_normal((n, p)), labels)


def test_permutation_pvalue_boundaries():
    rng = np.random.default_rng(51)
    labels = np.repeat([1, -1], 20)
    # Many moderate signals (the HC sweet spot): the original score beats
    # every shuffle, so the add-one estimator returns exactly 1/(B+1).
    data = rng.standard_normal((40, 400))
    data[:20, :30] += 1.0
    matrix = LabeledMatrix(data, labels)
    res = permutation_test(matrix, shuffles=99, seed=1)
    assert res.pvalue == pytest.approx(1.0 / 100.0)
    assert res.original_score > max(res.shuffle_scores)
    # Opposite boundary: an original below every shuffle reports exactly 1.
    worst = permutation_test(matrix, shuffles=9, seed=2, variant="plus")
    if np.all(worst.shuffle_scores >= worst.original_score):
        assert worst.pvalue == 1.0


def test_permutation_pvalue_uniform_under_null():
    rng = np.random.default_rng(51)
    pvals = [permutation_pvalue(_noise_matrix(rng, n=12, p=24), shuffles=79, seed=s)
             for s in range(400)]
    assert 0.45 <= np.mean(pvals) <= 0.55


def test_permutation_label_swap_invariance():
    rng = np.random.default_rng(52)
    matrix = _noise_matrix(rng)
    flipped = LabeledMatrix(matrix.data, -matrix.labels, matrix.feature_names)
    a = permutation_test(matrix, shuffles=20, seed=9)
    b = permutation_test(flipped, shuffles=20, seed=9)
    assert a.original_score == b.original_score
    np.testing.assert_array_equal(a.shuffle_scores, b.shuffle_scores)


def test_permutation_rejects_degenerate_matrix():
    labels = np.array([1, 1, -1, -1])
    data = np.ones((4, 3))
    data[:, 1:] = np.random.default_rng(0).standard_normal((4, 2))
    matrix = LabeledMatrix(data, labels)
    with pytest.raises(InvalidInputError):
        permutation_test(matrix, shuffles=5, seed=0)
    with pytest.raises(InvalidInputError):
        permutation_test(_noise_matrix(np.random.default_rng(1)), shuffles=0, seed=0)
