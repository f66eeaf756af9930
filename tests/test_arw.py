import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from scipy.special import ndtr

from hicrit import _streams, arw
from hicrit.arw import (ArwParams, STREAM_BLOCK, detection_experiment, permutation_test,
                        pvalues_one_sided, pvalues_two_sided, sample_mixture, _matrix_hc_score,
                        _mixture_batch, _mixture_job, _ALT_STREAMS, _CALIB_STREAMS,
                        _NULL_STREAMS)
from hicrit.calibrate import simulate_critical, simulate_null_scores
from hicrit.errors import InvalidInputError
from hicrit.hc_core import _index_range, hc_scores_sorted_batch
from hicrit.hct import LabeledMatrix
from hicrit.numerics import MIN_PVALUE, RngSeed, clamp_pvalues
from v1_samplers import mixture_batch_v1, null_batch_v1


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
    # One-sided P-values of exact N(0,1) draws are uniform: the v1 normal null
    # (every coordinate through ndtr, then a full sort) and the detect-sim null
    # stream, drawn in P-value space, must give the same hc_star law
    # (two-sample KS over 1000 scores each).
    normal_scores = _streams.run(mixture_batch_v1, (500, 0.0, 0.0, "star", 0.5), 1000,
                                 STREAM_BLOCK, 500, RngSeed(13), 1)
    null_scores = _streams.run(*_mixture_job(500, 0.0, 0.0, "star", 0.5, 1000,
                                             RngSeed(14, _NULL_STREAMS)), 1)
    assert ks_2samp(normal_scores, null_scores).statistic <= 0.08


# (N, eps, tau) per alpha0 for the law checks against the v1 samplers.
_LAW_CASES = {0.5: (2000, 0.02, 2.5), 1.0: (300, 0.05, 2.0)}


@pytest.mark.parametrize("alpha0", [0.5, 1.0])
@pytest.mark.parametrize("variant", ["star", "plus"])
@pytest.mark.parametrize("sample", ["null", "mixture"])
def test_pvalue_space_samplers_match_the_v1_law(sample, variant, alpha0):
    # Two-sample KS, 4000 scores a side, fixed seeds: the P-value-space
    # samplers against the v1 references that draw and sort all N values.
    n, eps, tau = _LAW_CASES[alpha0]
    if sample == "null":
        v1, v1_params, eps, tau = null_batch_v1, (n, variant, alpha0), 0.0, 0.0
    else:
        v1, v1_params = mixture_batch_v1, (n, eps, tau, variant, alpha0)
    params = (n, eps, tau, variant, alpha0)
    old = _streams.run(v1, v1_params, 4000, STREAM_BLOCK, n, RngSeed(60), 1)
    new = _streams.run(_mixture_batch, params, 4000, STREAM_BLOCK, n, RngSeed(61), 1)
    assert ks_2samp(old, new).pvalue >= 0.01


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


def _mixture_draws(params, b, rng):
    # _mixture_batch's draws, in its order, made the plain way: the b
    # binomials, a k-wide block of exponentials and b gammas for the null
    # windows (per row the min(k, n - m) smallest of n - m uniforms by Renyi's
    # representation), then the normals of all nonnulls, row after row, and
    # the one-sided P-values of every nonnull.
    n, eps, tau, variant, alpha0 = params
    k = _index_range(alpha0, n)
    m = rng.binomial(n, eps, b)
    k0 = np.minimum(k, n - m)
    e = rng.standard_exponential((b, k))
    g = rng.standard_gamma(n - m + 1 - k0)
    alt = clamp_pvalues(ndtr(-(rng.standard_normal(m.sum()) + tau)))
    rows = []
    for r, first in enumerate(np.cumsum(m) - m):
        null = np.empty(0)
        if k0[r]:
            s = np.cumsum(e[r, :k0[r]])
            null = np.maximum(s / (s[-1] + g[r]), MIN_PVALUE)
        rows.append((null, alt[first:first + m[r]]))
    return rows


def _mixture_batch_reference(params, b, rng):
    # Every nonnull transformed, null and nonnull concatenated, a full sort:
    # what _mixture_batch must reproduce bit for bit from the same draws.
    n, eps, tau, variant, alpha0 = params
    p = np.ones((b, n))
    for row, (null, alt) in zip(p, _mixture_draws(params, b, rng)):
        merged = np.sort(np.concatenate((null, alt)))
        row[:merged.size] = merged
    return hc_scores_sorted_batch(p, variant, alpha0)


# With tau = 40 most nonnull P-values underflow to the clamp and tie there.
_CLAMP_TIES = (0.3, 40.0)


def _tile_sizes(monkeypatch, k):
    # At n = 2000 the default tile holds a whole batch of 64 rows, so the test also runs
    # with one-row tiles and with tiles of 7 rows (64 = 9 x 7 + 1, 40 = 5 x 7 + 5 split
    # unevenly), ending on the default.
    for elems in (1, 7 * k, arw._TILE_ELEMS):
        monkeypatch.setattr(arw, "_TILE_ELEMS", elems)
        yield elems


@pytest.mark.parametrize("alpha0", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("variant", ["star", "plus"])
@pytest.mark.parametrize("eps,tau", [(0.0, 0.0), (0.02, 2.5), _CLAMP_TIES])
def test_mixture_batch_matches_full_transform(alpha0, variant, eps, tau, monkeypatch):
    params = (2000, eps, tau, variant, alpha0)
    want = _mixture_batch_reference(params, 64, RngSeed(7, 3).generator())
    for tile in _tile_sizes(monkeypatch, _index_range(alpha0, 2000)):
        got = _mixture_batch(params, 64, RngSeed(7, 3).generator())
        assert np.array_equal(got, want), tile


@pytest.mark.parametrize("n,eps,alpha0", [(20, 1.0, 0.5), (20, 1.0, 1.0), (20, 0.9, 0.5),
                                           (2000, 0.7, 0.5), (2000, 0.7, 1.0), (1, 0.5, 1.0)])
def test_mixture_batch_when_nonnulls_crowd_the_window(n, eps, alpha0, monkeypatch):
    # m >= n - k + 1 leaves fewer than k null values; eps = 1 leaves none.
    params = (n, eps, 1.5, "star", alpha0)
    want = _mixture_batch_reference(params, 64, RngSeed(8).generator())
    for tile in _tile_sizes(monkeypatch, _index_range(alpha0, n)):
        got = _mixture_batch(params, 64, RngSeed(8).generator())
        assert np.array_equal(got, want), tile
    m = RngSeed(8).generator().binomial(n, eps, 64)
    assert np.any(m >= n - math.floor(alpha0 * n) + 1)


def _renyi_null_reference(n, variant, alpha0, b, rng):
    # The uniform null by Renyi's representation alone, with no binomial and
    # no merge: the b*k exponentials, then the b gammas, then the kernel.
    k = _index_range(alpha0, n)
    s = np.cumsum(rng.standard_exponential((b, k)), axis=1)
    g = rng.standard_gamma(n + 1 - k, b)
    p = np.ones((b, n))
    p[:, :k] = np.maximum(s / (s[:, -1:] + g[:, None]), MIN_PVALUE)
    return hc_scores_sorted_batch(p, variant, alpha0)


@pytest.mark.parametrize("alpha0", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("variant", ["star", "plus"])
def test_mixture_batch_at_epsilon_zero_is_the_renyi_null(alpha0, variant, monkeypatch):
    # The null is the eps = 0 mixture: its binomials use no random bits and
    # nothing is merged, so the one sampler gives Renyi's null bit for bit.
    for n in (1, 2, 3, 10, 37, 999, 1000, 5000):
        if math.floor(alpha0 * n + 1e-9) < 1:
            continue  # an empty index range, refused by both
        want = _renyi_null_reference(n, variant, alpha0, 40, RngSeed(n, 5).generator())
        for tile in _tile_sizes(monkeypatch, _index_range(alpha0, n)):
            got = _mixture_batch((n, 0.0, 0.0, variant, alpha0), 40, RngSeed(n, 5).generator())
            assert np.array_equal(got, want), (n, tile)


def test_mixture_batch_holds_its_exponentials_and_one_tile():
    # At N = 1e5 one batch of 125 rows draws 125 x 50,000 exponentials (50 MB). Building
    # every row's window in an N-wide batch array, with the kernel's temporaries on all
    # rows, peaked at 201 MB; row tiles keep the peak near the exponentials alone.
    n, b = 100_000, 125
    _mixture_batch((2000, 0.02, 2.5, "plus", 0.5), 4, RngSeed(1).generator())  # load ndtr
    rng = RngSeed(2).generator()
    tracemalloc.start()
    try:
        _mixture_batch((n, 0.0, 0.0, "plus", 0.5), b, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * b * _index_range(0.5, n) * 8


def test_detection_streams_are_the_calibrate_streams():
    # Drawing the calibration stream in the experiment's own stream-runner
    # call changes no byte: it is simulate_critical on its namespace, and the
    # null stream is simulate_null_scores on its own.
    summary = detection_experiment(500, 600, 0.05, "star", seed=44, epsilon=0.02, tau=2.5,
                                   calibration_reps=700)
    entry = simulate_critical(500, 0.05, "star", 0.5, 700, RngSeed(44, _CALIB_STREAMS))
    assert summary.critical == entry.quantile
    null = simulate_null_scores(500, "star", 0.5, 600, RngSeed(44, _NULL_STREAMS))
    np.testing.assert_array_equal(summary.null_scores, null)


def test_detection_streams_are_offset_from_the_seed_stream():
    # An RngSeed's stream is the base of the experiment's three job streams,
    # as it is for every other Monte Carlo entry point.
    kw = dict(epsilon=0.05, tau=2.0, calibration_reps=200)
    summary = detection_experiment(1000, 50, seed=RngSeed(5, 7), **kw)
    null = simulate_null_scores(1000, "plus", 0.5, 50, RngSeed(5, 7 + _NULL_STREAMS))
    np.testing.assert_array_equal(summary.null_scores, null)
    entry = simulate_critical(1000, 0.05, "plus", 0.5, 200, RngSeed(5, 7 + _CALIB_STREAMS))
    assert summary.critical == entry.quantile
    assert summary.stream_ids == {"null": 7 + _NULL_STREAMS, "alternative": 7 + _ALT_STREAMS,
                                  "calibration": 7 + _CALIB_STREAMS}
    other = detection_experiment(1000, 50, seed=RngSeed(5, 8), **kw)
    assert not np.array_equal(summary.alt_scores, other.alt_scores)
    given = detection_experiment(1000, 50, seed=RngSeed(5, 7), critical=3.0, **kw)
    assert given.stream_ids == {"null": 7 + _NULL_STREAMS, "alternative": 7 + _ALT_STREAMS}


def test_clamp_ties_straddle_the_window():
    # In the tie case above, every row holds more clamped P-values than the
    # alpha0 = 0.1 window (200) and fewer than the alpha0 = 0.5 window (1000).
    # Only nonnulls tie there, so each row has at most its binomial count.
    eps, tau = _CLAMP_TIES
    m = RngSeed(7, 3).generator().binomial(2000, eps, 64)
    for alpha0 in (0.1, 0.5):
        rows = _mixture_draws((2000, eps, tau, "plus", alpha0), 64, RngSeed(7, 3).generator())
        ties = np.array([(null == MIN_PVALUE).sum() + (alt == MIN_PVALUE).sum()
                         for null, alt in rows])
        assert np.all((ties > 200) & (ties < 1000) & (ties <= m)), ties


def test_detection_pool_matches_in_process(monkeypatch):
    # More replicates than one block, and a simulated critical value: every
    # stream of the experiment shares one pool at n_jobs = 2, which this
    # small experiment only starts with the work threshold off.
    monkeypatch.setattr(_streams, "_POOL_MIN_ELEMS", 0)
    kwargs = dict(reps=STREAM_BLOCK + 40, alpha=0.05, variant="plus", seed=41,
                  epsilon=0.02, tau=2.5, critical=None, calibration_reps=200)
    a = detection_experiment(300, n_jobs=1, **kwargs)
    b = detection_experiment(300, n_jobs=2, **kwargs)
    np.testing.assert_array_equal(a.null_scores, b.null_scores)
    np.testing.assert_array_equal(a.alt_scores, b.alt_scores)
    assert a.critical == b.critical


def test_run_all_equals_separate_runs(monkeypatch):
    monkeypatch.setattr(_streams, "_POOL_MIN_ELEMS", 0)
    jobs = [(_mixture_batch, (200, 0.0, 0.0, "plus", 0.5), 700, 300, 200, RngSeed(5, 10)),
            (_mixture_batch, (150, 0.05, 2.0, "star", 0.5), 450, 200, 150, RngSeed(5, 99))]
    for n_jobs in (1, 2):
        together = _streams.run_all(jobs, n_jobs)
        assert len(together) == 2
        for job, got in zip(jobs, together):
            np.testing.assert_array_equal(got, _streams.run(*job, 1))


def test_small_runs_start_no_pool(monkeypatch):
    # Two streams of 20 replicates at N = 300 are far below the work
    # threshold: n_jobs = 2 runs them in this process, with equal results.
    kwargs = dict(reps=20, alpha=0.05, variant="plus", seed=43, epsilon=0.02, tau=2.5,
                  critical=3.0)
    a = detection_experiment(300, n_jobs=1, **kwargs)

    def no_pool(*args, **kw):
        raise AssertionError("started a process pool for a small run")

    monkeypatch.setattr(_streams, "ProcessPoolExecutor", no_pool)
    b = detection_experiment(300, n_jobs=2, **kwargs)
    np.testing.assert_array_equal(a.null_scores, b.null_scores)
    np.testing.assert_array_equal(a.alt_scores, b.alt_scores)


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
    pvals = [permutation_test(_noise_matrix(rng, n=12, p=24), shuffles=79, seed=s).pvalue
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


def _alternating_feature_matrix():
    # 4 rows per class; g0 alternates 0, 1, so a shuffle putting the four 0s in one
    # class leaves g0 constant within both classes (2 of the C(8, 4) = 70 column orders).
    data = np.random.default_rng(0).standard_normal((8, 20))
    data[:, 0] = np.tile([0.0, 1.0], 4)
    return LabeledMatrix(data, np.repeat([1, -1], 4), [f"g{j}" for j in range(20)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permutation_shuffle_with_zero_pooled_variance_scores_inf(seed):
    res = permutation_test(_alternating_feature_matrix(), shuffles=200, seed=seed)
    scores = res.shuffle_scores
    assert np.all(np.isfinite(scores) | (scores == np.inf))
    assert np.any(scores == np.inf)
    labels = np.repeat([1, -1], 4)
    shuffled = _shuffled_labels(labels, 200, seed)
    same = np.all(shuffled == labels, axis=1) | np.all(shuffled == -labels, axis=1)
    assert res.pvalue == (1 + int(np.sum(same | (scores >= res.original_score)))) / 201


@pytest.mark.parametrize("variant", ["plus", "star"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permutation_result_is_invariant_to_negated_labels(seed, variant):
    rng = np.random.default_rng(53)
    data = rng.standard_normal((12, 30))
    data[:6, :3] += 2.0
    matrix = LabeledMatrix(data, np.repeat([1, -1], 6))
    negated = LabeledMatrix(data, -matrix.labels)
    a = permutation_test(matrix, shuffles=99, seed=seed, variant=variant)
    b = permutation_test(negated, shuffles=99, seed=seed, variant=variant)
    assert (a.pvalue, a.original_score) == (b.pvalue, b.original_score)
    np.testing.assert_array_equal(a.shuffle_scores, b.shuffle_scores)


def _shuffled_labels(labels, shuffles, seed):
    # The labels of each shuffle: one row of uniform keys per shuffle, argsorted (one stream).
    return labels[np.argsort(RngSeed(seed).generator().random((shuffles, labels.size)), axis=1)]


@pytest.mark.parametrize("n1, n2", [(4, 4), (3, 5)], ids=["4+4", "3+5"])
def test_permutation_counts_every_shuffle_that_reproduces_the_partition(n1, n2):
    # A shuffle that puts every row back in its class (or, for equal classes, swaps the
    # two classes whole) scores the original up to rounding; at 8 rows that is 2 of
    # C(8, 4) = 70 labelings, or 1 of C(8, 3) = 56. Each must count as at least the
    # original. 199 shuffles fit one stream block, so _shuffled_labels repeats them.
    labels = np.repeat([1, -1], [n1, n2])
    shuffles, missed = 199, []
    for seed in range(200):
        data = np.random.default_rng(seed).standard_normal((n1 + n2, 50))
        res = permutation_test(LabeledMatrix(data, labels), shuffles=shuffles, seed=seed)
        shuffled = _shuffled_labels(labels, shuffles, seed)
        same = np.all(shuffled == labels, axis=1) | np.all(shuffled == -labels, axis=1)
        beyond = int(np.sum(~same & (res.shuffle_scores >= res.original_score)))
        counted = round(res.pvalue * (shuffles + 1)) - 1
        if (counted < int(same.sum()) + beyond
                or res.pvalue < (1 + int(same.sum())) / (shuffles + 1)):
            missed.append(seed)
    assert missed == []


@pytest.mark.parametrize("variant", ["plus", "star"])
def test_permutation_scores_a_labeling_constant_within_classes_inf(variant):
    # 3 rows in class +1, 4 in class -1; g0 is 1.3 on rows 0, 2, 4 and 0.3 elsewhere, so
    # the one labeling of C(7, 3) = 35 that puts class +1 on rows 0, 2, 4 leaves g0
    # constant within both classes. The values are not dyadic: there the per-shuffle sum
    # of squares is exactly 0, but the kernel's tot - (n1 m1^2 + n2 m2^2) leaves a
    # positive rounding residue, which only the relative tolerance (_ZERO_SS) catches.
    data = np.random.default_rng(0).standard_normal((7, 20))
    data[:, 0] = [1.3, 0.3, 1.3, 0.3, 1.3, 0.3, 0.3]
    labels = np.repeat([1, -1], [3, 4])
    res = permutation_test(LabeledMatrix(data, labels), shuffles=300, seed=5, variant=variant)
    aligned = np.all(_shuffled_labels(labels, 300, 5)[:, [0, 2, 4]] == 1, axis=1)
    assert aligned.any()
    assert np.all(res.shuffle_scores[aligned] == np.inf)
    assert np.all(np.isfinite(res.shuffle_scores[~aligned]))


@pytest.mark.parametrize("variant", ["plus", "star"])
@pytest.mark.parametrize("sizes", [(30, 30), (25, 35)], ids=["balanced", "unbalanced"])
def test_batched_shuffle_scores_match_the_relabeled_matrix(sizes, variant):
    rng = np.random.default_rng(54)
    labels = np.repeat([1, -1], sizes)
    data = rng.standard_normal((60, 300))
    data[labels == 1, :10] += 0.8
    res = permutation_test(LabeledMatrix(data, labels), shuffles=100, seed=4, variant=variant)
    expected = [_matrix_hc_score(LabeledMatrix(data, shuffled), variant, 0.5)
                for shuffled in _shuffled_labels(labels, 100, 4)]
    np.testing.assert_allclose(res.shuffle_scores, expected, rtol=1e-12, atol=0)


def test_permutation_scores_each_stream_block_in_one_kernel_call(monkeypatch):
    # STREAM_BLOCK + 1 shuffles are two stream blocks, each one batch: one ndtr and one
    # HC kernel call per batch, plus the original score's ndtr call.
    calls = {"ndtr": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arw, "ndtr", counted("ndtr", arw.ndtr))
    monkeypatch.setattr(arw, "hc_scores_sorted_batch",
                        counted("kernel", arw.hc_scores_sorted_batch))
    res = permutation_test(_noise_matrix(np.random.default_rng(55)), STREAM_BLOCK + 1, seed=6)
    assert res.shuffle_scores.shape == (STREAM_BLOCK + 1,)
    assert calls == {"ndtr": 3, "kernel": 2}


def test_permutation_size_holds_for_correlated_features():
    # No signal; n = 40 (20 per class), p = 400 in blocks of 5 features sharing one
    # factor of correlation 0.8. Permuted labels stay exchangeable under this
    # correlation; shuffling each column on its own rejected 0.107 and 0.170 here.
    n, p, rho, datasets = 40, 400, 0.8, 300
    labels = np.repeat([1, -1], n // 2)
    pvals = []
    for s in range(datasets):
        rng = np.random.default_rng(10_000 + s)
        factor = rng.standard_normal((n, p // 5))
        noise = rng.standard_normal((n, p))
        data = math.sqrt(rho) * np.repeat(factor, 5, axis=1) + math.sqrt(1.0 - rho) * noise
        pvals.append(permutation_test(LabeledMatrix(data, labels), shuffles=99, seed=s).pvalue)
    pvals = np.array(pvals)
    for level in (0.05, 0.10):
        se = math.sqrt(level * (1.0 - level) / datasets)
        assert abs(np.mean(pvals <= level) - level) <= 3.0 * se, level


def test_permutation_rejects_degenerate_matrix():
    labels = np.array([1, 1, -1, -1])
    data = np.ones((4, 3))
    data[:, 1:] = np.random.default_rng(0).standard_normal((4, 2))
    matrix = LabeledMatrix(data, labels)
    with pytest.raises(InvalidInputError):
        permutation_test(matrix, shuffles=5, seed=0)
    with pytest.raises(InvalidInputError):
        permutation_test(_noise_matrix(np.random.default_rng(1)), shuffles=0, seed=0)
    # The stream runner derives its streams from an int or RngSeed seed.
    with pytest.raises(InvalidInputError, match="Generator"):
        permutation_test(_noise_matrix(np.random.default_rng(1)), shuffles=5,
                         seed=np.random.default_rng(2))
