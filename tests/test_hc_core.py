import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicrit.calibrate import empirical_quantile, level_alpha_test, simulate_null_scores
from hicrit.errors import InvalidInputError
from hicrit.hc_core import (HcResult, PValueSeries, avg_likelihood_ratio, berk_jones,
                            bh_fdr_select, empirical_cdf_on_grid, gof_empirical,
                            gof_theoretical, hc_at_level, hc_component, hc_components,
                            hc_feature_scores, hc_plus, hc_scores_sorted_batch, hc_star,
                            ohc_plus_band)

import oracles


def null_grid(n):
    return PValueSeries(np.arange(1, n + 1) / n)


def random_series(rng, n):
    return PValueSeries.from_unsorted(rng.uniform(1e-8, 1.0, n))


# --------------------------------------------------------------------------- series


def test_series_validation():
    with pytest.raises(InvalidInputError):
        PValueSeries(np.array([0.2, 0.1]))  # unsorted
    with pytest.raises(InvalidInputError):
        PValueSeries(np.array([0.0, 0.5]))  # zero not allowed
    with pytest.raises(InvalidInputError):
        PValueSeries(np.array([0.5, 1.5]))
    with pytest.raises(InvalidInputError):
        PValueSeries(np.array([]))
    s = PValueSeries.from_unsorted([0.9, 0.1, 1.0])
    assert s.n == 3
    np.testing.assert_array_equal(s.values, [0.1, 0.9, 1.0])
    with pytest.raises(ValueError):
        s.values[0] = 0.0  # frozen


def test_permutation_invariance_of_ingestion():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.001, 1.0, 60)
    a = PValueSeries.from_unsorted(raw)
    b = PValueSeries.from_unsorted(rng.permutation(raw))
    np.testing.assert_array_equal(a.values, b.values)
    assert hc_star(a).score == hc_star(b).score


# --------------------------------------------------------------------------- hc_at_level


def test_hc_at_level_tukey():
    assert hc_at_level(250, 0.05, 11) == pytest.approx(-0.4352857501, abs=1e-9)


def test_hc_at_level_null_expectation():
    assert hc_at_level(200, 0.25, 50) == 0.0
    assert hc_at_level(100, 0.5, 100) == pytest.approx(10.0, rel=1e-12)


def test_hc_at_level_errors():
    for alpha in (0.0, 1.0):
        with pytest.raises(InvalidInputError):
            hc_at_level(10, alpha, 1)
    with pytest.raises(InvalidInputError):
        hc_at_level(10, 0.5, 11)


def test_hc_at_level_matches_component():
    # With p_(i) = alpha at position i = count, both presentations agree.
    series = PValueSeries(np.array([0.05, 0.3, 0.6, 0.8]))
    assert hc_at_level(4, 0.05, 1) == pytest.approx(hc_component(1, series), rel=1e-12)


# --------------------------------------------------------------------------- components


def test_hc_component_examples():
    assert hc_component(1, PValueSeries(np.array([0.25, 0.5, 0.75, 1.0]))) == 0.0
    two = PValueSeries(np.array([0.1, 0.9]))
    assert hc_component(1, two) == pytest.approx(1.88561808316, rel=1e-10)
    assert hc_component(2, two) == pytest.approx(0.471404520791, rel=1e-10)


def test_hc_component_at_one():
    series = PValueSeries(np.array([0.5, 1.0, 1.0]))
    comp = hc_components(series)
    assert comp[1] == -np.inf  # p = 1 before the last index: excluded
    assert comp[2] == 0.0      # i = N with p = 1: defined as 0


def test_hc_star_examples():
    res = hc_star(PValueSeries(np.array([0.1, 0.9])), alpha0=1.0)
    assert res.score == pytest.approx(1.88561808316, rel=1e-10)
    assert res.argmax_index == 1

    assert hc_star(null_grid(50)).score == 0.0

    res = hc_star(PValueSeries(np.array([0.001, 0.5, 0.7, 0.9])), alpha0=0.5)
    assert res.score == pytest.approx(15.7560227295, rel=1e-10)
    assert res.argmax_index == 1


def test_hc_star_range_errors():
    with pytest.raises(InvalidInputError):
        hc_star(PValueSeries(np.array([0.5, 0.6])), alpha0=0.2)  # floor = 0
    with pytest.raises(InvalidInputError):
        hc_star(null_grid(10), alpha0=1.5)


def test_hc_plus_examples():
    both_ok = PValueSeries(np.array([0.4, 0.9]))
    assert hc_plus(both_ok, 1.0).score == pytest.approx(hc_star(both_ok, 1.0).score)

    res = hc_plus(PValueSeries(np.array([0.2, 0.9])), alpha0=1.0)
    assert res.score == pytest.approx(0.471404520791, rel=1e-10)
    assert res.argmax_index == 2

    degenerate = PValueSeries(np.full(4, 1e-9))
    res = hc_plus(degenerate, alpha0=0.5)
    assert res.empty_range
    assert res.score == -np.inf
    assert res.argmax_index is None


def test_tie_breaks_to_smallest_index():
    # Two equal components: argmax must report the first.
    series = PValueSeries(np.array([0.25, 0.5, 0.75, 1.0]))
    res = hc_star(series, alpha0=1.0)
    assert res.score == 0.0
    assert res.argmax_index == 1


def test_monotone_response():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        series = random_series(rng, n)
        base = hc_star(series).score
        i = int(rng.integers(0, n))
        values = series.values.copy()
        lo = values[i - 1] if i > 0 else 1e-12
        values[i] = rng.uniform(lo, values[i])
        assert hc_star(PValueSeries(values)).score >= base - 1e-9


def test_ohc_plus_band():
    series = PValueSeries(np.array([0.001, 0.2, 0.4, 0.6, 0.9]))
    res = ohc_plus_band(series, p_min=0.1, p_max=0.5)
    comp = hc_components(series)
    assert res.score == pytest.approx(max(comp[1], comp[2]), rel=1e-12)
    empty = ohc_plus_band(PValueSeries(np.array([0.6, 0.7])), p_min=0.1, p_max=0.5)
    assert empty.empty_range


# --------------------------------------------------------------------------- feature scores


def test_feature_scores_examples():
    assert np.allclose(hc_feature_scores(null_grid(20)), 0.0)
    assert hc_feature_scores(PValueSeries(np.array([0.1, 0.9])))[0] == pytest.approx(
        1.1313708499, rel=1e-10)
    scores = hc_feature_scores(PValueSeries(np.array([0.01, 0.2, 0.6, 0.9])))
    assert scores.size == 3
    assert scores[0] == pytest.approx(1.10851251684, rel=1e-10)


# --------------------------------------------------------------------------- BJ / ALR


def test_berk_jones_examples():
    assert berk_jones(null_grid(30)).score == 0.0

    res = berk_jones(PValueSeries(np.array([0.1, 0.9])))
    assert res.score == pytest.approx(0.736128414337, rel=1e-10)
    assert res.argmax_index == 1
    assert res.excluded == 1  # i = N term has p = 0.9 < 1: infinite divergence

    res = berk_jones(PValueSeries(np.array([0.25])))
    assert res.score == 0.0
    assert res.empty_range
    assert res.excluded == 1


def test_alr_examples():
    # Null grid, N = 10, alpha0 = 0.5: all LR = 1, direct harmonic sum.
    expected = sum(1.0 / (2 * i * math.log(10 / 3)) for i in range(1, 6))
    got = avg_likelihood_ratio(null_grid(10), alpha0=0.5)
    assert got == pytest.approx(math.log(expected), rel=1e-12)

    # Single-term reduction.
    got = avg_likelihood_ratio(null_grid(10), alpha0=0.1)
    assert got == pytest.approx(math.log(1.0 / (2 * math.log(10 / 3))), rel=1e-12)

    with pytest.raises(InvalidInputError):
        avg_likelihood_ratio(null_grid(3))


def test_alr_dominated_by_smallest_pvalue():
    values = np.array([1e-6, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
    series = PValueSeries(values)
    got = avg_likelihood_ratio(series, alpha0=0.5)
    assert got == pytest.approx(oracles.log_alr_brute(values.tolist(), 0.5), rel=1e-10)
    # The i = 1 summand is the largest single contribution.
    terms = [10 * oracles.kl_brute(values[i - 1], i / 10) - math.log(2 * i * math.log(10 / 3))
             for i in range(1, 6)]
    assert int(np.argmax(terms)) == 0
    assert got >= terms[0]


def test_alr_matches_oracle_random():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        series = random_series(rng, n)
        got = avg_likelihood_ratio(series, alpha0=0.5)
        want = oracles.log_alr_brute(series.values.tolist(), 0.5)
        assert got == pytest.approx(want, rel=1e-9)


# --------------------------------------------------------------------------- GOF


def test_gof_theoretical_zero_when_equal():
    series = null_grid(40)
    fn = empirical_cdf_on_grid(series)
    assert gof_theoretical(fn, lambda t: t, i_min=2, alpha0=0.5) == 0.0


def test_gof_empirical_example():
    series = PValueSeries(np.array([0.01, 0.2, 0.6, 0.9]))
    got = gof_empirical(series, lambda t: t, i_min=2, alpha0=0.75)
    assert got == pytest.approx(1.5, rel=1e-12)


def test_gof_empirical_identity_equals_abs_component():
    rng = np.random.default_rng(7)
    series = random_series(rng, 25)
    got = gof_empirical(series, lambda t: t, i_min=1, alpha0=1.0)
    comp = hc_components(series)
    assert got == pytest.approx(np.max(np.abs(comp)), rel=1e-12)


def test_gof_empirical_identity_is_exactly_the_max_abs_component():
    # Both go through hc_core._zscore, so the identity holds bit for bit.
    rng = np.random.default_rng(9)
    for _ in range(200):
        series = random_series(rng, int(rng.integers(2, 300)))
        got = gof_empirical(series, lambda t: t, i_min=1, alpha0=1.0)
        assert got == np.max(np.abs(hc_components(series)))


def test_gof_excludes_f0_extremes():
    series = PValueSeries(np.array([0.1, 0.2, 0.3, 0.4]))
    f0 = lambda t: np.where(t < 0.15, 0.0, t)  # hits 0 inside the range
    got = gof_empirical(series, f0, i_min=1, alpha0=1.0)
    assert math.isfinite(got)
    with pytest.raises(InvalidInputError):
        gof_empirical(series, lambda t: np.zeros_like(t), i_min=1, alpha0=1.0)


def test_gof_matches_oracle_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(6, 50))
        series = random_series(rng, n)
        got = gof_empirical(series, lambda t: t, i_min=2, alpha0=0.5)
        want = oracles.gof_empirical_brute(series.values.tolist(), lambda t: t, 2, 0.5)
        assert got == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------- BH


def test_bh_examples():
    assert bh_fdr_select(PValueSeries(np.ones(5)), 0.1) == 0
    assert bh_fdr_select(PValueSeries(np.array([0.001, 0.02, 0.5, 0.9])), 0.1) == 2
    assert bh_fdr_select(PValueSeries(np.array([0.05])), 0.05) == 1  # boundary <=


def test_bh_matches_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        series = random_series(rng, n)
        q = float(rng.uniform(0.01, 0.5))
        assert bh_fdr_select(series, q) == oracles.bh_select_brute(series.values.tolist(), q)


# --------------------------------------------------------------------------- batch kernel


def test_batch_kernel_matches_single_series():
    rng = np.random.default_rng(10)
    p = rng.uniform(1e-8, 1.0, (50, 40))
    # Edge rows: P-values at or below 1/N, p = 1 inside and at the last slot.
    p[0, :3] = [1e-300, 0.01, 1.0 / 40]
    p[1, -5:] = 1.0
    p[2, :] = 1.0
    p[3, :] = rng.uniform(1e-6, 1.0 / 40, 40)
    p[4, 10:] = 1.0
    p = np.sort(p, axis=-1)
    for alpha0 in (0.5, 1.0):
        for variant, fn in (("star", hc_star), ("plus", hc_plus)):
            batch = hc_scores_sorted_batch(p, variant, alpha0)
            for row, score in zip(p, batch):
                assert score == fn(PValueSeries(row), alpha0).score  # exact, not approx


def test_batch_kernel_reads_only_the_first_k_max_columns():
    # The detection kernel leaves the columns past floor(alpha0*N) untransformed.
    rng = np.random.default_rng(11)
    p = np.sort(rng.uniform(1e-8, 1.0, (20, 60)), axis=-1)
    for alpha0 in (0.1, 0.5, 0.999):
        k_max = int(alpha0 * 60)
        junk = p.copy()
        junk[:, k_max:] = np.nan
        for variant in ("star", "plus"):
            np.testing.assert_array_equal(hc_scores_sorted_batch(junk, variant, alpha0),
                                          hc_scores_sorted_batch(p, variant, alpha0))


def test_batch_kernel_handles_p_equal_one():
    row = np.array([[0.2, 0.5, 1.0, 1.0]])
    got = hc_scores_sorted_batch(row, "star", 1.0)
    want = hc_star(PValueSeries(row[0]), 1.0).score
    assert got[0] == pytest.approx(want, rel=1e-12)


@st.composite
def edge_series(draw):
    """Sorted P-values drawn to hit ties, p = 1 and values at or below 1/N."""
    n = draw(st.integers(1, 40))
    pool = st.sampled_from([1.0, 1.0 / n, 0.5 / n, 2.0 / n, 0.5, 1e-300])
    cells = st.one_of(pool, st.floats(1e-300, 1.0))
    return np.sort(np.array(draw(st.lists(cells, min_size=n, max_size=n))))


def masked_max(p, keep):
    """(score, 1-based argmax) of the components where ``keep`` holds, from all N."""
    n = p.size
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        comp = math.sqrt(n) * (i / n - p) / np.sqrt(p * (1.0 - p))
    comp[p == 1.0] = -np.inf
    if p[-1] == 1.0:
        comp[-1] = 0.0
    comp = np.where(keep, comp, -np.inf)
    if not np.any(comp > -np.inf):
        return -math.inf, None
    k = int(np.argmax(comp))
    return float(comp[k]), k + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(p=edge_series(), alpha0=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
       band=st.sampled_from([(None, 0.5), (None, 1.0), (0.0, 0.05), (0.0, 1.0), (0.5, 0.5)]))
def test_index_windows_equal_masked_maxima(p, alpha0, band):
    n = p.size
    i = np.arange(1, n + 1)
    p_min, p_max = band
    lo = 1.0 / n if p_min is None else p_min
    if lo <= p_max:
        res = ohc_plus_band(p, p_min, p_max)
        assert (res.score, res.argmax_index) == masked_max(p, (p >= lo) & (p <= p_max))
    k_max = int(math.floor(alpha0 * n + 1e-9))
    if k_max < 1:
        return
    for variant, fn, keep in (("star", hc_star, i <= k_max),
                              ("plus", hc_plus, (i <= k_max) & (p > 1.0 / n))):
        res = fn(p, alpha0)
        assert (res.score, res.argmax_index) == masked_max(p, keep)
        assert res.empty_range == (res.argmax_index is None)
        assert hc_scores_sorted_batch(p[None, :], variant, alpha0)[0] == res.score
        assert level_alpha_test(p, res.score, variant, alpha0) == "retain"
        if math.isfinite(res.score):
            below = np.nextafter(res.score, -np.inf)
            assert level_alpha_test(p, below, variant, alpha0) == "reject"


# --------------------------------------------------------------------------- null calibration


def test_null_calibration_95th_percentile():
    # 10^4 uniform series of N = 10^3: the hc_plus 0.95 quantile sits near the
    # simulated table value 3.17.
    scores = simulate_null_scores(1000, "plus", 0.5, 10_000, seed=2024)
    q = empirical_quantile(scores, 0.05)
    assert 3.17 - 0.15 <= q <= 3.17 + 0.15
