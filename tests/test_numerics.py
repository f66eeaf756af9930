import math

import numpy as np
import pytest

from scipy import special

from hicrit import _streams
from hicrit.arw import detection_experiment
from hicrit.calibrate import simulate_null_scores
from hicrit.errors import InvalidInputError
from hicrit.numerics import (RngSeed, as_generator, binomial_kl, binomial_kl_array,
                             clamp_pvalues, std_normal_cdf, std_normal_quantile,
                             std_normal_sf, student_t_cdf, student_t_sf)

# High-precision reference values computed with mpmath (erfc / incomplete
# beta / root finding at 40 digits).
PHI_10_TAIL = 7.619853024e-24
PHI_M196 = 0.0249999990964
Q_975 = 1.95996398454
Q_1EM6 = -4.75342430882
T_CDF_2_60 = 0.974983478174


def test_normal_cdf_examples():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_sf(10.0) == pytest.approx(PHI_10_TAIL, rel=1e-9)
    assert std_normal_cdf(10.0) < 1.0 or std_normal_cdf(10.0) == pytest.approx(1.0, abs=1e-12)
    assert std_normal_cdf(-1.959964) == pytest.approx(PHI_M196, abs=1e-12)


def test_normal_cdf_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        std_normal_cdf(math.nan)
    with pytest.raises(InvalidInputError):
        std_normal_cdf(np.array([0.0, math.inf]))


def test_normal_quantile_examples():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(Q_975, rel=1e-10)
    assert std_normal_quantile(1e-6) == pytest.approx(Q_1EM6, rel=1e-10)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(InvalidInputError):
            std_normal_quantile(bad)


def test_normal_cdf_monotone():
    rng = np.random.default_rng(1)
    x = rng.uniform(-12, 12, size=(10_000, 2))
    lo, hi = x.min(axis=1), x.max(axis=1)
    assert np.all(std_normal_cdf(lo) <= std_normal_cdf(hi))


def test_quantile_roundtrip():
    p = np.logspace(-12, math.log10(1 - 1e-12), 200)
    p = np.clip(p, 1e-12, 1 - 1e-12)
    back = std_normal_cdf(std_normal_quantile(p))
    assert np.max(np.abs(back - p)) <= 1e-9


def test_t_cdf_examples():
    for df in (1, 5, 60, 1000):
        assert student_t_cdf(0.0, df) == 0.5
    # df=1 is Cauchy: F(1) = 1/2 + atan(1)/pi
    assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)
    assert student_t_cdf(2.0, 60) == pytest.approx(T_CDF_2_60, abs=1e-10)
    with pytest.raises(InvalidInputError):
        student_t_cdf(1.0, 0)


def test_t_cdf_symmetry():
    rng = np.random.default_rng(2)
    x = rng.uniform(-8, 8, 500)
    for df in (1, 3, 30):
        np.testing.assert_allclose(student_t_cdf(-x, df), 1.0 - student_t_cdf(x, df),
                                   atol=1e-12)
        np.testing.assert_allclose(student_t_sf(x, df), 1.0 - student_t_cdf(x, df),
                                   atol=1e-12)


def test_t_converges_to_normal():
    x = np.linspace(-4, 4, 161)
    dev = np.abs(student_t_cdf(x, 10_000) - std_normal_cdf(x))
    assert dev.max() <= 5e-5


def test_binomial_kl_examples():
    assert binomial_kl(0.3, 0.3) == 0.0
    assert binomial_kl(0.0, 0.5) == pytest.approx(math.log(2), rel=1e-12)
    assert binomial_kl(0.5, 0.25) == pytest.approx(0.143841036226, rel=1e-10)
    assert binomial_kl(0.5, 0.0) == math.inf
    assert binomial_kl(0.5, 1.0) == math.inf
    assert binomial_kl(1.0, 1.0) == 0.0
    assert binomial_kl(0.0, 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        binomial_kl(-0.1, 0.5)
    with pytest.raises(InvalidInputError):
        binomial_kl(0.5, 1.5)


def test_binomial_kl_pinsker_bound():
    rng = np.random.default_rng(3)
    p0 = rng.uniform(0, 1, 2000)
    p1 = rng.uniform(0.01, 0.99, 2000)
    kl = binomial_kl_array(p0, p1)
    assert np.all(kl >= 2.0 * (p0 - p1) ** 2 - 1e-12)
    assert np.all(kl >= 0.0)


def test_binomial_kl_array_matches_scalar():
    rng = np.random.default_rng(4)
    p0 = rng.uniform(0, 1, 200)
    p1 = rng.uniform(0.001, 0.999, 200)
    vec = binomial_kl_array(p0, p1)
    for a, b, v in zip(p0, p1, vec):
        assert v == pytest.approx(binomial_kl(a, b), rel=1e-12, abs=1e-300)


def test_rng_streams_reproducible():
    a = RngSeed(12345, 7).generator().random(100)
    b = RngSeed(12345, 7).generator().random(100)
    c = RngSeed(12345, 8).generator().random(100)
    d = RngSeed(54321, 7).generator().random(100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_seed_validation():
    with pytest.raises(InvalidInputError):
        RngSeed(-1)
    with pytest.raises(InvalidInputError):
        RngSeed(0, -2)
    gen = as_generator(9)
    assert isinstance(gen, np.random.Generator)


def test_rng_seed_stream_id_fits_the_philox_key(monkeypatch):
    # generator() puts the stream id in the high 64 bits of a 128-bit key.
    with pytest.raises(InvalidInputError, match="stream_id"):
        RngSeed(1, 2**64)
    RngSeed(1, 2**64 - 1).generator()

    def refuse(*args):
        raise AssertionError("drew a block before refusing the run")

    # Every block's RngSeed is built before the first block is drawn.
    monkeypatch.setattr(_streams, "_run_stream", refuse)
    with pytest.raises(InvalidInputError, match="stream_id"):
        simulate_null_scores(100, "plus", 0.5, 600, RngSeed(1, 2**64 - 1))
    with pytest.raises(InvalidInputError, match="stream_id"):
        detection_experiment(100, 10, epsilon=0.1, tau=1.0, critical=3.0,
                             seed=RngSeed(1, 2**64 - 1))


def test_clamp_pvalues():
    out = clamp_pvalues([0.0, 1e-310, 0.5, 1.0, 2.0])
    assert out[0] == 1e-300
    assert out[1] == 1e-300
    assert out[2] == 0.5
    assert out[3] == 1.0
    assert out[4] == 1.0


def test_tails_are_bit_identical_to_their_direct_formulas():
    # The upper tails are the CDFs at -x; they must keep the bits of the
    # direct formulas ndtr(-x) and the mirrored incomplete-beta tail.
    grid = [0, 0.0, -0.0, 1, -1, 1.0, -1.0, -40.0, 40.0, 3e5, -3e5, 2.5]
    arr = np.array(grid, dtype=float)
    for x in grid:
        assert type(std_normal_sf(x)) is float and type(std_normal_cdf(x)) is float
        assert std_normal_sf(x) == special.ndtr(-float(x))
        assert std_normal_cdf(x) == special.ndtr(float(x))
    for form in (arr, list(arr), arr.reshape(3, 4)):
        assert np.array_equal(std_normal_sf(form), special.ndtr(-np.asarray(form)))
    for df in range(1, 149):
        tail = 0.5 * special.betainc(df / 2.0, 0.5, df / (df + arr * arr))
        assert np.array_equal(student_t_sf(arr, df), np.where(arr >= 0, tail, 1.0 - tail))
        assert np.array_equal(student_t_cdf(arr, df), np.where(arr >= 0, 1.0 - tail, tail))
        assert np.array_equal(student_t_sf(list(arr), df), student_t_sf(arr, df))
        assert [student_t_sf(x, df) for x in grid] == list(student_t_sf(arr, df))
    with pytest.raises(InvalidInputError):
        std_normal_sf([0.0, math.nan])
    with pytest.raises(InvalidInputError):
        student_t_sf(math.inf, 3)
    with pytest.raises(InvalidInputError):
        student_t_sf(1.0, 0)
