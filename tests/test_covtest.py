import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hicrit import _store
from hicrit.calibrate import (CriticalValueEntry, append_cache_entry, load_cache,
                              resolve_critical)
from hicrit.cli import dispatch
from hicrit.covtest import (EigenNullProfile, _profile_batch, clique_test, correlation_summary,
                            eigen_hc_test, eigen_null_profile, eigen_null_profile_cached,
                            haar_orthogonal, load_profile, make_clique_sigma,
                            make_spiked_sigma, pairwise_pvalue, rowmax_cdf, rowmax_pvalue,
                            sample_gaussian, save_profile)
from hicrit.errors import CacheMissError, InvalidInputError, ValidationError
from hicrit.numerics import RNG_VERSION, RngSeed

import oracles

# mpmath: P(t_4 >= 2*0.5/sqrt(0.75)) = 5/32 exactly.
SF_T4 = 0.15625


def test_pairwise_pvalue_examples():
    assert pairwise_pvalue(0.0, 5, side="upper") == 0.5
    assert pairwise_pvalue(0.5, 5, side="upper") == pytest.approx(SF_T4, rel=1e-10)
    upper = pairwise_pvalue(0.3, 10, side="upper")
    assert pairwise_pvalue(0.3, 10, side="two") == pytest.approx(2 * upper, rel=1e-12)
    # |rho| = 1 clamps instead of failing
    assert pairwise_pvalue(1.0, 5, side="upper") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        pairwise_pvalue(0.5, 2)


def test_two_sided_pvalue_is_symmetric_and_accurate():
    # 2*min(p, 1-p) lost every digit for negative correlations: -0.8 at n=100
    # came out as the 1e-300 clamp instead of 1.08e-23.
    assert pairwise_pvalue(-0.8, 100) == pairwise_pvalue(0.8, 100)
    assert pairwise_pvalue(-0.8, 100) == pytest.approx(1.0827368512e-23, rel=1e-9)
    r = np.linspace(0.0, 0.95, 39)
    for n in (5, 30, 100, 400):
        two = pairwise_pvalue(r, n)
        assert np.array_equal(pairwise_pvalue(-r, n), two)
        want = [max(oracles.pairwise_two_sided_oracle(v, n), 1e-300) for v in r]
        np.testing.assert_allclose(two, want, rtol=1e-10)


def test_pairwise_pvalues_uniform_under_null():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 150))  # 11175 pairs
    summary = correlation_summary(X)
    pvals = pairwise_pvalue(summary.pairwise, summary.n, side="upper")
    assert kstest(pvals, "uniform").statistic <= 0.02


def test_rowmax_examples():
    # p = 2 reduces to the single-pair CDF
    assert rowmax_cdf(0.3, 10, 2) == pytest.approx(
        1.0 - pairwise_pvalue(0.3, 10, side="upper"), rel=1e-12)
    assert rowmax_cdf(0.0, 10, 3) == pytest.approx(0.25, rel=1e-12)
    assert rowmax_pvalue(0.0, 10, 3) == pytest.approx(0.75, rel=1e-12)


def test_rowmax_pvalue_is_accurate_in_the_tail():
    # 1 - F^(p-1) cancelled to the 1e-300 clamp at (0.9, 100, 50), whose true
    # value is 4.32e-36, and was 17% high at (0.7, 100, 50).
    assert rowmax_pvalue(0.9, 100, 50) == pytest.approx(4.3176718e-36, rel=1e-7)
    r = np.array([-0.5, -0.1, 0.0, 0.05, 0.2, 0.45, 0.7, 0.9])
    for n, p in ((10, 3), (30, 10), (100, 50), (400, 400)):
        got = rowmax_pvalue(r, n, p)
        want = [max(oracles.rowmax_pvalue_oracle(v, n, p), 1e-300) for v in r]
        np.testing.assert_allclose(got, want, rtol=1e-10)
        assert [rowmax_pvalue(float(v), n, p) for v in r] == got.tolist()


def test_rowmax_pvalues_uniform_under_null():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((500, 1000))
    summary = correlation_summary(X)
    pvals = rowmax_pvalue(summary.rowmax, summary.n, summary.p)
    assert kstest(pvals, "uniform").statistic <= 0.05


def test_correlation_summary_shapes_and_errors():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 6))
    summary = correlation_summary(X)
    assert summary.pairwise.size == 15
    assert summary.rowmax.size == 6
    assert np.all(np.abs(summary.pairwise) < 1.0)
    X[:, 3] = 7.0
    with pytest.raises(InvalidInputError):
        correlation_summary(X)


def test_make_clique_sigma():
    np.testing.assert_array_equal(make_clique_sigma(5, 1, 0.0), np.eye(5))
    sigma = make_clique_sigma(5, 3, 0.25)
    eigs = np.sort(np.linalg.eigvalsh(sigma[:3, :3]))
    np.testing.assert_allclose(eigs, [0.75, 0.75, 1.5], rtol=1e-12)
    assert sigma[3, 3] == 1.0 and sigma[0, 3] == 0.0
    with pytest.raises(InvalidInputError):
        make_clique_sigma(5, 3, -0.6)  # 1 + 2a < 0
    with pytest.raises(InvalidInputError):
        make_clique_sigma(5, 6, 0.1)


def test_clique_test_modes_run():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 30))
    pw = clique_test(X, mode="pairwise")
    rm = clique_test(X, mode="rowmax")
    assert np.isfinite(pw.score) and np.isfinite(rm.score)
    with pytest.raises(InvalidInputError):
        clique_test(X, mode="bogus")


def test_clique_test_permutation_invariance():
    rng = np.random.default_rng(4)
    X = sample_gaussian(60, make_clique_sigma(20, 5, 0.4), seed=9)
    base_pw = clique_test(X, mode="pairwise").score
    base_rm = clique_test(X, mode="rowmax").score
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(20)
        assert clique_test(X[:, perm], mode="pairwise").score == pytest.approx(
            base_pw, rel=1e-12)
        assert clique_test(X[:, perm], mode="rowmax").score == pytest.approx(
            base_rm, rel=1e-12)


def test_clique_detection_quick():
    # A strong clique separates from null scores even at small scale.
    sigma = make_clique_sigma(60, 10, 0.5)
    null_scores = [clique_test(sample_gaussian(80, np.eye(60), seed=s)).score
                   for s in range(30)]
    alt_scores = [clique_test(sample_gaussian(80, sigma, seed=1000 + s)).score
                  for s in range(30)]
    assert np.median(alt_scores) > np.percentile(null_scores, 95)


# --------------------------------------------------------------------------- eigen


def test_eigen_profile_properties():
    profile = eigen_null_profile(200, 200, replicates=100, seed=5)
    assert profile.m == 200
    assert np.all(np.diff(profile.means) < 0)  # strictly decreasing ranks
    assert np.all(profile.sds > 0)
    # Marchenko-Pastur support [0, 4] at aspect ratio 1
    assert 3.5 <= profile.means[0] <= 4.5
    assert profile.means[-1] < 0.1
    assert abs(profile.means.sum() - 200) <= 2.0  # trace conservation within 1%


def test_eigen_profile_rectangular():
    profile = eigen_null_profile(40, 100, replicates=100, seed=6)
    assert profile.m == 40
    # E trace(X'X/n) = p
    assert abs(profile.means.sum() - 100) <= 3.0


def test_eigen_hc_zero_when_matching_profile():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 20))
    from hicrit.covtest import _sorted_eigenvalues
    eigs = _sorted_eigenvalues(X)
    profile = EigenNullProfile(30, 20, eigs, np.ones(20), 100, RngSeed(0))
    res = eigen_hc_test(X, profile)
    assert res.score == 0.0
    np.testing.assert_allclose(res.components, 0.0, atol=1e-12)


def test_eigen_hc_dimension_mismatch():
    profile = eigen_null_profile(30, 20, replicates=100, seed=8)
    with pytest.raises(InvalidInputError):
        eigen_hc_test(np.zeros((30, 21)), profile)


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "minus-inf"])
def test_eigen_hc_test_refuses_a_non_finite_x(value):
    X = np.random.default_rng(8).standard_normal((6, 4))
    X[2, 1] = value
    profile = EigenNullProfile(6, 4, np.ones(4), np.ones(4), 100, RngSeed(0))
    with pytest.raises(InvalidInputError, match="X must not contain NaN or Inf"):
        eigen_hc_test(X, profile)


def test_eigen_orthogonal_invariance_quick():
    rng = np.random.default_rng(9)
    profile = eigen_null_profile(40, 40, replicates=100, seed=10)
    X = rng.standard_normal((40, 40))
    base = eigen_hc_test(X, profile)
    q = haar_orthogonal(40, seed=11)
    rotated = eigen_hc_test(X @ q, profile)
    np.testing.assert_allclose(rotated.components, base.components, atol=1e-8)


@pytest.mark.parametrize("sigma, message", [
    (-np.eye(2), "positive definite"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
    ([[1.0, 0.9], [0.0, 1.0]], "symmetric"),
    ([[np.inf, 0.0], [0.0, 1.0]], "NaN or Inf"),
], ids=["negative-definite", "indefinite", "asymmetric", "inf"])
def test_sample_gaussian_refuses_a_sigma_that_is_not_a_covariance(sigma, message):
    with pytest.raises(InvalidInputError, match=message):
        sample_gaussian(5, sigma, seed=0)


def test_make_spiked_sigma():
    np.testing.assert_array_equal(make_spiked_sigma(10, 0, 0.7, seed=0), np.eye(10))
    sigma = make_spiked_sigma(30, 4, 0.5, seed=1)
    np.testing.assert_allclose(sigma, sigma.T, atol=1e-14)
    eigs = np.sort(np.linalg.eigvalsh(sigma))[::-1]
    np.testing.assert_allclose(eigs[:4], 1.5, atol=1e-10)
    np.testing.assert_allclose(eigs[4:], 1.0, atol=1e-10)
    with pytest.raises(InvalidInputError):
        make_spiked_sigma(10, 10, 0.5)
    with pytest.raises(InvalidInputError):
        make_spiked_sigma(10, 2, -1.5)


def test_haar_orthogonal_deterministic():
    a = haar_orthogonal(15, seed=3)
    b = haar_orthogonal(15, seed=3)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a @ a.T, np.eye(15), atol=1e-12)


def test_profile_cache_roundtrip(tmp_path):
    path = str(tmp_path / "profiles.csv")
    profile = eigen_null_profile(12, 8, replicates=100, seed=13)
    save_profile(path, profile)
    loaded = load_profile(path, 12, 8, min_replicates=100)
    np.testing.assert_array_equal(loaded.means, profile.means)
    np.testing.assert_array_equal(loaded.sds, profile.sds)
    assert load_profile(path, 12, 8, min_replicates=500) is None
    assert load_profile(path, 13, 8) is None
    # cached helper: second call must not resimulate (identical object data)
    again = eigen_null_profile_cached(12, 8, 100, seed=99, cache_path=path)
    np.testing.assert_array_equal(again.means, profile.means)


def test_profile_cache_keeps_identity(tmp_path):
    path = str(tmp_path / "profiles.csv")
    profile = eigen_null_profile(12, 8, replicates=100, seed=RngSeed(7, 99))
    save_profile(path, profile)
    save_profile(path, profile)  # the same profile again is not stored twice
    assert len(Path(path).read_text().splitlines()) == 1
    loaded = load_profile(path, 12, 8)
    assert loaded.seed == RngSeed(7, 99)
    np.testing.assert_array_equal(loaded.means, profile.means)
    np.testing.assert_array_equal(loaded.sds, profile.sds)
    # another stream is another record; the one with more replicates wins
    save_profile(path, eigen_null_profile(12, 8, replicates=120, seed=RngSeed(7, 0)))
    assert len(Path(path).read_text().splitlines()) == 2  # one record per profile
    assert load_profile(path, 12, 8).seed == RngSeed(7, 0)


def test_legacy_profile_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "profiles.csv"
    rows = [f"3,2,100,7,0,philox4x64-v1,{r},1.5,0.5" for r in (1, 2)]
    path.write_text("n,p,replicates,seed,stream_id,rng_version,rank,mean,sd\n"
                    + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="row 1"):
        load_profile(str(path), 3, 2)
    data = tmp_path / "x.csv"
    data.write_text("a,b\n1,2\n3,5\n4,4\n")
    code = dispatch(["cov-eigen", "--input", str(data), "--null-reps", "100", "--seed", "1",
                     "--profile-cache", str(path), "--threads", "1"])
    err = capsys.readouterr().err
    assert code == 3 and "row 1" in err and "delete the file" in err


def test_values_stored_under_the_previous_rng_version_are_misses(tmp_path):
    # philox4x64-v3 changed the permutation test's draws; a well-formed v2 record is
    # neither refused nor a hit: it misses, and the value is simulated and stored again.
    assert RNG_VERSION == "philox4x64-v3"
    path = str(tmp_path / "cache.jsonl")
    append_cache_entry(path, CriticalValueEntry(100, 0.05, "plus", 0.5, 10**6, RngSeed(1), 3.5,
                                                rng_version="philox4x64-v2"))
    save_profile(path, EigenNullProfile(12, 8, np.full(8, 9.0), np.full(8, 0.5), 10**6,
                                        RngSeed(1), rng_version="philox4x64-v2"))
    with pytest.raises(CacheMissError):
        resolve_critical(100, 0.05, "plus", "cache_only", replicates=200, cache_path=path)
    value, source, entry = resolve_critical(100, 0.05, "plus", "simulate_if_missing",
                                            replicates=200, seed=1, cache_path=path)
    assert source == "simulated" and entry.rng_version == RNG_VERSION and value != 3.5
    assert load_profile(path, 12, 8) is None
    profile = eigen_null_profile_cached(12, 8, 100, seed=1, cache_path=path)
    assert profile.rng_version == RNG_VERSION and not np.any(profile.means == 9.0)
    assert [e.rng_version for e in load_cache(path)] == ["philox4x64-v2", RNG_VERSION]
    assert load_profile(path, 12, 8).means.tolist() == profile.means.tolist()


def test_short_profile_record_names_its_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    profile = EigenNullProfile(3, 2, np.array([1.5, 0.5]), np.array([0.2, 0.1]), 100,
                               RngSeed(7))
    save_profile(path, profile)
    good = path.read_text()
    path.write_text(good + good.replace('"means": [1.5, 0.5]', '"means": [1.5]'))
    with pytest.raises(ValidationError, match="row 2"):
        load_profile(path, 3, 2)


def test_non_finite_profile_record_names_its_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    save_profile(path, EigenNullProfile(3, 2, np.array([1.5, 0.5]), np.array([0.2, 0.1]), 100,
                                        RngSeed(7)))
    good = path.read_text()
    for old, new in (("[1.5, 0.5]", "[NaN, 0.5]"), ("[0.2, 0.1]", "[0.2, Infinity]"),
                     ("[0.2, 0.1]", "[-Infinity, 0.1]")):
        path.write_text(good + good.replace(old, new))
        with pytest.raises(ValidationError, match="finite.*row 2"):
            load_profile(path, 3, 2)


@pytest.mark.parametrize("sds", [[0.0, 1.0], [1.0, -0.5], [np.nan, 1.0]],
                         ids=["zero", "negative", "nan"])
def test_eigen_hc_test_refuses_sds_that_are_not_all_positive(sds):
    X = np.random.default_rng(3).standard_normal((30, 2))
    profile = EigenNullProfile(30, 2, np.ones(2), np.array(sds), 100, RngSeed(0))
    with pytest.raises(InvalidInputError, match="sds must all be positive"):
        eigen_hc_test(X, profile)


@pytest.mark.parametrize("means", [[np.nan, np.nan], [np.inf, 1.0], [1.0, -np.inf]],
                         ids=["nan", "inf", "minus-inf"])
def test_eigen_hc_test_refuses_means_that_are_not_all_finite(means):
    # NaN means once gave score=-inf and argmax_rank=None instead of an error.
    X = np.random.default_rng(3).standard_normal((30, 2))
    profile = EigenNullProfile(30, 2, np.array(means), np.ones(2), 100, RngSeed(0))
    with pytest.raises(InvalidInputError, match="means must all be finite"):
        eigen_hc_test(X, profile)


def test_cov_eigen_with_a_stored_zero_sd_exits_3(tmp_path, capsys):
    # At the parent this printed score=-inf with an empty argmax_rank and exited 0.
    path = tmp_path / "cache.jsonl"
    save_profile(path, EigenNullProfile(3, 2, np.array([1.5, 0.5]), np.array([0.0, 0.1]), 100,
                                        RngSeed(7)))
    data = tmp_path / "x.csv"
    data.write_text("a,b\n1,2\n3,5\n4,4\n")
    code = dispatch(["cov-eigen", "--input", str(data), "--null-reps", "100", "--seed", "1",
                     "--profile-cache", str(path), "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "sds must all be positive" in err


def test_profiles_and_critical_values_share_a_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    entry = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(1), 3.5)
    profile = EigenNullProfile(3, 2, np.array([1.5, 0.5]), np.array([0.2, 0.1]), 100,
                               RngSeed(1))
    append_cache_entry(path, entry)
    save_profile(path, profile)
    assert load_cache(path) == [entry]
    np.testing.assert_array_equal(load_profile(path, 3, 2).means, profile.means)


_U64 = st.integers(0, 2**64 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seeds=st.tuples(_U64, _U64, _U64, _U64), quantile=_FINITE,
       means=st.lists(_FINITE, min_size=2, max_size=2),
       sds=st.lists(_FINITE, min_size=2, max_size=2))
def test_store_round_trip_over_the_full_seed_range(seeds, quantile, means, sds):
    entry = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(*seeds[:2]), quantile)
    profile = EigenNullProfile(3, 2, np.array(means), np.array(sds), 100, RngSeed(*seeds[2:]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        append_cache_entry(path, entry)
        save_profile(path, profile)
        [got] = load_cache(path)
        loaded = load_profile(path, 3, 2)
    assert got == entry and str(got.quantile) == str(quantile)  # -0.0 keeps its sign
    assert (loaded.n, loaded.p, loaded.replicates, loaded.seed, loaded.rng_version) == \
        (3, 2, 100, profile.seed, RNG_VERSION)
    np.testing.assert_array_equal(loaded.means, profile.means)
    np.testing.assert_array_equal(loaded.sds, profile.sds)
    for stored, written, (seed, stream_id) in ((got, entry, seeds[:2]),
                                               (loaded, profile, seeds[2:])):
        expected = {"replicates": written.replicates, "seed": seed, "stream_id": stream_id,
                    "rng_version": RNG_VERSION}
        assert _store.provenance(stored.replicates, stored.seed, stored.rng_version) == expected


def test_profile_determinism():
    # Two stream blocks: block k draws Philox stream k, and a rerun repeats it.
    a = eigen_null_profile(15, 10, replicates=128, seed=14)
    b = eigen_null_profile(15, 10, replicates=128, seed=14)
    eigs = np.concatenate([_profile_batch((15, 10), 64, RngSeed(14, k).generator())
                           for k in (0, 1)])
    for profile in (a, b):
        np.testing.assert_array_equal(profile.means, eigs.mean(axis=0))
        np.testing.assert_array_equal(profile.sds, eigs.std(axis=0, ddof=1))
