"""Each argument rule has one owner: every entry point taking the argument
refuses the same values with InvalidInputError, before any cache read or draw."""

import re

import numpy as np
import pytest

from hicrit import _streams
from hicrit.arw import ArwParams, detection_experiment, permutation_test, sample_mixture
from hicrit.calibrate import (CriticalValueEntry, append_cache_entry, empirical_quantile,
                              gumbel_critical, level_alpha_test, resolve_critical,
                              simulate_null_scores)
from hicrit.cli import dispatch
from hicrit.covtest import (EigenNullProfile, eigen_hc_test, eigen_null_profile_cached,
                            make_spiked_sigma, save_profile)
from hicrit.errors import InvalidInputError
from hicrit.hc_core import (PValueSeries, avg_likelihood_ratio, empirical_cdf_on_grid,
                            gof_empirical, gof_theoretical, hc_at_level, hc_plus,
                            hc_scores_sorted_batch, hc_star)
from hicrit.hct import LabeledMatrix, ZScores, hct_threshold
from hicrit.numerics import RngSeed, std_normal_quantile, student_t_cdf, student_t_sf
from hicrit.pairhc import (RankedPairs, pair_hc_star, sample_bivariate_mixture,
                           simulate_pair_scores)
from hicrit.phase import PhasePoint, ideal_fdr

POLICIES = ("cache_only", "simulate_if_missing", "gumbel_fallback")

_rng = np.random.default_rng(0)
SERIES = PValueSeries.from_unsorted(_rng.random(40))
ROWS = np.sort(_rng.random((3, 40)), axis=1)
ZS = ZScores(_rng.standard_normal(40), _rng.standard_normal(40), 0.0, 1.0)
X = _rng.standard_normal((6, 4))
PROFILE = EigenNullProfile(6, 4, np.ones(4), np.ones(4), 100, RngSeed(0))
PAIRS = RankedPairs.from_data(_rng.standard_normal(40), _rng.standard_normal(40))
MATRIX = LabeledMatrix(_rng.standard_normal((8, 12)), np.repeat([1, -1], 4))


def identity(x):
    return x


def resolve_with(name):
    """resolve_critical under each policy, with argument ``name`` set by the test."""
    def entry(policy):
        args = {"N": 100, "alpha": 0.05, "variant": "plus", "policy": policy}
        return lambda value: resolve_critical(**{**args, name: value})

    return {f"resolve_critical[{policy}]": entry(policy) for policy in POLICIES}


@pytest.fixture(autouse=True)
def no_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew replicates before validating")

    monkeypatch.setattr(_streams, "run_all", refuse)


ALPHA0_ENTRY_POINTS = {
    "hc_star": lambda a: hc_star(SERIES, a),
    "hc_plus": lambda a: hc_plus(SERIES, a),
    "avg_likelihood_ratio": lambda a: avg_likelihood_ratio(SERIES, a),
    "gof_theoretical": lambda a: gof_theoretical(empirical_cdf_on_grid(SERIES), identity,
                                                 alpha0=a),
    "gof_empirical": lambda a: gof_empirical(SERIES, identity, alpha0=a),
    "hc_scores_sorted_batch": lambda a: hc_scores_sorted_batch(ROWS, "plus", a),
    "simulate_null_scores": lambda a: simulate_null_scores(40, "plus", a, 10),
    **resolve_with("alpha0"),
    "detection_experiment": lambda a: detection_experiment(100, 10, epsilon=0.1, tau=1.0,
                                                           alpha0=a, critical=3.0),
    "hct_threshold": lambda a: hct_threshold(ZS, a),
    "eigen_hc_test": lambda a: eigen_hc_test(X, PROFILE, a),
    "pair_hc_star": lambda a: pair_hc_star(PAIRS, a),
}


@pytest.mark.parametrize("entry", ALPHA0_ENTRY_POINTS)
@pytest.mark.parametrize("alpha0", [0.0, -0.1, 1.5, float("nan")])
def test_alpha0_rule(entry, alpha0):
    with pytest.raises(InvalidInputError, match="alpha0 must lie in"):
        ALPHA0_ENTRY_POINTS[entry](alpha0)


LEVEL_ENTRY_POINTS = {
    "hc_at_level": lambda a: hc_at_level(100, a, 5),
    "gumbel_critical": lambda a: gumbel_critical(100, a),
    "empirical_quantile": lambda a: empirical_quantile(np.arange(10.0), a),
    **resolve_with("alpha"),
    "detection_experiment": lambda a: detection_experiment(100, 10, a, epsilon=0.1, tau=1.0,
                                                           critical=3.0),
}


@pytest.mark.parametrize("entry", LEVEL_ENTRY_POINTS)
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
def test_level_rule(entry, alpha):
    with pytest.raises(InvalidInputError, match="alpha must lie strictly inside"):
        LEVEL_ENTRY_POINTS[entry](alpha)


VARIANT_ENTRY_POINTS = {
    "hc_scores_sorted_batch": lambda v: hc_scores_sorted_batch(ROWS, v),
    "simulate_null_scores": lambda v: simulate_null_scores(40, v, 0.5, 10),
    **resolve_with("variant"),
    "level_alpha_test": lambda v: level_alpha_test(SERIES, 0.5, variant=v),
    "permutation_test": lambda v: permutation_test(MATRIX, 5, variant=v),
    "detection_experiment": lambda v: detection_experiment(100, 10, variant=v, epsilon=0.1,
                                                           tau=1.0, critical=3.0),
}


@pytest.mark.parametrize("entry", VARIANT_ENTRY_POINTS)
def test_variant_rule(entry):
    with pytest.raises(InvalidInputError, match="variant must be 'star' or 'plus'"):
        VARIANT_ENTRY_POINTS[entry]("bogus")


MIXTURE_ENTRY_POINTS = {
    "sample_mixture": lambda eps, tau: sample_mixture(100, eps, tau, seed=0),
    "detection_experiment": lambda eps, tau: detection_experiment(
        100, 10, epsilon=eps, tau=tau, critical=3.0),
}


@pytest.mark.parametrize("entry", MIXTURE_ENTRY_POINTS)
@pytest.mark.parametrize("epsilon, tau, message", [
    (-0.1, 1.0, "epsilon must lie in"),
    (1.5, 1.0, "epsilon must lie in"),
    (float("nan"), 1.0, "epsilon must lie in"),
    (0.1, float("nan"), "tau must be finite"),
    (0.1, float("inf"), "tau must be finite"),
])
def test_mixture_rule(entry, epsilon, tau, message):
    with pytest.raises(InvalidInputError, match=message):
        MIXTURE_ENTRY_POINTS[entry](epsilon, tau)


PAIR_MIXTURE_ENTRY_POINTS = {
    "sample_bivariate_mixture": lambda *mix: sample_bivariate_mixture(100, *mix),
    "simulate_pair_scores": lambda *mix: simulate_pair_scores(100, *mix, 3, seed=1),
}


@pytest.mark.parametrize("entry", PAIR_MIXTURE_ENTRY_POINTS)
@pytest.mark.parametrize("epsilon, tau, rho, message", [
    (1.5, 1.0, 0.0, "epsilon must lie in"),
    (float("nan"), 1.0, 0.0, "epsilon must lie in"),
    (0.1, float("nan"), 0.0, "tau must be finite"),
    (0.1, float("inf"), 0.0, "tau must be finite"),
    (0.1, 1.0, 1.0, "need |rho| < 1"),
    (0.1, 1.0, float("nan"), "need |rho| < 1"),
])
def test_pair_mixture_rule(entry, epsilon, tau, rho, message):
    # The same epsilon/tau rule as the rare/weak mixture, plus |rho| < 1.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        PAIR_MIXTURE_ENTRY_POINTS[entry](epsilon, tau, rho)


@pytest.fixture
def stored(tmp_path):
    """A store holding a 200-replicate critical value and profile that each match."""
    path = str(tmp_path / "cache.jsonl")
    append_cache_entry(path, CriticalValueEntry(100, 0.05, "plus", 0.5, 200, RngSeed(1), 3.0))
    save_profile(path, EigenNullProfile(6, 4, np.ones(4), np.ones(4), 200, RngSeed(1)))
    return path


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("replicates", [50, 0, -5])
def test_replicate_rule_comes_before_the_cache_read(stored, policy, replicates):
    # A stored entry with more replicates would hit: the rule must not depend on it.
    with pytest.raises(InvalidInputError, match="need replicates >= 100"):
        resolve_critical(100, 0.05, "plus", policy, replicates=replicates, cache_path=stored)
    with pytest.raises(InvalidInputError, match="need replicates >= 100"):
        eigen_null_profile_cached(6, 4, replicates, cache_path=stored)


def test_replicate_rule_exit_code_does_not_depend_on_the_cache(stored, tmp_path, capsys):
    data = tmp_path / "m.csv"
    data.write_text("a,b,c,d\n" + "\n".join(",".join(str((i * j) % 5 + j) for j in range(4))
                                             for i in range(6)) + "\n")
    empty = str(tmp_path / "empty.jsonl")
    for cache in (stored, empty):
        for argv in (["calibrate", "--n", "100", "--alpha", "0.05", "--reps", "50",
                      "--seed", "1", "--threads", "1", "--cache", cache],
                     ["cov-eigen", "--input", str(data), "--null-reps", "5", "--seed", "1",
                      "--threads", "1", "--profile-cache", cache]):
            assert dispatch(argv) == 3, (argv, cache)
            assert "need replicates >= 100" in capsys.readouterr().err


def test_simulate_pair_scores_checks_alpha0_before_drawing():
    with pytest.raises(InvalidInputError, match="alpha0 must lie in"):
        simulate_pair_scores(100, 0.1, 1.0, 0.0, 3, seed=1, alpha0=1.5)


@pytest.mark.parametrize("build", [
    lambda: ArwParams(100, 0.6, float("nan")),
    lambda: PhasePoint(0.6, float("nan")),
    lambda: ideal_fdr(0.6, float("nan")),
    lambda: make_spiked_sigma(4, 1, float("nan")),
    lambda: pair_hc_star(PAIRS, 0.5, min_expected=float("nan")),
    lambda: detection_experiment(100, 10, epsilon=0.1, tau=1.0, critical=float("nan")),
    lambda: std_normal_quantile(float("nan")),
    lambda: student_t_cdf(0.5, float("nan")),
    lambda: student_t_sf(0.5, float("nan")),
], ids=["ArwParams.r", "PhasePoint.r", "ideal_fdr.r", "make_spiked_sigma.h",
        "pair_hc_star.min_expected", "detection_experiment.critical",
        "std_normal_quantile.p", "student_t_cdf.df", "student_t_sf.df"])
def test_nan_is_refused_by_range_checks(build):
    with pytest.raises(InvalidInputError):
        build()
