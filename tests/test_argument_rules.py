"""Each argument rule has one owner: every entry point taking the argument
refuses the same values with InvalidInputError, before any cache read or draw."""

import numpy as np
import pytest

from hicrit import _streams
from hicrit.arw import ArwParams, detection_experiment, permutation_test, sample_mixture
from hicrit.calibrate import (empirical_quantile, gumbel_critical, level_alpha_test,
                              resolve_critical, simulate_null_scores)
from hicrit.covtest import EigenNullProfile, eigen_hc_test, make_spiked_sigma
from hicrit.errors import InvalidInputError
from hicrit.hc_core import (PValueSeries, avg_likelihood_ratio, empirical_cdf_on_grid,
                            gof_empirical, gof_theoretical, hc_at_level, hc_plus,
                            hc_scores_sorted_batch, hc_star)
from hicrit.hct import LabeledMatrix, ZScores, hct_threshold
from hicrit.numerics import RngSeed
from hicrit.pairhc import RankedPairs, pair_hc_star
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


@pytest.mark.parametrize("build", [
    lambda: ArwParams(100, 0.6, float("nan")),
    lambda: PhasePoint(0.6, float("nan")),
    lambda: ideal_fdr(0.6, float("nan")),
    lambda: make_spiked_sigma(4, 1, float("nan")),
    lambda: pair_hc_star(PAIRS, 0.5, min_expected=float("nan")),
    lambda: detection_experiment(100, 10, epsilon=0.1, tau=1.0, critical=float("nan")),
], ids=["ArwParams.r", "PhasePoint.r", "ideal_fdr.r", "make_spiked_sigma.h",
        "pair_hc_star.min_expected", "detection_experiment.critical"])
def test_nan_is_refused_by_range_checks(build):
    with pytest.raises(InvalidInputError):
        build()
