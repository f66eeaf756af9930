"""Rare/weak Gaussian mixture sampling and the sparse-detection experiment.

The alternative draws each coordinate nonnull with probability epsilon and
shifts it by tau; P-values come from the standard normal. The experiment
harness scores repeated null/alternative draws with an HC variant against a
calibrated critical value; both samples run in one stream-runner pool. Draws
are made in P-value space and only the floor(alpha0*N) smallest P-values, the
ones the HC kernel reads, are made at all: a Binomial(N, epsilon) count of
nonnulls, Renyi's representation for the smallest null P-values, and ndtr on
the nonnulls alone. A permutation scheme (independent row shuffles per
column, on the stream runner) supplies P-values for HC scores on real
labeled matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from . import _streams, calibrate, hct
from .errors import InvalidInputError
from .hc_core import (PValueSeries, _check_level, _check_variant, _index_range, hc_plus,
                      hc_scores_sorted_batch, hc_star)
from .numerics import RngSeed, as_generator, as_seed, clamp_pvalues

__all__ = [
    "ArwParams",
    "MixtureSample",
    "sample_mixture",
    "pvalues_one_sided",
    "pvalues_two_sided",
    "DetectionSummary",
    "detection_experiment",
    "PermutationTestResult",
    "permutation_test",
    "permutation_pvalue",
]

# Disjoint stream-id namespaces so calibration draws never reuse the random
# bits consumed by the experiment itself.
_NULL_STREAMS = 0
_ALT_STREAMS = 1 << 20
_CALIB_STREAMS = 1 << 21


@dataclass(frozen=True)
class ArwParams:
    """Asymptotic rare/weak calibration: epsilon = N^-vartheta, tau = sqrt(2 r log N).

    Refuses N < 1, vartheta outside (0, 1) and an r that is not positive (NaN too).
    """

    N: int
    vartheta: float
    r: float

    def __post_init__(self):
        if self.N < 1:
            raise InvalidInputError(f"N must be positive, got {self.N}")
        if not 0.0 < self.vartheta < 1.0:
            raise InvalidInputError(f"vartheta must lie in (0, 1), got {self.vartheta}")
        if not self.r > 0.0:
            raise InvalidInputError(f"r must be positive, got {self.r}")

    @property
    def epsilon(self) -> float:
        return float(self.N) ** (-self.vartheta)

    @property
    def tau(self) -> float:
        return math.sqrt(2.0 * self.r * math.log(self.N))


@dataclass(frozen=True)
class MixtureSample:
    """One draw from (1-eps)N(0,1) + eps N(tau,1), with the latent flags."""

    x: np.ndarray
    ground_truth: np.ndarray

    @property
    def nonnull_count(self) -> int:
        return int(self.ground_truth.sum())


def _mixture_spec(params, epsilon, tau):
    if isinstance(params, ArwParams):
        params, epsilon, tau = params.N, params.epsilon, params.tau
    if epsilon is None or tau is None:
        raise InvalidInputError("explicit sampling needs N, epsilon and tau")
    n, eps, t = int(params), float(epsilon), float(tau)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {eps}")
    if not math.isfinite(t):
        raise InvalidInputError(f"tau must be finite, got {t}")
    return n, eps, t


def sample_mixture(params: Union[ArwParams, int], epsilon: Optional[float] = None,
                   tau: Optional[float] = None, seed=0) -> MixtureSample:
    """Draw one mixture sample; ``params`` is an ArwParams or an integer N.

    Refuses epsilon outside [0, 1] and a tau that is not finite.
    """
    n, eps, t = _mixture_spec(params, epsilon, tau)
    rng = as_generator(seed)
    x = rng.standard_normal(n)
    flags = rng.random(n) < eps
    x[flags] += t
    return MixtureSample(x, flags)


def pvalues_one_sided(x) -> PValueSeries:
    """Upper-tail P-values 1 - Phi(x_i), sorted ascending."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    return PValueSeries(np.sort(clamp_pvalues(ndtr(-x))))


def pvalues_two_sided(x) -> PValueSeries:
    """Two-sided P-values 2(1 - Phi(|x_i|)), sorted ascending."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    return PValueSeries(np.sort(clamp_pvalues(2.0 * ndtr(-np.abs(x)))))


def _mixture_batch(params, b: int, rng) -> np.ndarray:
    """HC scores of b mixture draws, each made in P-value space.

    Per row, m ~ Binomial(n, eps) coordinates are nonnull. The n - m null
    P-values are uniform, so the min(k, n - m) smallest of them come from
    ``calibrate._null_window``, k = floor(alpha0*n); only the m nonnull
    P-values go through ndtr, in one call for the batch. Each row's nonnulls
    are written after its null window and padded with inf to the widest row;
    a stable sort of that prefix merges them, and the first k columns hold the
    k smallest. RNG use: the b binomials, the b*k exponentials and the b
    gammas of the null windows, then the sum(m) normals, row after row.
    """
    n, eps, tau, variant, alpha0 = params
    k = _index_range(alpha0, n)
    m = rng.binomial(n, eps, b)
    out = np.empty((b, n))
    calibrate._null_window(b, n - m, k, rng, out)
    k0 = np.minimum(k, n - m)
    alt = clamp_pvalues(ndtr(-tau - rng.standard_normal(m.sum())))
    width = int((k0 + m).max())
    out[:, k:width] = np.inf
    first = np.cumsum(m) - m
    out[np.repeat(np.arange(b), m), np.arange(alt.size) + np.repeat(k0 - first, m)] = alt
    out[:, :width].sort(axis=1, kind="stable")
    return hc_scores_sorted_batch(out, variant, alpha0)


def _mixture_job(n, eps, tau, variant, alpha0, reps, seed, stream_base):
    # With no nonnulls the mixture is the uniform null: draw it as calibrate does.
    kernel, params = ((calibrate._null_batch, (n, variant, alpha0)) if eps == 0.0 else
                      (_mixture_batch, (n, eps, tau, variant, alpha0)))
    return kernel, params, reps, calibrate.STREAM_BLOCK, n, RngSeed(seed, stream_base)


@dataclass(frozen=True)
class DetectionSummary:
    """Scores and rejection rates from one detection experiment."""

    null_scores: np.ndarray
    alt_scores: np.ndarray
    critical: float
    power: float
    size: float
    alpha: float
    variant: str
    alpha0: float

    @property
    def power_se(self) -> float:
        """Binomial standard error sqrt(q(1-q)/R) of power over the R alternative scores."""
        return math.sqrt(self.power * (1.0 - self.power) / self.alt_scores.size)

    @property
    def size_se(self) -> float:
        """Binomial standard error sqrt(q(1-q)/R) of size over the R null scores."""
        return math.sqrt(self.size * (1.0 - self.size) / self.null_scores.size)

    @property
    def separated(self) -> bool:
        """Whether the two score samples do not overlap at all."""
        return float(self.alt_scores.min()) > float(self.null_scores.max())


def detection_experiment(params: Union[ArwParams, int], reps: int, alpha: float = 0.05,
                         variant: str = "plus", seed=0, epsilon: Optional[float] = None,
                         tau: Optional[float] = None, alpha0: float = 0.5,
                         critical: Optional[float] = None, calibration_reps: int = 1000,
                         n_jobs: int = 1) -> DetectionSummary:
    """Score ``reps`` null and ``reps`` alternative draws with one HC variant.

    The rejection threshold is ``critical`` if given, otherwise the empirical
    (1-alpha) null quantile simulated with ``calibration_reps`` replicates on
    a dedicated stream namespace. Power and size are the rejection rates of
    the alternative and null score samples. Before any draw it refuses alpha
    outside (0, 1), a variant other than 'star' or 'plus', epsilon outside
    [0, 1], a tau or a given ``critical`` that is not finite, and alpha0
    outside (0, 1].
    """
    if reps < 2:
        raise InvalidInputError(f"need reps >= 2, got {reps}")
    _check_level(alpha)
    _check_variant(variant)
    n, eps, t = _mixture_spec(params, epsilon, tau)
    _index_range(alpha0, n)
    if critical is not None and not math.isfinite(critical):
        raise InvalidInputError(f"critical must be finite, got {critical}")
    base = as_seed(seed)
    if critical is None:
        entry = calibrate.simulate_critical(
            n, alpha, variant, alpha0, calibration_reps,
            RngSeed(base.seed, _CALIB_STREAMS), n_jobs=n_jobs)
        critical = entry.quantile
    alt_scores, null_scores = _streams.run_all(
        [_mixture_job(n, eps, t, variant, alpha0, reps, base.seed, _ALT_STREAMS),
         _mixture_job(n, 0.0, 0.0, variant, alpha0, reps, base.seed, _NULL_STREAMS)], n_jobs)
    return DetectionSummary(
        null_scores=null_scores,
        alt_scores=alt_scores,
        critical=float(critical),
        power=float(np.mean(alt_scores > critical)),
        size=float(np.mean(null_scores > critical)),
        alpha=float(alpha),
        variant=variant,
        alpha0=float(alpha0),
    )


def _matrix_hc_score(matrix: "hct.LabeledMatrix", variant: str, alpha0: float) -> float:
    z = hct.feature_zscores(matrix)
    series = pvalues_two_sided(z.standardized)
    result = hc_star(series, alpha0) if variant == "star" else hc_plus(series, alpha0)
    return result.score


@dataclass(frozen=True)
class PermutationTestResult:
    pvalue: float
    original_score: float
    shuffle_scores: np.ndarray


def _shuffle_batch(params, b: int, rng) -> np.ndarray:
    matrix, variant, alpha0 = params
    data = matrix.data
    scores = np.empty(b)
    for j in range(b):
        perm = np.argsort(rng.random(data.shape), axis=0)
        shuffled = hct.LabeledMatrix(np.take_along_axis(data, perm, axis=0),
                                     matrix.labels, matrix.feature_names)
        scores[j] = _matrix_hc_score(shuffled, variant, alpha0)
    return scores


def permutation_test(matrix, shuffles: int, seed=0, variant: str = "plus",
                     alpha0: float = 0.5) -> PermutationTestResult:
    """Shuffle-based P-value for the HC score of a labeled matrix.

    Each shuffle permutes the rows of every column independently, washing out
    any label-feature alignment; the standardized Z-scores and the HC score
    are recomputed per shuffle. The returned P-value is the add-one estimator
    (1 + #{shuffle >= original}) / (shuffles + 1), which never reports 0.
    Shuffles run on the stream runner in this process, one stream per
    STREAM_BLOCK shuffles; ``seed`` is an int or an RngSeed. A variant other
    than 'star' or 'plus' is refused before any shuffle.
    """
    if shuffles < 1:
        raise InvalidInputError(f"need shuffles >= 1, got {shuffles}")
    _check_variant(variant)
    original = _matrix_hc_score(matrix, variant, alpha0)
    base = as_seed(seed)
    scores = _streams.run(_shuffle_batch, (matrix, variant, alpha0), shuffles,
                          calibrate.STREAM_BLOCK, matrix.data.size, base, 1)
    exceed = int(np.sum(scores >= original))
    return PermutationTestResult((1 + exceed) / (shuffles + 1), original, scores)


def permutation_pvalue(matrix, shuffles: int, seed=0, variant: str = "plus",
                       alpha0: float = 0.5) -> float:
    """The P-value alone; see permutation_test for the estimator."""
    return permutation_test(matrix, shuffles, seed, variant, alpha0).pvalue
