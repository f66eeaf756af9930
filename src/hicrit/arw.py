"""Rare/weak Gaussian mixture sampling and the sparse-detection experiment.

The alternative draws each coordinate nonnull with probability epsilon and
shifts it by tau; P-values come from the standard normal. The null is the
same mixture at epsilon = 0, so one sampler makes every HC Monte Carlo
replicate, critical values included. Draws are made in P-value space and only
the floor(alpha0*N) smallest P-values, the ones the HC kernel reads, are made
at all: a Binomial(N, epsilon) count of nonnulls, Renyi's representation for
the smallest null P-values, and ndtr on the nonnulls alone. The experiment's
null, alternative and calibration streams share one stream-runner pool. A
label-permutation test (whole rows keep their values, the labels are
shuffled; batches of shuffles scored in one kernel on the stream runner)
supplies P-values for HC scores on real labeled matrices, valid when the
features are correlated; a shuffle whose feature scores are degenerate scores
+inf.

Seeds: each Monte Carlo entry point takes an int or an RngSeed and reads it once
through ``numerics.as_seed`` as ``base`` (an int seed is stream 0); block k of a
job draws Philox stream base.stream_id + offset + k, the job's offset set by the
module that defines it. The experiment's null, alternative and calibration jobs
sit at offsets 0, 2^20 and 2^21.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _streams, hct
from .errors import InvalidInputError
from .hc_core import (PValueSeries, _check_level, _check_mixture, _check_replicates,
                      _check_variant, _index_range, empirical_quantile, hc_plus,
                      hc_scores_sorted_batch, hc_star)
from .numerics import MIN_PVALUE, RngSeed, as_generator, as_seed, clamp_pvalues, ndtr
from .phase import PhasePoint

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
]

# Replicates per RNG stream; fixed so no simulated score depends on the worker count.
STREAM_BLOCK = 512

# Disjoint stream-id namespaces so calibration draws never reuse the random
# bits consumed by the experiment itself.
_NULL_STREAMS = 0
_ALT_STREAMS = 1 << 20
_CALIB_STREAMS = 1 << 21

# A shuffle's pooled within-class sum of squares at most this fraction of the
# feature's total sum of squares counts as zero. tot - (n1 m1^2 + n2 m2^2) leaves a
# rounding residue of about n*eps*tot, not 0, when a feature is constant within
# each class; 1e-10 covers that residue up to n ~ 4e5 samples.
_ZERO_SS = 1e-10

# A shuffle scoring within this fraction of |original| counts as at least the
# original. The original comes from _matrix_hc_score and the shuffles from the
# batched kernel, whose rounding differs (up to ~2e-14 relative, and a row's bits
# depend on its place in the BLAS batch), so a shuffle that reproduces the original
# partition may score a hair below it. scipy.stats.permutation_test allows 100*eps.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class ArwParams:
    """Asymptotic rare/weak calibration: epsilon = N^-vartheta, tau = sqrt(2 r log N).

    Refuses N < 1, and through PhasePoint vartheta outside (0, 1) and r <= 0 or NaN.
    """

    N: int
    vartheta: float
    r: float

    def __post_init__(self):
        if self.N < 1:
            raise InvalidInputError(f"N must be positive, got {self.N}")
        PhasePoint(self.vartheta, self.r)

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
        if epsilon is not None or tau is not None:
            raise InvalidInputError("epsilon and tau go with an integer N, not with ArwParams")
        params, epsilon, tau = params.N, params.epsilon, params.tau
    if epsilon is None or tau is None:
        raise InvalidInputError("explicit sampling needs N, epsilon and tau")
    n, eps, t = int(params), float(epsilon), float(tau)
    _check_mixture(eps, t)
    return n, eps, t


def sample_mixture(params: Union[ArwParams, int], epsilon: Optional[float] = None,
                   tau: Optional[float] = None, seed=0) -> MixtureSample:
    """Draw one mixture sample; ``params`` is an ArwParams or an integer N.

    Refuses epsilon outside [0, 1], a tau that is not finite, and an epsilon
    or tau given with an ArwParams.
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


def _sorted_pvalues_two_sided(z: np.ndarray) -> np.ndarray:
    """Two-sided P-values 2(1 - Phi(|z|)), clamped, ascending along each row of z."""
    return np.sort(clamp_pvalues(2.0 * ndtr(-np.abs(z))), axis=-1)


def pvalues_two_sided(x) -> PValueSeries:
    """Two-sided P-values 2(1 - Phi(|x_i|)), sorted ascending."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    return PValueSeries(_sorted_pvalues_two_sided(x))


def _null_window(b: int, n, k: int, rng, out: np.ndarray) -> None:
    """The min(k, n) smallest of n iid Uniform(0, 1), ascending, into out[:, :k].

    ``n`` is one size or an array of b per-row sizes. Renyi's representation:
    with S the partial sums of k Exp(1) draws, k0 = min(k, n) and
    G ~ Gamma(n + 1 - k0), U_(1..k0) = S_1..S_k0 / (S_k0 + G). Draws the b*k
    exponentials, then the b gammas; no n-wide draw, no sort. Values are
    clamped at MIN_PVALUE; columns k0..k of a row with n < k hold no order
    statistics.
    """
    s = rng.standard_exponential((b, k))
    np.cumsum(s, axis=1, out=s)
    k0 = np.reshape(np.minimum(k, n), (-1, 1))
    total = np.take_along_axis(s, np.broadcast_to(k0 - 1, (b, 1)), axis=1)
    total += rng.standard_gamma(np.reshape(n, (-1, 1)) + 1 - k0, (b, 1))
    window = np.divide(s, total, out=out[:, :k])
    np.maximum(window, MIN_PVALUE, out=window)


def _mixture_batch(params, b: int, rng) -> np.ndarray:
    """HC scores of b mixture draws, each made in P-value space.

    Per row, m ~ Binomial(n, eps) coordinates are nonnull. The n - m null
    P-values are uniform, so the min(k, n - m) smallest of them come from
    ``_null_window``, k = floor(alpha0*n); only the m nonnull P-values go
    through ndtr, in one call for the batch. Each row's nonnulls are written
    after its null window and padded with inf to the widest row; a stable
    sort of that prefix merges them, and the first k columns hold the k
    smallest; with no nonnulls (eps = 0) the null windows are the rows. RNG
    use: the b binomials (no bits at eps = 0), the b*k exponentials and the b
    gammas of the null windows, then the sum(m) normals, row after row.
    """
    n, eps, tau, variant, alpha0 = params
    k = _index_range(alpha0, n)
    m = rng.binomial(n, eps, b)
    out = np.empty((b, n))
    _null_window(b, n - m, k, rng, out)
    if m.any():
        k0 = np.minimum(k, n - m)
        alt = clamp_pvalues(ndtr(-tau - rng.standard_normal(m.sum())))
        width = int((k0 + m).max())
        out[:, k:width] = np.inf
        first = np.cumsum(m) - m
        out[np.repeat(np.arange(b), m), np.arange(alt.size) + np.repeat(k0 - first, m)] = alt
        out[:, :width].sort(axis=1, kind="stable")
    return hc_scores_sorted_batch(out, variant, alpha0)


def _mixture_job(n, eps, tau, variant, alpha0, reps, base: RngSeed):
    # A stream-runner job of ``reps`` mixture scores from stream ``base`` on; eps = 0 is the null.
    return (_mixture_batch, (n, eps, tau, variant, alpha0), reps, STREAM_BLOCK, n, base)


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
    stream_ids: dict  # first stream of each job run: null, alternative[, calibration]

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
    (1-alpha) quantile of ``calibration_reps`` null scores on a dedicated
    stream namespace, drawn in the pool of the null and alternative streams.
    ``seed`` is an int or an RngSeed; with base = as_seed(seed), the null,
    alternative and calibration jobs start at streams base.stream_id + 0,
    + 2^20 and + 2^21, which ``stream_ids`` reports.
    Power and size are the rejection rates of the alternative and null score
    samples. Before any draw it refuses alpha outside (0, 1), a variant other
    than 'star' or 'plus', an epsilon or tau given with an ArwParams, epsilon
    outside [0, 1], a tau or a given ``critical`` that is not finite, alpha0
    outside (0, 1], and fewer than 100 calibration replicates when
    ``critical`` is not given.
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
    jobs = {"alternative": _mixture_job(n, eps, t, variant, alpha0, reps,
                                        base.stream(base.stream_id + _ALT_STREAMS)),
            "null": _mixture_job(n, 0.0, 0.0, variant, alpha0, reps,
                                 base.stream(base.stream_id + _NULL_STREAMS))}
    if critical is None:
        _check_replicates(calibration_reps)
        jobs["calibration"] = _mixture_job(n, 0.0, 0.0, variant, alpha0, calibration_reps,
                                           base.stream(base.stream_id + _CALIB_STREAMS))
    alt_scores, null_scores, *calibration = _streams.run_all(list(jobs.values()), n_jobs)
    if calibration:
        critical = empirical_quantile(calibration[0], alpha)
    return DetectionSummary(
        null_scores=null_scores,
        alt_scores=alt_scores,
        critical=float(critical),
        power=float(np.mean(alt_scores > critical)),
        size=float(np.mean(null_scores > critical)),
        alpha=float(alpha),
        variant=variant,
        alpha0=float(alpha0),
        stream_ids={name: job[-1].stream_id for name, job in jobs.items()},
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
    """HC scores of b label permutations of one matrix, in one batch.

    Each shuffle argsorts one row of n uniform keys into a permutation of the
    labels. Both class means of all b shuffles come from (b x n) . (n x p)
    products on the column-centred data, and the pooled within-class sum of
    squares is tot - (n1 m1^2 + n2 m2^2), tot being the column sums of squares.
    The two classes are treated alike, so labels and -labels score bit-equal.
    A shuffle with a degenerate feature (_ZERO_SS) or zero spread scores +inf.
    """
    centred, tot, labels, variant, alpha0 = params
    n = centred.shape[0]
    shuffled = labels[np.argsort(rng.random((b, n)), axis=1)]
    n1 = int(np.count_nonzero(labels == 1))
    n2 = n - n1
    m1 = (shuffled == 1).astype(float) @ centred
    m1 /= n1
    m2 = (shuffled == -1).astype(float) @ centred
    m2 /= n2
    raw = m1 - m2
    # n1 m1^2 + n2 m2^2, into m1: the two terms are formed alike and added first.
    m1 *= m1
    m1 *= n1
    m2 *= m2
    m2 *= n2
    m1 += m2
    within = np.subtract(tot, m1, out=m1)
    degenerate = np.any(within <= _ZERO_SS * tot, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        within /= n - 2
        s = np.sqrt(within, out=within)
        s *= math.sqrt(1.0 / n1 + 1.0 / n2)
        raw /= s
        shift = raw.mean(axis=1, keepdims=True)
        scale = raw.std(axis=1, ddof=1, keepdims=True)
        raw -= shift
        raw /= scale
    degenerate |= scale[:, 0] <= 0.0
    scores = hc_scores_sorted_batch(_sorted_pvalues_two_sided(raw), variant, alpha0)
    scores[degenerate] = np.inf
    return scores


def permutation_test(matrix, shuffles: int, seed=0, variant: str = "plus",
                     alpha0: float = 0.5) -> PermutationTestResult:
    """Label-permutation P-value for the HC score of a labeled matrix.

    Each shuffle permutes the labels and keeps every row whole, so under H0
    (labels independent of the features) a shuffled matrix has the original's
    law whatever the correlation among features (Westfall & Young 1993). The
    standardized Z-scores and the HC score are recomputed per shuffle, a batch
    of shuffles in one kernel. The returned P-value is the add-one estimator
    (1 + #{shuffle >= original}) / (shuffles + 1), which never reports 0; a
    shuffle at most 1e-12 |original| below the original is a tie and counts
    (the two are scored by different code, so a shuffle that reproduces the
    original partition can fall below it by rounding). A
    shuffle has no score and counts as +inf, at least as extreme as the
    original, so the P-value stays conservative, when some feature's pooled
    within-class sum of squares is at most 1e-10 of its total sum of squares
    (zero up to rounding: the feature is constant within each class) or the
    feature scores have zero spread; the original matrix itself is refused
    when a pooled variance or the spread is exactly 0.
    Shuffles run on the stream runner in this process, one stream per
    STREAM_BLOCK shuffles; ``seed`` is an int or an RngSeed. A variant other
    than 'star' or 'plus' is refused before any shuffle.
    """
    if shuffles < 1:
        raise InvalidInputError(f"need shuffles >= 1, got {shuffles}")
    _check_variant(variant)
    original = _matrix_hc_score(matrix, variant, alpha0)
    base = as_seed(seed)
    centred = matrix.data - matrix.data.mean(axis=0)
    params = (centred, np.square(centred).sum(axis=0), matrix.labels, variant, alpha0)
    # At its peak the kernel holds about five rows of n or of p elements per shuffle.
    scores = _streams.run(_shuffle_batch, params, shuffles, STREAM_BLOCK,
                          5 * sum(centred.shape), base, 1)
    exceed = int(np.sum(scores >= original - _TIE_RTOL * abs(original)))
    return PermutationTestResult((1 + exceed) / (shuffles + 1), original, scores)
