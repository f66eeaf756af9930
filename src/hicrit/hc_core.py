"""The Higher Criticism statistic family over sorted P-values.

Everything here is a pure function of an ascending P-value series: the
orthodox HC maximum, its plus-variant with the fat-tail guard, the
feature-selection scoring variant, Berk-Jones, the average likelihood ratio,
two standardized goodness-of-fit measures, and the BH-FDR selection count.
Indexing in formulas is 1-based to match the usual order-statistic notation;
arrays are of course 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import logsumexp

from .errors import InvalidInputError
from .numerics import binomial_kl_array

__all__ = [
    "PValueSeries",
    "HcResult",
    "as_series",
    "hc_at_level",
    "hc_component",
    "hc_components",
    "hc_star",
    "hc_plus",
    "ohc_plus_band",
    "hc_feature_scores",
    "berk_jones",
    "avg_likelihood_ratio",
    "empirical_cdf_on_grid",
    "gof_theoretical",
    "gof_empirical",
    "bh_fdr_select",
    "hc_scores_sorted_batch",
    "empirical_quantile",
]


@dataclass(frozen=True)
class PValueSeries:
    """Validated, ascending-sorted P-values in (0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidInputError("a P-value series must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("P-values must be finite")
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise InvalidInputError("P-values must lie in (0, 1]")
        if np.any(np.diff(v) < 0.0):
            raise InvalidInputError("P-values must be sorted ascending; use from_unsorted()")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_unsorted(cls, values) -> "PValueSeries":
        v = np.sort(np.asarray(values, dtype=float))
        return cls(v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


SeriesLike = Union[PValueSeries, Sequence[float], np.ndarray]


def as_series(series: SeriesLike) -> PValueSeries:
    """Coerce raw (possibly unsorted) values into a validated series."""
    if isinstance(series, PValueSeries):
        return series
    return PValueSeries.from_unsorted(series)


@dataclass(frozen=True)
class HcResult:
    """Score of one HC-family statistic.

    argmax_index is 1-based (the order statistic achieving the max) and None
    when the statistic has no maximizer (ALR, or an empty index range).
    empty_range flags a degenerate maximization; excluded counts indices
    dropped because a divergence term was infinite.
    """

    score: float
    argmax_index: Optional[int]
    variant: str
    alpha0: float
    empty_range: bool = False
    excluded: int = 0


def hc_at_level(n: int, alpha: float, count_significant: int) -> float:
    """Second-level significance score at one fixed level alpha.

    sqrt(n) * (count/n - alpha) / sqrt(alpha*(1-alpha)), the z-statistic for
    the observed fraction of significant tests against its null expectation.
    """
    if n < 1:
        raise InvalidInputError(f"n must be positive, got {n}")
    _check_level(alpha)
    if not 0 <= count_significant <= n:
        raise InvalidInputError(f"count_significant must lie in [0, {n}], got {count_significant}")
    frac = count_significant / n
    return math.sqrt(n) * (frac - alpha) / math.sqrt(alpha * (1.0 - alpha))


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie strictly inside (0, 1), got {alpha}")


def _check_variant(variant: str) -> None:
    if variant not in ("star", "plus"):
        raise InvalidInputError(f"variant must be 'star' or 'plus', got {variant!r}")


def _check_mixture(epsilon: float, tau: float) -> None:
    # The rare/weak mixture (1 - epsilon) N(0, 1) + epsilon N(tau, 1).
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not math.isfinite(tau):
        raise InvalidInputError(f"tau must be finite, got {tau}")


def _check_replicates(replicates: int) -> None:
    if replicates < 100:
        raise InvalidInputError(f"need replicates >= 100, got {replicates}")


def _floor_index(alpha0: float, n: int) -> int:
    # floor(alpha0*n) for alpha0 in (0, 1], with a tiny epsilon so exact products
    # are not lost to binary rounding (0.29*100 is 28.999... in floats).
    if not 0.0 < alpha0 <= 1.0:
        raise InvalidInputError(f"alpha0 must lie in (0, 1], got {alpha0}")
    return int(math.floor(alpha0 * n + 1e-9))


def _index_range(alpha0: float, n: int) -> int:
    """k_max = floor(alpha0*N) for alpha0 in (0, 1], refusing an empty range."""
    k_max = _floor_index(alpha0, n)
    if k_max < 1:
        raise InvalidInputError(f"empty index range: floor(alpha0*N) = {k_max}")
    return k_max


def _components(p: np.ndarray, n: int) -> np.ndarray:
    """Components i = 1..k of series of size n, given their k smallest P-values.

    ``p`` is (k,) or (batch, k), one ascending row per series. The p = 1 rule
    is the one documented on hc_components.
    """
    k = p.shape[-1]
    i = np.arange(1, k + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sqrt(n) * (i/n - p) / sqrt(p * (1 - p)), one operation at a time.
        comp = np.subtract(i / n, p)
        np.multiply(math.sqrt(n), comp, out=comp)
        den = np.subtract(1.0, p)
        np.multiply(p, den, out=den)
        np.sqrt(den, out=den)
        np.divide(comp, den, out=comp)
    # Rows ascend, so a p = 1 shows in the last column of its row.
    if (p[..., -1:] == 1.0).any():
        at_one = p == 1.0
        comp[at_one] = -np.inf
        if k == n:
            # p == 1 in the last slot means i/N == p == 1: a zero component.
            comp[..., -1] = np.where(at_one[..., -1], 0.0, comp[..., -1])
    return comp


def hc_components(series: SeriesLike) -> np.ndarray:
    """All N component scores sqrt(N)*(i/N - p_(i))/sqrt(p_(i)(1-p_(i))).

    A P-value exactly 1 has zero denominator: the component is defined as 0
    when i == N (both sides of the comparison are 1) and excluded (-inf)
    otherwise.
    """
    s = as_series(series)
    return _components(s.values, s.n)


def hc_component(i: int, series: SeriesLike) -> float:
    """Single component score, 1-based index."""
    s = as_series(series)
    if not 1 <= i <= s.n:
        raise InvalidInputError(f"index must lie in [1, {s.n}], got {i}")
    return float(hc_components(s)[i - 1])


def _first_max(window: np.ndarray, lo: int, variant: str, alpha0: float) -> HcResult:
    """First max of ``window``, whose entry j has 1-based index lo + j + 1; -inf if none > -inf."""
    if window.size == 0 or not np.any(window > -np.inf):
        return HcResult(-math.inf, None, variant, alpha0, empty_range=True)
    k = int(np.argmax(window))  # first occurrence: ties resolve to smallest i
    return HcResult(float(window[k]), lo + k + 1, variant, alpha0)


def _max_over(values: np.ndarray, lo: int, hi: int, variant: str, alpha0: float) -> HcResult:
    """Max component of an ascending series over its 1-based indices lo < i <= hi."""
    return _first_max(_components(values[:hi], values.size)[lo:], lo, variant, alpha0)


def hc_star(series: SeriesLike, alpha0: float = 0.5) -> HcResult:
    """Orthodox HC: max component over 1 <= i <= floor(alpha0*N)."""
    s = as_series(series)
    return _max_over(s.values, 0, _index_range(alpha0, s.n), "star", alpha0)


def hc_plus(series: SeriesLike, alpha0: float = 0.5) -> HcResult:
    """HC restricted to p_(i) > 1/N, taming the fat tail of hc_star.

    Returns score -inf with empty_range=True when no index qualifies.
    """
    s = as_series(series)
    k_max = _index_range(alpha0, s.n)
    lo = int(np.searchsorted(s.values[:k_max], 1.0 / s.n, "right"))
    return _max_over(s.values, lo, k_max, "plus", alpha0)


def ohc_plus_band(series: SeriesLike, p_min: Optional[float] = None, p_max: float = 0.5) -> HcResult:
    """HC maximized over the P-value band p_min <= p_(i) <= p_max.

    This is the restriction used for covariance-structure tests; the default
    band is [1/N, 1/2]. Contrast with hc_star/hc_plus, whose restriction is on
    the index rather than the P-value.
    """
    s = as_series(series)
    if p_min is None:
        p_min = 1.0 / s.n
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise InvalidInputError(f"need 0 <= p_min <= p_max <= 1, got [{p_min}, {p_max}]")
    lo = int(np.searchsorted(s.values, p_min, "left"))
    hi = int(np.searchsorted(s.values, p_max, "right"))
    return _max_over(s.values, lo, hi, "plus", p_max)


def hc_feature_scores(series: SeriesLike) -> np.ndarray:
    """Feature-selection variant: denominator uses (i/N)(1-i/N), not the P-value.

    Returns scores for i = 1..N-1 (the i = N denominator is zero).
    """
    s = as_series(series)
    n = s.n
    if n < 2:
        raise InvalidInputError("feature scores need N >= 2")
    i = np.arange(1, n, dtype=float)
    frac = i / n
    return math.sqrt(n) * (frac - s.values[:-1]) / np.sqrt(frac * (1.0 - frac))


def berk_jones(series: SeriesLike) -> HcResult:
    """Berk-Jones: max over i of N * D(p_(i), i/N) with the binomial KL D.

    Infinite divergence terms (a P-value pinned at 0/1 against a mismatched
    i/N, notably i = N with p < 1) are excluded from the max and counted in
    the result's ``excluded`` field. An empty max is 0 by convention.
    """
    s = as_series(series)
    n = s.n
    i_frac = np.arange(1, n + 1, dtype=float) / n
    terms = n * binomial_kl_array(s.values, i_frac)
    finite = np.isfinite(terms)
    best = _first_max(np.where(finite, terms, -np.inf), 0, "bj", 1.0)
    return replace(best, score=0.0 if best.empty_range else best.score,
                   excluded=int((~finite).sum()))


def avg_likelihood_ratio(series: SeriesLike, alpha0: float = 0.5) -> float:
    """log of the Average Likelihood Ratio statistic.

    ALR = sum_{i<=alpha0*N} LR_i / (2 i log(N/3)) with
    LR_i = exp(N * max(D(p_(i), i/N), 0)); the sum is evaluated in log space
    because LR terms overflow for N in the thousands.
    """
    s = as_series(series)
    n = s.n
    if n <= 3:
        raise InvalidInputError(f"ALR needs N >= 4 so that log(N/3) > 0, got N = {n}")
    k_max = _index_range(alpha0, n)
    i = np.arange(1, k_max + 1, dtype=float)
    div = binomial_kl_array(s.values[:k_max], i / n)
    log_lr = n * np.maximum(div, 0.0)
    log_w = -np.log(2.0 * i * math.log(n / 3.0))
    return float(logsumexp(log_w + log_lr))


def empirical_cdf_on_grid(series: SeriesLike) -> np.ndarray:
    """F_N(i/N) for i = 1..N, where F_N is the empirical CDF of the series."""
    s = as_series(series)
    grid = np.arange(1, s.n + 1, dtype=float) / s.n
    return np.searchsorted(s.values, grid, side="right") / s.n


def _gof_max(num: np.ndarray, f0_vals: np.ndarray, n: int, i_min: int, alpha0: float) -> float:
    k_max = _floor_index(alpha0, n)
    if not 1 <= i_min <= k_max:
        raise InvalidInputError(f"empty index range [{i_min}, {k_max}] for N = {n}")
    sel = slice(i_min - 1, k_max)
    f0 = f0_vals[sel]
    valid = (f0 > 0.0) & (f0 < 1.0)
    if not valid.any():
        raise InvalidInputError("F0 hits {0, 1} on the whole restricted range")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(num[sel]) / np.sqrt(f0 * (1.0 - f0))
    return math.sqrt(n) * float(np.max(ratio[valid]))


def gof_theoretical(fn_on_grid, f0: Callable[[np.ndarray], np.ndarray],
                    i_min: int = 2, alpha0: float = 0.5) -> float:
    """Theoretically standardized goodness of fit.

    sqrt(N) * max_i |F_N(i/N) - F0(i/N)| / sqrt(F0(i/N)(1-F0(i/N))), the max
    restricted to i_min <= i <= floor(alpha0*N). ``fn_on_grid`` holds the
    empirical CDF evaluated at i/N for i = 1..N (see empirical_cdf_on_grid).
    Refuses alpha0 outside (0, 1] and an empty index range.
    """
    fn = np.asarray(fn_on_grid, dtype=float)
    n = fn.size
    grid = np.arange(1, n + 1, dtype=float) / n
    f0_vals = np.asarray(f0(grid), dtype=float)
    return _gof_max(fn - f0_vals, f0_vals, n, i_min, alpha0)


def gof_empirical(series: SeriesLike, f0: Callable[[np.ndarray], np.ndarray],
                  i_min: int = 2, alpha0: float = 0.5) -> float:
    """Empirically standardized goodness of fit.

    sqrt(N) * max_i |i/N - F0(p_(i))| / sqrt(F0(p_(i))(1-F0(p_(i)))), same
    index restriction (and refusals) as gof_theoretical. With F0 = identity
    and the restriction removed this is max_i |hc_component(i)|.
    """
    s = as_series(series)
    n = s.n
    grid = np.arange(1, n + 1, dtype=float) / n
    f0_vals = np.asarray(f0(s.values), dtype=float)
    return _gof_max(grid - f0_vals, f0_vals, n, i_min, alpha0)


def bh_fdr_select(series: SeriesLike, q: float) -> int:
    """Benjamini-Hochberg selection count at FDR level q.

    Returns the largest k with p_(k) <= q*k/N (0 if none); BH rejects exactly
    the k smallest P-values.
    """
    s = as_series(series)
    if not 0.0 < q < 1.0:
        raise InvalidInputError(f"q must lie strictly inside (0, 1), got {q}")
    i = np.arange(1, s.n + 1, dtype=float)
    hits = np.flatnonzero(s.values <= q * i / s.n)
    return int(hits[-1]) + 1 if hits.size else 0


def hc_scores_sorted_batch(sorted_pvalues: np.ndarray, variant: str = "plus",
                           alpha0: float = 0.5) -> np.ndarray:
    """HC scores for a batch of pre-sorted series, one row per series.

    The Monte Carlo kernel behind critical-value simulation and the detection
    experiments: no per-row validation. Only the first k_max = floor(alpha0*N)
    entries of each row are read, N being the row width; they must be the
    row's k_max smallest P-values, ascending and inside (0, 1], and the rest
    of the row may hold anything. Rows whose restricted range is empty score
    -inf.
    """
    p = np.asarray(sorted_pvalues, dtype=float)
    if p.ndim != 2:
        raise InvalidInputError("expected a 2-D array (batch, N)")
    _check_variant(variant)
    n = p.shape[1]
    ps = p[:, :_index_range(alpha0, n)]
    comp = _components(ps, n)
    if variant == "plus":
        np.copyto(comp, -np.inf, where=ps <= 1.0 / n)  # the plus variant's guard
    return comp.max(axis=1)


def empirical_quantile(scores: np.ndarray, alpha: float) -> float:
    """(1-alpha) quantile as the order statistic at ceil((1-alpha)*R)."""
    _check_level(alpha)
    s = np.sort(np.asarray(scores, dtype=float))
    idx = int(math.ceil((1.0 - alpha) * s.size - 1e-9))
    return float(s[min(max(idx, 1), s.size) - 1])
