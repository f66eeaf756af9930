"""Rank-based HC test for sparse correlated pairs in bivariate samples.

The statistic counts rank pairs landing in the nested upper-right corners,
S_k = #{i : min(r_i, s_i) >= k}, standardizes each count by the binomial mean
n(1-k/n)^2 and variance it would have if the corner indicators were
independent Bernoullis, and maximizes over the upper corner range. Ranks are
exchangeable, not i.i.d., and these moments are off where the statistic
looks: over 3,000 random permutations at n = 1000 the component's SD was
0.58, 0.84 and 0.98 at k = 500, 800 and 950, and its mean +0.05 to +0.07.
The components are not unit-variance z-scores; the null reference for
pair_hc_star is simulate_pair_scores at epsilon = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _streams
from .errors import InvalidInputError
from .hc_core import HcResult, _check_mixture, _first_max, _floor_index, _zscore
from .numerics import RngSeed, _freeze, as_generator, as_seed

__all__ = [
    "RankedPairs",
    "corner_counts",
    "pair_hc_components",
    "pair_hc_star",
    "sample_bivariate_mixture",
    "simulate_pair_scores",
    "PAPER_SETTINGS",
]

# The five (epsilon, tau, rho) settings used for the reference simulation
# grid; the first is the null.
PAPER_SETTINGS = (
    {"epsilon": 0.0, "tau": 0.0, "rho": 0.0},
    {"epsilon": 0.02, "tau": 2.5, "rho": 0.0},
    {"epsilon": 0.02, "tau": 2.0, "rho": 0.5},
    {"epsilon": 0.01, "tau": 2.5, "rho": 0.5},
    {"epsilon": 0.01, "tau": 3.0, "rho": 0.25},
)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties broken by (value, original index): a permutation."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


@dataclass(frozen=True)
class RankedPairs:
    """Two rank permutations of {1..n}, one per coordinate."""

    ranks_x: np.ndarray
    ranks_y: np.ndarray

    def __post_init__(self):
        rx = np.asarray(self.ranks_x, dtype=np.int64)
        ry = np.asarray(self.ranks_y, dtype=np.int64)
        if rx.shape != ry.shape or rx.ndim != 1 or rx.size < 1:
            raise InvalidInputError("rank vectors must be equal-length 1-D arrays")
        n = rx.size
        expected = np.arange(1, n + 1)
        if not (np.array_equal(np.sort(rx), expected) and np.array_equal(np.sort(ry), expected)):
            raise InvalidInputError("each rank vector must be a permutation of 1..n")
        _freeze(self, ranks_x=rx, ranks_y=ry)

    @classmethod
    def from_data(cls, x, y) -> "RankedPairs":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise InvalidInputError("x and y must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInputError("coordinates must be finite")
        return cls(_ranks(x), _ranks(y))

    @property
    def n(self) -> int:
        return int(self.ranks_x.size)


def corner_counts(pairs: RankedPairs) -> np.ndarray:
    """S_k = #{i : min(r_i, s_i) >= k} for k = 1..n, via suffix counts."""
    n = pairs.n
    mins = np.minimum(pairs.ranks_x, pairs.ranks_y)
    counts = np.bincount(mins, minlength=n + 1)[1:]
    return np.cumsum(counts[::-1])[::-1]


def pair_hc_components(pairs: RankedPairs) -> np.ndarray:
    """Standardized corner excesses sqrt(n)(S_k/n - m_k)/sqrt(m_k(1-m_k)).

    m_k = (1-k/n)^2 is the independence mean of S_k/n. Entry k is stored at
    index k-1; k = 1 is excluded (NaN) and k = n, where the variance
    vanishes, is defined as 0. The binomial variance overstates the spread of
    S_k under random ranks (the component's SD is about 0.6 at k = n/2), so
    calibrate against simulate_pair_scores at epsilon = 0.
    """
    n = pairs.n
    if n < 2:
        raise InvalidInputError("need at least 2 pairs")
    s = corner_counts(pairs)
    m = (1.0 - np.arange(1, n + 1, dtype=float) / n) ** 2
    comp = _zscore(s / n, m, n)
    comp[0] = np.nan
    comp[-1] = 0.0
    return comp


# pair_hc_star's default, also the one simulate_pair_scores checks before drawing.
_MIN_EXPECTED = 1.0


def pair_hc_star(pairs: RankedPairs, alpha0: float = 0.5,
                 min_expected: float = _MIN_EXPECTED) -> HcResult:
    """Max component over the upper corner range ceil((1-alpha0)n) <= k <= n-1.

    Corners whose null expected count n(1-k/n)^2 falls below ``min_expected``
    are skipped: with fewer than one expected observation, a single chance
    rank coincidence sends the standardized component through the roof, the
    same fat-tail pathology the p > 1/N rule cures for orthodox HC. Pass
    min_expected=0 for the unguarded maximum. The argmax_index field holds
    the maximizing k. Refuses alpha0 outside (0, 1], a min_expected that is
    not >= 0 (NaN too) and an empty corner range.
    """
    n = pairs.n
    _floor_index(alpha0, n)  # refuses alpha0 outside (0, 1]
    if not min_expected >= 0.0:
        raise InvalidInputError(f"min_expected must be >= 0, got {min_expected}")
    comp = pair_hc_components(pairs)
    k_lo, k_hi = _corner_range(n, alpha0, min_expected)
    return _first_max(comp[k_lo - 1:k_hi], k_lo - 1, "pair", alpha0)


def _corner_range(n: int, alpha0: float, min_expected: float) -> tuple[int, int]:
    """pair_hc_star's corner range (k_lo, k_hi), refusing an empty one."""
    k_lo = max(2, int(math.ceil((1.0 - alpha0) * n - 1e-9)))
    k_hi = n - 1
    if min_expected > 0.0:
        # n(1-k/n)^2 >= min_expected  <=>  k <= n - sqrt(n*min_expected)
        k_hi = min(k_hi, int(math.floor(n - math.sqrt(n * min_expected) + 1e-9)))
    if k_lo > k_hi:
        raise InvalidInputError(f"alpha0={alpha0} and n={n} leave an empty corner range "
                                f"[{k_lo}, {k_hi}]")
    return k_lo, k_hi


def _check_pair_mixture(epsilon: float, tau: float, rho: float) -> None:
    _check_mixture(epsilon, tau)
    if not abs(rho) < 1.0:
        raise InvalidInputError(f"need |rho| < 1, got {rho}")


def sample_bivariate_mixture(n: int, epsilon: float, tau: float, rho: float,
                             seed=0) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. pairs from (1-eps) N(0, I_2) + eps N(tau*1_2, [[1, rho], [rho, 1]]).

    Refuses epsilon outside [0, 1], a tau that is not finite and |rho| >= 1
    (NaN too).
    """
    _check_pair_mixture(epsilon, tau, rho)
    rng = as_generator(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    y = np.copy(z)
    flags = rng.random(n) < epsilon
    # Contaminated pairs: identical mean shift and correlation rho.
    y[flags] = rho * x[flags] + math.sqrt(1.0 - rho * rho) * z[flags]
    x = x + tau * flags
    y = y + tau * flags
    return x, y


def _simulation_batch(params, b: int, rng) -> np.ndarray:
    n, epsilon, tau, rho, alpha0 = params
    samples = (sample_bivariate_mixture(n, epsilon, tau, rho, seed=rng) for _ in range(b))
    return np.array([pair_hc_star(RankedPairs.from_data(x, y), alpha0).score for x, y in samples])


def simulate_pair_scores(n: int, epsilon: float, tau: float, rho: float, reps: int,
                         seed: int | RngSeed, alpha0: float = 0.5) -> np.ndarray:
    """pair_hc_star scores of ``reps`` mixture samples of n pairs.

    ``seed`` is an int or an RngSeed; with base = as_seed(seed), replicate k
    is drawn from its own Philox stream base.stream_id + k, so an int seed s
    draws RngSeed(s, k). Refuses what sample_bivariate_mixture refuses,
    alpha0 outside (0, 1], an empty corner range and a Generator seed before
    any draw.
    """
    if n < 2:
        raise InvalidInputError(f"need at least 2 pairs, got n={n}")
    if reps < 1:
        raise InvalidInputError(f"reps must be positive, got {reps}")
    _check_pair_mixture(epsilon, tau, rho)
    _floor_index(alpha0, n)
    _corner_range(n, alpha0, _MIN_EXPECTED)
    return _streams.run(_simulation_batch, (n, epsilon, tau, rho, alpha0), reps, 1, 2 * n,
                        as_seed(seed), 1)
