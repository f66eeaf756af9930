"""HC tests against covariance structure: hidden cliques and low-rank spikes.

Clique detection turns pairwise (or row-maximum) sample correlations into
P-values via exact t-distribution identities under the identity covariance,
then applies HC restricted to the P-value band [1/N, 1/2]. Spike detection
standardizes sorted eigenvalues of the empirical covariance against a
Monte Carlo null profile of per-rank means and standard deviations.

The profile is simulated in this process. Each replicate is one eigvalsh on a
multi-threaded BLAS, so pool workers oversubscribe the cores. On a 2-core host,
whole cov-eigen runs with a 500-replicate profile took 1.64 s on two pool
workers against 0.87 s in one process at 120 x 120 (1.41 s against 0.70 s at
112 x 128), and with 200 replicates at 300 x 300 3.4-7.7 s against 2.0-3.1 s.
A pool won only where the Gram matrix is small: 0.58-0.60 s against 0.69-0.70 s
at 60 x 400 and 400 x 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _store, _streams
from .errors import InvalidInputError
from .hc_core import (HcResult, PValueSeries, _check_replicates, _first_max, _floor_index,
                      ohc_plus_band)
from .numerics import (RNG_VERSION, RngSeed, as_generator, as_seed, clamp_pvalues, student_t_cdf,
                       student_t_sf)

__all__ = [
    "CorrelationSummary",
    "correlation_summary",
    "pairwise_pvalue",
    "rowmax_cdf",
    "rowmax_pvalue",
    "clique_test",
    "make_clique_sigma",
    "sample_gaussian",
    "EigenNullProfile",
    "eigen_null_profile",
    "EigenHcResult",
    "eigen_hc_test",
    "make_spiked_sigma",
    "haar_orthogonal",
    "save_profile",
    "load_profile",
    "eigen_null_profile_cached",
]

_RHO_EPS = 1e-15
_PROFILE_STREAM_BLOCK = 64


@dataclass(frozen=True)
class CorrelationSummary:
    """All p(p-1)/2 pairwise correlations plus each row's maximum."""

    pairwise: np.ndarray
    rowmax: np.ndarray
    n: int
    p: int


def correlation_summary(X, center: bool = True) -> CorrelationSummary:
    """Pairwise and row-max correlations of the columns of X.

    Columns are mean-centered by default (real data rarely has exact zero
    means); pass center=False for data already known to be zero-mean.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 3 or X.shape[1] < 2:
        raise InvalidInputError("X must be an n x p matrix with n >= 3 and p >= 2")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("X must not contain NaN or Inf")
    n, p = X.shape
    Y = X - X.mean(axis=0) if center else X
    norms = np.sqrt((Y * Y).sum(axis=0))
    if np.any(norms == 0.0):
        j = int(np.argmax(norms == 0.0))
        raise InvalidInputError(f"column {j} is constant")
    Y = Y / norms
    R = Y.T @ Y
    np.clip(R, -1.0 + _RHO_EPS, 1.0 - _RHO_EPS, out=R)
    iu = np.triu_indices(p, k=1)
    pairwise = R[iu]
    np.fill_diagonal(R, -np.inf)
    return CorrelationSummary(pairwise, R.max(axis=1), n, p)


def _rho_to_t(rho, n: int):
    """(t, df): the t statistic of a sample correlation and its degrees of freedom."""
    if n < 3:
        raise InvalidInputError(f"need n >= 3, got {n}")
    df = n - 1
    rho = np.clip(np.asarray(rho, dtype=float), -1.0 + _RHO_EPS, 1.0 - _RHO_EPS)
    return math.sqrt(df) * rho / np.sqrt(1.0 - rho * rho), df


def pairwise_pvalue(rho, n: int, side: str = "two"):
    """P-value of one pairwise correlation under the identity covariance.

    P(rho_ij >= rho) = P(t_{n-1} >= sqrt(n-1) rho / sqrt(1-rho^2)); the
    two-sided version is 2 P(t_{n-1} >= |t|), which keeps the tail precision
    of negative correlations. |rho| = 1 is clamped to the open interval
    before the transform.
    """
    if side not in ("upper", "two"):
        raise InvalidInputError(f"side must be 'upper' or 'two', got {side!r}")
    t, df = _rho_to_t(rho, n)
    return clamp_pvalues(student_t_sf(t, df) if side == "upper"
                         else 2.0 * student_t_sf(np.abs(t), df))


def _rowmax_t(rho, n: int, p: int):
    if p < 2:
        raise InvalidInputError(f"need p >= 2, got {p}")
    return _rho_to_t(rho, n)


def rowmax_cdf(rho, n: int, p: int):
    """F_{p,n}(rho) = P(max of a row's p-1 correlations <= rho) under the null."""
    t, df = _rowmax_t(rho, n, p)
    return student_t_cdf(t, df) ** (p - 1)


def rowmax_pvalue(rho, n: int, p: int):
    """Upper-tail P-value 1 - F_{p,n}(rho) for a row-maximum correlation, computed as
    -expm1((p-1) log1p(-sf)) from the t upper tail sf so that no digits cancel."""
    t, df = _rowmax_t(rho, n, p)
    sf = student_t_sf(t, df)
    with np.errstate(divide="ignore"):  # sf == 1: log1p gives -inf, the P-value 1
        return clamp_pvalues(-np.expm1((p - 1) * np.log1p(-sf)))


def clique_test(X, mode: str = "pairwise", alpha0: float = 0.5, side: str = "two",
                center: bool = True) -> HcResult:
    """HC score for 'is there a correlated clique hiding in the columns of X'.

    mode 'pairwise' feeds all p(p-1)/2 pairwise-correlation P-values to HC;
    mode 'rowmax' uses the p row-maximum P-values instead (cheaper, less
    powerful). The max runs over the P-value band [1/N, alpha0].
    """
    if mode not in ("pairwise", "rowmax"):
        raise InvalidInputError(f"mode must be 'pairwise' or 'rowmax', got {mode!r}")
    summary = correlation_summary(X, center=center)
    if mode == "pairwise":
        pvals = pairwise_pvalue(summary.pairwise, summary.n, side=side)
    else:
        pvals = rowmax_pvalue(summary.rowmax, summary.n, summary.p)
    return ohc_plus_band(PValueSeries(np.sort(pvals)), p_max=alpha0)


def make_clique_sigma(p: int, k: int, a: float) -> np.ndarray:
    """Identity covariance with a k x k equi-correlated block of strength a.

    Positive definiteness requires -1/(k-1) < a < 1 (any a is accepted for
    k = 1, where the block is trivial).
    """
    if not 1 <= k <= p:
        raise InvalidInputError(f"need 1 <= k <= p, got k={k}, p={p}")
    if k >= 2 and not (-1.0 / (k - 1) < a < 1.0):
        raise InvalidInputError(
            f"a must lie in (-1/(k-1), 1) = ({-1.0 / (k - 1):.6g}, 1) for k={k}, got {a}")
    sigma = np.eye(p)
    if k >= 2:
        block = np.full((k, k), a)
        np.fill_diagonal(block, 1.0)
        sigma[:k, :k] = block
    return sigma


def sample_gaussian(n: int, sigma: np.ndarray, seed=0) -> np.ndarray:
    """n i.i.d. rows from N(0, sigma).

    Refuses a sigma that is not square, not finite, not exactly symmetric (the
    Cholesky factor reads only the lower triangle) or not positive definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidInputError("sigma must be a square matrix")
    if not np.all(np.isfinite(sigma)):
        raise InvalidInputError("sigma must not contain NaN or Inf")
    if not np.array_equal(sigma, sigma.T):
        raise InvalidInputError("sigma must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise InvalidInputError("sigma must be positive definite") from None
    rng = as_generator(seed)
    return rng.standard_normal((n, sigma.shape[0])) @ chol.T


def _sorted_eigenvalues(X: np.ndarray) -> np.ndarray:
    """The min(n, p) eigenvalues of X'X/n, descending, via the smaller Gram matrix."""
    n, p = X.shape
    gram = (X.T @ X if p <= n else X @ X.T) / n
    return np.linalg.eigvalsh(gram)[::-1]


@dataclass(frozen=True)
class EigenNullProfile:
    """Per-rank null means and standard deviations of the sorted eigenvalues."""

    n: int
    p: int
    means: np.ndarray
    sds: np.ndarray
    replicates: int
    seed: RngSeed
    rng_version: str = RNG_VERSION

    @property
    def m(self) -> int:
        return int(self.means.size)


def _profile_batch(params, b: int, rng) -> np.ndarray:
    return np.stack([_sorted_eigenvalues(rng.standard_normal(params)) for _ in range(b)])


def eigen_null_profile(n: int, p: int, replicates: int = 500, seed=0) -> EigenNullProfile:
    """Simulate the null eigenvalue profile for an n x p standard normal matrix.

    Runs in this process: pool workers would oversubscribe the BLAS threads of
    each eigvalsh (see the module docstring)."""
    _check_replicates(replicates)
    if n < 2 or p < 2:
        raise InvalidInputError(f"need n, p >= 2, got n={n}, p={p}")
    base = as_seed(seed)
    eigs = _streams.run(_profile_batch, (n, p), replicates, _PROFILE_STREAM_BLOCK, n * p,
                        base, 1)
    return EigenNullProfile(n, p, eigs.mean(axis=0), eigs.std(axis=0, ddof=1),
                            replicates, base)


@dataclass(frozen=True)
class EigenHcResult:
    """Standardized eigenvalue excesses and their restricted maximum."""

    components: np.ndarray
    score: float
    argmax_rank: int
    alpha0: float


def eigen_hc_test(X, profile: EigenNullProfile, alpha0: float = 0.5) -> EigenHcResult:
    """Standardize each sorted eigenvalue of X'X/n by its null mean/SD and maximize.

    The max runs over the top max(1, floor(alpha0 * min(n, p))) ranks. Refuses
    an X whose shape is not the profile's or that holds NaN or Inf, a profile
    whose means are not all finite or whose sds are not all positive, and alpha0
    outside (0, 1].
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (profile.n, profile.p):
        raise InvalidInputError(
            f"X has shape {X.shape}, profile was simulated for ({profile.n}, {profile.p})")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("X must not contain NaN or Inf")
    if not np.all(np.isfinite(profile.means)):
        raise InvalidInputError("profile means must all be finite")
    if not np.all(profile.sds > 0.0):
        raise InvalidInputError("profile sds must all be positive")
    k_max = max(1, _floor_index(alpha0, profile.m))
    comp = (_sorted_eigenvalues(X) - profile.means) / profile.sds
    best = _first_max(comp[:k_max], 0, "eigen", alpha0)
    return EigenHcResult(comp, best.score, best.argmax_index, float(alpha0))


def haar_orthogonal(p: int, seed=0) -> np.ndarray:
    """Haar-distributed p x p orthogonal matrix (QR with sign correction)."""
    rng = as_generator(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


def make_spiked_sigma(p: int, rank: int, h: float, seed=0) -> np.ndarray:
    """Spiked covariance Q diag(1+h, ..., 1+h, 1, ..., 1) Q' with Haar Q.

    Refuses a rank outside [0, p) and an h that is not above -1 (NaN too).
    """
    if not 0 <= rank < p:
        raise InvalidInputError(f"need 0 <= rank < p, got rank={rank}, p={p}")
    if not h > -1.0:
        raise InvalidInputError(f"need h > -1 for positive definiteness, got {h}")
    if rank == 0 or h == 0.0:
        return np.eye(p)
    q = haar_orthogonal(p, seed)
    lam = np.ones(p)
    lam[:rank] = 1.0 + h
    sigma = (q * lam) @ q.T
    return (sigma + sigma.T) / 2.0


# ---------------------------------------------------------------------------
# Profile cache: "eigen_profile" records in the shared record store.

def _profile(prm, value, **provenance) -> EigenNullProfile:
    n, p = int(prm["n"]), int(prm["p"])
    m = min(n, p)
    means, sds = (np.array(value[k], dtype=float) for k in ("means", "sds"))
    if not means.shape == sds.shape == (m,):
        raise ValueError(f"expected {m} means and sds")
    if not np.isfinite((means, sds)).all():
        raise ValueError("means and sds must be finite")
    return EigenNullProfile(n, p, means, sds, **provenance)


def save_profile(path, profile: EigenNullProfile) -> None:
    """Store ``profile`` unless a profile with the same identity is already stored."""
    _store.append(path, "eigen_profile", {"n": int(profile.n), "p": int(profile.p)}, profile,
                  {"means": profile.means.tolist(), "sds": profile.sds.tolist()})


def load_profile(path, n: int, p: int, min_replicates: int = 1) -> Optional[EigenNullProfile]:
    """Best stored profile for (n, p) with enough replicates (``_store.best``), or None."""
    return _store.best([prof for prof in _store.read(path, "eigen_profile", _profile)
                        if (prof.n, prof.p) == (n, p)], min_replicates)


def eigen_null_profile_cached(n: int, p: int, replicates: int, seed=0,
                              cache_path=None) -> EigenNullProfile:
    """Load a cached profile or simulate one and store it; replicates and seed are
    checked before the cache is read."""
    _check_replicates(replicates)
    seed = as_seed(seed)
    if cache_path:
        hit = load_profile(cache_path, n, p, min_replicates=replicates)
        if hit is not None:
            return hit
    profile = eigen_null_profile(n, p, replicates, seed)
    if cache_path:
        save_profile(cache_path, profile)
    return profile
