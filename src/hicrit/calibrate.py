"""Critical values h(N, alpha) for HC level-alpha testing.

Two routes: the Gumbel-limit closed form (cheap, accurate for the plus
variant at large N) and seeded Monte Carlo under the uniform null (the
reference, reproducing the usual simulated tables). The null is arw's
rare/weak mixture at epsilon = 0: a replicate draws only the floor(alpha0*N)
smallest uniform P-values, in order, through Renyi's representation of
uniform order statistics, and detect-sim draws its calibration stream so in
the one pool of its three streams. Simulated quantiles are persisted in the
JSON-lines record store (``_store``) so they are paid for once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _store, _streams, arw
from .errors import CacheMissError, InvalidInputError
from .hc_core import (PValueSeries, _check_level, _check_replicates, _check_variant,
                      _index_range, empirical_quantile, hc_plus, hc_star)
# Not called here: the benchmark's tracer resolves the kernel under this name.
from .hc_core import hc_scores_sorted_batch  # noqa: F401
from .numerics import RNG_VERSION, RngSeed, as_seed

__all__ = [
    "CriticalValueEntry",
    "gumbel_critical",
    "simulate_null_scores",
    "simulate_critical",
    "empirical_quantile",
    "resolve_critical",
    "critical_value",
    "level_alpha_test",
    "load_cache",
    "append_cache_entry",
]


@dataclass(frozen=True)
class CriticalValueEntry:
    """One immutable cache record: parameters in, simulated quantile out."""

    N: int
    alpha: float
    variant: str
    alpha0: float
    replicates: int
    seed: RngSeed
    quantile: float
    rng_version: str = RNG_VERSION


def gumbel_critical(N: int, alpha: float) -> float:
    """Closed-form h_G(N, alpha) from the Gumbel limit of the HC null.

    h_G = [c_N - log log(1/(1-alpha))] / b_N with b_N = sqrt(2 log log N) and
    c_N = 2 log log N + (1/2)[log log log N - log(4 pi)].
    """
    if N < 16:
        raise InvalidInputError(f"N must be >= 16 for the iterated logarithms, got {N}")
    _check_level(alpha)
    ll = math.log(math.log(N))
    b = math.sqrt(2.0 * ll)
    c = 2.0 * ll + 0.5 * (math.log(ll) - math.log(4.0 * math.pi))
    return (c - math.log(math.log(1.0 / (1.0 - alpha)))) / b


def simulate_null_scores(N: int, variant: str = "plus", alpha0: float = 0.5,
                         replicates: int = 10_000, seed: int | RngSeed = 0,
                         n_jobs: int = 1) -> np.ndarray:
    """HC scores of ``replicates`` independent uniform null series of size N.

    Drawn by arw's mixture sampler at epsilon = 0; deterministic for a given
    seed, independently of n_jobs: one Philox stream per arw.STREAM_BLOCK
    replicates. Refuses a variant other than 'star' or 'plus' and alpha0
    outside (0, 1] before any draw.
    """
    _check_variant(variant)
    _index_range(alpha0, N)
    if replicates < 1:
        raise InvalidInputError(f"replicates must be positive, got {replicates}")
    base = as_seed(seed)
    return _streams.run(*arw._mixture_job(N, 0.0, 0.0, variant, alpha0, replicates, base.seed,
                                          base.stream_id), n_jobs)


def simulate_critical(N: int, alpha: float, variant: str = "plus", alpha0: float = 0.5,
                      replicates: int = 100_000, seed: int | RngSeed = 0,
                      n_jobs: int = 1) -> CriticalValueEntry:
    """Monte Carlo critical value: empirical (1-alpha) null quantile."""
    _check_replicates(replicates)
    base = as_seed(seed)
    scores = simulate_null_scores(N, variant, alpha0, replicates, base, n_jobs=n_jobs)
    q = empirical_quantile(scores, alpha)
    return CriticalValueEntry(N, float(alpha), variant, float(alpha0), replicates, base, q)


# ---------------------------------------------------------------------------
# Cache: "critical_value" records in the shared record store.

def _entry(rec) -> CriticalValueEntry:
    prm = rec["params"]
    return CriticalValueEntry(int(prm["N"]), float(prm["alpha"]), prm["variant"],
                              float(prm["alpha0"]), rec["replicates"],
                              RngSeed(rec["seed"], rec["stream_id"]), float(rec["value"]),
                              rec["rng_version"])


def load_cache(path) -> list[CriticalValueEntry]:
    """Stored critical values, in file order."""
    return _store.read(path, "critical_value", _entry)


def append_cache_entry(path, entry: CriticalValueEntry) -> None:
    """Store ``entry`` unless an entry with the same identity is already stored."""
    params = {"N": int(entry.N), "alpha": float(entry.alpha), "variant": entry.variant,
              "alpha0": float(entry.alpha0)}
    _store.append(path, "critical_value", params, entry, float(entry.quantile))


def resolve_critical(N: int, alpha: float, variant: str = "plus",
                     policy: str = "gumbel_fallback", alpha0: float = 0.5,
                     replicates: int = 10_000, seed: int | RngSeed = 0,
                     cache_path: Optional[str] = None, n_jobs: int = 1,
                     ) -> tuple[float, str, Optional[CriticalValueEntry]]:
    """Resolve a critical value through the cache: (value, source, entry).

    source is 'cache', 'gumbel' or 'simulated'; entry is the cached or newly
    simulated record, None for the closed form. policy 'cache_only' raises
    CacheMissError on a miss; 'simulate_if_missing' simulates, stores, and
    returns; 'gumbel_fallback' returns the closed form on a miss without
    touching the cache. Hits require an exact (N, alpha, variant, alpha0)
    match; among those, ``_store.best`` picks the hit. A hit is returned
    whatever ``seed`` asks for: the entry names the seed that produced it.
    N, alpha, variant, alpha0 and replicates are checked before the cache is
    read, under every policy.
    """
    if policy not in ("cache_only", "simulate_if_missing", "gumbel_fallback"):
        raise InvalidInputError(f"unknown policy {policy!r}")
    _check_variant(variant)
    _index_range(alpha0, N)
    _check_level(alpha)
    _check_replicates(replicates)
    wanted = (N, float(alpha), variant, float(alpha0))
    hit = _store.best([e for e in (load_cache(cache_path) if cache_path else [])
                       if (e.N, e.alpha, e.variant, e.alpha0) == wanted], replicates)
    if hit is not None:
        return hit.quantile, "cache", hit
    if policy == "cache_only":
        raise CacheMissError(
            f"no cached critical value for N={N} alpha={alpha} variant={variant} "
            f"alpha0={alpha0} replicates>={replicates}")
    if policy == "gumbel_fallback":
        return gumbel_critical(N, alpha), "gumbel", None
    entry = simulate_critical(N, alpha, variant, alpha0, replicates, seed, n_jobs=n_jobs)
    if cache_path:
        append_cache_entry(cache_path, entry)
    return entry.quantile, "simulated", entry


def critical_value(N: int, alpha: float, variant: str = "plus", policy: str = "gumbel_fallback",
                   alpha0: float = 0.5, replicates: int = 10_000, seed: int | RngSeed = 0,
                   cache_path: Optional[str] = None, n_jobs: int = 1) -> float:
    """The value alone; see resolve_critical for the policies and cache hits."""
    return resolve_critical(N, alpha, variant, policy, alpha0, replicates, seed,
                            cache_path, n_jobs)[0]


def level_alpha_test(series: PValueSeries, critical, variant: str = "plus",
                     alpha0: float = 0.5) -> str:
    """Reject iff the chosen HC statistic strictly exceeds the critical value.

    ``critical`` may be a float or a CriticalValueEntry; an entry whose N does
    not match the series is refused, and so is a variant (given, or the
    entry's) other than 'star' or 'plus'.
    """
    if isinstance(critical, CriticalValueEntry):
        if critical.N != len(series):
            raise InvalidInputError(
                f"critical value was simulated for N={critical.N}, series has N={len(series)}")
        variant = critical.variant
        alpha0 = critical.alpha0
        threshold = critical.quantile
    else:
        threshold = float(critical)
    _check_variant(variant)
    stat = hc_star(series, alpha0) if variant == "star" else hc_plus(series, alpha0)
    return "reject" if stat.score > threshold else "retain"
