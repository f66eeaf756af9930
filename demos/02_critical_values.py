"""
Critical values for level-alpha HC testing
==========================================

Two ways to get h(N, alpha): the Gumbel-limit closed form (instant, good for
the plus variant) and seeded Monte Carlo under the uniform null (the
reference). Simulated values land in a JSON-lines cache file, one record per
value with the seed, stream and RNG version that produced it, so they are
computed once.
"""

import os
import tempfile

import numpy as np

from hicrit.calibrate import (empirical_quantile, gumbel_critical, level_alpha_test,
                              resolve_critical, simulate_null_scores)
from hicrit.hc_core import PValueSeries

# The closed form tracks the simulated plus-variant quantiles well; the star
# variant has a fat null tail the formula cannot see.
print("N = 1000, alpha0 = 1/2:")
print(f"{'alpha':>8} {'gumbel':>8} {'sim HC+':>8} {'sim HC*':>8}")
plus = simulate_null_scores(1000, "plus", 0.5, 20_000, seed=1)
star = simulate_null_scores(1000, "star", 0.5, 20_000, seed=1)
for alpha in (0.05, 0.01, 0.005, 0.001):
    print(f"{alpha:>8} {gumbel_critical(1000, alpha):8.2f} "
          f"{empirical_quantile(plus, alpha):8.2f} {empirical_quantile(star, alpha):8.2f}")

# Quantiles grow with N only very slowly: a handful of N values covers a wide
# range in practice.
print("\nHC+ 95% quantile versus N:")
for n in (1000, 5000, 25_000):
    q = empirical_quantile(simulate_null_scores(n, "plus", 0.5, 5000, seed=2), 0.05)
    print(f"  N = {n:>6}: {q:.2f}")

# The cache-backed resolver: simulate once, hit forever after.
with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "cache.jsonl")
    first = resolve_critical(2000, 0.05, "plus", "simulate_if_missing",
                             replicates=5000, seed=3, cache_path=cache)[0]
    # A hit ignores the seed asked for; the entry records the one that was used.
    again, source, entry = resolve_critical(2000, 0.05, "plus", "cache_only",
                                            replicates=5000, seed=99, cache_path=cache)
    print(f"\nsimulated h(2000, 0.05) = {first:.3f}; {source} hit returns {again:.3f} "
          f"(seed {entry.seed.seed}, stream {entry.seed.stream_id}, {entry.rng_version})")

    # Using it as a test: reject when the statistic exceeds the critical value.
    rng = np.random.default_rng(4)
    null_series = PValueSeries.from_unsorted(rng.uniform(size=2000))
    z = rng.standard_normal(2000)
    z[:40] += 2.2
    from hicrit.arw import pvalues_one_sided
    alt_series = pvalues_one_sided(z)
    print(f"null series:   {level_alpha_test(null_series, first)}")
    print(f"spiked series: {level_alpha_test(alt_series, first)}")
