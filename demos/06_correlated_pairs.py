"""
Sparse correlated pairs among independent ones
==============================================

Bivariate observations, distribution unknown: are a small fraction of the
pairs correlated/shifted while the bulk is independent? Work on ranks, count
pairs in the nested upper-right corners S_k, standardize against the
independence expectation n(1-k/n)^2, and maximize.
"""

import numpy as np

from hicrit.numerics import RngSeed
from hicrit.pairhc import (PAPER_SETTINGS, RankedPairs, corner_counts, pair_hc_components,
                           pair_hc_star, sample_bivariate_mixture, simulate_pair_scores)

# One contaminated sample: 5% of pairs get mean (1,1) and correlation 0.25.
n = 1000
x, y = sample_bivariate_mixture(n, 0.05, 1.0, 0.25, seed=0)
pairs = RankedPairs.from_data(x, y)
counts = corner_counts(pairs)
comp = pair_hc_components(pairs)
res = pair_hc_star(pairs)

print(f"n = {n}, (eps, tau, rho) = (0.05, 1, 0.25)")
print(f"pairHC* = {res.score:.2f} at corner k = {res.argmax_index} "
      f"(S_k = {counts[res.argmax_index - 1]}, null mean "
      f"{n * (1 - res.argmax_index / n) ** 2:.1f})")

# Rank invariance: any monotone distortion of either axis changes nothing.
res_t = pair_hc_star(RankedPairs.from_data(np.exp(x), y ** 3))
print(f"after monotone transforms: pairHC* = {res_t.score:.2f} (identical)")

# The reference settings grid: null first, then increasingly rare/weak
# contamination. Medians over 30 draws against the null 95th percentile.
null_scores = []
for s in range(60):
    g = RngSeed(1, s).generator()
    null_scores.append(pair_hc_star(
        RankedPairs.from_data(g.standard_normal(n), g.standard_normal(n))).score)
threshold = np.percentile(null_scores, 95)
print(f"\nnull 95th percentile: {threshold:.2f}")
print(f"{'eps':>6} {'tau':>5} {'rho':>5} {'median pairHC*':>15}")
for i, setting in enumerate(PAPER_SETTINGS):
    # Draw s of setting i comes from the Philox stream RngSeed(10 + i, s).
    scores = simulate_pair_scores(n, setting["epsilon"], setting["tau"], setting["rho"],
                                  30, seed=10 + i)
    print(f"{setting['epsilon']:>6} {setting['tau']:>5} {setting['rho']:>5} "
          f"{np.median(scores):>15.2f}")
