"""The philox4x64-v1 HC Monte Carlo samplers, kept as law references only.

They draw N-wide rows and sort them: a uniform null, and a Gaussian mixture
flagged coordinate by coordinate and transformed in full. The package now
draws the same laws in P-value space; tests compare the two by two-sample
KS. Both are stream-runner kernels: ``kernel(params, b, rng)`` returns b
scores.
"""

import numpy as np
from scipy.special import ndtr

from hicrit.hc_core import hc_scores_sorted_batch
from hicrit.numerics import clamp_pvalues


def null_batch_v1(params, b, rng):
    """(N, variant, alpha0): sorted uniforms, exact zeros lifted to the clamp."""
    N, variant, alpha0 = params
    p = rng.random((b, N))
    p.sort(axis=-1)
    np.maximum(p, 1e-300, out=p)
    return hc_scores_sorted_batch(p, variant, alpha0)


def mixture_batch_v1(params, b, rng):
    """(N, eps, tau, variant, alpha0): N(0,1) + tau on each coordinate with
    probability eps, one-sided P-values of all N, sorted."""
    n, eps, tau, variant, alpha0 = params
    x = rng.standard_normal((b, n))
    if eps > 0.0:
        x += tau * (rng.random((b, n)) < eps)
    p = clamp_pvalues(ndtr(-x))
    p.sort(axis=-1)
    return hc_scores_sorted_batch(p, variant, alpha0)
