"""Independent brute-force reference implementations for the test suite.

Everything here is written the slow, obvious way (scalar double loops,
mpmath where overflow threatens) and must stay independent of the package's
vectorized code paths.
"""

import math

import mpmath


def hc_component_brute(i, n, p):
    return math.sqrt(n) * (i / n - p) / math.sqrt(p * (1.0 - p))


def hc_star_brute(sorted_pvalues, alpha0):
    """Max component over 1 <= i <= floor(alpha0*N), scalar double loop."""
    n = len(sorted_pvalues)
    k_max = int(math.floor(alpha0 * n + 1e-9))
    best, best_i = None, None
    for i in range(1, k_max + 1):
        p = sorted_pvalues[i - 1]
        if p == 1.0:
            if i == n:
                value = 0.0
            else:
                continue
        else:
            value = hc_component_brute(i, n, p)
        if best is None or value > best:
            best, best_i = value, i
    return best, best_i


def hc_plus_brute(sorted_pvalues, alpha0):
    n = len(sorted_pvalues)
    k_max = int(math.floor(alpha0 * n + 1e-9))
    best, best_i = None, None
    for i in range(1, k_max + 1):
        p = sorted_pvalues[i - 1]
        if p <= 1.0 / n:
            continue
        if p == 1.0:
            if i == n:
                value = 0.0
            else:
                continue
        else:
            value = hc_component_brute(i, n, p)
        if best is None or value > best:
            best, best_i = value, i
    return best, best_i


def kl_brute(p0, p1):
    if p1 in (0.0, 1.0):
        return 0.0 if p0 == p1 else math.inf
    total = 0.0
    if p0 > 0.0:
        total += p0 * math.log(p0 / p1)
    if p0 < 1.0:
        total += (1.0 - p0) * math.log((1.0 - p0) / (1.0 - p1))
    return total


def berk_jones_brute(sorted_pvalues):
    n = len(sorted_pvalues)
    best, best_i, excluded = None, None, 0
    for i in range(1, n + 1):
        term = n * kl_brute(sorted_pvalues[i - 1], i / n)
        if math.isinf(term):
            excluded += 1
            continue
        if best is None or term > best:
            best, best_i = term, i
    if best is None:
        return 0.0, None, excluded
    return best, best_i, excluded


def log_alr_brute(sorted_pvalues, alpha0):
    """log(ALR) by exact mpmath summation (LR terms overflow doubles)."""
    n = len(sorted_pvalues)
    k_max = int(math.floor(alpha0 * n + 1e-9))
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for i in range(1, k_max + 1):
            div = kl_brute(sorted_pvalues[i - 1], i / n)
            w = 1.0 / (2.0 * i * math.log(n / 3.0))
            total += w * mpmath.exp(n * max(div, 0.0))
        return float(mpmath.log(total))


def bh_select_brute(sorted_pvalues, q):
    n = len(sorted_pvalues)
    best = 0
    for k in range(1, n + 1):
        if sorted_pvalues[k - 1] <= q * k / n:
            best = k
    return best


def corner_counts_brute(ranks_x, ranks_y):
    n = len(ranks_x)
    out = []
    for k in range(1, n + 1):
        out.append(sum(1 for i in range(n) if min(ranks_x[i], ranks_y[i]) >= k))
    return out


def pair_component_brute(n, k, s_k):
    m = (1.0 - k / n) ** 2
    return math.sqrt(n) * (s_k / n - m) / math.sqrt(m * (1.0 - m))


def gof_empirical_brute(sorted_pvalues, f0, i_min, alpha0):
    n = len(sorted_pvalues)
    k_max = int(math.floor(alpha0 * n + 1e-9))
    best = None
    for i in range(i_min, k_max + 1):
        f = f0(sorted_pvalues[i - 1])
        if f <= 0.0 or f >= 1.0:
            continue
        value = abs(i / n - f) / math.sqrt(f * (1.0 - f))
        if best is None or value > best:
            best = value
    return math.sqrt(n) * best


def phase_rho_oracle(v):
    """Detection boundary via 50-digit arithmetic."""
    with mpmath.workdps(50):
        v = mpmath.mpf(v)
        if v <= mpmath.mpf(1) / 2:
            return mpmath.mpf(0)
        if v <= mpmath.mpf(3) / 4:
            return v - mpmath.mpf(1) / 2
        return (1 - mpmath.sqrt(1 - v)) ** 2


def phase_rho_theta_oracle(v, theta):
    with mpmath.workdps(50):
        v = mpmath.mpf(v)
        t = mpmath.mpf(theta)
        return (1 - t) * phase_rho_oracle(v / (1 - t))


def phase_qideal_oracle(v, r, theta):
    """(value, phase) with exact comparisons in 50-digit arithmetic."""
    with mpmath.workdps(50):
        v = mpmath.mpf(v)
        r = mpmath.mpf(r)
        if r > v:
            return 0.0, "I"
        if r > v / 3:
            return float((v - r) / (2 * r)), "II"
        return 1.0, "III"


def pairwise_two_sided_oracle(r, n):
    """P(|t_{n-1}| >= sqrt(n-1)|r|/sqrt(1-r^2)) = I_{1-r^2}((n-1)/2, 1/2), in mpmath."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        return float(mpmath.betainc(mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, 1 - r * r,
                                    regularized=True))


def rowmax_pvalue_oracle(r, n, p):
    """1 - (1 - P(t_{n-1} >= sqrt(n-1) r/sqrt(1-r^2)))^(p-1), in mpmath."""
    with mpmath.workdps(400):  # (1 - sf)^(p-1) must resolve sf near 1e-300
        r = mpmath.mpf(r)
        half = mpmath.betainc(mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, 1 - r * r,
                              regularized=True) / 2
        sf = half if r >= 0 else 1 - half
        return float(1 - (1 - sf) ** (p - 1))
