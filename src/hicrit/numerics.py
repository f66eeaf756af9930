"""Distribution primitives and seeded RNG streams used throughout the package.

The normal CDF goes through the complementary error function and the Student t
CDF through the regularized incomplete beta, so both stay accurate deep in the
tails (P-values down to ~1e-300 at millions of tests). All P-value producers
clamp into [MIN_PVALUE, 1.0] because the HC objective divides by pi*(1-pi).

This module is the package's one owner of scipy. It imports ``scipy.special``
on first use, inside ``_special``: that import costs more than the rest of the
package together, and the HC kernel, Berk-Jones, the HCT decision rule, the
pair statistic and the phase table need no normal or t tail at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Lower clamp for P-values; keeps log() and the HC denominator finite.
MIN_PVALUE = 1e-300

# Recorded in cache files and manifests: changing what a seed draws invalidates
# stored values. v3: permtest shuffles the labels (one argsorted key row per
# shuffle) instead of every column, so its shuffle scores for a seed differ from
# v2; stored critical values and eigen profiles miss once and are simulated again.
RNG_VERSION = "philox4x64-v3"


@dataclass(frozen=True)
class RngSeed:
    """A reproducible stream identity: (seed, stream_id) -> one Philox stream.

    Philox is counter-based, so every (seed, stream_id) pair yields an
    independent stream regardless of how many workers consume them.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidInputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= int(self.stream_id) < 2**64):
            raise InvalidInputError(
                f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        # 128-bit Philox key: low word = seed, high word = stream_id.
        key = (int(self.stream_id) << 64) | int(self.seed)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "RngSeed":
        """Derive a sibling stream with the same base seed."""
        return RngSeed(self.seed, stream_id)


def as_seed(seed) -> RngSeed:
    """Coerce an int seed or RngSeed into the RngSeed of a stream-runner job.

    A Generator is refused: the stream runner derives one Philox stream per
    block from the seed, which a Generator cannot supply.
    """
    if isinstance(seed, RngSeed):
        return seed
    if isinstance(seed, np.random.Generator):
        raise InvalidInputError("seed must be an int or RngSeed, not a Generator")
    return RngSeed(int(seed))


def as_generator(seed) -> np.random.Generator:
    """A Generator as it is; an int seed or RngSeed through as_seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return as_seed(seed).generator()


def _freeze(obj, **arrays) -> None:
    """Set each named field of a frozen dataclass to a read-only copy of its array."""
    for name, arr in arrays.items():
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _special():
    """scipy.special, imported on its first use in the process."""
    from scipy import special
    return special


def ndtr(x):
    """scipy.special.ndtr: Phi(x) with no argument check, for the package's hot paths."""
    return _special().ndtr(x)


def logsumexp(a):
    """scipy.special.logsumexp: log(sum(exp(a))) without overflow."""
    return _special().logsumexp(a)


def _is_scalar(x) -> bool:
    """The scalar rule's one test: a Python or NumPy scalar, or a 0-d array."""
    return np.ndim(x) == 0


def _elementwise(fn, x):
    """fn over x as a float array; a float when x is a scalar. Refuses NaN and inf."""
    scalar = _is_scalar(x)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"x must be finite, got {x}" if scalar else "x must be finite")
    out = fn(arr)
    return float(out) if scalar else out


def std_normal_cdf(x):
    """Phi(x) via erfc; vectorized, absolute error well below 1e-12."""
    return _elementwise(ndtr, x)


def std_normal_sf(x):
    """Upper tail 1 - Phi(x), computed as Phi(-x) to keep tail precision."""
    return std_normal_cdf(np.negative(x))


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise InvalidInputError(f"p must lie strictly inside (0, 1), got {p}")
    return _elementwise(_special().ndtri, p)


def student_t_cdf(x, df: int):
    """CDF of the central Student t with ``df`` degrees of freedom.

    Uses the regularized incomplete beta identity
    F(x) = 1 - I_{df/(df+x^2)}(df/2, 1/2) / 2 for x >= 0, mirrored by symmetry.
    """
    if not df >= 1:
        raise InvalidInputError(f"df must be >= 1, got {df}")

    def cdf(x):
        tail = 0.5 * _special().betainc(df / 2.0, 0.5, df / (df + x * x))
        return np.where(x >= 0, 1.0 - tail, tail)

    return _elementwise(cdf, x)


def student_t_sf(x, df: int):
    """Upper tail of the central Student t, computed as F(-x) for large-x accuracy."""
    return student_t_cdf(np.negative(x), df)


def binomial_kl(p0: float, p1: float) -> float:
    """KL divergence D(p0, p1) between Bernoulli(p0) and Bernoulli(p1).

    Conventions: 0*log(0) = 0; p1 in {0, 1} with p0 != p1 gives +inf.
    """
    p0 = float(p0)
    p1 = float(p1)
    if not (0.0 <= p0 <= 1.0):
        raise InvalidInputError(f"p0 must lie in [0, 1], got {p0}")
    if not (0.0 <= p1 <= 1.0):
        raise InvalidInputError(f"p1 must lie in [0, 1], got {p1}")
    return float(binomial_kl_array(p0, p1))


def binomial_kl_array(p0, p1):
    """Elementwise binomial_kl for arrays; +inf where p1 hits {0,1} off-match."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(p0 > 0.0, p0 * (np.log(p0) - np.log(p1)), 0.0)
        b = np.where(p0 < 1.0, (1.0 - p0) * (np.log1p(-p0) - np.log1p(-p1)), 0.0)
    out = a + b
    bad = ((p1 == 0.0) & (p0 != 0.0)) | ((p1 == 1.0) & (p0 != 1.0))
    out = np.where(bad, np.inf, out)
    return np.where((p0 == p1), 0.0, out)


def clamp_pvalues(p):
    """Clamp computed P-values into [MIN_PVALUE, 1.0]; a float when p is a scalar."""
    out = np.clip(np.asarray(p, dtype=float), MIN_PVALUE, 1.0)
    return float(out) if _is_scalar(p) else out
