"""HC-thresholded feature selection and the resulting LDA classifier.

Pipeline: two-class t-like scores per feature, Efron standardization against
the empirical null, two-sided P-values, then a threshold at the absolute
Z-score of the order statistic maximizing the HC feature score. The trained
model keeps signed unit weights on the selected features plus the training
standardization constants, so prediction is a single standardized dot
product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .hc_core import PValueSeries, _first_max, _floor_index, bh_fdr_select, hc_feature_scores
from .numerics import _freeze, clamp_pvalues, ndtr

__all__ = [
    "LabeledMatrix",
    "ZScores",
    "HctModel",
    "feature_zscores",
    "hct_threshold",
    "train",
    "predict",
    "decision_scores",
    "EvaluationResult",
    "evaluate",
    "fdr_feature_select",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LabeledMatrix:
    """n x p sample matrix with labels in {-1, +1} and per-feature names."""

    data: np.ndarray
    labels: np.ndarray
    feature_names: Optional[Sequence[str]] = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        labels = np.asarray(self.labels)
        if data.ndim != 2:
            raise InvalidInputError("data must be a 2-D matrix (rows = samples)")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("data must not contain NaN or Inf")
        if labels.shape != (data.shape[0],):
            raise InvalidInputError(
                f"labels must have one entry per row, got {labels.shape} for {data.shape[0]} rows")
        labels = labels.astype(int)
        if not np.all(np.isin(labels, (-1, 1))):
            raise InvalidInputError("labels must take values in {-1, +1}")
        names = self.feature_names
        if names is None:
            names = [f"f{j + 1}" for j in range(data.shape[1])]
        names = list(names)
        if len(names) != data.shape[1]:
            raise InvalidInputError(
                f"expected {data.shape[1]} feature names, got {len(names)}")
        _freeze(self, data=data, labels=labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ZScores:
    """Raw t-like feature scores and their Efron-standardized version.

    standardized = (raw - mean_shift) / sd_scale, so the standardized vector
    has empirical mean 0 and sample standard deviation 1.
    """

    raw: np.ndarray
    standardized: np.ndarray
    mean_shift: float
    sd_scale: float

    @property
    def p(self) -> int:
        return int(self.raw.size)


def feature_zscores(train_set: LabeledMatrix) -> ZScores:
    """Two-sample t-like scores with pooled variance, Efron-standardized.

    raw_j = (mean1_j - mean2_j) / (s_j * sqrt(1/n1 + 1/n2)) with the pooled
    s_j^2 on n - 2 degrees of freedom; class +1 is "class 1". The
    standardization divides by the sample standard deviation (p - 1
    denominator) of the raw scores.
    """
    return _class_statistics(train_set)[0]


def _class_statistics(train_set: LabeledMatrix) -> tuple[ZScores, np.ndarray]:
    """feature_zscores together with the pooled within-class SDs s_j."""
    in1 = train_set.labels == 1
    in2 = train_set.labels == -1
    n1, n2 = int(in1.sum()), int(in2.sum())
    if n1 < 2 or n2 < 2:
        raise InvalidInputError(f"need at least 2 samples per class, got {n1} and {n2}")
    x1 = train_set.data[in1]
    x2 = train_set.data[in2]
    mean1 = x1.mean(axis=0)
    mean2 = x2.mean(axis=0)
    ss = ((x1 - mean1) ** 2).sum(axis=0) + ((x2 - mean2) ** 2).sum(axis=0)
    pooled_var = ss / (n1 + n2 - 2)
    if np.any(pooled_var <= 0.0):
        j = int(np.argmax(pooled_var <= 0.0))
        raise InvalidInputError(
            f"feature {train_set.feature_names[j]!r} has zero pooled variance")
    s = np.sqrt(pooled_var)
    raw = (mean1 - mean2) / (s * math.sqrt(1.0 / n1 + 1.0 / n2))
    mean_shift = float(raw.mean())
    sd_scale = float(raw.std(ddof=1)) if raw.size > 1 else 0.0
    if sd_scale <= 0.0:
        raise InvalidInputError("feature scores are degenerate: zero spread across features")
    return ZScores(raw, (raw - mean_shift) / sd_scale, mean_shift, sd_scale), s


def _sorted_two_sided(z: ZScores):
    """|Z| in descending order with the matching ascending two-sided P-values."""
    abs_z = np.abs(z.standardized)
    order = np.argsort(-abs_z, kind="stable")
    abs_sorted = abs_z[order]
    pvals = clamp_pvalues(2.0 * ndtr(-abs_sorted))
    return order, abs_sorted, pvals


def hct_threshold(z: ZScores, alpha0: float = 0.10) -> tuple[float, int]:
    """The HC threshold: |Z| at the order statistic maximizing the HC feature score.

    The maximization runs over 1 <= i <= floor(alpha0 * p); if every feature
    score there is <= 0 (or p is too small for the range), it falls back to
    i = 1 so at least the single most significant feature is selected.
    Returns (threshold, maximizing index). Refuses p < 2 and alpha0 outside
    (0, 1].
    """
    if z.p < 2:
        raise InvalidInputError("need at least 2 features")
    k_max = min(_floor_index(alpha0, z.p), z.p - 1)
    _, abs_sorted, pvals = _sorted_two_sided(z)
    best = _first_max(hc_feature_scores(PValueSeries(pvals))[:k_max], 0, "hct", alpha0)
    i = 1 if best.score <= 0.0 else best.argmax_index
    return float(abs_sorted[i - 1]), i


@dataclass(frozen=True)
class HctModel:
    """Trained HCT-LDA rule: signed unit weights plus training standardization.

    weights[j] is sgn(Z_j) when |Z_j| >= threshold and 0 otherwise. When |Z|
    ties exactly at the threshold, every tied feature is kept even if that
    exceeds hct_index; selection_consistent records whether the two agree.

    Owns its rules, trained, loaded or hand-built: weights a non-empty vector of -1, 0 and +1,
    hct_index in [1, p], p names, p finite means, p finite positive sds. Arrays are read-only.
    """

    weights: np.ndarray
    threshold: float
    hct_index: int
    feature_means: np.ndarray
    feature_sds: np.ndarray
    alpha0: float
    feature_names: Sequence[str]

    def __post_init__(self):
        weights, names = np.asarray(self.weights), list(self.feature_names)
        means, sds = (np.asarray(a, dtype=float) for a in (self.feature_means, self.feature_sds))
        p = weights.size
        if weights.ndim != 1 or p < 1:
            raise InvalidInputError("model weights must be a non-empty 1-D vector")
        if not 1 <= self.hct_index <= p:
            raise InvalidInputError(f"hct_index must lie in [1, p = {p}], got {self.hct_index}")
        for name, value in dict(feature_means=means, feature_sds=sds, feature_names=names).items():
            if np.shape(value) != (p,):
                raise InvalidInputError(f"{name} must hold p = {p} entries, got {np.shape(value)}")
        if not np.all(np.isin(weights, (-1, 0, 1))):
            raise InvalidInputError("model weights must all be -1, 0 or +1")
        # json.load accepts NaN and Infinity; such a model scores nothing meaningful.
        if not np.all(np.isfinite(means)):
            raise InvalidInputError("feature_means must all be finite")
        if not np.all((sds > 0.0) & np.isfinite(sds)):
            raise InvalidInputError("feature_sds must all be finite and positive")
        _freeze(self, weights=weights.astype(np.int8), feature_means=means, feature_sds=sds)
        object.__setattr__(self, "feature_names", names)

    @property
    def p(self) -> int:
        return int(self.weights.size)

    @property
    def selected_count(self) -> int:
        return int(np.count_nonzero(self.weights))

    @property
    def selection_consistent(self) -> bool:
        return self.selected_count == self.hct_index


def train(train_set: LabeledMatrix, alpha0: float = 0.10) -> HctModel:
    """Fit the HCT-LDA classifier on a labeled training matrix."""
    z, pooled_sd = _class_statistics(train_set)
    threshold, hct_index = hct_threshold(z, alpha0)
    selected = np.abs(z.standardized) >= threshold
    weights = (np.sign(z.standardized) * selected).astype(np.int8)
    return HctModel(
        weights=weights,
        threshold=threshold,
        hct_index=hct_index,
        feature_means=train_set.data.mean(axis=0),
        feature_sds=pooled_sd,
        alpha0=float(alpha0),
        feature_names=list(train_set.feature_names),
    )


def decision_scores(model: HctModel, data) -> np.ndarray:
    """LDA scores sum_j w_j (x_j - mean_j) / s_j for each row of ``data``."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    if x.shape[1] != model.p:
        raise InvalidInputError(f"expected {model.p} features, got {x.shape[1]}")
    return ((x - model.feature_means) / model.feature_sds) @ model.weights.astype(float)


def _labels_of(scores) -> np.ndarray:
    """Class labels of LDA scores: +1 where a score is >= 0, -1 elsewhere.

    A score of exactly 0 classifies as +1 (deterministic tie rule; ties have
    probability zero for continuous inputs).
    """
    return np.where(scores >= 0.0, 1, -1)


def predict(model: HctModel, sample) -> int:
    """Classify one sample by the sign of its LDA score; a score of 0 gives +1."""
    scores = decision_scores(model, np.asarray(sample, dtype=float).reshape(1, -1))
    return int(_labels_of(scores)[0])


@dataclass(frozen=True)
class EvaluationResult:
    """Per-row predictions and scores in test-set row order, and the scores by class."""

    error_rate: float
    predictions: np.ndarray
    scores: np.ndarray
    normalized_scores: np.ndarray
    scores_by_class: dict
    normalized_scores_by_class: dict
    tie_count: int


def evaluate(model: HctModel, test_set: LabeledMatrix) -> EvaluationResult:
    """Misclassification rate plus per-row and per-class scores.

    Scores are reported raw and divided by sqrt(hct_index), the common
    rescaling that makes the two class histograms comparable across models.
    """
    scores = decision_scores(model, test_set.data)
    preds = _labels_of(scores)
    norm = scores / math.sqrt(model.hct_index)
    return EvaluationResult(
        error_rate=float(np.mean(preds != test_set.labels)),
        predictions=preds,
        scores=scores,
        normalized_scores=norm,
        scores_by_class={lab: scores[test_set.labels == lab] for lab in (1, -1)},
        normalized_scores_by_class={lab: norm[test_set.labels == lab] for lab in (1, -1)},
        tie_count=int(np.sum(scores == 0.0)),
    )


def fdr_feature_select(z: ZScores, q: float) -> np.ndarray:
    """Features selected by Benjamini-Hochberg on the two-sided P-values.

    The usual comparator for HCT: returns the (sorted, 0-based) indices of
    the rejected features.
    """
    order, _, pvals = _sorted_two_sided(z)
    k = bh_fdr_select(PValueSeries(pvals), q)
    return np.sort(order[:k])


def save_model(model: HctModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly via repr."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "weights": {str(j): int(model.weights[j]) for j in np.flatnonzero(model.weights)},
        "p": model.p,
        "threshold": model.threshold,
        "hct_index": model.hct_index,
        "feature_means": model.feature_means.tolist(),
        "feature_sds": model.feature_sds.tolist(),
        "alpha0": model.alpha0,
        "feature_names": list(model.feature_names),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> HctModel:
    """Read a model written by save_model, checking only the file (JSON, format_version, fields,
    sparse weights): HctModel owns the model's rules. Each refusal names the file once."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise InvalidInputError(f"not a valid model JSON file: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidInputError("model JSON must be an object")
        if (version := doc.get("format_version")) != MODEL_FORMAT_VERSION:
            raise InvalidInputError(f"unsupported model format_version {version!r}")
        p = int(doc["p"])
        weights = np.zeros(max(p, 0), dtype=np.int8)
        for j, w in ((int(j), int(w)) for j, w in doc["weights"].items()):
            if not 0 <= j < p:
                raise InvalidInputError(f"weight index {j} outside [0, {p - 1}]")
            if w not in (-1, 1):
                raise InvalidInputError(f"weight {j} must be -1 or +1, got {w}")
            weights[j] = w
        return HctModel(weights, float(doc["threshold"]), int(doc["hct_index"]),
                        doc["feature_means"], doc["feature_sds"], float(doc["alpha0"]),
                        [str(name) for name in doc["feature_names"]])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise InvalidInputError(f"{path}: model is missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, MemoryError) as exc:  # MemoryError: a huge p
        raise InvalidInputError(f"{path}: malformed model field: {exc}") from None
