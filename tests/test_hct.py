import math

import numpy as np
import pytest

from hicrit.errors import InvalidInputError
from hicrit.hct import (HctModel, LabeledMatrix, ZScores, decision_scores, evaluate,
                        fdr_feature_select, feature_zscores, hct_threshold, load_model,
                        predict, save_model, train)
from hicrit.numerics import std_normal_quantile


def make_zscores(z):
    """Synthetic ZScores container around an already-standardized vector."""
    z = np.asarray(z, dtype=float)
    return ZScores(z, z, 0.0, 1.0)


def synthetic_matrix(rng, n=20, p=60, shift=0.0, n_signal=0):
    labels = np.repeat([1, -1], n // 2)
    data = rng.standard_normal((n, p))
    if n_signal:
        data[:n // 2, :n_signal] += shift
    return LabeledMatrix(data, labels)


# --------------------------------------------------------------------------- containers


def test_labeled_matrix_validation():
    with pytest.raises(InvalidInputError):
        LabeledMatrix(np.ones((3, 2)), [1, -1])  # label length mismatch
    with pytest.raises(InvalidInputError):
        LabeledMatrix(np.ones((2, 2)), [1, 2])  # bad alphabet
    with pytest.raises(InvalidInputError):
        LabeledMatrix(np.array([[1.0, np.nan]]), [1])
    m = LabeledMatrix(np.ones((2, 3)), [1, -1])
    assert m.feature_names == ["f1", "f2", "f3"]
    assert (m.n, m.p) == (2, 3)


# --------------------------------------------------------------------------- z-scores


def test_feature_zscores_hand_example():
    # class 1 = {0, 2}, class 2 = {4, 6} on the first feature:
    # means 1 and 5, pooled s^2 = 2, z* = -4/sqrt(2) = -2.8284.
    data = np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 0.5], [6.0, 2.5]])
    labels = np.array([1, 1, -1, -1])
    z = feature_zscores(LabeledMatrix(data, labels))
    assert z.raw[0] == pytest.approx(-2.8284271247, rel=1e-10)


def test_feature_zscores_no_difference():
    data = np.array([[1.0, 0.0], [3.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
    z = feature_zscores(LabeledMatrix(data, [1, 1, -1, -1]))
    assert z.raw[0] == pytest.approx(0.0, abs=1e-12)


def test_standardization_invariants():
    rng = np.random.default_rng(0)
    z = feature_zscores(synthetic_matrix(rng, n=30, p=200))
    assert z.standardized.mean() == pytest.approx(0.0, abs=1e-10)
    assert z.standardized.std(ddof=1) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(z.standardized, (z.raw - z.mean_shift) / z.sd_scale)


def test_feature_zscores_errors():
    with pytest.raises(InvalidInputError):
        feature_zscores(LabeledMatrix(np.ones((4, 2)) * [[1], [2], [3], [4]],
                                      [1, -1, -1, -1]))  # one sample in class +1
    data = np.random.default_rng(1).standard_normal((6, 3))
    data[:, 2] = 5.0  # constant feature: zero pooled variance
    err = pytest.raises(InvalidInputError,
                        feature_zscores, LabeledMatrix(data, [1, 1, 1, -1, -1, -1]))
    assert "f3" in str(err.value)


# --------------------------------------------------------------------------- threshold


def test_hct_threshold_dominant_feature():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(100) * 0.5
    z[17] = 10.0
    thr, idx = hct_threshold(make_zscores(z), alpha0=0.10)
    assert idx == 1
    assert thr == 10.0


def test_hct_threshold_degenerate_falls_back():
    # All |Z| small: every feature score in range is negative, so the rule
    # falls back to i^ = 1 and still selects the single most significant one.
    rng = np.random.default_rng(14)
    z = rng.uniform(-0.3, 0.3, 40)
    thr, idx = hct_threshold(make_zscores(z), alpha0=0.5)
    assert idx == 1
    assert thr == np.max(np.abs(z))


def test_hct_threshold_selects_expected_count():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(500)
    z[:30] += 4.0
    thr, idx = hct_threshold(make_zscores(z), alpha0=0.10)
    selected = int(np.sum(np.abs(z) >= thr))
    assert selected == idx
    assert 5 <= idx <= 50


# --------------------------------------------------------------------------- training


def test_train_weights_definitional():
    rng = np.random.default_rng(4)
    matrix = synthetic_matrix(rng, n=24, p=80, shift=3.0, n_signal=8)
    model = train(matrix, alpha0=0.10)
    z = feature_zscores(matrix)
    expected = np.sign(z.standardized) * (np.abs(z.standardized) >= model.threshold)
    np.testing.assert_array_equal(model.weights, expected.astype(np.int8))
    assert model.selected_count >= 1
    if np.unique(np.abs(z.standardized)).size == z.p:
        assert model.selection_consistent


def test_predict_tie_and_single_feature():
    weights = np.array([1, 0, 0], dtype=np.int8)
    model = HctModel(weights, 1.0, 1, np.zeros(3), np.ones(3), 0.1, ["a", "b", "c"])
    assert predict(model, [0.0, 5.0, -7.0]) == 1  # score 0: tie resolves to +1
    assert predict(model, [2.0, 0.0, 0.0]) == 1
    assert predict(model, [-2.0, 0.0, 0.0]) == -1
    with pytest.raises(InvalidInputError):
        predict(model, [1.0, 2.0])


def test_sample_at_training_means_scores_zero():
    rng = np.random.default_rng(5)
    matrix = synthetic_matrix(rng, n=20, p=40, shift=2.0, n_signal=5)
    model = train(matrix)
    score = decision_scores(model, model.feature_means)[0]
    assert score == pytest.approx(0.0, abs=1e-12)
    assert predict(model, model.feature_means) == 1


def test_evaluate_separated_training_data():
    # At hct_index 20, x * (1/sqrt(20)) and x / sqrt(20) differ in the last bit
    # for some scores; at 4 they agree.
    for n, p, shift, n_signal, hct_index in ((20, 50, 8.0, 10, 4), (100, 300, 3.0, 20, 20)):
        rng = np.random.default_rng(6)
        matrix = synthetic_matrix(rng, n=n, p=p, shift=shift, n_signal=n_signal)
        model = train(matrix)
        assert model.hct_index == hct_index
        res = evaluate(model, matrix)
        assert res.error_rate == 0.0
        assert set(res.scores_by_class) == {1, -1}
        np.testing.assert_array_equal(res.scores, decision_scores(model, matrix.data))
        np.testing.assert_array_equal(res.normalized_scores,
                                      res.scores / math.sqrt(hct_index))
        for lab in (1, -1):
            np.testing.assert_array_equal(res.normalized_scores_by_class[lab],
                                          res.scores_by_class[lab] / math.sqrt(hct_index))


def test_evaluate_null_data_random_labels():
    rng = np.random.default_rng(7)
    errors = []
    for _ in range(20):
        train_m = synthetic_matrix(rng, n=20, p=60)
        test_m = synthetic_matrix(rng, n=40, p=60)
        errors.append(evaluate(train(train_m), test_m).error_rate)
    assert abs(np.mean(errors) - 0.5) <= 0.1


def test_label_swap_antisymmetry():
    rng = np.random.default_rng(8)
    matrix = synthetic_matrix(rng, n=16, p=50, shift=1.5, n_signal=6)
    swapped = LabeledMatrix(matrix.data, -matrix.labels, matrix.feature_names)
    z, zs = feature_zscores(matrix), feature_zscores(swapped)
    np.testing.assert_array_equal(zs.standardized, -z.standardized)
    m, ms = train(matrix), train(swapped)
    assert ms.threshold == m.threshold
    np.testing.assert_array_equal(ms.weights, -m.weights)
    sample = rng.standard_normal(50)
    if decision_scores(m, sample)[0] != 0.0:
        assert predict(ms, sample) == -predict(m, sample)


def test_scale_invariance_of_predictions():
    rng = np.random.default_rng(9)
    matrix = synthetic_matrix(rng, n=20, p=40, shift=2.0, n_signal=6)
    test = rng.standard_normal((30, 40))
    preds = np.sign(decision_scores(train(matrix), test))
    scale = np.ones(40)
    scale[[3, 11, 25]] = [10.0, 0.2, 3.5]
    scaled = LabeledMatrix(matrix.data * scale, matrix.labels, matrix.feature_names)
    preds_scaled = np.sign(decision_scores(train(scaled), test * scale))
    np.testing.assert_array_equal(preds, preds_scaled)


def test_arw_classification_error_small_in_success_region():
    # theta = 0.4, vartheta = 0.3, r = 0.5 at p = 10^4: well inside the region
    # of success, held-out error should be far below chance.
    p, theta, vartheta, r = 10_000, 0.4, 0.3, 0.5
    n = int(round(p ** theta))  # 40 samples
    eps = p ** -vartheta
    tau = math.sqrt(2 * r * math.log(p))
    rng = np.random.default_rng(10)
    errors = []
    for _ in range(20):
        mu = (rng.random(p) < eps) * (tau / math.sqrt(n))
        labels = np.repeat([1, -1], n // 2)
        data = rng.standard_normal((n, p)) + np.outer(labels, mu)
        model = train(LabeledMatrix(data, labels), alpha0=0.10)
        test_labels = np.repeat([1, -1], 50)
        test_data = rng.standard_normal((100, p)) + np.outer(test_labels, mu)
        res = evaluate(model, LabeledMatrix(test_data, test_labels))
        errors.append(res.error_rate)
    assert np.mean(errors) <= 0.10


# --------------------------------------------------------------------------- FDR comparator


def test_fdr_select_small_q():
    z = make_zscores([5.0, 0.1, -0.2, 0.3])
    sel = fdr_feature_select(z, 0.001)
    assert sel.tolist() == [0]


def test_fdr_select_nested_in_q():
    rng = np.random.default_rng(11)
    z = make_zscores(np.concatenate([rng.standard_normal(80), [4.0, -4.5, 5.0]]))
    previous = set()
    for q in (0.01, 0.05, 0.1, 0.2, 0.4):
        sel = set(fdr_feature_select(z, q).tolist())
        assert previous <= sel
        previous = sel


def test_hct_selects_more_than_bh_in_weak_regime():
    # Region III flavored setting: weak signals, HCT keeps many features while
    # BH at q = 0.05 keeps almost none. Counts fluctuate per draw, so compare
    # medians over draws.
    p, vartheta, r = 10_000, 0.45, 0.12
    eps = p ** -vartheta
    tau = math.sqrt(2 * r * math.log(p))
    hct_counts, bh_counts = [], []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        z = rng.standard_normal(p) + (rng.random(p) < eps) * tau
        zs = ZScores(z, (z - z.mean()) / z.std(ddof=1),
                     float(z.mean()), float(z.std(ddof=1)))
        hct_counts.append(hct_threshold(zs, alpha0=0.10)[1])
        bh_counts.append(fdr_feature_select(zs, 0.05).size)
    assert np.median(hct_counts) >= 15
    assert np.median(hct_counts) >= 5 * (np.median(bh_counts) + 1)


# --------------------------------------------------------------------------- persistence


def test_model_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(13)
    matrix = synthetic_matrix(rng, n=18, p=45, shift=2.5, n_signal=7)
    model = train(matrix)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.threshold == model.threshold
    assert loaded.hct_index == model.hct_index
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.feature_means, model.feature_means)
    np.testing.assert_array_equal(loaded.feature_sds, model.feature_sds)
    test = rng.standard_normal((25, 45))
    np.testing.assert_array_equal(decision_scores(loaded, test), decision_scores(model, test))


def test_model_version_check(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(InvalidInputError):
        load_model(path)


def _model_fields(**changes):
    fields = dict(weights=np.array([1, 0, -1]), threshold=1.0, hct_index=2,
                  feature_means=np.zeros(3), feature_sds=np.ones(3), alpha0=0.1,
                  feature_names=["a", "b", "c"])
    return {**fields, **changes}


@pytest.mark.parametrize("changes", [
    dict(hct_index=0), dict(hct_index=4), dict(feature_means=np.zeros(2)),
    dict(feature_sds=np.ones(2)), dict(feature_names=["a", "b"]),
    dict(feature_means=[0.0, np.nan, 0.0]), dict(feature_means=[0.0, np.inf, 0.0]),
    dict(feature_sds=[1.0, 0.0, 1.0]), dict(feature_sds=[1.0, -1.0, 1.0]),
    dict(feature_sds=[1.0, np.nan, 1.0]), dict(weights=np.array([1, 2, 0])),
    dict(weights=np.array([[1, 0, -1]])), dict(weights=np.array([], dtype=np.int8)),
], ids=["hct_index-0", "hct_index-p+1", "short-means", "short-sds", "short-names",
        "means-nan", "means-inf", "sds-zero", "sds-negative", "sds-nan", "weight-2",
        "weights-2d", "weights-empty"])
def test_hand_built_model_that_breaks_a_rule_is_refused(changes):
    HctModel(**_model_fields())
    with pytest.raises(InvalidInputError):
        HctModel(**_model_fields(**changes))


def test_trained_and_loaded_models_keep_read_only_arrays(tmp_path):
    model = train(synthetic_matrix(np.random.default_rng(3), n=16, p=30, shift=3.0, n_signal=4))
    path = tmp_path / "model.json"
    save_model(model, path)
    for m in (model, load_model(path)):
        for arr in (m.weights, m.feature_means, m.feature_sds):
            assert not arr.flags.writeable
