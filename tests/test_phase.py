import math

import numpy as np
import pytest

from hicrit.errors import FailureRegionError, InvalidInputError
from hicrit.phase import (PhasePoint, boundary_table, classification_boundary,
                          classify_region, detection_boundary, ideal_fdr)

import oracles


def test_detection_boundary_examples():
    assert detection_boundary(0.6) == pytest.approx(0.1, rel=1e-15)
    assert detection_boundary(0.75) == pytest.approx(0.25, rel=1e-15)
    assert detection_boundary(0.84) == pytest.approx(0.36, rel=1e-12)
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(InvalidInputError):
            detection_boundary(bad)
    assert detection_boundary(0.2, extended=True) == 0.0


def test_detection_boundary_continuity_at_branch():
    delta = 1e-6
    assert abs(detection_boundary(0.75 - delta) - detection_boundary(0.75 + delta)) < 1e-5


def test_classification_boundary_examples():
    # theta = 0 reduces exactly to the detection boundary
    for v in np.linspace(0.51, 0.99, 25):
        assert classification_boundary(v, 0.0) == detection_boundary(v)
    assert classification_boundary(0.51, 0.15) == pytest.approx(0.085, rel=1e-12)
    with pytest.raises(InvalidInputError):
        classification_boundary(0.9, 0.15)  # vartheta >= 1 - theta


def test_classification_boundary_is_scaled_copy():
    # rho_theta((1-theta) u) = (1-theta) rho(u): the curve is the detection
    # boundary scaled toward the origin in both axes.
    for theta in (0.15, 0.3):
        for u in np.linspace(0.55, 0.95, 9):
            got = classification_boundary((1 - theta) * u, theta)
            assert got == pytest.approx((1 - theta) * detection_boundary(u), rel=1e-12)


def test_ideal_fdr_phases():
    res = ideal_fdr(0.6, 0.3)
    assert res.phase == "II"
    assert res.value == pytest.approx(0.5, rel=1e-15)

    assert ideal_fdr(0.4, 0.8).phase == "I"
    assert ideal_fdr(0.4, 0.8).value == 0.0

    res = ideal_fdr(0.45, 0.12, theta=0.15)
    assert res.phase == "III"
    assert res.value == 1.0

    onto = ideal_fdr(0.6, 0.6)
    assert onto.phase == "boundary"
    assert onto.value == pytest.approx(0.0, abs=1e-12)
    third = ideal_fdr(0.6, 0.2)
    assert third.phase == "boundary"
    assert third.value == pytest.approx(1.0, rel=1e-12)

    with pytest.raises(FailureRegionError):
        ideal_fdr(0.8, 0.05)  # below rho(0.8) ~ 0.3056
    with pytest.raises(InvalidInputError):
        ideal_fdr(0.6, -0.1)


def test_classify_region_examples():
    assert classify_region(PhasePoint(0.6, 0.05)) == "undetectable"
    assert classify_region(PhasePoint(0.6, 0.1)) == "boundary"
    assert classify_region(PhasePoint(0.6, 0.2)) == "detectable"
    assert classify_region(PhasePoint(0.3, 0.5, theta=0.15), "classification") == "success_I"
    assert classify_region(PhasePoint(0.45, 0.12, theta=0.15), "classification") == "success_III"
    assert classify_region(PhasePoint(0.8, 0.05, theta=0.0), "classification") == "failure"
    with pytest.raises(InvalidInputError):
        classify_region(PhasePoint(0.6, 0.1), "bogus")


def test_classify_region_agrees_with_ideal_fdr():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 10_000:
        theta = float(rng.choice([0.0, 0.15, 0.3]))
        v = float(rng.uniform(0.01, 0.99 * (1 - theta)))
        r = float(rng.uniform(0.001, 1.0))
        label = classify_region(PhasePoint(v, r, theta), "classification")
        if label in ("failure", "boundary"):
            continue
        fdr = ideal_fdr(v, r, theta)
        assert label == f"success_{fdr.phase}"
        checked += 1


def test_boundaries_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = float(rng.uniform(0.5 + 1e-9, 1 - 1e-9))
        assert detection_boundary(v) == pytest.approx(
            float(oracles.phase_rho_oracle(v)), rel=1e-12, abs=1e-15)
    for _ in range(1000):
        theta = float(rng.uniform(0.0, 0.5))
        v = float(rng.uniform(1e-6, (1 - theta) * (1 - 1e-9)))
        assert classification_boundary(v, theta) == pytest.approx(
            float(oracles.phase_rho_theta_oracle(v, theta)), rel=1e-12, abs=1e-15)


def test_boundary_table_shape():
    rows = boundary_table(0.15, 200)
    assert len(rows) == 200
    vs = [row["vartheta"] for row in rows]
    assert 0.0 < min(vs) and max(vs) < 0.85
    for row in rows:
        for key in ("vartheta", "rho", "rho_theta", "qideal_value"):
            assert row[key] is not None and not math.isnan(row[key])
        assert row["qideal_phase"] in ("I", "II", "III", "boundary", "failure")
    # rho strictly increasing past 1/2, nondecreasing overall
    rhos = [row["rho"] for row in rows]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    past = [(v, r) for v, r in zip(vs, rhos) if v > 0.5]
    assert all(b[1] > a[1] for a, b in zip(past, past[1:]))


def test_boundary_table_with_explicit_r():
    rows = boundary_table(0.0, 50, r=0.5)
    for row in rows:
        if row["qideal_phase"] == "failure":
            assert row["qideal_value"] is None
        elif row["qideal_phase"] not in ("boundary",):
            want_value, want_phase = oracles.phase_qideal_oracle(row["vartheta"], 0.5, 0.0)
            assert row["qideal_phase"] == want_phase
            assert row["qideal_value"] == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    with pytest.raises(InvalidInputError):
        boundary_table(1.5, 10)
    with pytest.raises(InvalidInputError):
        boundary_table(0.1, 0)
    for r in (0.0, -1.0):
        with pytest.raises(InvalidInputError, match="r must be positive"):
            boundary_table(0.2, 3, r=r)
