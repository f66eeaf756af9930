"""Closed-form rare/weak phase-diagram functions.

The detection boundary rho(vartheta) splits the sparsity/strength plane into
detectable and undetectable regions; its classification analogue
rho_theta(vartheta) = (1-theta) rho(vartheta/(1-theta)) does the same for
HCT-trained classifiers with n = p^theta samples. Inside the region of
success, the leading term of the ideal FDR parameter takes one of three
values (0, (vartheta-r)/(2r), 1), giving the three-phase structure.

rho is extended by 0 for vartheta <= 1/2: the dense regime is always
detectable, and the extension lets rho_theta cover the full plotted box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import FailureRegionError, InvalidInputError

__all__ = [
    "PhasePoint",
    "REGION_LABELS",
    "detection_boundary",
    "classification_boundary",
    "IdealFdr",
    "ideal_fdr",
    "classify_region",
    "boundary_table",
]

REGION_LABELS = ("undetectable", "detectable", "failure",
                 "success_I", "success_II", "success_III", "boundary")

_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """A point in the (vartheta, r) plane; theta = 0 means pure detection.

    Refuses theta and vartheta outside classification_boundary's domain, and
    an r that is not positive (NaN too).
    """

    vartheta: float
    r: float
    theta: float = 0.0

    def __post_init__(self):
        classification_boundary(self.vartheta, self.theta)
        if not self.r > 0.0:
            raise InvalidInputError(f"r must be positive, got {self.r}")


def detection_boundary(vartheta: float, extended: bool = False) -> float:
    """Detection boundary rho(vartheta).

    vartheta - 1/2 on (1/2, 3/4], (1 - sqrt(1 - vartheta))^2 on (3/4, 1);
    with extended=True the domain widens to (0, 1) with rho = 0 below 1/2.
    """
    v = float(vartheta)
    lo = 0.0 if extended else 0.5
    if not lo < v < 1.0:
        raise InvalidInputError(
            f"vartheta must lie in ({lo}, 1){' (extended)' if extended else ''}, got {v}")
    if v <= 0.5:
        return 0.0
    if v <= 0.75:
        return v - 0.5
    return (1.0 - math.sqrt(1.0 - v)) ** 2


def classification_boundary(vartheta: float, theta: float) -> float:
    """Classification boundary rho_theta(vartheta) = (1-theta) rho(vartheta/(1-theta)).

    Refuses theta outside [0, 1) and vartheta outside (0, 1 - theta).
    """
    v = float(vartheta)
    t = float(theta)
    if not 0.0 <= t < 1.0:
        raise InvalidInputError(f"theta must lie in [0, 1), got {t}")
    if not 0.0 < v < 1.0 - t:
        raise InvalidInputError(f"vartheta must lie in (0, {1.0 - t:.15g}), got {v}")
    return (1.0 - t) * detection_boundary(v / (1.0 - t), extended=True)


@dataclass(frozen=True)
class IdealFdr:
    """Leading term of the ideal FDR parameter and the phase it belongs to."""

    value: float
    phase: str  # "I", "II", "III", or "boundary"


def ideal_fdr(vartheta: float, r: float, theta: float = 0.0) -> IdealFdr:
    """Ideal FDR leading term inside the region of success.

    Phase I (r > vartheta): 0. Phase II (vartheta/3 < r < vartheta):
    (vartheta - r)/(2r). Phase III (rho_theta < r < vartheta/3): 1. The two
    internal boundaries report phase "boundary" with the phase-II formula
    value (which is continuous there). Below the classification boundary the
    query is refused: no threshold succeeds there. An r that is not positive
    (NaN too) is refused.
    """
    v = float(vartheta)
    rr = float(r)
    PhasePoint(v, rr, theta)
    rho_t = classification_boundary(v, theta)
    if rr <= rho_t + _TOL:
        raise FailureRegionError(
            f"(vartheta={v}, r={rr}) lies in the region of failure: r <= rho_theta = {rho_t:.6g}")
    if abs(rr - v) <= _TOL or abs(rr - v / 3.0) <= _TOL:
        return IdealFdr((v - rr) / (2.0 * rr), "boundary")
    if rr > v:
        return IdealFdr(0.0, "I")
    if rr > v / 3.0:
        return IdealFdr((v - rr) / (2.0 * rr), "II")
    return IdealFdr(1.0, "III")


def classify_region(point: PhasePoint, mode: str = "detection") -> str:
    """Label a phase point against the relevant boundary (tolerance 1e-12).

    Detection mode returns undetectable/detectable/boundary. Classification
    mode returns failure/success_I/success_II/success_III, with boundary for
    points sitting exactly on the failure boundary or on an internal phase
    boundary.
    """
    if mode not in ("detection", "classification"):
        raise InvalidInputError(f"mode must be 'detection' or 'classification', got {mode!r}")
    if mode == "detection":
        rho = detection_boundary(point.vartheta, extended=True)
        if abs(point.r - rho) <= _TOL:
            return "boundary"
        return "detectable" if point.r > rho else "undetectable"
    rho_t = classification_boundary(point.vartheta, point.theta)
    if abs(point.r - rho_t) <= _TOL:
        return "boundary"
    if point.r < rho_t:
        return "failure"
    fdr = ideal_fdr(point.vartheta, point.r, point.theta)
    return "boundary" if fdr.phase == "boundary" else f"success_{fdr.phase}"


def boundary_table(theta: float, grid_size: int, r: Optional[float] = None) -> list[dict]:
    """Plot-ready rows (vartheta, rho, rho_theta, qideal_phase, qideal_value).

    vartheta runs over a uniform grid strictly inside (0, 1-theta). The rho
    column uses the zero-extended detection boundary. The qideal columns are
    evaluated at the supplied r; without one they describe the limit just
    above the failure boundary at each vartheta (the lowest-r success phase),
    so the table never contains NaN. With an explicit r falling in the
    failure region, the phase column reads "failure" and the value is None;
    an r that is not positive (NaN too) is refused.
    """
    if grid_size < 1:
        raise InvalidInputError(f"grid_size must be positive, got {grid_size}")
    width = 1.0 - theta
    rows = []
    for i in range(1, grid_size + 1):
        v = width * i / (grid_size + 1)
        rho_t = classification_boundary(v, theta)  # first: it refuses a bad theta
        rho = detection_boundary(v, extended=True)
        if r is not None:
            try:  # an r that is not positive raises InvalidInputError, not caught here
                fdr = ideal_fdr(v, r, theta)
                phase, value = fdr.phase, fdr.value
            except FailureRegionError:
                phase, value = "failure", None
        elif rho_t >= v / 3.0:
            phase, value = "II", (v - rho_t) / (2.0 * rho_t)
        else:
            phase, value = "III", 1.0
        rows.append({"vartheta": v, "rho": rho, "rho_theta": rho_t,
                     "qideal_phase": phase, "qideal_value": value})
    return rows
