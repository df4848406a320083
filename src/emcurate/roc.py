"""Sensitivity-first tumor annotation workflow.

Given per-case tumor probability maps, picks the largest threshold that
still meets a sensitivity target, removes false positives on report-negative
cases outright, and prices the simulated click-based erasure of the
remaining false positives against gold: the savings sum each case's
tumor-wise detection counts and compare the effort with annotating every
tumor from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UndefinedRateError
from .grid import TUMOR_CONNECTIVITY, CaseRecord
from .metrics import ConfusionCounts, RocCurve, tumor_wise_detection


@dataclass(frozen=True)
class ThresholdPolicy:
    target_sensitivity: float
    selected_threshold: float
    achieved_sensitivity: float
    fp_per_scan: float
    feasible: bool


@dataclass(frozen=True)
class CostModel:
    seconds_per_fp_removal: float = 5.0
    seconds_per_scratch_annotation: float = 270.0  # midpoint of the 4-5 min range

    def __post_init__(self):
        for name in ("seconds_per_fp_removal", "seconds_per_scratch_annotation"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SavingsReport:
    scratch_seconds: float
    workflow_seconds: float
    ratio: float
    total_gold_instances: int
    total_missed: int
    total_clicks: int


def select_threshold(curve: RocCurve, target: float) -> ThresholdPolicy:
    """Largest threshold whose sensitivity meets the target.

    When no point meets the target, the most sensitive (lowest-threshold)
    point is returned flagged infeasible.
    """
    if len(curve.points) == 0:
        raise ShapeError("ROC curve is empty")
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target sensitivity must lie in (0, 1], got {target}")
    # thresholds descend, so the first point that meets the target is the largest
    point = next((p for p in curve.points if p.sensitivity >= target), curve.points[-1])
    return ThresholdPolicy(target_sensitivity=target, selected_threshold=point.threshold,
                           achieved_sensitivity=point.sensitivity,
                           fp_per_scan=point.fp_per_scan,
                           feasible=point.sensitivity >= target)


def suppress_fp_by_report(case: CaseRecord, tumor_pred: np.ndarray) -> np.ndarray:
    """Empty the prediction when the structured report says no tumor;
    report-positive cases pass through voxel-exactly."""
    pred = np.asarray(tumor_pred, dtype=bool)
    if not case.report.tumor_present:
        return np.zeros_like(pred)
    return pred


def process_case(case: CaseRecord, tumor_pred: np.ndarray, gold_tumor: np.ndarray,
                 connectivity: int = TUMOR_CONNECTIVITY) -> ConfusionCounts:
    """The case's cleanup workload: report suppression, then simulated
    erasure of the false positives against gold, as the tumor-wise counts
    of the suppressed prediction.

    Erasure keeps each predicted component that touches gold, so a gold
    instance is hit after erasure iff it is hit before (fn are the missed
    instances, tp + fn all of them), and it spends one click per component
    touching no gold, whatever its size: fp at fp_min_voxels=1."""
    return tumor_wise_detection(suppress_fp_by_report(case, tumor_pred), gold_tumor, connectivity)


def annotation_savings(counts: Sequence[ConfusionCounts], cost: CostModel) -> SavingsReport:
    """Relative annotation time saved versus annotating everything from scratch,
    from the cases' process_case counts.

    Report-based removals cost nothing; every erased false positive costs one
    click; every missed gold instance must still be annotated from scratch.
    """
    total = sum(counts, ConfusionCounts())
    total_gold = total.tp + total.fn
    if total_gold == 0:
        raise UndefinedRateError("savings_ratio")
    scratch = total_gold * cost.seconds_per_scratch_annotation
    workflow = (total.fp * cost.seconds_per_fp_removal
                + total.fn * cost.seconds_per_scratch_annotation)
    return SavingsReport(scratch_seconds=scratch, workflow_seconds=workflow,
                         ratio=1.0 - workflow / scratch,
                         total_gold_instances=total_gold, total_missed=total.fn,
                         total_clicks=total.fp)
