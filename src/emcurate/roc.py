"""Sensitivity-first tumor annotation workflow.

Given per-case tumor probability maps, picks the largest threshold that
still meets a sensitivity target, removes false positives on report-negative
cases outright, simulates click-based erasure of the remaining false
positives against gold, and quantifies the annotation effort saved versus
annotating every tumor from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UndefinedRateError
from .grid import CaseRecord, component_hits, connected_components, nonzero_box
from .metrics import RocCurve, tumor_wise_detection


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
    report_autoremoval: bool = True

    def __post_init__(self):
        if self.seconds_per_fp_removal <= 0 or self.seconds_per_scratch_annotation <= 0:
            raise ConfigError("cost model durations must be positive")


@dataclass(frozen=True)
class CaseWorkload:
    """Per-case bookkeeping feeding the savings estimate."""

    case_id: str
    gold_instances: int
    missed_instances: int
    fp_clicks: int
    report_suppressed: bool


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
    for point in curve.points:  # thresholds descend; first hit is the largest
        if point.sensitivity >= target:
            return ThresholdPolicy(target_sensitivity=target,
                                   selected_threshold=point.threshold,
                                   achieved_sensitivity=point.sensitivity,
                                   fp_per_scan=point.fp_per_scan, feasible=True)
    point = curve.points[-1]
    return ThresholdPolicy(target_sensitivity=target, selected_threshold=point.threshold,
                           achieved_sensitivity=point.sensitivity,
                           fp_per_scan=point.fp_per_scan, feasible=False)


def suppress_fp_by_report(case: CaseRecord, tumor_pred: np.ndarray) -> np.ndarray:
    """Empty the prediction when the structured report says no tumor;
    report-positive cases pass through voxel-exactly."""
    pred = np.asarray(tumor_pred, dtype=bool)
    if not case.report.tumor_present:
        return np.zeros_like(pred)
    return pred


def simulate_fp_erasure(tumor_pred: np.ndarray, oracle_gold: np.ndarray,
                        connectivity: int = 6) -> tuple[np.ndarray, int]:
    """Erase predicted components that touch no gold component; returns the
    cleaned mask and the clicks spent, one per erased component. Components
    touching gold are never removed.

    The prediction is labeled only inside nonzero_box(pred | gold), and the
    cleaned crop is written back into an all-false grid: every predicted
    component and every gold voxel lies inside that box, so the components
    and their gold hits are those of the full grid."""
    pred = np.asarray(tumor_pred, dtype=bool)
    gold = np.asarray(oracle_gold, dtype=bool)
    if pred.shape != gold.shape:
        raise ShapeError("prediction/gold dims differ")
    box = nonzero_box(pred | gold)
    comp = connected_components(pred[box], connectivity)
    touches = component_hits(comp, gold[box]) > 0
    cleaned = np.zeros_like(pred)
    cleaned[box] = np.concatenate(([False], touches))[comp.ids]
    return cleaned, comp.count - int(np.count_nonzero(touches))


def process_case(case: CaseRecord, tumor_pred: np.ndarray, gold_tumor: np.ndarray,
                 cost: CostModel, connectivity: int = 6) -> CaseWorkload:
    """The case's cleanup workload: report suppression, then simulated
    erasure of the false positives against gold.

    One tumor_wise_detection of the suppressed prediction gives every count
    without building the cleaned mask. Erasure keeps each predicted
    component that touches gold, so a gold instance is hit after erasure iff
    it is hit before (fn are the missed instances, tp + fn all of them), and
    it spends one click per component touching no gold, whatever its size:
    fp at fp_min_voxels=1."""
    if cost.report_autoremoval:
        tumor_pred = suppress_fp_by_report(case, tumor_pred)
    counts = tumor_wise_detection(tumor_pred, gold_tumor, connectivity)
    return CaseWorkload(case_id=case.case_id, gold_instances=counts.tp + counts.fn,
                        missed_instances=counts.fn, fp_clicks=counts.fp,
                        report_suppressed=cost.report_autoremoval
                        and not case.report.tumor_present)


def annotation_savings(workloads: Sequence[CaseWorkload], cost: CostModel) -> SavingsReport:
    """Relative annotation time saved versus annotating everything from scratch.

    Report-based removals cost nothing; every erased false positive costs one
    click; every missed gold instance must still be annotated from scratch.
    """
    total_gold = sum(w.gold_instances for w in workloads)
    if total_gold == 0:
        raise UndefinedRateError("savings_ratio")
    total_clicks = sum(w.fp_clicks for w in workloads)
    total_missed = sum(w.missed_instances for w in workloads)
    scratch = total_gold * cost.seconds_per_scratch_annotation
    workflow = (total_clicks * cost.seconds_per_fp_removal
                + total_missed * cost.seconds_per_scratch_annotation)
    return SavingsReport(scratch_seconds=scratch, workflow_seconds=workflow,
                         ratio=1.0 - workflow / scratch,
                         total_gold_instances=total_gold, total_missed=total_missed,
                         total_clicks=total_clicks)
