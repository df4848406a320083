"""Segmentation and detection metrics.

Implements the full evaluation suite: Dice similarity (DSC), normalized
surface distance (NSD), sensitivity/specificity/F1 from confusion counts,
patient-wise and tumor-wise detection, and ROC curves over probability
maps.

Empty-set conventions (applied consistently everywhere):

* DSC(empty, empty) = 1.0 - perfect agreement on absence. This makes the
  DSC = 0 trigger used by the annotation audit fire exactly when one side
  asserts presence and the other denies it, or when both are nonempty but
  spatially disjoint.
* NSD(empty, empty) = 1.0; NSD(empty, nonempty) = 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError, UndefinedRateError
from .grid import (
    STRUCTURES,
    TUMOR_CONNECTIVITY,
    LabelMap,
    StructureCatalog,
    boundary_voxels,
    component_hits,
    connected_components,
    nonzero_box,
    structure_mask_pairs,
    within_mm,
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ShapeError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class StructureScores:
    dsc: float
    nsd: Optional[float]
    pred_voxels: int
    ref_voxels: int


class DetectionOutcome(str, Enum):
    TP = "TP"
    TN = "TN"
    FP = "FP"
    FN = "FN"


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    sensitivity: float
    fp_per_scan: float
    specificity: float


@dataclass(frozen=True)
class RocCurve:
    points: tuple[RocPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        thresholds = [p.threshold for p in self.points]
        if any(nxt >= prev for nxt, prev in zip(thresholds[1:], thresholds[:-1])):
            raise ShapeError("thresholds must be strictly decreasing")
        sens = [p.sensitivity for p in self.points]
        if any(a < b for a, b in zip(sens[1:], sens[:-1])):
            raise ShapeError("sensitivity must be non-decreasing as threshold decreases")


def _as_mask_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeError(f"mask dims differ: {a.shape} vs {b.shape}")
    return a, b


def dsc(a, b) -> float:
    """Dice similarity 2|A.B| / (|A|+|B|); 1.0 when both masks are empty."""
    a, b = _as_mask_pair(a, b)
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / total


def nsd(a, b, tolerance_mm: float, spacing: Sequence[float]) -> float:
    """Normalized surface distance at tolerance_mm, for masks on a lattice of
    the given voxel spacing (mm).

    Boundary voxels of each mask are tested against the exact Euclidean
    distance (in mm, at the spacing) to the other mask's boundary; the score
    is the fraction strictly within tolerance (grid.within_mm).

    Cropping both masks to any box that holds nonzero_box(a | b) leaves the
    score unchanged (evaluate_pair passes such crops): a mask voxel on the
    crop edge has a face neighbor outside the mask, so it is a surface voxel
    either way, and every boundary voxel, hence every nearest one, lies
    inside the crop. Only the distance tests' cost shrinks.
    """
    if not tolerance_mm > 0:
        raise ShapeError(f"tolerance_mm must be > 0, got {tolerance_mm}")
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ShapeError(f"spacing must be a positive finite triple, got {spacing}")
    a, b = _as_mask_pair(a, b)
    surf_a = boundary_voxels(a)
    surf_b = boundary_voxels(b)
    n_a = int(np.count_nonzero(surf_a))
    n_b = int(np.count_nonzero(surf_b))
    if n_a == 0 and n_b == 0:
        return 1.0
    if n_a == 0 or n_b == 0:
        return 0.0
    close_a = int(np.count_nonzero(within_mm(surf_b, tolerance_mm, spacing)[surf_a]))
    close_b = int(np.count_nonzero(within_mm(surf_a, tolerance_mm, spacing)[surf_b]))
    return (close_a + close_b) / (n_a + n_b)


def sensitivity(c: ConfusionCounts) -> float:
    if c.tp + c.fn == 0:
        raise UndefinedRateError("sensitivity")
    return c.tp / (c.tp + c.fn)


def specificity(c: ConfusionCounts) -> float:
    if c.tn + c.fp == 0:
        raise UndefinedRateError("specificity")
    return c.tn / (c.tn + c.fp)


def f1_score(c: ConfusionCounts) -> float:
    if c.tp + c.fp == 0:
        raise UndefinedRateError("precision")
    precision = c.tp / (c.tp + c.fp)
    recall = sensitivity(c)
    if precision + recall == 0:
        raise UndefinedRateError("f1")
    return 2 * precision * recall / (precision + recall)


def classification_rates(c: ConfusionCounts) -> tuple[float, float, float]:
    """(sensitivity, specificity, f1); raises UndefinedRateError naming any zero-denominator rate."""
    return sensitivity(c), specificity(c), f1_score(c)


def patient_wise_detection(pred_tumor, ref_tumor) -> DetectionOutcome:
    """Case-level outcome: predicted/reference positivity is mask non-emptiness."""
    pred, ref = _as_mask_pair(pred_tumor, ref_tumor)
    pred_pos = bool(pred.any())
    ref_pos = bool(ref.any())
    if ref_pos:
        return DetectionOutcome.TP if pred_pos else DetectionOutcome.FN
    return DetectionOutcome.FP if pred_pos else DetectionOutcome.TN


def tumor_wise_detection(pred_tumor, ref_tumor, connectivity: int = TUMOR_CONNECTIVITY,
                         fp_min_voxels: int = 1) -> ConfusionCounts:
    """Instance-level counts: a reference component is TP iff it meets the
    prediction; predicted components of at least fp_min_voxels voxels meeting
    no reference voxel are FP. TN is undefined at instance level and reported
    as 0.
    """
    pred, ref = _as_mask_pair(pred_tumor, ref_tumor)
    # each mask is labeled on its own box, which holds its components' overlaps
    ref_box, pred_box = nonzero_box(ref), nonzero_box(pred)
    ref_comp = connected_components(ref[ref_box], connectivity)
    tp = int(np.count_nonzero(component_hits(ref_comp, pred[ref_box])))
    pred_comp = connected_components(pred[pred_box], connectivity)
    fp = int(np.count_nonzero((component_hits(pred_comp, ref[pred_box]) == 0)
                              & (pred_comp.sizes >= fp_min_voxels)))
    return ConfusionCounts(tp=tp, tn=0, fp=fp, fn=ref_comp.count - tp)


def _check_thresholds(thresholds: Sequence[float]) -> list[float]:
    ts = [float(t) for t in thresholds]
    if not ts:
        raise ShapeError("threshold list must be nonempty")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ShapeError("thresholds must be strictly decreasing")
    if ts[0] > 1.0 or ts[-1] < 0.0:
        raise ShapeError("thresholds must lie within [0, 1]")
    return ts


def default_threshold_grid(n: int = 101) -> list[float]:
    """n evenly spaced thresholds over [0, 1], descending."""
    return list(np.linspace(1.0, 0.0, n))


def _support_graph(p: np.ndarray, connectivity: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The graph of a map's support p > 0: the support voxels' values in
    raster order, and per edge its two endpoints (indices into those values)
    and its weight min(p_u, p_v). Edges join support voxels that are
    neighbours under the connectivity; each is built once, from the
    lexicographically positive half of the connectivity's offsets."""
    support = p > 0
    node = np.full(p.shape, -1, dtype=np.int64)
    node[support] = np.arange(int(np.count_nonzero(support)))
    values = p[support]
    offsets = np.argwhere(STRUCTURES[connectivity]) - 1
    us, vs = [], []
    for off in offsets[[tuple(o) > (0, 0, 0) for o in offsets.tolist()]]:
        src = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(off, p.shape))
        dst = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(off, p.shape))
        both = support[src] & support[dst]
        us.append(node[src][both])
        vs.append(node[dst][both])
    u, v = np.concatenate(us), np.concatenate(vs)
    return values, u, v, np.minimum(values[u], values[v])


def _fp_sweep(values: np.ndarray, clean: np.ndarray, u: np.ndarray, v: np.ndarray,
              w: np.ndarray, ts: list[float], fp_min_voxels: int) -> list[int]:
    """Per threshold t, the number of components of the support graph's
    level set values > t that hold no reference voxel (clean) and at least
    fp_min_voxels nodes.

    Nodes enter as singletons; a union-find then adds the edges in
    descending weight, and each merge moves a running count by the change
    in its roots' contributions. The count is read at each t once every
    edge heavier than t is in: an edge is in the level set iff both its
    ends are, so the union-find then holds exactly its components."""
    if fp_min_voxels <= 1:
        clean_values = np.sort(values[clean])
        singles = (len(clean_values) - np.searchsorted(clean_values, ts, side="right")).tolist()
    else:
        singles = [0] * len(ts)
    order = np.argsort(-w, kind="stable")
    cuts = np.searchsorted(-w[order], -np.asarray(ts), side="left").tolist()
    eu, ev = u[order].tolist(), v[order].tolist()
    parent = list(range(len(values)))
    size = [1] * len(values)
    clean = clean.tolist()
    fp, done, counts = 0, 0, []
    for single, cut in zip(singles, cuts):
        for a, b in zip(eu[done:cut], ev[done:cut]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            fp -= ((clean[a] and size[a] >= fp_min_voxels)
                   + (clean[b] and size[b] >= fp_min_voxels))
            parent[b] = a
            size[a] += size[b]
            clean[a] = clean[a] and clean[b]
            fp += clean[a] and size[a] >= fp_min_voxels
        done = cut
        counts.append(single + fp)
    return counts


def build_roc(prob_maps: Sequence[np.ndarray], refs: Sequence[np.ndarray],
              thresholds: Sequence[float], connectivity: int = TUMOR_CONNECTIVITY,
              fp_min_voxels: int = 1) -> RocCurve:
    """Sweep thresholds over per-case tumor probability maps.

    At each threshold t a case is binarized as prob > t; sensitivity is
    tumor-wise over all reference instances pooled across cases, fp_per_scan
    is the mean count of false-positive components per case, and specificity
    is patient-wise over reference-negative cases (nan if there are none).

    Each case is cropped to nonzero_box((prob > 0) | ref): thresholds are
    >= 0, so no voxel outside it is ever predicted, and no component of the
    prediction or the reference changes. The reference is labeled once per
    case; an instance is detected at t iff its max probability exceeds t,
    and a reference-negative case is a TN iff max(prob) <= t. The instance
    maxima are taken over the reference voxels only: every instance voxel is
    a reference voxel, so each maximum is the same float. The
    false-positive components at every threshold come from one sweep: the
    level sets prob > t are nested, so one union-find over the support
    voxels, adding neighbour edges in descending min(p_u, p_v), passes
    through each level set's exact components (a component tree; see
    _fp_sweep). The cost grows with the support, not with the number of
    thresholds.
    """
    if len(prob_maps) == 0 or len(prob_maps) != len(refs):
        raise ShapeError("need matching, nonempty prob_maps and refs")
    ts = _check_thresholds(thresholds)
    cases = []
    for p, r in zip(prob_maps, refs):
        p, r = np.asarray(p, dtype=np.float64), np.asarray(r, dtype=bool)
        if p.shape != r.shape:
            raise ShapeError(f"probability map shape {p.shape} != reference {r.shape}")
        box = nonzero_box((p > 0) | r)
        cases.append((p[box], r[box]))

    inst_max: list[float] = []
    neg_max: list[float] = []   # per reference-negative case, max prob over its support
    graphs = []
    n_nodes = 0
    for p, r in cases:
        comp = connected_components(r, connectivity)
        values, u, v, w = _support_graph(p, connectivity)
        if comp.count == 0:
            neg_max.append(float(values.max(initial=0.0)))
        else:
            maxima = np.full(comp.count, -np.inf)
            np.maximum.at(maxima, comp.ids[r] - 1, p[r])
            inst_max.extend(maxima.tolist())
        graphs.append((values, ~r[p > 0], u + n_nodes, v + n_nodes, w))
        n_nodes += len(values)
    values, clean, u, v, w = (np.concatenate(parts) for parts in zip(*graphs))
    fp_counts = _fp_sweep(values, clean, u, v, w, ts, fp_min_voxels)
    inst_max_arr = np.array(inst_max, dtype=np.float64)
    neg_max_arr = np.array(neg_max, dtype=np.float64)
    n_instances = len(inst_max)

    points = []
    for t, fp_total in zip(ts, fp_counts):
        tp = int(np.count_nonzero(inst_max_arr > t)) if n_instances else 0
        sens = tp / n_instances if n_instances else 0.0
        tn_cases = int(np.count_nonzero(neg_max_arr <= t))
        spec = tn_cases / len(neg_max) if neg_max else float("nan")
        points.append(RocPoint(threshold=t, sensitivity=sens,
                               fp_per_scan=fp_total / len(cases), specificity=spec))
    return RocCurve(points=tuple(points))


def evaluate_pair(pred: LabelMap, ref: LabelMap,
                  nsd_tolerance_mm: Optional[float]) -> dict[int, StructureScores]:
    """Per-structure scores, keyed by label: DSC, and NSD at
    nsd_tolerance_mm unless it is None, between two label maps. NSD is scored at the maps' own spacing, which
    the lattice check makes one value.

    Each structure's mask pair is built only inside the hull of its two
    label boxes (structure_mask_pairs), which is nonzero_box(a | b): DSC and
    the voxel counts see every voxel of both masks, and NSD is unchanged by
    such a crop (see nsd)."""
    if pred.dims != ref.dims or pred.spacing != ref.spacing:
        raise ShapeError("label map lattices differ")
    scores: dict[int, StructureScores] = {}
    for label, a, b in structure_mask_pairs(pred, ref):
        scores[label] = StructureScores(
            dsc=dsc(a, b),
            nsd=None if nsd_tolerance_mm is None else nsd(a, b, nsd_tolerance_mm, pred.spacing),
            pred_voxels=int(np.count_nonzero(a)),
            ref_voxels=int(np.count_nonzero(b)),
        )
    return scores


def _quartiles(metric: str, scores: Sequence[float]) -> dict[str, float]:
    """The median, Q1, Q3 and mean of scores, keyed ``<metric>_median`` and so on."""
    return {f"{metric}_median": float(np.median(scores)),
            f"{metric}_q1": float(np.percentile(scores, 25)),
            f"{metric}_q3": float(np.percentile(scores, 75)),
            f"{metric}_mean": float(np.mean(scores))}


def corpus_summary(reports: dict[str, dict[int, StructureScores]],
                   catalog: StructureCatalog) -> dict:
    """Aggregate per-case reports into median (Q1-Q3) per structure plus corpus means."""
    summary: dict = {"per_structure": {}, "n_cases": len(reports)}
    all_dsc = []
    for label in catalog.labels:
        ds = [r[label].dsc for r in reports.values()]
        ns = [r[label].nsd for r in reports.values() if r[label].nsd is not None]
        all_dsc.extend(ds)
        entry = {"name": catalog.entry(label).name, **_quartiles("dsc", ds)}
        if ns:
            entry.update(_quartiles("nsd", ns))
        summary["per_structure"][str(label)] = entry
    summary["mean_dsc"] = float(np.mean(all_dsc)) if all_dsc else float("nan")
    return summary
