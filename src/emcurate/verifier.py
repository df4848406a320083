"""Annotation audit: retrainable intensity model, per-structure consistency
check, and the DSC-thresholded update rule.

The audit compares a fitted model's prediction against the current pseudo
annotation structure by structure. Zero overlap (DSC = 0, i.e. exactly one
side claims the structure, or both do in disjoint places) triggers an
automatic replacement by the prediction; low but nonzero agreement
(DSC < 0.5) routes the structure to the projection judge; everything else
is kept untouched. Both thresholds are configuration constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ModelError, ShapeError
from .grid import (
    BACKGROUND,
    ORGAN_CONNECTIVITY,
    TUMOR_CONNECTIVITY,
    Box,
    CaseRecord,
    LabelMap,
    StructureCatalog,
    StructureKind,
    VoxelGrid,
    box_hull,
    connected_components,
    largest_component,
    pad_box,
    structure_mask_pairs,
)
from .metrics import dsc
from .volume_io import canonical_json

STD_FLOOR = 1e-3
PROB_FLOOR = 0.01  # posterior below this is clamped to exact zero (sparse maps)
PRIOR_MARGIN_VOXELS = 2
_FLOOR_SLACK_NATS = 1.0  # how far below PROB_FLOOR's log-odds the prefilter reaches
_FLOOR_SCALE_LIMIT = 2.0 ** 20  # largest |x - m| / s for which the prefilter runs


class AuditAction(str, Enum):
    KEEP = "keep"
    AUTO_REPLACE = "auto_replace"
    ROUTE_TO_EXPERT = "route_to_expert"


def classify_action(d: float, auto_replace_dsc: float = 0.0,
                    route_dsc: float = 0.5) -> AuditAction:
    """Map an audit DSC onto an action; thresholds default to 0 and 0.5."""
    if d <= auto_replace_dsc:
        return AuditAction.AUTO_REPLACE
    if d < route_dsc:
        return AuditAction.ROUTE_TO_EXPERT
    return AuditAction.KEEP


@dataclass(frozen=True)
class StructureAudit:
    dsc: float
    action: AuditAction


@dataclass(frozen=True)
class AuditOutcome:
    """Per-structure audit verdicts plus the prediction they were scored against."""

    per_structure: dict[int, StructureAudit]
    prediction: LabelMap

    @property
    def mean_dsc(self) -> float:
        return float(np.mean([a.dsc for a in self.per_structure.values()]))

    def actions(self, action: AuditAction) -> list[int]:
        return [s for s, a in self.per_structure.items() if a.action is action]


@dataclass(frozen=True)
class ChangeLogEntry:
    case_id: str
    structure: int
    action: str
    voxels_before: int
    voxels_after: int
    conflicts: int = 0


@dataclass
class _StructureParams:
    mean: float = 0.0
    std: float = STD_FLOOR
    box: Optional[Box] = None  # the learned box; None when unmodeled

    @property
    def modeled(self) -> bool:
        return self.box is not None


def _log_ratio_intervals(t: tuple[float, float], o: tuple[float, float], c: float
                         ) -> list[tuple[float, float]]:
    """The closed x-intervals where ll_t(x) - ll_o(x) >= c, for the Gaussian
    log-likelihoods of t = (mean, std) and o = (mean, std): an interval, two
    rays, a ray, everything or nothing.

    With y = x - m_t the difference less c is A y^2 + B y + K; its roots
    come from the cancellation-free form q = -(B + sign(B) sqrt(disc)) / 2,
    roots q / A and K / q, so nearly equal stds lose no accuracy."""
    (m_t, s_t), (m_o, s_o) = t, o
    d = m_t - m_o
    a = 0.5 * (s_t - s_o) * (s_t + s_o) / (s_t * s_o) ** 2
    b = d / s_o ** 2
    k = math.log(s_o / s_t) + 0.5 * (d / s_o) ** 2 - c
    if a == 0.0:  # equal stds: linear in y
        if b == 0.0:
            ys = [(-math.inf, math.inf)] if k >= 0.0 else []
        else:
            ys = [(-k / b, math.inf)] if b > 0.0 else [(-math.inf, -k / b)]
    else:
        disc = b * b - 4.0 * a * k
        if disc < 0.0:
            ys = [(-math.inf, math.inf)] if a > 0.0 else []
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            lo, hi = sorted((q / a, k / q)) if q != 0.0 else (0.0, 0.0)
            ys = [(lo, hi)] if a < 0.0 else [(-math.inf, lo), (hi, math.inf)]
    return [(m_t + lo, m_t + hi) for lo, hi in ys]


def _f32_outward(v: float, side: int) -> np.float32:
    """v rounded to a float32 no greater (side -1) or no less (side +1) than v."""
    f = np.float32(v)
    if (float(f) - v) * side < 0:
        f = np.nextafter(f, np.float32(side * np.inf))
    return f


def _floor_candidates(region: np.ndarray, classes: Sequence[tuple[float, float]],
                      tumor_idx: int) -> np.ndarray:
    """Mask of the float32 voxels of region whose tumor posterior can reach
    PROB_FLOOR; see predict_prob for why every other voxel's cannot.

    The intervals are solved at _FLOOR_SLACK_NATS below the floor's
    log-odds, intersected over the other classes within the region's
    intensity range and rounded outward to float32, so each mask compares float32 with float32 (NumPy 2 compares
    a float32 array with a Python float in float32). The slack covers the
    float64 rounding of the voxel log-likelihoods and of the bounds as long
    as every |x - m| / s and |m| / s is at most _FLOOR_SCALE_LIMIT = 2^20:
    each term is then below 2^40 in magnitude and off by under 0.01 nat.
    Past that scale (never on phantom data) every voxel is a candidate."""
    lo, hi = float(region.min()), float(region.max())
    scale = max(abs(lo), abs(hi), *(abs(m) for m, _ in classes))
    intervals = [(lo, hi)]
    if 2.0 * scale <= _FLOOR_SCALE_LIMIT * min(s for _, s in classes):
        c = math.log(PROB_FLOOR / (1.0 - PROB_FLOOR)) - _FLOOR_SLACK_NATS
        for o, cls in enumerate(classes):
            if o == tumor_idx:
                continue
            intervals = [(max(a, u), min(b, v)) for a, b in intervals
                         for u, v in _log_ratio_intervals(classes[tumor_idx], cls, c)
                         if max(a, u) <= min(b, v)]
    cand = np.zeros(region.shape, dtype=bool)
    for a, b in intervals:
        cand |= (region >= _f32_outward(a, -1)) & (region <= _f32_outward(b, 1))
    return cand


class GaussianIntensityModel:
    """Per-structure Gaussian intensity statistics gated by learned bounding boxes.

    A desk-scale stand-in for a deep segmentation network: voxels are assigned
    to the structure with the highest Gaussian log-likelihood among those
    whose learned (weighted union) bounding box contains the voxel, provided
    that likelihood beats the background's; each structure's prediction is
    then reduced to its largest connected component.
    """

    def __init__(self, catalog: StructureCatalog, tumor_min_component_voxels: int = 20):
        self.catalog = catalog
        self.tumor_min_component_voxels = tumor_min_component_voxels
        self.params: dict[int, _StructureParams] = {}
        self.background: Optional[tuple[float, float]] = None

    @property
    def fitted(self) -> bool:
        return self.background is not None

    def fit(self, corpus: Sequence[CaseRecord],
            weights: Optional[Sequence[float]] = None) -> None:
        """Weighted per-structure intensity statistics from pseudo annotations.

        Structures with zero (weighted) labeled voxels corpus-wide are marked
        unmodeled and predict empty.

        Each case adds w * (count, sum x, sum x^2) per label from its
        CaseRecord.label_moments, in case order, the order in which the
        voxels used to be gathered here; those are the same sums of the same
        float64 values, so the statistics are bit-identical, and a record
        fitted again (left unchanged by the E-step, or a repeated selective
        copy) reuses its sums. Each learned box is the hull of the weighted
        cases' LabelMap.boxes; a label has moments in a case exactly when it
        has a box there, so a structure has a box iff its weighted count is
        positive.
        """
        if len(corpus) == 0:
            raise ModelError("fit requires a nonempty corpus")
        if weights is None:
            weights = [1.0] * len(corpus)
        weights = [float(w) for w in weights]
        if len(weights) != len(corpus):
            raise ShapeError("one weight per case required")
        if any(w < 0 for w in weights) or sum(weights) == 0:
            raise ModelError("weights must be nonnegative and not all zero")

        # per label: [sum_w, sum_wx, sum_wx2]
        acc = {s: np.zeros(3) for s in [BACKGROUND] + self.catalog.labels}
        used = [(case, w) for case, w in zip(corpus, weights) if w != 0.0]
        for case, w in used:
            for s, (n, sx, sx2) in case.label_moments.items():
                acc[s] += (w * n, w * sx, w * sx2)

        def stats(s: int) -> tuple[float, float]:
            sw, sx, sx2 = acc[s]
            if sw == 0:  # only the background can be empty: every voxel labeled
                return 0.0, STD_FLOOR
            mean = sx / sw
            var = max(sx2 / sw - mean * mean, 0.0)
            return mean, max(float(np.sqrt(var)), STD_FLOOR)

        self.background = stats(BACKGROUND)
        self.params = {}
        for s in self.catalog.labels:
            box = box_hull(case.pseudo.boxes[s] for case, _ in used)
            self.params[s] = _StructureParams(*stats(s), box) if box else _StructureParams()

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise ModelError("model must be fitted before prediction")

    @staticmethod
    def _loglik(data: np.ndarray, mean: float, std: float) -> np.ndarray:
        return -np.log(std) - 0.5 * ((data - mean) / std) ** 2

    def predict(self, volume: VoxelGrid) -> LabelMap:
        """Maximum-likelihood labeling gated by spatial priors, then component
        cleanup at the grid connectivities: single-instance structures keep
        their largest component; tumor-kind structures keep every component at least
        tumor_min_component_voxels large (tumors are legitimately
        multi-instance, so largest-only would drop real instances).

        All of it runs on the hull of the modeled structures' learned boxes,
        on one float64 copy of the volume there, and each box is indexed
        relative to the hull. This is exact: structure s is only ever written
        inside its learned box, so every voxel outside the hull stays
        background, and the log-likelihoods are per voxel. The cleanup of s
        runs inside its learned box, which is exact too: raster order within
        a sub-box keeps the full grid's component order, so component ids
        and the first-on-ties pick are unchanged."""
        self._require_fitted()
        out = np.zeros(volume.dims, dtype=np.uint16)
        boxes = {s: self.params[s].box for s in self.catalog.labels if self.params[s].modeled}
        hull = box_hull(boxes.values())
        if hull is None:
            return LabelMap(dims=volume.dims, spacing=volume.spacing, labels=out,
                            catalog=self.catalog)
        boxes = {s: tuple(slice(b.start - h.start, b.stop - h.start) for b, h in zip(box, hull))
                 for s, box in boxes.items()}
        data = volume.data[hull].astype(np.float64)
        sub = out[hull]  # a view: writes land in out
        bg_mean, bg_std = self.background
        best = self._loglik(data, bg_mean, bg_std)
        for s, sl in boxes.items():
            p = self.params[s]
            ll = self._loglik(data[sl], p.mean, p.std)
            better = ll > best[sl]
            sub[sl][better] = s
            best[sl][better] = ll[better]
        for s, sl in boxes.items():
            region = sub[sl]  # a view: writes land in out
            m = region == s
            if not m.any():
                continue
            if self.catalog.entry(s).kind is StructureKind.TUMOR:
                comp = connected_components(m, TUMOR_CONNECTIVITY)
                small = np.flatnonzero(comp.sizes < self.tumor_min_component_voxels) + 1
                if small.size:
                    region[np.isin(comp.ids, small)] = BACKGROUND
            else:
                kept = largest_component(m, ORGAN_CONNECTIVITY)
                region[m & ~kept] = BACKGROUND
        return LabelMap(dims=volume.dims, spacing=volume.spacing, labels=out,
                        catalog=self.catalog)

    def predict_prob(self, volume: VoxelGrid, tumor_label: int) -> np.ndarray:
        """Per-voxel tumor posterior among background and all modeled structures.

        The posterior is evaluated inside the tumor's plausible region (the
        union of the learned tumor box and its host organ's box, padded by a
        couple of voxels) and is exactly zero elsewhere; values below
        PROB_FLOOR are clamped to zero to keep the maps sparse.

        Inside the region it is computed only on the candidate voxels that
        can clear PROB_FLOOR. The tumor posterior w_t / sum(w) is at most
        w_t / (w_t + w_o) for every other modeled class o, background
        included, so a voxel reaches the floor only if
        ll_t(x) - ll_o(x) >= log(PROB_FLOOR / (1 - PROB_FLOOR)) for every o.
        Each condition is a quadratic inequality in the intensity x, solved
        once in float64 scalars; _floor_candidates intersects the solution
        sets, with slack, and compares the float32 region with the bounds,
        building no per-voxel float64 map. Every voxel it leaves out has a
        posterior below PROB_FLOOR, which would be clamped to zero. The
        candidates are gathered into one 1-D array and the
        log-likelihoods, max, exp, sum and division run on it as they would
        on the whole region: the same per-voxel float64 arithmetic, and the
        axis-0 reductions over the same rows in the same order, so every
        posterior is bit-identical to the whole-region computation.
        """
        self._require_fitted()
        tp = self.params.get(tumor_label)
        probs = np.zeros(volume.dims, dtype=np.float64)
        if tp is None or not tp.modeled:
            return probs
        hosts = [p.box for s, p in self.params.items()
                 if p.modeled and self.catalog.entry(s).kind is StructureKind.ORGAN
                 and all(a.start < b.stop and b.start < a.stop for a, b in zip(p.box, tp.box))]
        sl = pad_box(box_hull([tp.box, *hosts]), PRIOR_MARGIN_VOXELS, volume.dims)

        classes = [self.background]  # (mean, std) per stacked row, background first
        for s in self.catalog.labels:
            p = self.params[s]
            if not p.modeled:
                continue
            if s == tumor_label:
                tumor_idx = len(classes)
            classes.append((p.mean, p.std))
        region = volume.data[sl]
        cand = _floor_candidates(region, classes, tumor_idx)
        data = region[cand].astype(np.float64)
        stack = np.stack([self._loglik(data, mean, std) for mean, std in classes])
        stack -= stack.max(axis=0, keepdims=True)
        weights_ = np.exp(stack)
        post = weights_[tumor_idx] / weights_.sum(axis=0)
        post[post < PROB_FLOOR] = 0.0
        probs[sl][cand] = post
        return probs

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The snapshot; a learned box is written as inclusive voxel bounds
        bbox_lo/bbox_hi, [0, 0, 0] for an unmodeled structure. The cleanup
        settings are recorded too: the fixed grid connectivities and
        tumor_min_component_voxels."""
        self._require_fitted()

        def bounds(box: Optional[Box]) -> dict:
            if box is None:
                return {"bbox_lo": [0, 0, 0], "bbox_hi": [0, 0, 0]}
            return {"bbox_lo": [b.start for b in box], "bbox_hi": [b.stop - 1 for b in box]}

        return {
            "kind": "gaussian_intensity",
            "catalog_id": self.catalog.catalog_id,
            "organ_connectivity": ORGAN_CONNECTIVITY,
            "tumor_connectivity": TUMOR_CONNECTIVITY,
            "tumor_min_component_voxels": self.tumor_min_component_voxels,
            "background": {"mean": self.background[0], "std": self.background[1]},
            "structures": {
                str(s): {"mean": p.mean, "std": p.std, "modeled": p.modeled, **bounds(p.box)}
                for s, p in self.params.items()
            },
        }

    def save(self, path: Union[str, Path]) -> str:
        """Write the snapshot (unversioned; no command reads it back); returns
        its canonical JSON."""
        blob = canonical_json(self.to_dict())
        Path(path).write_text(blob + "\n")
        return blob


def fit_model(corpus: Sequence[CaseRecord],
              weights: Optional[Sequence[float]] = None) -> GaussianIntensityModel:
    """Fit a fresh model on a corpus' pseudo annotations."""
    if len(corpus) == 0:
        raise ModelError("fit_model requires a nonempty corpus")
    model = GaussianIntensityModel(corpus[0].pseudo.catalog)
    model.fit(corpus, weights)
    return model


def audit_case(model: GaussianIntensityModel, case: CaseRecord,
               auto_replace_dsc: float = 0.0, route_dsc: float = 0.5) -> AuditOutcome:
    """Score every catalog structure's pseudo mask against the model prediction.

    Each DSC is taken on the two masks cropped to the hull of their label
    boxes (structure_mask_pairs), which holds every voxel of both."""
    prediction = model.predict(case.volume)
    per_structure: dict[int, StructureAudit] = {}
    for s, a, b in structure_mask_pairs(case.pseudo, prediction):
        d = dsc(a, b)
        per_structure[s] = StructureAudit(d, classify_action(d, auto_replace_dsc, route_dsc))
    return AuditOutcome(per_structure=per_structure, prediction=prediction)


# One label write of the Expectation step: the structure, its new 3D mask
# and the action its change-log row records.
StructureWrite = tuple[int, np.ndarray, str]


def write_structures(case: CaseRecord, writes: Sequence[StructureWrite]
                     ) -> tuple[CaseRecord, list[ChangeLogEntry]]:
    """Apply each (structure, mask, action) in order to one copy of the
    case's pseudo labels: the structure's voxels are replaced by the mask.

    Tumor labels take precedence: a non-tumor structure never overwrites a
    tumor voxel. Any other occupied voxel goes to the written structure.
    Voxels of a mask that held another label are counted as that write's
    conflicts. Returns the case with the new labels (the case itself when
    there is nothing to write) and one change-log entry per write.
    """
    if not writes:
        return case, []
    labels = case.pseudo.labels.copy()
    tumor_labels = case.pseudo.catalog.tumor_labels
    log = []
    for structure, mask, action in writes:
        old = labels == structure
        before = int(np.count_nonzero(old))
        labels[old] = BACKGROUND
        if structure in tumor_labels or not tumor_labels:
            blocked = np.zeros_like(mask)
        else:
            blocked = np.isin(labels, tumor_labels)
        conflicts = int(np.count_nonzero(mask & ((labels != BACKGROUND) | blocked)))
        labels[mask & ~blocked] = structure
        log.append(ChangeLogEntry(case.case_id, structure, action, before,
                                  int(np.count_nonzero(labels == structure)), conflicts))
    return case.with_pseudo(case.pseudo.with_labels(labels)), log


def changed_structures(before: LabelMap, after: LabelMap) -> int:
    """How many catalog labels hold other voxels in `after` than in `before`."""
    if before is after:
        return 0
    return sum(not np.array_equal(a, b) for _, a, b in structure_mask_pairs(before, after))


def apply_update_rule(case: CaseRecord, outcome: AuditOutcome
                      ) -> tuple[CaseRecord, list[ChangeLogEntry]]:
    """Replace auto_replace structures with the audited prediction.

    Keep/route structures are untouched voxel-for-voxel; the replacements
    follow the label precedence of `write_structures`.
    """
    return write_structures(
        case, [(s, outcome.prediction.labels == s, "auto_replace")
               for s in sorted(outcome.actions(AuditAction.AUTO_REPLACE))])
