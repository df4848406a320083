"""Projection-based annotation judging.

Candidate annotations are compared structure by structure on 2D front-view
projections, scored against anatomical priors (expected centroid region,
component count, vertical extent and elongation of the overlay silhouette).
A rule-based judge ships with the package; an external judge process can be
plugged in over a line-delimited JSON protocol and falls back to the
rule-based judge when the protocol misbehaves.
"""

from __future__ import annotations

import json
import logging
import subprocess
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .errors import ConfigError, ProtocolError
from .grid import (
    BACKGROUND,
    FACE,
    CaseRecord,
    LabelMap,
    Projection2D,
    StructureKind,
    VoxelGrid,
    connected_components,
    front_view_projection,
    largest_component,
    pad_box,
)
from .volume_io import canonical_json

log = logging.getLogger(__name__)

TIE_EPSILON = 0.02
CRITERIA = ("centroid", "components", "extent", "elongation")


class Preference(str, Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"

    def swapped(self) -> "Preference":
        if self is Preference.FIRST:
            return Preference.SECOND
        if self is Preference.SECOND:
            return Preference.FIRST
        return self


@dataclass(frozen=True)
class CentroidBox:
    """The expected centroid region: an (lo, hi) range along x and along z."""

    x: tuple[float, float]
    z: tuple[float, float]


@dataclass(frozen=True)
class AnatomicalPrior:
    """Expected silhouette of one structure in the front-view projection.

    Geometric quantities are normalized to [0,1] over the projection plane;
    elongation is the height/width ratio of the overlay bounding box in mm.
    """

    label: int
    name: str
    prompt: str
    centroid_box: CentroidBox
    components: tuple[int, int]
    vertical_extent: tuple[float, float]
    elongation: tuple[float, float]
    weights: dict[str, float] = field(default_factory=dict)
    centroid_falloff: float = 0.15

    def __post_init__(self):
        for lo, hi in (self.centroid_box.x, self.centroid_box.z, self.vertical_extent):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError(f"prior '{self.name}': normalized ranges must be ordered in [0,1]")
        if self.components[0] < 0 or self.components[1] < self.components[0]:
            raise ConfigError(f"prior '{self.name}': bad component range")
        if self.elongation[0] <= 0 or self.elongation[1] < self.elongation[0]:
            raise ConfigError(f"prior '{self.name}': bad elongation range")
        if not set(self.weights) <= set(CRITERIA) or min(self.weights.values(), default=0) < 0:
            raise ConfigError(f"prior '{self.name}': weights must map some of "
                              f"{', '.join(CRITERIA)} to values >= 0, got {self.weights}")
        if self.centroid_falloff <= 0:
            raise ConfigError(f"prior '{self.name}': centroid_falloff must be > 0")

    def weight(self, criterion: str) -> float:
        return float(self.weights.get(criterion, 1.0))


@dataclass(frozen=True)
class JudgeVerdict:
    preference: Preference
    score_first: float
    score_second: float
    rationale: dict[str, tuple[float, float]] = field(default_factory=dict)
    protocol_issue: bool = False  # tie produced by a judge timeout, not by scores
    scored: bool = True           # False when the judge reports no numeric scores


def _interval_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 1.0


def _range_score(value: float, lo: float, hi: float) -> float:
    """1 inside [lo, hi], linear falloff with the relative distance outside."""
    if lo <= value <= hi:
        return 1.0
    gap = (lo - value) / lo if value < lo else (value - hi) / hi
    return max(0.0, 1.0 - gap)


def overlay_features(proj: Projection2D) -> Optional[dict]:
    overlay = proj.overlay
    if not overlay.any():
        return None
    nx, nz = overlay.shape
    ix, iz = np.nonzero(overlay)
    centroid = (float((ix + 0.5).mean() / nx), float((iz + 0.5).mean() / nz))
    # 26-connectivity on the one-voxel-thick (x, 1, z) grid is 8-connectivity in (x, z)
    n_comp = connected_components(overlay[:, None, :], 26).count
    z_lo, z_hi = int(iz.min()), int(iz.max())
    x_lo, x_hi = int(ix.min()), int(ix.max())
    height_mm = (z_hi - z_lo + 1) * proj.spacing[1]
    width_mm = (x_hi - x_lo + 1) * proj.spacing[0]
    return {
        "centroid": centroid,
        "components": n_comp,
        "extent": (z_lo / nz, (z_hi + 1) / nz),
        "elongation": height_mm / width_mm,
    }


def _scored(prior: AnatomicalPrior, proj: Projection2D) -> tuple[float, dict[str, float]]:
    """The weighted product of the per-criterion scores, and those scores;
    an empty overlay scores 0 with no criterion scores."""
    feats = overlay_features(proj)
    if feats is None:
        return 0.0, {}
    scores = criterion_scores(prior, feats)
    total = 1.0
    for criterion, s in scores.items():
        total *= s ** prior.weight(criterion)
    return float(total), scores


def score_overlay(prior: AnatomicalPrior, proj: Projection2D) -> float:
    """Weighted product of the per-criterion scores; an empty overlay scores 0."""
    return _scored(prior, proj)[0]


def criterion_scores(prior: AnatomicalPrior, feats: dict) -> dict[str, float]:
    (cx_lo, cx_hi), (cz_lo, cz_hi) = prior.centroid_box.x, prior.centroid_box.z
    cx, cz = feats["centroid"]
    dx = max(cx_lo - cx, 0.0, cx - cx_hi)
    dz = max(cz_lo - cz, 0.0, cz - cz_hi)
    dist = float(np.hypot(dx, dz))
    s_centroid = max(0.0, 1.0 - dist / prior.centroid_falloff)

    n = feats["components"]
    lo, hi = prior.components
    s_comp = 1.0 if lo <= n <= hi else 1.0 / (1.0 + (lo - n if n < lo else n - hi))

    s_extent = _interval_iou(feats["extent"], prior.vertical_extent)
    s_elong = _range_score(feats["elongation"], *prior.elongation)
    return dict(zip(CRITERIA, (s_centroid, s_comp, s_extent, s_elong)))


def judge_pair(volume: VoxelGrid, mask_a: np.ndarray, mask_b: np.ndarray,
               prior: AnatomicalPrior, tie_epsilon: float = TIE_EPSILON) -> JudgeVerdict:
    """Score two candidate masks against a prior; a score gap below
    tie_epsilon is a tie (absorbs projection quantization noise)."""
    score_a, sa = _scored(prior, front_view_projection(volume, mask_a))
    score_b, sb = _scored(prior, front_view_projection(volume, mask_b))
    if abs(score_a - score_b) < tie_epsilon:
        pref = Preference.TIE
    else:
        pref = Preference.FIRST if score_a > score_b else Preference.SECOND
    rationale = {k: (sa[k], sb[k]) for k in sa} if sa and sb else {}
    return JudgeVerdict(preference=pref, score_first=score_a, score_second=score_b,
                        rationale=rationale)


class RuleBasedJudge:
    """Deterministic judge comparing overlays against the prior table."""

    def __init__(self, priors: dict[int, AnatomicalPrior], tie_epsilon: float = TIE_EPSILON):
        self.priors = priors
        self.tie_epsilon = tie_epsilon

    def compare(self, case_id: str, structure: int, volume: VoxelGrid,
                mask_a: np.ndarray, mask_b: np.ndarray) -> JudgeVerdict:
        prior = self.priors.get(structure)
        if prior is None:
            raise ConfigError(f"no anatomical prior for structure {structure}")
        return judge_pair(volume, mask_a, mask_b, prior, self.tie_epsilon)

    def close(self) -> None:
        """Nothing to release; present so that every judge can be closed."""


def shape_cleanup(label_map: LabelMap, organ_connectivity: int = 26,
                  tumor_connectivity: int = 6) -> LabelMap:
    """Largest-component retention plus one-voxel morphological closing per
    structure (closing only claims background voxels).

    Each structure is processed inside its input box grown by one voxel and
    clipped to the grid, which is exact: earlier structures' closings only
    claim background, so no label's voxels move before its turn; the face
    closing of a mask never leaves the mask's box; and the extra layer gives
    the dilation room, while beyond it (as beyond the grid border) every
    voxel is outside the dilated mask, so the erosion sees the full grid's
    values. Component order inside a sub-box is the full grid's."""
    labels = label_map.labels.copy()
    for entry in label_map.catalog.entries:
        box = label_map.boxes[entry.label]
        if box is None:
            continue
        region = labels[pad_box(box, 1, labels.shape)]  # a view
        mask = region == entry.label
        conn = tumor_connectivity if entry.kind is StructureKind.TUMOR else organ_connectivity
        kept = largest_component(mask, conn)
        region[mask & ~kept] = BACKGROUND
        closed = ndimage.binary_closing(kept, structure=FACE)
        region[closed & (region == BACKGROUND)] = entry.label
    return label_map.with_labels(labels)


def run_tournament(case: CaseRecord, incumbent: LabelMap, challenger: LabelMap, judge,
                   structures: Sequence[int]) -> dict[int, JudgeVerdict]:
    """The judge's verdict on each structure, in the given order, with the
    challenger's mask first and the incumbent's second. perfbench/tracer.py
    traces this function by name, so the one loop keeps its own function."""
    return {s: judge.compare(case.case_id, s, case.volume,
                             challenger.labels == s, incumbent.labels == s)
            for s in structures}


# ---------------------------------------------------------------------------
# external judge protocol


def rle_encode(overlay: np.ndarray) -> str:
    """Run-length encode a boolean overlay, row-major (z rows, x fastest),
    as space-separated value:count tokens, e.g. '0:5 1:3 0:8'."""
    flat = np.asarray(overlay, dtype=np.uint8).T.ravel()
    if flat.size == 0:
        return ""
    change = np.nonzero(np.diff(flat))[0]
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [flat.size]])
    return " ".join(f"{int(flat[s])}:{int(e - s)}" for s, e in zip(starts, ends))


def rle_decode(encoded: str, width: int, height: int) -> np.ndarray:
    """The width x height overlay of an rle_encode string. Every token must
    be 0:n or 1:n with n a decimal count, and the runs must cover exactly
    width*height pixels; both are checked before the overlay is allocated."""
    runs = [token.partition(":")[::2] for token in encoded.split()]
    if width < 0 or height < 0 or not all(value in ("0", "1") and n.isascii() and n.isdigit()
                                          for value, n in runs):
        raise ProtocolError(f"RLE overlay of {width} x {height} pixels is not 0:n and 1:n runs")
    counts = [int(n) for _, n in runs]
    if sum(counts) != width * height:
        raise ProtocolError(f"RLE covers {sum(counts)} pixels, expected {width * height}")
    values = np.array([value == "1" for value, _ in runs], dtype=bool)
    return np.repeat(values, np.array(counts, dtype=np.int64)).reshape(height, width).T


@dataclass(frozen=True)
class JudgePairRequest:
    id: str
    structure: str
    prompt: str
    overlay_a_rle: str
    overlay_b_rle: str
    width: int
    height: int

    def to_json(self) -> str:
        return canonical_json(self.__dict__)


class ExternalJudge:
    """Adapter for an external judge over newline-delimited JSON on the
    child process' standard streams.

    Requests carry the structure name, its prompt text and both overlays
    run-length encoded; the response echoes the request id with a preference
    of "first", "second" or "tie". A timeout yields a tie with a warning and
    a fresh child for the next request; a malformed response raises
    ProtocolError so the caller can fall back to the rule-based judge.
    """

    def __init__(self, command: Sequence[str], priors: dict[int, AnatomicalPrior],
                 timeout_s: float = 10.0):
        self.command = list(command)
        self.priors = priors
        self.timeout_s = timeout_s
        self._proc: Optional[subprocess.Popen] = None
        self._lock = threading.Lock()
        self._counter = 0

    def _ensure_proc(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1)
        return self._proc

    def close(self, wait_s: float = 5.0) -> None:
        """Close the child's input; kill it if it has not exited within ``wait_s``."""
        proc, self._proc = self._proc, None
        if proc is not None and proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=wait_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _read_line(self, proc: subprocess.Popen) -> Optional[str]:
        box: list[Optional[str]] = [None]

        def reader():
            box[0] = proc.stdout.readline()

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        t.join(self.timeout_s)
        if t.is_alive():
            return None
        return box[0]

    def compare(self, case_id: str, structure: int, volume: VoxelGrid,
                mask_a: np.ndarray, mask_b: np.ndarray) -> JudgeVerdict:
        prior = self.priors.get(structure)
        if prior is None:
            raise ConfigError(f"no anatomical prior for structure {structure}")
        proj_a = front_view_projection(volume, mask_a)
        proj_b = front_view_projection(volume, mask_b)
        nx, nz = proj_a.overlay.shape
        with self._lock:
            self._counter += 1
            request = JudgePairRequest(
                id=f"{case_id}/{structure}/{self._counter}",
                structure=prior.name, prompt=prior.prompt,
                overlay_a_rle=rle_encode(proj_a.overlay),
                overlay_b_rle=rle_encode(proj_b.overlay),
                width=nx, height=nz)
            proc = self._ensure_proc()
            try:
                proc.stdin.write(request.to_json() + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ProtocolError(f"judge process unavailable: {exc}") from exc
            line = self._read_line(proc)
            if line is None:
                self.close(wait_s=0)  # its late reply must not answer the next request
        if line is None:
            log.warning("external judge timed out on %s; treating as tie", request.id)
            return JudgeVerdict(preference=Preference.TIE, score_first=0.0, score_second=0.0,
                                protocol_issue=True, scored=False)
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("response is not a JSON object")
            if payload.get("id") != request.id:
                raise ValueError(f"response id {payload.get('id')!r} != {request.id!r}")
            pref = Preference(payload["preference"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed judge response {line!r}: {exc}") from exc
        return JudgeVerdict(preference=pref, score_first=0.0, score_second=0.0,
                            scored=False)


class FallbackJudge:
    """External judge with automatic fallback to the rule-based judge on
    protocol errors (the failure is logged and counted)."""

    def __init__(self, primary: ExternalJudge, fallback: RuleBasedJudge):
        self.primary = primary
        self.fallback = fallback
        self.protocol_failures = 0

    def compare(self, case_id: str, structure: int, volume: VoxelGrid,
                mask_a: np.ndarray, mask_b: np.ndarray) -> JudgeVerdict:
        try:
            return self.primary.compare(case_id, structure, volume, mask_a, mask_b)
        except ProtocolError as exc:
            self.protocol_failures += 1
            log.warning("external judge failed (%s); falling back to rule-based judge", exc)
            return self.fallback.compare(case_id, structure, volume, mask_a, mask_b)

    def close(self) -> None:
        self.primary.close()
