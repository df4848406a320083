"""Independent reference implementations used as test oracles.

The brute_* functions are deliberately written with plain loops and sets.
The full_grid_* functions are the package's per-structure kernels as they
were before they were cropped to label boxes: every mask spans the whole
grid, built with numpy and scipy directly. They call nothing in the package
under test and only read a model's fitted attributes and the grid's
component connectivities. per_threshold_roc is
build_roc as it was before the one-pass sweep: it relabels every case at
every threshold through the package's tumor_wise_detection, whose own
oracle is brute_tumor_wise. write_structure is the one-structure label
write that write_structures replaced: it writes into a labels array in
place and builds no label map. full_grid_changed_structures is the
Expectation step's change count without box crops. find_objects_boxes is
label_boxes as it was before the bit-packed projection pass.
overlay_component_count is overlay_features' component count as it was
before it moved to grid.connected_components: a 2D 8-connected labeling.
full_grid_face_dilation and edt_within_mm are the scipy calls behind
grid.face_dilation and grid.within_mm, on the whole grid; ndimage_label,
eroded_boundary and ndimage_closing are those behind
grid.connected_components, grid.boundary_voxels and grid.face_closing, and
STRUCTURES holds the elements behind grid.STRUCTURES. The package itself
imports no scipy: these calls are the reference its numpy kernels must
reproduce exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from emcurate.errors import ShapeError
from emcurate.grid import (
    BACKGROUND,
    ORGAN_CONNECTIVITY,
    TUMOR_CONNECTIVITY,
    Box,
    StructureCatalog,
    connected_components,
    nonzero_box,
)
from emcurate.metrics import RocCurve, RocPoint, _check_thresholds, tumor_wise_detection
from emcurate.verifier import ChangeLogEntry

FACE_NEIGHBORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def neighbors(connectivity: int):
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                if connectivity == 6 and abs(dx) + abs(dy) + abs(dz) != 1:
                    continue
                offs.append((dx, dy, dz))
    return offs


def brute_dsc(a: np.ndarray, b: np.ndarray) -> float:
    sa = {tuple(v) for v in np.argwhere(a)}
    sb = {tuple(v) for v in np.argwhere(b)}
    if not sa and not sb:
        return 1.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def brute_components(mask: np.ndarray, connectivity: int) -> list[set]:
    """Flood-fill decomposition, as a set of voxel-coordinate sets."""
    todo = {tuple(v) for v in np.argwhere(mask)}
    offs = neighbors(connectivity)
    comps = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            x, y, z = stack.pop()
            for dx, dy, dz in offs:
                n = (x + dx, y + dy, z + dz)
                if n in todo:
                    todo.remove(n)
                    comp.add(n)
                    stack.append(n)
        comps.append(comp)
    return comps


def brute_boundary(mask: np.ndarray) -> list[tuple]:
    """Voxels in mask with a face neighbor outside the mask or off the grid."""
    out = []
    dims = mask.shape
    for x, y, z in np.argwhere(mask):
        for dx, dy, dz in FACE_NEIGHBORS:
            nx, ny, nz = x + dx, y + dy, z + dz
            if not (0 <= nx < dims[0] and 0 <= ny < dims[1] and 0 <= nz < dims[2]):
                out.append((x, y, z))
                break
            if not mask[nx, ny, nz]:
                out.append((x, y, z))
                break
    return out


def brute_nsd(a: np.ndarray, b: np.ndarray, tolerance_mm: float, spacing) -> float:
    """Exhaustive all-pairs boundary distances (broadcast instead of looped)."""
    surf_a = brute_boundary(a)
    surf_b = brute_boundary(b)
    if not surf_a and not surf_b:
        return 1.0
    if not surf_a or not surf_b:
        return 0.0
    pa = np.asarray(surf_a, dtype=np.float64) * np.asarray(spacing)
    pb = np.asarray(surf_b, dtype=np.float64) * np.asarray(spacing)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    min_a = np.sqrt(d2.min(axis=1))
    min_b = np.sqrt(d2.min(axis=0))
    close = int((min_a < tolerance_mm).sum()) + int((min_b < tolerance_mm).sum())
    return close / (len(surf_a) + len(surf_b))


def brute_tumor_wise(pred: np.ndarray, ref: np.ndarray, connectivity: int,
                     fp_min_voxels: int = 1):
    """(tp, fp, fn) by exhaustive component-intersection matching; predicted
    components smaller than fp_min_voxels are never FP."""
    pred_set = {tuple(v) for v in np.argwhere(pred)}
    ref_set = {tuple(v) for v in np.argwhere(ref)}
    tp = fn = fp = 0
    for comp in brute_components(ref, connectivity):
        if comp & pred_set:
            tp += 1
        else:
            fn += 1
    for comp in brute_components(pred, connectivity):
        if len(comp) >= fp_min_voxels and not (comp & ref_set):
            fp += 1
    return tp, fp, fn


def brute_front_overlay(mask: np.ndarray) -> np.ndarray:
    nx, ny, nz = mask.shape
    out = np.zeros((nx, nz), dtype=bool)
    for x in range(nx):
        for z in range(nz):
            for y in range(ny):
                if mask[x, y, z]:
                    out[x, z] = True
                    break
    return out


STRUCTURES = {6: ndimage.generate_binary_structure(3, 1),
              26: ndimage.generate_binary_structure(3, 3)}


def full_grid_face_dilation(mask: np.ndarray) -> np.ndarray:
    """The face dilation of a mask, taken over the whole grid."""
    return ndimage.binary_dilation(mask, structure=STRUCTURES[6])


def edt_within_mm(mask: np.ndarray, tolerance_mm: float, spacing) -> np.ndarray:
    """True where the spacing-scaled distance transform to the mask is
    strictly below tolerance_mm."""
    return ndimage.distance_transform_edt(~mask, sampling=spacing) < tolerance_mm


def ndimage_label(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Component ids (int32, numbered in raster order) and count."""
    return ndimage.label(mask, structure=STRUCTURES[connectivity])


def eroded_boundary(mask: np.ndarray) -> np.ndarray:
    """The mask minus its face erosion, outside the grid counted as background."""
    return mask & ~ndimage.binary_erosion(mask, structure=STRUCTURES[6], border_value=0)


def ndimage_closing(mask: np.ndarray) -> np.ndarray:
    """The face closing of a mask, with binary_closing's border rule."""
    return ndimage.binary_closing(mask, structure=STRUCTURES[6])


STD_FLOOR = 1e-3
PROB_FLOOR = 0.01
PRIOR_MARGIN_VOXELS = 2


def _largest(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Largest component on the full grid, first in raster order on ties."""
    ids, count = ndimage.label(mask, structure=STRUCTURES[connectivity])
    if count <= 1:
        return mask.copy()
    return ids == int(np.argmax(np.bincount(ids.ravel())[1:])) + 1


def full_grid_fit(cases, weights, labels) -> dict:
    """GaussianIntensityModel.fit on full-grid masks, given (intensities,
    labels) per case; returns the "background" and "structures" entries of
    the model's to_dict()."""
    acc = {s: np.zeros(3) for s in [0] + list(labels)}
    boxes: dict = {}
    for (data, lab), w in zip(cases, weights):
        if w == 0.0:
            continue
        x = data.astype(np.float64)
        for s in acc:
            m = lab == s
            n = int(np.count_nonzero(m))
            if n == 0:
                continue
            vals = x[m]
            acc[s] += (w * n, w * vals.sum(), w * (vals * vals).sum())
            if s:
                idx = np.argwhere(m)
                lo, hi = idx.min(axis=0), idx.max(axis=0)
                if s in boxes:
                    lo, hi = np.minimum(boxes[s][0], lo), np.maximum(boxes[s][1], hi)
                boxes[s] = (lo, hi)

    def stats(s):
        sw, sx, sx2 = acc[s]
        if sw == 0:
            return 0.0, 0.0, STD_FLOOR
        mean = sx / sw
        return sw, mean, max(float(np.sqrt(max(sx2 / sw - mean * mean, 0.0))), STD_FLOOR)

    _, bg_mean, bg_std = stats(0)
    structures = {}
    for s in labels:
        sw, mean, std = stats(s)
        if sw == 0 or s not in boxes:
            structures[str(s)] = {"mean": 0.0, "std": STD_FLOOR, "modeled": False,
                                  "bbox_lo": [0, 0, 0], "bbox_hi": [0, 0, 0]}
        else:
            structures[str(s)] = {"mean": mean, "std": std, "modeled": True,
                                  "bbox_lo": [int(v) for v in boxes[s][0]],
                                  "bbox_hi": [int(v) for v in boxes[s][1]]}
    return {"background": {"mean": bg_mean, "std": bg_std}, "structures": structures}


def full_grid_predict(model, data: np.ndarray) -> np.ndarray:
    """GaussianIntensityModel.predict's labels with the component cleanup run
    on full-grid masks."""
    def loglik(x, mean, std):
        return -np.log(std) - 0.5 * ((x - mean) / std) ** 2

    data = data.astype(np.float64)
    best = loglik(data, *model.background)
    out = np.zeros(data.shape, dtype=np.uint16)
    for s in model.catalog.labels:
        p = model.params[s]
        if not p.modeled:
            continue
        sl = p.box
        ll = loglik(data[sl], p.mean, p.std)
        better = ll > best[sl]
        out[sl][better] = s
        best[sl][better] = ll[better]
    for entry in model.catalog.entries:
        m = out == entry.label
        if not m.any():
            continue
        if entry.kind.value == "tumor":
            ids, count = ndimage.label(m, structure=STRUCTURES[TUMOR_CONNECTIVITY])
            small = np.bincount(ids.ravel(), minlength=count + 1) < model.tumor_min_component_voxels
            small[0] = False
            out[small[ids]] = 0
        else:
            out[m & ~_largest(m, ORGAN_CONNECTIVITY)] = 0
    return out


def full_grid_predict_prob(model, data: np.ndarray, tumor_label: int) -> np.ndarray:
    """GaussianIntensityModel.predict_prob's posterior taken on the whole grid
    and zeroed outside its region, which is built from inclusive voxel
    bounds: the tumor's learned box joined with every organ box that
    overlaps it, grown by PRIOR_MARGIN_VOXELS and clipped to the grid."""
    def loglik(x, mean, std):
        return -np.log(std) - 0.5 * ((x - mean) / std) ** 2

    def bounds(p):
        return np.array([b.start for b in p.box]), np.array([b.stop - 1 for b in p.box])

    probs = np.zeros(data.shape, dtype=np.float64)
    tp = model.params.get(tumor_label)
    if tp is None or not tp.modeled:
        return probs
    t_lo, t_hi = bounds(tp)
    lo, hi = t_lo, t_hi
    for entry in model.catalog.entries:
        p = model.params[entry.label]
        if p.modeled and entry.kind.value == "organ":
            p_lo, p_hi = bounds(p)
            if np.all(p_lo <= t_hi) and np.all(t_lo <= p_hi):
                lo, hi = np.minimum(lo, p_lo), np.maximum(hi, p_hi)
    lo = np.maximum(lo - PRIOR_MARGIN_VOXELS, 0)
    hi = np.minimum(hi + PRIOR_MARGIN_VOXELS, np.array(data.shape) - 1)

    x = data.astype(np.float64)
    modeled = [s for s in model.catalog.labels if model.params[s].modeled]
    stack = np.stack([loglik(x, *model.background)]
                     + [loglik(x, model.params[s].mean, model.params[s].std) for s in modeled])
    stack -= stack.max(axis=0, keepdims=True)
    weights = np.exp(stack)
    post = weights[1 + modeled.index(tumor_label)] / weights.sum(axis=0)
    post[post < PROB_FLOOR] = 0.0
    region = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
    probs[region] = post[region]
    return probs


def full_grid_shape_cleanup(labels: np.ndarray, kinds: dict) -> np.ndarray:
    """expert.shape_cleanup on full-grid masks; kinds maps label -> kind value."""
    labels = labels.copy()
    for s, kind in kinds.items():
        mask = labels == s
        if not mask.any():
            continue
        kept = _largest(mask, TUMOR_CONNECTIVITY if kind == "tumor" else ORGAN_CONNECTIVITY)
        labels[mask & ~kept] = 0
        closed = ndimage.binary_closing(kept, structure=STRUCTURES[6])
        labels[closed & (labels == 0)] = s
    return labels


def full_grid_nsd(a: np.ndarray, b: np.ndarray, tolerance_mm: float, spacing) -> float:
    """metrics.nsd on the full grid: two whole-grid EDTs."""
    surf_a = a & ~ndimage.binary_erosion(a, structure=STRUCTURES[6], border_value=0)
    surf_b = b & ~ndimage.binary_erosion(b, structure=STRUCTURES[6], border_value=0)
    n_a, n_b = int(np.count_nonzero(surf_a)), int(np.count_nonzero(surf_b))
    if n_a == 0 and n_b == 0:
        return 1.0
    if n_a == 0 or n_b == 0:
        return 0.0
    dist_to_b = ndimage.distance_transform_edt(~surf_b, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~surf_a, sampling=spacing)
    close = (int(np.count_nonzero(dist_to_b[surf_a] < tolerance_mm))
             + int(np.count_nonzero(dist_to_a[surf_b] < tolerance_mm)))
    return close / (n_a + n_b)


def per_threshold_roc(prob_maps: Sequence[np.ndarray], refs: Sequence[np.ndarray],
                      thresholds: Sequence[float], connectivity: int = 6,
                      fp_min_voxels: int = 1) -> RocCurve:
    """build_roc with one tumor_wise_detection per case and threshold."""
    if len(prob_maps) == 0 or len(prob_maps) != len(refs):
        raise ShapeError("need matching, nonempty prob_maps and refs")
    ts = _check_thresholds(thresholds)
    cases = []
    for p, r in zip(prob_maps, refs):
        p, r = np.asarray(p, dtype=np.float64), np.asarray(r, dtype=bool)
        if p.shape != r.shape:
            raise ShapeError(f"probability map shape {p.shape} != reference {r.shape}")
        # Thresholds are >= 0, so prob > t never holds outside the box of (prob > 0) | ref.
        box = nonzero_box((p > 0) | r)
        cases.append((p[box], r[box]))

    # Per reference instance, detection at threshold t only depends on the
    # max probability over the instance; precompute it once per instance.
    inst_max: list[float] = []
    n_neg_cases = 0
    for p, r in cases:
        comp = connected_components(r, connectivity)
        if comp.count == 0:
            n_neg_cases += 1
        else:
            inst_max.extend(ndimage.maximum(p, comp.ids, np.arange(1, comp.count + 1)))
    inst_max_arr = np.array(inst_max, dtype=np.float64)
    n_instances = len(inst_max)

    points = []
    for t in ts:
        tp = int(np.count_nonzero(inst_max_arr > t)) if n_instances else 0
        sens = tp / n_instances if n_instances else 0.0
        fp_total = 0
        tn_cases = 0
        for p, r in cases:
            pred = p > t
            counts = tumor_wise_detection(pred, r, connectivity, fp_min_voxels)
            fp_total += counts.fp
            if not r.any() and not pred.any():
                tn_cases += 1
        spec = tn_cases / n_neg_cases if n_neg_cases else float("nan")
        points.append(RocPoint(threshold=t, sensitivity=sens,
                               fp_per_scan=fp_total / len(cases), specificity=spec))
    return RocCurve(points=tuple(points))


def write_structure(labels: np.ndarray, catalog: StructureCatalog, case_id: str,
                    structure: int, mask: np.ndarray, action: str
                    ) -> ChangeLogEntry:
    """Replace one structure's voxels in `labels` (in place) by `mask`.

    Tumor labels take precedence: a non-tumor structure never overwrites a
    tumor voxel. Any other occupied voxel goes to the written structure.
    Voxels of `mask` that held another label are counted as conflicts.
    Returns the change-log entry.
    """
    old = labels == structure
    before = int(np.count_nonzero(old))
    labels[old] = BACKGROUND
    tumor_labels = catalog.tumor_labels
    if structure in tumor_labels or not tumor_labels:
        blocked = np.zeros_like(mask)
    else:
        blocked = np.isin(labels, tumor_labels)
    conflicts = int(np.count_nonzero(mask & ((labels != BACKGROUND) | blocked)))
    labels[mask & ~blocked] = structure
    return ChangeLogEntry(case_id, structure, action, before,
                          int(np.count_nonzero(labels == structure)), conflicts)


def full_grid_changed_structures(before: np.ndarray, after: np.ndarray,
                                 catalog: StructureCatalog) -> int:
    """How many catalog labels' full-grid masks differ between two label arrays."""
    return sum(not np.array_equal(before == s, after == s) for s in catalog.labels)


def find_objects_boxes(labels: np.ndarray, n_labels: int) -> dict[int, Optional[Box]]:
    """The box of every label 1..n_labels from one ndimage.find_objects pass,
    None for an absent label; labels above n_labels are ignored."""
    if n_labels < 1:  # find_objects reads max_label < 1 as "every label present"
        return {}
    return dict(enumerate(ndimage.find_objects(np.asarray(labels), max_label=n_labels),
                          start=1))


def overlay_component_count(overlay: np.ndarray) -> int:
    """The number of 8-connected components of a 2D boolean overlay."""
    return ndimage.label(overlay, structure=np.ones((3, 3), dtype=bool))[1]
