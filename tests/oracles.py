"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written with plain loops and sets, sharing
no code paths with the package under test.
"""

from __future__ import annotations


import numpy as np

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
