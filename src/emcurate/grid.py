"""Core lattice types: volumes, label maps, structure catalogs, case records.

Conventions used throughout the package:

* Arrays are indexed ``[x, y, z]`` with dims ``(nx, ny, nz)``.
* The anatomical frame is +x = patient left, +y = anterior, +z = superior.
  The "front view" projects along y onto the x-z plane.
* On disk (and wherever a flat voxel order matters) voxels are laid out
  x-fastest: linear index ``ix + nx*(iy + ny*iz)``.

All types are immutable after construction (array buffers are marked
read-only) and every operation here is a pure function, so values can be
shared freely across threads.

Every voxel kernel the package runs on (component labeling, face
morphology, the surface distance test) is a named function here, written in
plain numpy: the package calls no library kernel. Each one reproduces a
``scipy.ndimage`` call exactly (ids, counts and voxels), and scipy is kept
only as the test oracle of that call, in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CatalogError, ShapeError

BACKGROUND = 0

# A box is one slice per axis, in the convention of scipy's find_objects: the
# voxels start <= i < stop on every axis.
Box = tuple[slice, ...]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# The 3x3x3 structuring element of each connectivity: 6 joins face
# neighbors (and is the element of one-voxel face morphology), 26 joins
# faces, edges and corners. An element holds the offsets whose summed
# absolute steps reach at most 1 or 3.
_STEPS = np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0)
STRUCTURES = {
    6: _freeze(_STEPS <= 1),
    26: _freeze(_STEPS <= 3),
}
_FACE_OFFSETS = [tuple(d) for d in (np.argwhere(STRUCTURES[6]) - 1).tolist() if any(d)]

# What one component of a structure is, for every cleanup and count: tumor
# instances are face-joined; an organ or vessel is 26-joined.
TUMOR_CONNECTIVITY = 6
ORGAN_CONNECTIVITY = 26


def _check_dims_spacing(dims, spacing) -> tuple[tuple[int, int, int], tuple[float, float, float]]:
    dims = tuple(int(d) for d in dims)
    spacing = tuple(float(s) for s in spacing)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise ShapeError(f"dims must be a positive integer triple, got {dims}")
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ShapeError(f"spacing must be a positive finite triple, got {spacing}")
    return dims, spacing


class StructureKind(str, Enum):
    ORGAN = "organ"
    VESSEL = "vessel"
    TUMOR = "tumor"


class Sex(str, Enum):
    FEMALE = "F"
    MALE = "M"


class ContrastPhase(str, Enum):
    ARTERIAL = "arterial"
    VENOUS = "venous"
    NONCONTRAST = "noncontrast"


class TumorType(str, Enum):
    PDAC = "PDAC"
    CYST = "cyst"
    PNET = "PNET"


@dataclass(frozen=True)
class StructureEntry:
    label: int
    name: str
    kind: StructureKind


@dataclass(frozen=True)
class StructureCatalog:
    """Ordered set of annotatable structures; label 0 is background."""

    entries: tuple[StructureEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if labels != list(range(1, len(labels) + 1)):
            raise CatalogError(f"labels must be unique and dense from 1, got {labels}")

    @property
    def labels(self) -> list[int]:
        return [e.label for e in self.entries]

    @property
    def tumor_labels(self) -> list[int]:
        return [e.label for e in self.entries if e.kind is StructureKind.TUMOR]

    def entry(self, label: int) -> StructureEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise CatalogError(f"label {label} not in catalog")

    @property
    def catalog_id(self) -> str:
        blob = json.dumps([[e.label, e.name, e.kind.value] for e in self.entries])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VoxelGrid:
    """Dense scalar intensity volume on a regular lattice.

    Attributes:
        dims: voxel counts (nx, ny, nz)
        spacing: mm per voxel along each axis
        data: float32 intensities, shape == dims
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        dims, spacing = _check_dims_spacing(self.dims, self.spacing)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.shape != dims:
            raise ShapeError(f"data shape {data.shape} != dims {dims}")
        if not np.isfinite(data).all():
            raise ShapeError("intensities must be finite")
        object.__setattr__(self, "data", _freeze(data))


@dataclass(frozen=True)
class LabelMap:
    """Per-voxel structure labels on the same lattice as a VoxelGrid."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    labels: np.ndarray
    catalog: StructureCatalog

    def __post_init__(self):
        dims, spacing = _check_dims_spacing(self.dims, self.spacing)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        labels = np.ascontiguousarray(self.labels, dtype=np.uint16)
        if labels.shape != dims:
            raise ShapeError(f"labels shape {labels.shape} != dims {dims}")
        top = int(labels.max(initial=0))
        if top > len(self.catalog.entries):
            raise CatalogError(f"label {top} not in catalog '{self.catalog.catalog_id}'")
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def catalog_id(self) -> str:
        return self.catalog.catalog_id

    @cached_property
    def boxes(self) -> dict[int, Optional[Box]]:
        """label_boxes(labels, len(catalog.entries)), computed on first use
        and kept on the instance; callers must not mutate it.

        Reusing it is exact because the labels are read-only. It lives
        outside the dataclass fields, so dataclasses.replace (and with_labels)
        start without one. Before Python 3.12, cached_property holds one RLock
        per descriptor, shared by every instance, so first reads of any two
        maps serialize across threads (3.12 drops the lock)."""
        return label_boxes(self.labels, len(self.catalog.entries))

    def with_labels(self, labels: np.ndarray) -> "LabelMap":
        return replace(self, labels=labels)


@dataclass(frozen=True)
class StructuredReport:
    """Structured stand-in for a radiology report."""

    tumor_present: bool
    tumor_count: int
    tumor_type: Optional[TumorType] = None

    def __post_init__(self):
        if self.tumor_count < 0:
            raise ShapeError("tumor_count must be >= 0")
        if self.tumor_present != (self.tumor_count > 0):
            raise ShapeError("tumor_present must equal (tumor_count > 0)")
        if self.tumor_present != (self.tumor_type is not None):
            raise ShapeError("tumor_type must be present iff tumor_present")


@dataclass(frozen=True)
class CaseMeta:
    age: int
    sex: Sex
    phase: ContrastPhase
    is_gold: bool


@dataclass(frozen=True)
class CaseRecord:
    """One synthetic "patient": volume, annotations, report, metadata."""

    case_id: str
    volume: VoxelGrid
    pseudo: LabelMap
    report: StructuredReport
    meta: CaseMeta
    gold: Optional[LabelMap] = None

    def __post_init__(self):
        maps = [self.pseudo] + ([self.gold] if self.gold is not None else [])
        for m in maps:
            if m.dims != self.volume.dims or m.spacing != self.volume.spacing:
                raise ShapeError(f"case {self.case_id}: label map lattice differs from volume")
        if self.meta.is_gold and self.gold is None:
            raise ShapeError(f"case {self.case_id}: is_gold requires a gold label map")

    @cached_property
    def label_moments(self) -> dict[int, tuple[int, float, float]]:
        """(count, sum x, sum x^2) of the float64 intensities under each label
        of pseudo (background always, a structure when its box exists),
        computed on first use and kept on the instance like LabelMap.boxes,
        so first reads of any two records serialize across threads before Python 3.12.

        Each entry gathers the voxels with one boolean index (inside the
        label's box for a structure, which picks the same voxels in the same
        raster order as on the full grid) and casts only the gathered values,
        so every sum is bit-identical to the sum over a full-grid float64
        copy. with_pseudo builds a new record, so the table never goes stale."""
        data, lab = self.volume.data, self.pseudo.labels

        def entry(vals: np.ndarray) -> tuple[int, float, float]:
            vals = vals.astype(np.float64)  # a fresh copy, so it may be squared in place
            total = vals.sum()
            vals *= vals  # the same products as vals * vals, without a second buffer
            return vals.size, total, vals.sum()

        moments = {BACKGROUND: entry(data[lab == BACKGROUND])}
        for s, box in self.pseudo.boxes.items():
            if box is not None:
                moments[s] = entry(data[box][lab[box] == s])
        return moments

    def with_pseudo(self, pseudo: LabelMap) -> "CaseRecord":
        return replace(self, pseudo=pseudo)

    def without_gold(self) -> "CaseRecord":
        return replace(self, gold=None, meta=replace(self.meta, is_gold=False))


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component decomposition of a binary mask.

    ids holds a dense component id per voxel (0 = background, components
    numbered 1..count in raster order); sizes[k] is the voxel count of
    component k+1.
    """

    ids: np.ndarray
    count: int
    sizes: np.ndarray


@dataclass(frozen=True)
class Projection2D:
    """Front-view projection: the any-hit overlay of a mask on (x, z)."""

    overlay: np.ndarray
    spacing: tuple[float, float]  # mm per pixel along (x, z)


# Per connectivity, the (dx, dy) steps from a row of z-runs to its neighbor
# rows later in raster order, each with its slack: 1 where a diagonal step in
# z joins too, so two runs a step apart touch with one voxel to spare.
# Column vectors, one row per step, to broadcast over the runs.
_ROW_STEPS = {c: np.array([(dx, dy, element[1 + dx, 1 + dy, 0])
                           for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1))
                           if element[1 + dx, 1 + dy, 1]], dtype=np.int64).T[:, :, None]
              for c, element in STRUCTURES.items()}


def connected_components(mask: np.ndarray, connectivity: int = 26) -> ComponentLabeling:
    """Label connected components of a 3D boolean mask.

    connectivity 6 joins face neighbors only; 26 joins faces, edges and
    corners. Component ids are dense from 1 in raster order; 0 is background.

    The mask is cut into runs along z, the contiguous axis, on a copy with a
    background row before and after every y row and after the last x, and
    background at both ends of every row, so a run's start and stop are
    sorted keys row * (nz + 1) + z and every neighbor row exists. Two runs
    join when their rows are neighbors under the connectivity and their z
    intervals overlap (with the step's slack), found by binary search over
    the keys. Merging hooks each root under the smaller one and jumps
    pointers until every run points at the smallest run of its component,
    so the components are numbered in the raster order of their first
    voxels, and the ids are int32, as scipy.ndimage.label numbers and types
    them.
    """
    if connectivity not in STRUCTURES:
        raise ShapeError(f"connectivity must be 6 or 26, got {connectivity}")
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    rows = np.zeros((nx + 1, ny + 2, nz + 2), dtype=bool)
    rows[:nx, 1:-1, 1:-1] = mask
    edges = np.flatnonzero(np.diff(rows, axis=2))
    start, stop = edges[0::2], edges[1::2]
    dx, dy, slack = _ROW_STEPS[connectivity]
    step = (dx * (ny + 2) + dy) * (nz + 1)
    first = np.searchsorted(stop, start + step - slack, side="right").ravel()
    n = np.searchsorted(start, stop + step + slack, side="left").ravel() - first
    ends = np.cumsum(n)  # run a[p] touches runs first[p] .. first[p] + n[p] - 1
    a = np.repeat(np.tile(np.arange(start.size), len(step)), n)
    b = np.repeat(first - ends + n, n) + np.arange(ends[-1] if ends.size else 0)
    root = np.arange(start.size)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        low = np.minimum(ra, rb)  # hook each root under the smaller one
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while True:  # point every run straight at its root
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
    label = np.cumsum(root == np.arange(root.size))[root]  # roots numbered in run order
    count = int(label.max(initial=0))
    lengths = stop - start
    ids = np.zeros(mask.shape, dtype=np.int32)
    ids[mask] = np.repeat(label, lengths)
    sizes = np.bincount(label - 1, weights=lengths, minlength=count).astype(np.int64)
    return ComponentLabeling(ids=_freeze(ids), count=count, sizes=_freeze(sizes))


def component_hits(comp: ComponentLabeling, other_mask: np.ndarray) -> np.ndarray:
    """Per-component overlap with another mask, in one pass: entry k-1 is the
    number of voxels of component k that lie in other_mask."""
    other = np.asarray(other_mask, dtype=bool)
    if other.shape != comp.ids.shape:
        raise ShapeError(f"mask shape {other.shape} != component grid {comp.ids.shape}")
    return np.bincount(comp.ids[other], minlength=comp.count + 1)[1:]


def nonzero_box(mask: np.ndarray) -> Box:
    """Slices of the smallest box holding every true voxel of mask, from
    per-axis any() projections; every slice is empty when the mask is."""
    mask = np.asarray(mask, dtype=bool)
    box = []
    for axis in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        if hit.size == 0:
            return (slice(0, 0),) * mask.ndim
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


_WORD_BITS = 16  # label_boxes' per-voxel word: bit 0 is its chunk's base label
_BIT_POSITIONS = np.arange(_WORD_BITS, dtype=np.uint16)


def label_boxes(labels: np.ndarray, n_labels: int) -> dict[int, Optional[Box]]:
    """The box of every label 1..n_labels of a 3D uint16 label map: entry s
    is nonzero_box(labels == s), or None when label s is absent.

    Labels go in chunks of 15, one pass over the map each (the default
    catalogs need one). A pass builds the uint16 word 1 << (label - base)
    per voxel, so labels base+1..base+15 set bits 1..15. The subtraction
    wraps in uint16, so a label below the base becomes 16 or more, and NumPy
    shifts any count of 16 or more out to 0: such labels, and labels above
    the chunk, set no bit. The pass OR-reduces the words along x into a
    (ny, nz) plane, and along the y-z axis of the (nx, ny*nz) view into an
    x vector; the plane gives the y and z vectors. Bit b of a projection
    is set at position i exactly when label base+b has a voxel at that
    coordinate, so its first and last set positions bound the label's
    voxels on that axis: the box find_objects(labels, max_label=n_labels)
    returns, with labels above n_labels ignored as it ignores them."""
    labels = np.asarray(labels, dtype=np.uint16)
    boxes: dict[int, Optional[Box]] = {}
    for base in range(0, n_labels, _WORD_BITS - 1):
        offset = labels - np.uint16(base) if base else labels
        words = np.left_shift(np.uint16(1), offset, dtype=np.uint16)
        plane = np.bitwise_or.reduce(words, axis=0)
        x = np.bitwise_or.reduce(words.reshape(len(words), -1), axis=1)
        present = int(np.bitwise_or.reduce(x))
        spans = []
        for proj in (x, np.bitwise_or.reduce(plane, axis=1), np.bitwise_or.reduce(plane, axis=0)):
            hit = (proj[:, None] >> _BIT_POSITIONS & 1).astype(bool)  # hit[i, b]: bit b at i
            spans.append((hit.argmax(axis=0).tolist(),
                          (len(proj) - hit[::-1].argmax(axis=0)).tolist()))
        for s in range(base + 1, min(base + _WORD_BITS, n_labels + 1)):
            b = s - base
            boxes[s] = (tuple(slice(first[b], stop[b]) for first, stop in spans)
                        if present >> b & 1 else None)
    return boxes


def box_hull(boxes: Iterable[Optional[Box]]) -> Optional[Box]:
    """The smallest box holding every given box; None entries are skipped,
    and the hull of no box is None."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                 for axis in zip(*boxes))


def pad_box(box: Box, margin: int, dims: Sequence[int]) -> Box:
    """box grown by margin voxels on every side, clipped to a grid of shape dims."""
    return tuple(slice(max(b.start - margin, 0), min(b.stop + margin, n))
                 for b, n in zip(box, dims))


def structure_mask_pairs(a: LabelMap, b: LabelMap
                         ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per catalog label s of a: (s, a == s, b == s), both masks cropped to
    the hull of the two label boxes. That hull is nonzero_box((a == s) |
    (b == s)), so every voxel of either mask lies inside it; an empty pair
    gives two empty crops. The boxes are the maps' own memoised tables
    (LabelMap.boxes), which equal a fresh label_boxes pass."""
    for s in a.catalog.labels:
        box = box_hull((a.boxes[s], b.boxes[s])) or (slice(0, 0),) * a.labels.ndim
        yield s, a.labels[box] == s, b.labels[box] == s


def largest_component(mask: np.ndarray, connectivity: int = 26) -> np.ndarray:
    """Keep only the largest connected component (first in raster order on ties)."""
    comp = connected_components(mask, connectivity)
    if comp.count <= 1:
        return np.asarray(mask, dtype=bool)
    keep = int(np.argmax(comp.sizes)) + 1
    return comp.ids == keep


def _shifted(mask: np.ndarray, offsets: Iterable[Sequence[int]]) -> Iterator[np.ndarray]:
    """mask read at v + d for every voxel v, one view per offset d; voxels
    beyond the grid read as background."""
    offsets = np.asarray(list(offsets), dtype=np.int64).reshape(-1, mask.ndim)
    reach = np.abs(offsets).max(axis=0, initial=0).tolist()
    padded = np.zeros([n + 2 * r for n, r in zip(mask.shape, reach)], dtype=mask.dtype)
    padded[tuple(slice(r, r + n) for r, n in zip(reach, mask.shape))] = mask
    for d in offsets.tolist():
        yield padded[tuple(slice(r + k, r + k + n) for r, k, n in zip(reach, d, mask.shape))]


def _face_erosion(mask: np.ndarray) -> np.ndarray:
    """The voxels of mask whose face neighbors are all in it, everything
    outside the grid counting as background: binary_erosion with border_value
    0, so the grid's outer layer is always cleared."""
    out = mask.copy()
    for near in _shifted(mask, _FACE_OFFSETS):
        out &= near
    return out


def _face_dilation(mask: np.ndarray) -> np.ndarray:
    """mask grown by its face neighbors, within the grid."""
    out = mask.copy()
    for near in _shifted(mask, _FACE_OFFSETS):
        out |= near
    return out


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Surface voxels: in the mask with a face neighbor outside it or on the grid border."""
    mask = np.asarray(mask, dtype=bool)
    return mask & ~_face_erosion(mask)


def face_dilation(mask: np.ndarray) -> np.ndarray:
    """The mask grown by its face neighbors, computed on the mask's box
    padded by one voxel only: no voxel outside it is a neighbor."""
    mask = np.asarray(mask, dtype=bool)
    box = pad_box(nonzero_box(mask), 1, mask.shape)
    out = np.zeros_like(mask)
    out[box] = _face_dilation(mask[box])
    return out


def face_closing(mask: np.ndarray) -> np.ndarray:
    """Face dilation then face erosion, as binary_closing does it: the
    dilation stops at the grid, and the erosion treats everything outside
    the grid as background, so it can clear mask voxels on a grid face."""
    return _face_erosion(_face_dilation(np.asarray(mask, dtype=bool)))


def within_mm(mask: np.ndarray, tolerance_mm: float, spacing: Sequence[float]) -> np.ndarray:
    """The voxels whose exact Euclidean distance (mm, at the given voxel
    spacing) to the nearest voxel of a nonempty mask is strictly below
    tolerance_mm.

    The mask is grown by every voxel offset d within the tolerance, the
    distance of d computed as distance_transform_edt computes it: each step
    times its spacing, squared, summed over the axes in order, then the
    square root; so a voxel exactly at the tolerance is out. The distance
    grows with |dz|, so the dz of one (dx, dy) form a range [-r, r]: the mask
    is grown along z one step at a time, and at each r, shifted once per
    (dx, dy) of that radius."""
    mask = np.asarray(mask, dtype=bool)
    steps = [float(s) for s in spacing]

    def near(*d: int) -> bool:
        x, y, z = ((k * s) * (k * s) for k, s in zip(d, steps))
        return math.sqrt(x + y + z) < tolerance_mm

    def reach(*head: int) -> int:
        """The largest k < the grid's side on the axis after head with
        head + (k, 0, ...) near; -1 for none."""
        axis, k = len(head), -1
        while k + 1 < mask.shape[axis] and near(*head, k + 1, *[0] * (2 - axis)):
            k += 1
        return k

    radius = {}  # (dx, dy) -> r
    for dx in range(reach() + 1):
        for dy in range(reach(dx) + 1):
            r = reach(dx, dy)
            radius.update(dict.fromkeys([(dx, dy), (-dx, dy), (dx, -dy), (-dx, -dy)], r))
    out = np.zeros_like(mask)
    top = max(radius.values(), default=-1)
    grown = mask.copy()
    along_z = _shifted(mask, [(0, 0, k) for r in range(1, top + 1) for k in (r, -r)])
    for r in range(top + 1):
        if r:
            grown |= next(along_z)
            grown |= next(along_z)
        for moved in _shifted(grown, [(dx, dy, 0) for (dx, dy), k in radius.items() if k == r]):
            out |= moved
    return out


def front_view_projection(volume: VoxelGrid, mask: np.ndarray) -> Projection2D:
    """Project a mask on a volume's lattice along y onto the x-z plane: the
    overlay pixel (x, z) is true iff any mask voxel along that y-column is."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != volume.dims:
        raise ShapeError(f"mask shape {mask.shape} != volume dims {volume.dims}")
    overlay = mask.any(axis=1)
    sx, _, sz = volume.spacing
    return Projection2D(overlay=_freeze(overlay), spacing=(sx, sz))
