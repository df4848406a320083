"""Synthetic corpus generator.

Builds 3D phantoms (axis-aligned ellipsoids/cylinders/spheres with Gaussian
per-structure intensities), clean gold label maps, structured reports, and
parameterized annotation-noise injection that turns gold labels into
realistic pseudo-annotations.

Geometry is specified in normalized [0,1]^3 coordinates; voxel (ix,iy,iz)
has normalized center ((ix+0.5)/nx, ...). Randomness comes from numpy's
PCG64 generator seeded through SeedSequence; each case derives its streams
as SeedSequence([corpus_seed, case_index]) spawned into (geometry,
intensity, metadata) children, so corpora are reproducible voxel-for-voxel
for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError
from .grid import (
    BACKGROUND,
    TUMOR_CONNECTIVITY,
    CaseMeta,
    CaseRecord,
    ContrastPhase,
    LabelMap,
    Sex,
    StructureCatalog,
    StructureEntry,
    StructureKind,
    StructuredReport,
    TumorType,
    VoxelGrid,
    boundary_voxels,
    connected_components,
    face_dilation,
    nonzero_box,
    pad_box,
)


class ShapeKind(str, Enum):
    ELLIPSOID = "ellipsoid"
    CYLINDER = "cylinder"


@dataclass(frozen=True)
class Gaussian:
    mean: float
    std: float


@dataclass(frozen=True)
class StructureShapeSpec:
    label: int
    name: str
    kind: StructureKind
    shape: ShapeKind
    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    intensity: Gaussian

    def __post_init__(self):
        if any(r <= 0 for r in self.radii):
            raise ConfigError(f"radii must be positive, got {list(self.radii)}")
        if any(c - r < 0.0 or c + r > 1.0 for c, r in zip(self.center, self.radii)):
            raise ConfigError("center +- radii must lie within the unit cube, "
                              f"got center {list(self.center)}, radii {list(self.radii)}")
        if self.intensity.std <= 0:
            raise ConfigError(f"intensity.std must be > 0, got {self.intensity.std}")


@dataclass(frozen=True)
class TumorSpec:
    label: int
    name: str = field(default="tumor", kw_only=True)
    host_label: int
    count_range: tuple[int, int]
    radius_range: tuple[float, float]  # normalized units
    intensity_offset: float
    intensity_std: float

    def __post_init__(self):
        lo, hi = self.count_range
        if lo < 0 or hi < lo:
            raise ConfigError(f"count_range must satisfy 0 <= lo <= hi, got {[lo, hi]}")
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ConfigError(f"radius_range must satisfy 0 < lo <= hi, got {[lo, hi]}")
        if self.intensity_std < 0:
            raise ConfigError(f"intensity_std must be >= 0, got {self.intensity_std}")


@dataclass(frozen=True)
class PhantomSpec:
    structures: tuple[StructureShapeSpec, ...]
    tumor: Optional[TumorSpec] = field(default=None, kw_only=True)
    background: Gaussian
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))
        if any(d <= 0 for d in self.dims):
            raise ConfigError(f"dims must be positive, got {list(self.dims)}")
        if any(s <= 0 for s in self.spacing):
            raise ConfigError(f"spacing must be positive, got {list(self.spacing)}")
        if self.background.std < 0:
            raise ConfigError(f"background.std must be >= 0, got {self.background.std}")
        if self.tumor and all(s.label != self.tumor.host_label for s in self.structures):
            raise ConfigError("tumor.host_label must name a structure, "
                              f"got {self.tumor.host_label}")

    @property
    def catalog(self) -> StructureCatalog:
        entries = [StructureEntry(s.label, s.name, s.kind) for s in self.structures]
        if self.tumor is not None:
            entries.append(StructureEntry(self.tumor.label, self.tumor.name, StructureKind.TUMOR))
        entries.sort(key=lambda e: e.label)
        return StructureCatalog(tuple(entries))

    def host_spec(self) -> StructureShapeSpec:
        return next(s for s in self.structures if s.label == self.tumor.host_label)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-structure corruption probabilities and magnitudes.

    The generic operations (delete/shift/fragment/spurious/jitter) apply to
    organ and vessel structures; tumors get their own instance-miss and
    false-blob channels. All magnitudes are in voxels.
    """

    delete: float = 0.06
    shift: float = 0.12
    fragment: float = 0.05
    spurious: float = 0.05
    boundary_jitter: float = 0.02
    shift_voxels: tuple[int, int] = (4, 8)
    shift_axes: tuple[float, float, float] = (0.475, 0.05, 0.475)  # axis sampling weights
    fragment_thickness: int = 2
    spurious_radius: tuple[float, float] = (2.0, 3.0)
    spurious_margin: int = 10  # blobs land within this many voxels of the structure
    tumor_miss: float = 0.30
    tumor_fp_rate: float = 0.50
    tumor_fp_radius: tuple[float, float] = (2.0, 3.0)

    def __post_init__(self):
        for name in ("delete", "shift", "fragment", "spurious", "boundary_jitter", "tumor_miss"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if self.tumor_fp_rate < 0:
            raise ConfigError(f"tumor_fp_rate must be >= 0, got {self.tumor_fp_rate}")
        lo, hi = self.shift_voxels
        if lo < 0 or hi < lo:
            raise ConfigError(f"shift_voxels must satisfy 0 <= lo <= hi, got {[lo, hi]}")
        if any(w < 0 for w in self.shift_axes) or sum(self.shift_axes) <= 0:
            raise ConfigError("shift_axes must be nonnegative with a positive sum, "
                              f"got {list(self.shift_axes)}")
        if self.fragment_thickness < 1:
            raise ConfigError(f"fragment_thickness must be >= 1, got {self.fragment_thickness}")
        if self.spurious_margin < 0:
            raise ConfigError(f"spurious_margin must be >= 0, got {self.spurious_margin}")
        for name in ("spurious_radius", "tumor_fp_radius"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi, got {[lo, hi]}")


@dataclass(frozen=True)
class InjectionOp:
    """One logged corruption, replayable bit-exactly from its parameters."""

    structure: int
    op: str
    params: dict


def _normalized_axes(dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(((np.arange(n) + 0.5) / n).astype(np.float64) for n in dims)


def _shape_mask(dims, shape: ShapeKind, center, radii) -> np.ndarray:
    xs, ys, zs = _normalized_axes(dims)
    dx = (xs - center[0]) / radii[0]
    dy = (ys - center[1]) / radii[1]
    dz = (zs - center[2]) / radii[2]
    out = np.zeros(dims, dtype=bool)
    # a sum of squares <= 1 needs every term <= 1, so the shape lies inside
    # this box; evaluating the same expressions there gives the same voxels
    box = tuple(nonzero_box(np.abs(d) <= 1.0)[0] for d in (dx, dy, dz))
    dx, dy, dz = dx[box[0]], dy[box[1]], dz[box[2]]
    if shape is ShapeKind.CYLINDER:
        # axis along z: elliptical cross-section, slab in z
        radial = dx[:, None] ** 2 + dy[None, :] ** 2
        out[box] = (radial[:, :, None] <= 1.0) & (np.abs(dz)[None, None, :] <= 1.0)
    else:
        q = dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
        out[box] = q <= 1.0
    return out


def _sphere_mask_vox(dims, center_vox, radius_vox) -> np.ndarray:
    out = np.zeros(dims, dtype=bool)
    box = tuple(nonzero_box((np.arange(n) - c) ** 2 <= radius_vox ** 2)[0]
                for n, c in zip(dims, center_vox))
    grids = np.ogrid[box]
    q = sum((g - c) ** 2 for g, c in zip(grids, center_vox))
    out[box] = q <= radius_vox ** 2
    return out


def _sample_tumors(spec: PhantomSpec, rng: np.random.Generator) -> list[tuple[tuple, float]]:
    """Sample non-touching tumor spheres inside the host; returns (center, radius) in normalized units."""
    tum = spec.tumor
    host = spec.host_spec()
    min_dim = min(spec.dims)
    margin = 1.5 / min_dim                      # keep tumors off the host surface
    sep = 2.0 / min_dim                         # > sqrt(3) voxels: instances never touch
    count = int(rng.integers(tum.count_range[0], tum.count_range[1] + 1))
    placed: list[tuple[tuple, float]] = []
    for _ in range(count):
        for _attempt in range(200):
            r_hi = min(tum.radius_range[1], min(host.radii) - margin)
            if r_hi < tum.radius_range[0]:
                break
            r = float(rng.uniform(tum.radius_range[0], r_hi))
            # uniform direction inside the unit ball, scaled into the shrunken host
            u = rng.normal(size=3)
            u /= max(np.linalg.norm(u), 1e-12)
            scale = float(rng.uniform(0, 1)) ** (1 / 3)
            center = tuple(host.center[i] + u[i] * scale * (host.radii[i] - r - margin)
                           for i in range(3))
            if all(math.dist(center, c0) > r + r0 + sep for c0, r0 in placed):
                placed.append((center, r))
                break
    return placed


def generate_case(spec: PhantomSpec, seed: Union[int, np.random.SeedSequence],
                  case_id: str = "case_0000", is_gold: bool = False) -> CaseRecord:
    """Rasterize one phantom: clean gold labels, intensities, report, metadata.

    Structures are painted in listed order (later ones overwrite earlier at
    collisions); tumors are painted last and always overwrite their host.
    The pseudo annotation starts identical to gold.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    geom_ss, intens_ss, meta_ss = ss.spawn(3)
    geom_rng = np.random.default_rng(geom_ss)
    intens_rng = np.random.default_rng(intens_ss)
    meta_rng = np.random.default_rng(meta_ss)

    labels = np.zeros(spec.dims, dtype=np.uint16)
    for s in spec.structures:
        labels[_shape_mask(spec.dims, s.shape, s.center, s.radii)] = s.label

    tumors: list[tuple[tuple, float]] = []
    if spec.tumor is not None:
        tumors = _sample_tumors(spec, geom_rng)
        for center, r in tumors:
            sphere = _shape_mask(spec.dims, ShapeKind.ELLIPSOID, center, (r, r, r))
            labels[sphere] = spec.tumor.label

    data = intens_rng.normal(spec.background.mean, spec.background.std,
                             size=spec.dims).astype(np.float32)
    for s in spec.structures:
        m = labels == s.label
        data[m] = intens_rng.normal(s.intensity.mean, s.intensity.std,
                                    size=int(np.count_nonzero(m))).astype(np.float32)
    if spec.tumor is not None and tumors:
        host = spec.host_spec()
        m = labels == spec.tumor.label
        data[m] = intens_rng.normal(host.intensity.mean + spec.tumor.intensity_offset,
                                    spec.tumor.intensity_std,
                                    size=int(np.count_nonzero(m))).astype(np.float32)

    n_tumors = len(tumors)
    tumor_type = None
    if n_tumors > 0:
        tumor_type = TumorType(list(TumorType)[int(meta_rng.integers(0, len(TumorType)))])
    report = StructuredReport(tumor_present=n_tumors > 0, tumor_count=n_tumors,
                              tumor_type=tumor_type)
    meta = CaseMeta(
        age=int(meta_rng.integers(35, 86)),
        sex=Sex.FEMALE if meta_rng.integers(0, 2) == 0 else Sex.MALE,
        phase=list(ContrastPhase)[int(meta_rng.integers(0, len(ContrastPhase)))],
        is_gold=is_gold,
    )
    catalog = spec.catalog
    gold = LabelMap(dims=spec.dims, spacing=spec.spacing, labels=labels, catalog=catalog)
    volume = VoxelGrid(dims=spec.dims, spacing=spec.spacing, data=data)
    return CaseRecord(case_id=case_id, volume=volume, pseudo=gold, gold=gold,
                      report=report, meta=meta)


# ---------------------------------------------------------------------------
# noise operations: each op is a deterministic function of its logged params


def _shift_mask(mask: np.ndarray, vec: tuple[int, int, int]) -> np.ndarray:
    out = np.zeros_like(mask)
    src = []
    dst = []
    for d, n in zip(vec, mask.shape):
        if abs(d) >= n:
            return out
        if d >= 0:
            src.append(slice(0, n - d))
            dst.append(slice(d, n))
        else:
            src.append(slice(-d, n))
            dst.append(slice(0, n + d))
    out[tuple(dst)] = mask[tuple(src)]
    return out


def _apply_op(labels: np.ndarray, op: InjectionOp) -> None:
    s = op.structure
    p = op.params
    mask = labels == s
    if op.op == "delete":
        labels[mask] = BACKGROUND
    elif op.op == "shift":
        vec = tuple(int(v) for v in p["vector"])
        shifted = _shift_mask(mask, vec)
        labels[mask] = BACKGROUND
        labels[shifted] = s
    elif op.op == "fragment":
        axis = int(p["axis"])
        pos = int(p["position"])
        th = int(p["thickness"])
        idx = [slice(None)] * 3
        idx[axis] = slice(max(pos - th // 2, 0), pos + (th + 1) // 2)
        slab = np.zeros_like(mask)
        slab[tuple(idx)] = True
        labels[mask & slab] = BACKGROUND
    elif op.op == "spurious":
        blob = _sphere_mask_vox(labels.shape, p["center"], float(p["radius"]))
        labels[blob & (labels == BACKGROUND)] = s
    elif op.op == "jitter":
        if p["mode"] == "dilate":
            labels[face_dilation(mask) & (labels == BACKGROUND)] = s
        else:
            # the padded layer lies outside the mask, so the crop's surface
            # voxels are the grid's
            box = pad_box(nonzero_box(mask), 1, mask.shape)
            labels[box][boundary_voxels(mask[box])] = BACKGROUND
    elif op.op == "tumor_miss":
        # raster-order ids are the same on the bounding box as on the grid
        box = nonzero_box(mask)
        comp = connected_components(mask[box], TUMOR_CONNECTIVITY)
        labels[box][comp.ids == int(p["instance"])] = BACKGROUND
    elif op.op == "tumor_fp":
        blob = _sphere_mask_vox(labels.shape, p["center"], float(p["radius"]))
        labels[blob & (labels == int(p["host"]))] = s
    else:
        raise ConfigError(f"unknown injection op '{op.op}'")


def apply_injections(gold: LabelMap, log: Sequence[InjectionOp]) -> LabelMap:
    """Replay a logged injection sequence on clean labels (bit-exact)."""
    labels = gold.labels.copy()
    for op in log:
        _apply_op(labels, op)
    return gold.with_labels(labels)


def inject_noise(case: CaseRecord, noise: NoiseSpec,
                 seed: Union[int, np.random.SeedSequence]) -> tuple[CaseRecord, list[InjectionOp]]:
    """Corrupt the pseudo annotation per sampled operations; gold is untouched.

    Returns the corrupted case and the injection log, which is sufficient to
    replay the corruption on the gold labels.
    """
    if case.gold is None:
        raise ConfigError(f"case {case.case_id}: noise injection needs gold labels")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    catalog = case.gold.catalog
    dims = case.gold.dims
    labels = case.gold.labels.copy()
    log: list[InjectionOp] = []

    def fire(op: InjectionOp):
        _apply_op(labels, op)
        log.append(op)

    for entry in catalog.entries:
        if entry.kind is StructureKind.TUMOR:
            continue
        s = entry.label
        if rng.random() < noise.delete:
            fire(InjectionOp(s, "delete", {}))
            continue
        if rng.random() < noise.shift:
            axis_w = np.asarray(noise.shift_axes, dtype=float)
            axis = int(rng.choice(3, p=axis_w / axis_w.sum()))
            mag = int(rng.integers(noise.shift_voxels[0], noise.shift_voxels[1] + 1))
            sign = 1 if rng.random() < 0.5 else -1
            vec = [0, 0, 0]
            vec[axis] = sign * mag
            fire(InjectionOp(s, "shift", {"vector": vec}))
        if rng.random() < noise.fragment:
            mask = labels == s
            if mask.any():
                axis = 0 if rng.random() < 0.5 else 2
                pos = int(round(np.mean(np.nonzero(mask)[axis])))
                fire(InjectionOp(s, "fragment", {"axis": axis, "position": pos,
                                                 "thickness": noise.fragment_thickness}))
        if rng.random() < noise.spurious:
            mask = labels == s
            if mask.any():
                # annotation slips land near the structure, not anywhere
                idx = np.nonzero(mask)
                r = float(rng.uniform(*noise.spurious_radius))
                near_self = face_dilation(mask)
                for _ in range(50):
                    center = []
                    for axis, d in enumerate(dims):
                        lo = max(int(idx[axis].min()) - noise.spurious_margin, int(r) + 1)
                        hi = min(int(idx[axis].max()) + noise.spurious_margin, d - int(r) - 2)
                        if hi < lo:
                            lo = hi = d // 2
                        center.append(int(rng.integers(lo, hi + 1)))
                    blob = _sphere_mask_vox(dims, center, r)
                    if not (blob & near_self).any():
                        fire(InjectionOp(s, "spurious", {"center": center, "radius": r}))
                        break
        if rng.random() < noise.boundary_jitter:
            mode = "dilate" if rng.random() < 0.5 else "erode"
            fire(InjectionOp(s, "jitter", {"mode": mode}))

    for tumor_label in catalog.tumor_labels:
        tumor_mask = labels == tumor_label
        comp = connected_components(tumor_mask[nonzero_box(tumor_mask)], TUMOR_CONNECTIVITY)
        for inst in range(1, comp.count + 1):
            if rng.random() < noise.tumor_miss:
                fire(InjectionOp(tumor_label, "tumor_miss", {"instance": inst}))
        # false blobs imitate over-called tumor tissue inside a host organ
        n_blobs = min(int(rng.poisson(noise.tumor_fp_rate)), 3)
        organ_labels = [e.label for e in catalog.entries if e.kind is StructureKind.ORGAN]
        for _ in range(n_blobs):
            if not organ_labels:
                break
            r = float(rng.uniform(*noise.tumor_fp_radius))
            placed = False
            near_tumor = face_dilation(labels == tumor_label)
            for _ in range(50):
                host = organ_labels[int(rng.integers(0, len(organ_labels)))]
                host_vox = np.argwhere(labels == host)
                if len(host_vox) == 0:
                    break
                center = host_vox[int(rng.integers(0, len(host_vox)))]
                blob = _sphere_mask_vox(dims, center, r)
                if not (blob & near_tumor).any():
                    fire(InjectionOp(tumor_label, "tumor_fp",
                                     {"center": [int(c) for c in center], "radius": r,
                                      "host": host}))
                    placed = True
                    break
            if not placed:
                break

    pseudo = case.gold.with_labels(labels)
    return case.with_pseudo(pseudo), log


class PhantomSource:
    """Factory for augmented synthetic training cases.

    Every sample jitters the structure intensity means (uniform within
    +/- intensity_jitter) and re-rolls tumor count/size/location through a
    fresh seed, so synthetic data varies in location, shape, size and
    intensity while keeping clean labels.
    """

    def __init__(self, spec: PhantomSpec, intensity_jitter: float):
        self.spec = spec
        self.intensity_jitter = float(intensity_jitter)

    def sample(self, seed: Union[int, np.random.SeedSequence],
               case_id: str = "synth_0000") -> CaseRecord:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        jitter_ss, case_ss = ss.spawn(2)
        rng = np.random.default_rng(jitter_ss)
        j = self.intensity_jitter

        def jittered(g: Gaussian) -> Gaussian:
            return replace(g, mean=g.mean + float(rng.uniform(-j, j)))

        # each structure's draw first, then the background's
        structures = tuple(replace(s, intensity=jittered(s.intensity))
                           for s in self.spec.structures)
        spec = replace(self.spec, structures=structures, background=jittered(self.spec.background))
        return generate_case(spec, case_ss, case_id=case_id)


def generate_corpus(spec: PhantomSpec, noise: Optional[NoiseSpec], n_cases: int,
                    gold_fraction: float, seed: int
                    ) -> tuple[list[CaseRecord], dict[str, list[InjectionOp]]]:
    """Generate n_cases phantoms with per-case derived seeds.

    The first ceil(gold_fraction * n_cases) cases are flagged is_gold and keep
    clean pseudo annotations; the rest get noise-injected pseudo annotations
    (when a noise spec is given). Returns the corpus and per-case injection logs.
    """
    if n_cases < 1:
        raise ConfigError("n_cases must be >= 1")
    if not 0.0 <= gold_fraction <= 1.0:
        raise ConfigError("gold_fraction must lie in [0, 1]")
    n_gold = math.ceil(gold_fraction * n_cases)
    cases: list[CaseRecord] = []
    logs: dict[str, list[InjectionOp]] = {}
    for i in range(n_cases):
        case_ss = np.random.SeedSequence([seed, i])
        gen_ss, noise_ss = case_ss.spawn(2)
        case = generate_case(spec, gen_ss, case_id=f"case_{i:04d}", is_gold=i < n_gold)
        if noise is not None and i >= n_gold:
            case, log = inject_noise(case, noise, noise_ss)
            logs[case.case_id] = log
        else:
            logs[case.case_id] = []
        cases.append(case)
    return cases, logs
