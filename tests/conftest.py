import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import emcurate as em
import emcurate.volume_io as vio
from emcurate.grid import (
    CaseMeta,
    CaseRecord,
    ContrastPhase,
    LabelMap,
    Sex,
    StructureCatalog,
    StructureEntry,
    StructureKind,
    VoxelGrid,
)

# Property tests replay the same examples on every run, write no example
# database and take a bounded time.
settings.register_profile("emcurate", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("emcurate")


@pytest.fixture(scope="session")
def run_cfg():
    return em.load_run_config()


@pytest.fixture(scope="session")
def catalog(run_cfg):
    return run_cfg.catalog


@pytest.fixture(scope="session")
def small_corpus(run_cfg):
    """12 cases with the default noise profile, for mid-weight tests."""
    cases, logs = em.generate_corpus(run_cfg.phantom, run_cfg.noise, 12, 0.25, seed=123)
    return cases, logs


def make_label_map(labels, catalog, spacing=(1.0, 1.0, 1.0)):
    labels = np.asarray(labels, dtype=np.uint16)
    return LabelMap(dims=labels.shape, spacing=spacing, labels=labels, catalog=catalog)


def make_case(volume_data, labels, catalog, case_id="t0", gold_labels=None,
              tumor_count=0, spacing=(1.0, 1.0, 1.0), is_gold=False):
    volume_data = np.asarray(volume_data, dtype=np.float32)
    volume = VoxelGrid(dims=volume_data.shape, spacing=spacing, data=volume_data)
    pseudo = make_label_map(labels, catalog, spacing)
    gold = make_label_map(gold_labels, catalog, spacing) if gold_labels is not None else None
    report = em.StructuredReport(
        tumor_present=tumor_count > 0, tumor_count=tumor_count,
        tumor_type=em.TumorType.PDAC if tumor_count else None)
    meta = CaseMeta(age=60, sex=Sex.FEMALE, phase=ContrastPhase.VENOUS, is_gold=is_gold)
    return CaseRecord(case_id=case_id, volume=volume, pseudo=pseudo, gold=gold,
                      report=report, meta=meta)


# Catalog of the box-cropping property tests: organs and a tumor, so both
# cleanup kinds run.
CAT4 = StructureCatalog((
    StructureEntry(1, "organ_a", StructureKind.ORGAN),
    StructureEntry(2, "organ_b", StructureKind.ORGAN),
    StructureEntry(3, "tumor_c", StructureKind.TUMOR),
    StructureEntry(4, "organ_d", StructureKind.ORGAN),
))


@st.composite
def label_volumes(draw, n: int = 1, labels: int = 4):
    """n label arrays of one random shape (sides 1..7), with labels up to
    `labels` (CAT4's by default). Each draws its highest label and its share
    of background, so structures are absent, sparse or dense, and often
    touch the grid border."""
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    volumes = []
    for _ in range(n):
        top = draw(st.integers(1, labels))
        pool = [0] * draw(st.integers(0, 6)) + list(range(1, top + 1))
        volumes.append(draw(arrays(np.uint16, shape, elements=st.sampled_from(pool))))
    return tuple(volumes)


@st.composite
def boxed_mask_pairs(draw):
    """Two boolean masks of one random shape (sides 2..9), each filled only
    inside its own random sub-box, so each mask's box is smaller than the
    grid."""
    shape = draw(st.tuples(*[st.integers(2, 9)] * 3))
    masks = []
    for _ in range(2):
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        box = tuple(slice(a, draw(st.integers(a + 1, n))) for a, n in zip(lo, shape))
        mask = np.zeros(shape, bool)
        mask[box] = draw(arrays(bool, mask[box].shape))
        masks.append(mask)
    return tuple(masks)


def intensities_for(labels, rng) -> np.ndarray:
    """Float32 intensities whose per-label levels overlap, so a fitted model
    predicts fragmented structures."""
    return (labels * 20.0 + rng.normal(0.0, 12.0, labels.shape)).astype(np.float32)


def repacked_volume(raw: bytes, edit) -> bytes:
    """The volume file ``raw`` with its spacing and voxels rewritten as
    edit(spacing, voxels) -> (spacing, voxels) under a header packed by hand
    with the same dtype code, so it can hold content that encode_volume would
    not write, such as a NaN or a label outside the catalog."""
    _magic, _version, dtype_code, nx, ny, nz, *spacing = vio._HEADER.unpack_from(raw)
    np_dtype = "<f4" if dtype_code == vio.DTYPE_F32 else "<u2"
    data = np.frombuffer(raw, np_dtype, offset=vio._HEADER.size).reshape((nx, ny, nz), order="F")
    spacing, data = edit(tuple(spacing), data.copy())
    header = vio._HEADER.pack(vio.MAGIC, vio.FORMAT_VERSION, dtype_code, *data.shape, *spacing)
    return header + data.tobytes(order="F")
