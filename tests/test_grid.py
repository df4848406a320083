import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from emcurate import (
    CatalogError,
    ShapeError,
    StructureCatalog,
    StructureEntry,
    StructureKind,
    VoxelGrid,
    connected_components,
    front_view_projection,
    largest_component,
)
from emcurate.grid import (
    STRUCTURES,
    StructuredReport,
    TumorType,
    boundary_voxels,
    box_hull,
    component_hits,
    face_closing,
    face_dilation,
    label_boxes,
    nonzero_box,
    pad_box,
    structure_mask_pairs,
    within_mm,
)

from conftest import CAT4, label_volumes, make_case, make_label_map
from oracles import STRUCTURES as SCIPY_STRUCTURES
from oracles import (
    brute_components,
    brute_front_overlay,
    edt_within_mm,
    eroded_boundary,
    find_objects_boxes,
    full_grid_face_dilation,
    ndimage_closing,
    ndimage_label,
    overlay_component_count,
)

CAT = StructureCatalog((
    StructureEntry(1, "a", StructureKind.ORGAN),
    StructureEntry(2, "b", StructureKind.ORGAN),
    StructureEntry(3, "c", StructureKind.TUMOR),
))


def test_catalog_requires_dense_labels():
    with pytest.raises(CatalogError):
        StructureCatalog((StructureEntry(2, "x", StructureKind.ORGAN),))
    with pytest.raises(CatalogError):
        StructureCatalog((StructureEntry(1, "x", StructureKind.ORGAN),
                          StructureEntry(1, "y", StructureKind.ORGAN)))


def test_catalog_entry_of_unknown_label():
    assert CAT.entry(2).name == "b"
    with pytest.raises(CatalogError, match="label 4 not in catalog"):
        CAT.entry(4)


def test_case_record_label_maps_share_the_volume_lattice():
    volume, other = np.zeros((2, 2, 2)), np.zeros((2, 2, 3))
    for labels, gold in ((other, None), (volume, other)):
        with pytest.raises(ShapeError, match="lattice differs from volume"):
            make_case(volume, labels, CAT4, gold_labels=gold)


def test_voxel_grid_validation():
    with pytest.raises(ShapeError):
        VoxelGrid(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros((2, 2, 3)))
    with pytest.raises(ShapeError):
        VoxelGrid(dims=(2, 2, 2), spacing=(1, 0, 1), data=np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        VoxelGrid(dims=(2, 2, 2), spacing=(1, 1, 1),
                  data=np.full((2, 2, 2), np.nan))


def test_label_map_rejects_unknown_labels():
    with pytest.raises(CatalogError):
        make_label_map(np.full((2, 2, 2), 9), CAT)


def test_grid_arrays_are_frozen():
    grid = VoxelGrid(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        grid.data[0, 0, 0] = 1.0


def test_report_invariants():
    with pytest.raises(ShapeError):
        StructuredReport(tumor_present=True, tumor_count=0, tumor_type=TumorType.PDAC)
    with pytest.raises(ShapeError):
        StructuredReport(tumor_present=True, tumor_count=1, tumor_type=None)
    StructuredReport(tumor_present=False, tumor_count=0)  # valid


def test_label_masks_partition_voxels():
    rng = np.random.default_rng(7)
    lm = make_label_map(rng.integers(0, 4, size=(5, 5, 5)), CAT)
    total = np.zeros(lm.dims, dtype=int)
    for label in [0] + CAT.labels:
        total += (lm.labels == label).astype(int)
    assert (total == 1).all()


def test_connected_components_empty_and_solid():
    assert connected_components(np.zeros((3, 3, 3), bool), 6).count == 0
    comp = connected_components(np.ones((3, 3, 3), bool), 6)
    assert comp.count == 1
    assert comp.sizes.tolist() == [27]


def test_connected_components_bridge():
    mask = np.zeros((3, 1, 1), bool)
    mask[0, 0, 0] = mask[2, 0, 0] = True
    assert connected_components(mask, 6).count == 2
    mask[1, 0, 0] = True
    comp = connected_components(mask, 6)
    assert comp.count == 1
    assert comp.sizes.tolist() == [3]


def test_connected_components_invalid_connectivity():
    with pytest.raises(ShapeError):
        connected_components(np.zeros((2, 2, 2), bool), 18)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_connected_components_match_flood_fill(connectivity):
    rng = np.random.default_rng(42)
    for _ in range(25):
        mask = rng.random((6, 6, 6)) < 0.3
        comp = connected_components(mask, connectivity)
        expected = brute_components(mask, connectivity)
        assert comp.count == len(expected)
        # permutation-invariant: compare as sets of voxel sets
        got = [set(map(tuple, np.argwhere(comp.ids == k)))
               for k in range(1, comp.count + 1)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
        assert sorted(comp.sizes.tolist()) == sorted(len(c) for c in expected)


def test_structures_match_generate_binary_structure():
    for connectivity, element in SCIPY_STRUCTURES.items():
        got = STRUCTURES[connectivity]
        assert got.dtype == element.dtype and np.array_equal(got, element)
        assert not got.flags.writeable


@st.composite
def voxel_masks(draw, sides=st.integers(0, 7)):
    """A mask of random shape (sides of 0 and 1 included) and density, drawn
    from a seeded generator, so it holds many components of many shapes,
    often on the grid faces; density 0 and 1 give empty and full masks."""
    shape = draw(st.tuples(sides, sides, sides))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density


def _seeded(shape, density=0.5):
    return np.random.default_rng(0).random(shape) < density


def _shell(mask):
    """mask's voxels on the grid faces only: components on every face."""
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1, 1:-1] = True
    return mask & ~inner


# Masks every kernel oracle test runs on: empty, full, components on every
# grid face, each axis one voxel thick, and a crop with no voxel at all.
KERNEL_EXAMPLES = (np.zeros((3, 4, 5), bool), np.ones((3, 4, 5), bool),
                   _shell(_seeded((5, 6, 7))), _seeded((1, 6, 7)), _seeded((6, 1, 7)),
                   _seeded((6, 7, 1)), np.zeros((0, 3, 4), bool))


def kernel_examples(test):
    for mask in KERNEL_EXAMPLES:
        test = example(mask=mask)(test)
    return test


@pytest.mark.parametrize("connectivity", [6, 26])
@given(mask=voxel_masks())
@kernel_examples
def test_connected_components_match_ndimage_label(connectivity, mask):
    """Equal ids, so equal raster-order numbering, which the flood-fill
    comparison above (made on sets of voxels) cannot tell apart; equal
    counts and sizes, and ndimage.label's int32 ids."""
    comp = connected_components(mask, connectivity)
    ids, count = ndimage_label(mask, connectivity)
    assert comp.count == count
    assert comp.ids.dtype == ids.dtype == np.int32
    assert np.array_equal(comp.ids, ids)
    assert comp.sizes.dtype == np.int64
    assert comp.sizes.tolist() == np.bincount(ids.ravel(), minlength=count + 1)[1:].tolist()


@given(mask=voxel_masks(sides=st.integers(1, 9)))
def test_overlay_components_match_ndimage_label(mask):
    """expert.overlay_features counts a front view's components on its
    (x, 1, z) grid at 26, which is 8-connectivity in (x, z)."""
    overlay = mask.any(axis=1)
    comp = connected_components(overlay[:, None, :], 26)
    ids, count = ndimage_label(overlay[:, None, :], 26)
    assert np.array_equal(comp.ids, ids)
    assert comp.count == count == overlay_component_count(overlay)


@given(mask=voxel_masks())
@kernel_examples
def test_boundary_voxels_match_ndimage_erosion(mask):
    assert np.array_equal(boundary_voxels(mask), eroded_boundary(mask))


@given(mask=voxel_masks())
@kernel_examples
def test_face_closing_matches_ndimage_closing(mask):
    """Border rule included: the erosion clears mask voxels on a grid face."""
    assert np.array_equal(face_closing(mask), ndimage_closing(mask))


def test_kernels_keep_an_empty_crop_empty():
    crop = np.zeros((0, 3, 4), bool)
    for out in (boundary_voxels(crop), face_closing(crop), face_dilation(crop),
                connected_components(crop, 6).ids):
        assert out.shape == crop.shape


SHAPES = st.tuples(*[st.integers(1, 6)] * 3)


@st.composite
def mask_pairs(draw):
    shape = draw(SHAPES)
    return draw(arrays(bool, shape)), draw(arrays(bool, shape))


@pytest.mark.parametrize("connectivity", [6, 26])
@given(pair=mask_pairs())
def test_component_hits_matches_flood_fill(connectivity, pair):
    mask, other = pair
    comp = connected_components(mask, connectivity)
    hits = component_hits(comp, other)
    expected = brute_components(mask, connectivity)
    assert hits.shape == (comp.count,) == (len(expected),)
    other_voxels = set(map(tuple, np.argwhere(other)))
    for voxels in expected:
        k = comp.ids[next(iter(voxels))]
        assert hits[k - 1] == len(voxels & other_voxels)


def test_component_hits_rejects_other_shape():
    comp = connected_components(np.ones((2, 2, 2), bool), 6)
    with pytest.raises(ShapeError):
        component_hits(comp, np.ones((2, 2, 3), bool))


@given(mask=SHAPES.flatmap(lambda shape: arrays(bool, shape)))
def test_nonzero_box_matches_argwhere(mask):
    box = nonzero_box(mask)
    idx = np.argwhere(mask)
    if len(idx) == 0:
        assert box == (slice(0, 0),) * 3
    else:
        assert box == tuple(slice(int(lo), int(hi) + 1)
                            for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))
    assert np.count_nonzero(mask[box]) == np.count_nonzero(mask)


def test_nonzero_box_empty_full_and_border_voxels():
    dims = (4, 5, 6)
    assert nonzero_box(np.zeros(dims, bool)) == (slice(0, 0),) * 3
    assert nonzero_box(np.zeros((0, 3, 3), bool)) == (slice(0, 0),) * 3
    assert nonzero_box(np.ones(dims, bool)) == tuple(slice(0, n) for n in dims)
    for corner in np.ndindex(2, 2, 2):
        voxel = tuple(c * (n - 1) for c, n in zip(corner, dims))
        mask = np.zeros(dims, bool)
        mask[voxel] = True
        assert nonzero_box(mask) == tuple(slice(v, v + 1) for v in voxel)


@given(masks=SHAPES.flatmap(lambda shape: st.lists(arrays(bool, shape), min_size=1, max_size=4)),
       margin=st.integers(0, 3))
def test_box_hull_and_pad_box_match_mask_boxes(masks, margin):
    """box_hull of the masks' boxes (None for an empty mask) is the box of
    their union; pad_box of a nonempty mask's box is the box of the mask
    dilated margin times by the 3x3x3 cube, which stops at the grid faces
    too."""
    def box(mask):
        return nonzero_box(mask) if mask.any() else None

    assert box_hull(box(m) for m in masks) == box(np.logical_or.reduce(masks))
    cube = np.ones((3, 3, 3), bool)
    for m in filter(np.any, masks):
        grown = ndimage.binary_dilation(m, cube, iterations=margin) if margin else m
        assert pad_box(nonzero_box(m), margin, m.shape) == nonzero_box(grown)


def _corner_voxel(shape):
    mask = np.zeros(shape, bool)
    mask[-1, 0, -1] = True
    return mask


@given(volumes=label_volumes())
@example(volumes=(np.zeros((3, 4, 5), np.uint16),))
@example(volumes=(np.ones((3, 4, 5), np.uint16),))
@example(volumes=(_corner_voxel((4, 3, 5)).astype(np.uint16),))
def test_face_dilation_matches_full_grid_dilation(volumes):
    """face_dilation works on the mask's box padded by one voxel; it must
    equal the full-grid dilation for empty masks, masks that fill the grid
    and masks on grid faces."""
    mask = volumes[0] == 1
    assert np.array_equal(face_dilation(mask), full_grid_face_dilation(mask))


SPACINGS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])


@st.composite
def within_cases(draw):
    """(mask, tolerance_mm, spacing): a mask of one to three voxels, or a
    dense one, an anisotropic spacing and a tolerance that is, in most
    draws, exactly some voxel's distance to the mask (by brute force over
    all voxel pairs), so that voxel lies at the tolerance itself."""
    shape = draw(SHAPES)
    mask = draw(arrays(bool, shape)) if draw(st.booleans()) else np.zeros(shape, bool)
    for _ in range(draw(st.integers(1, 3))):
        mask[tuple(draw(st.integers(0, n - 1)) for n in shape)] = True
    spacing = draw(st.tuples(SPACINGS, SPACINGS, SPACINGS))
    delta = (np.argwhere(np.ones(shape))[:, None] - np.argwhere(mask)[None]) * spacing
    nearest = np.unique(np.sqrt((delta ** 2).sum(axis=2)).min(axis=1))
    if nearest[-1] > 0 and not draw(st.booleans()):
        tolerance = float(draw(st.sampled_from(nearest[nearest > 0].tolist())))
    else:
        tolerance = draw(st.floats(0.1, 8.0))
    return mask, tolerance, spacing


@given(case=within_cases())
def test_within_mm_matches_the_distance_transform(case):
    mask, tolerance, spacing = case
    assert np.array_equal(within_mm(mask, tolerance, spacing),
                          edt_within_mm(mask, tolerance, spacing))


def test_within_mm_is_strict_at_the_tolerance():
    mask = np.zeros((3, 2, 2), bool)
    mask[0, 0, 0] = True
    spacing = (1.5, 2.0, 1.0)
    assert not within_mm(mask, 1.5, spacing)[1, 0, 0]
    assert within_mm(mask, math.nextafter(1.5, 2.0), spacing)[1, 0, 0]
    # voxel (1, 1, 0) lies at exactly sqrt(1.5**2 + 2**2) = 2.5 mm
    assert within_mm(mask, 2.5, spacing).tolist() == [
        [[True, True], [True, True]], [[True, True], [False, False]],
        [[False, False], [False, False]]]


@st.composite
def catalog_label_maps(draw):
    """(n_labels, labels): a catalog size on either side of label_boxes'
    15-label chunk edges, and a map whose labels reach n_labels + 2, so some
    lie above the catalog. One map in eight is all background."""
    n_labels = draw(st.sampled_from([1, 7, 14, 15, 16, 30, 31, 70]))
    (labels,) = draw(label_volumes(labels=n_labels + 2))
    if draw(st.integers(0, 7)) == 0:
        labels = np.zeros_like(labels)
    return n_labels, labels


def face_labels(shape, low_x, high_x, low_y, high_y, low_z, high_z):
    """A map with one label on each grid face; later faces overwrite the
    edges they share with earlier ones."""
    labels = np.zeros(shape, np.uint16)
    labels[0], labels[-1] = low_x, high_x
    labels[:, 0], labels[:, -1] = low_y, high_y
    labels[:, :, 0], labels[:, :, -1] = low_z, high_z
    return labels


@given(case=catalog_label_maps())
@example(case=(15, np.full((1, 1, 1), 15, np.uint16)))
@example(case=(15, face_labels((3, 4, 5), 15, 14, 16, 1, 17, 15)))
@example(case=(30, face_labels((4, 3, 5), 30, 15, 29, 31, 1, 16)))
@example(case=(31, face_labels((5, 4, 3), 16, 30, 15, 31, 32, 45)))
@example(case=(70, np.zeros((7, 7, 7), np.uint16)))
def test_label_boxes_match_nonzero_box(case):
    n_labels, labels = case
    boxes = label_boxes(labels, n_labels)
    assert boxes == find_objects_boxes(labels, n_labels)
    assert sorted(boxes) == list(range(1, n_labels + 1))
    for s, box in boxes.items():
        mask = labels == s
        assert box == (nonzero_box(mask) if mask.any() else None)
        # plain ints, as find_objects gives: model snapshots write box bounds as JSON
        assert box is None or all(type(b.start) is int and type(b.stop) is int for b in box)
    assert label_boxes(labels, 0) == {}


@given(volumes=label_volumes())
def test_label_map_boxes_match_label_boxes(volumes):
    (labels,) = volumes
    label_map = make_label_map(labels, CAT4)
    assert label_map.boxes == label_boxes(labels, 4)
    assert label_map.boxes is label_map.boxes  # computed once, then kept


def test_with_labels_gets_a_fresh_box_table():
    labels = np.zeros((4, 5, 6), np.uint16)
    labels[1:3, 2, 0] = 1
    before = make_label_map(labels, CAT4)
    assert before.boxes[1] == (slice(1, 3), slice(2, 3), slice(0, 1))
    moved = np.zeros_like(labels)
    moved[3, 4, 5] = 1
    after = before.with_labels(moved)
    assert after.boxes == label_boxes(moved, 4)
    assert after.boxes[1] == (slice(3, 4), slice(4, 5), slice(5, 6))
    assert before.boxes[1] == (slice(1, 3), slice(2, 3), slice(0, 1))


def test_box_table_under_racing_threads():
    # More threads than cores race for one map's first table; every reader
    # must see the full, correct table (a duplicate computation is allowed).
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 5, size=(24, 24, 24)).astype(np.uint16)
    expected = label_boxes(labels, 4)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            label_map = make_label_map(labels, CAT4)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: label_map.boxes) for _ in range(16)]
                tables = [f.result(timeout=30) for f in futures]
            assert all(t == expected for t in tables)
    finally:
        sys.setswitchinterval(old_interval)


@given(volumes=label_volumes(n=2))
def test_structure_mask_pairs_crop_to_the_pair_box(volumes):
    a, b = volumes
    pairs = list(structure_mask_pairs(make_label_map(a, CAT4), make_label_map(b, CAT4)))
    assert [s for s, _, _ in pairs] == [1, 2, 3, 4]
    for s, mask_a, mask_b in pairs:
        box = nonzero_box((a == s) | (b == s))
        assert np.array_equal(mask_a, (a == s)[box])
        assert np.array_equal(mask_b, (b == s)[box])


def test_largest_component_deterministic_tie():
    mask = np.zeros((5, 1, 1), bool)
    mask[0] = mask[2] = True  # two single-voxel components
    kept = largest_component(mask, 6)
    assert kept[0, 0, 0] and not kept[2, 0, 0]  # first in raster order wins


def test_projection_trivial_cases():
    vol = VoxelGrid(dims=(3, 4, 5), spacing=(1, 1, 1),
                    data=np.zeros((3, 4, 5)))
    proj = front_view_projection(vol, np.zeros((3, 4, 5), bool))
    assert proj.overlay.shape == (3, 5)
    assert not proj.overlay.any()

    column = np.zeros((3, 4, 5), bool)
    column[1, :, 2] = True
    proj = front_view_projection(vol, column)
    assert proj.overlay[1, 2]
    assert proj.overlay.sum() == 1


def test_projection_mismatched_dims():
    vol = VoxelGrid(dims=(3, 4, 5), spacing=(1, 1, 1), data=np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        front_view_projection(vol, np.zeros((3, 4, 4), bool))


def test_projection_matches_loop_oracle():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(4, 4, 4)).astype(np.float32)
    vol = VoxelGrid(dims=(4, 4, 4), spacing=(1, 1, 1), data=data)
    mask = rng.random((4, 4, 4)) < 0.4
    proj = front_view_projection(vol, mask)
    assert np.array_equal(proj.overlay, brute_front_overlay(mask))


def test_projection_overlay_monotone_under_mask_growth():
    rng = np.random.default_rng(11)
    vol = VoxelGrid(dims=(5, 5, 5), spacing=(1, 1, 1), data=np.zeros((5, 5, 5)))
    for _ in range(20):
        small = rng.random((5, 5, 5)) < 0.2
        grown = small | (rng.random((5, 5, 5)) < 0.2)
        o_small = front_view_projection(vol, small).overlay
        o_grown = front_view_projection(vol, grown).overlay
        assert not (o_small & ~o_grown).any()
