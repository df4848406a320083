import numpy as np
import pytest
from scipy import ndimage

import emcurate as em
from emcurate import ConfigError, NoiseSpec, PhantomSpec, TumorSpec
from emcurate.grid import StructureKind
from emcurate.phantom import (
    Gaussian,
    InjectionOp,
    ShapeKind,
    StructureShapeSpec,
    _apply_op,
    apply_injections,
)

from conftest import CAT4, make_case, make_label_map
from oracles import STRUCTURES, full_grid_face_dilation


def test_zero_structure_spec():
    spec = PhantomSpec(structures=(), tumor=None, background=Gaussian(10.0, 2.0),
                       dims=(16, 16, 16))
    case = em.generate_case(spec, 0)
    assert not case.gold.labels.any()
    assert case.report.tumor_present is False
    assert case.report.tumor_count == 0


def test_structure_must_fit_unit_cube():
    with pytest.raises(ConfigError):
        StructureShapeSpec(label=1, name="big", kind=StructureKind.ORGAN,
                           shape=ShapeKind.ELLIPSOID, center=(0.1, 0.5, 0.5),
                           radii=(0.2, 0.2, 0.2), intensity=Gaussian(10, 1))


def test_tumor_host_must_exist(run_cfg):
    tumor = TumorSpec(label=7, name="tumor", host_label=99, count_range=(1, 1),
                      radius_range=(0.03, 0.05), intensity_offset=-20, intensity_std=5)
    with pytest.raises(ConfigError):
        PhantomSpec(structures=run_cfg.phantom.structures, tumor=tumor,
                    background=Gaussian(20, 5))


def test_forced_two_tumor_bookkeeping(run_cfg):
    spec = PhantomSpec(
        structures=run_cfg.phantom.structures,
        tumor=TumorSpec(label=7, name="tumor", host_label=5, count_range=(2, 2),
                        radius_range=(0.035, 0.05), intensity_offset=-25, intensity_std=5),
        background=Gaussian(20, 5))
    case = em.generate_case(spec, 3)
    assert case.report.tumor_count == 2
    comp = em.connected_components(case.gold.labels == 7, 6)
    assert comp.count == 2


def test_same_seed_bit_identical(run_cfg):
    a = em.generate_case(run_cfg.phantom, 42)
    b = em.generate_case(run_cfg.phantom, 42)
    assert np.array_equal(a.volume.data, b.volume.data)
    assert np.array_equal(a.gold.labels, b.gold.labels)
    assert a.report == b.report and a.meta == b.meta


def test_report_matches_gold_components(run_cfg):
    for seed in range(12):
        case = em.generate_case(run_cfg.phantom, seed)
        comp = em.connected_components(case.gold.labels == 7, 6)
        assert comp.count == case.report.tumor_count
        assert case.report.tumor_present == (case.report.tumor_count > 0)


def test_tumors_inside_host(run_cfg):
    for seed in range(8):
        case = em.generate_case(run_cfg.phantom, seed)
        tumor = case.gold.labels == 7
        if not tumor.any():
            continue
        host_spec = run_cfg.phantom.host_spec()
        from emcurate.phantom import _shape_mask
        host_region = _shape_mask(run_cfg.phantom.dims, host_spec.shape,
                                  host_spec.center, host_spec.radii)
        assert (tumor & ~host_region).sum() == 0


def test_noise_all_zero_is_identity(run_cfg):
    case = em.generate_case(run_cfg.phantom, 5)
    quiet = NoiseSpec(delete=0, shift=0, fragment=0, spurious=0, boundary_jitter=0,
                      tumor_miss=0, tumor_fp_rate=0)
    noisy, log = em.inject_noise(case, quiet, 1)
    assert log == []
    assert np.array_equal(noisy.pseudo.labels, case.gold.labels)


def test_forced_delete_yields_dsc_zero(run_cfg):
    case = em.generate_case(run_cfg.phantom, 5)
    spec = NoiseSpec(delete=1.0, shift=0, fragment=0, spurious=0, boundary_jitter=0,
                     tumor_miss=0, tumor_fp_rate=0)
    noisy, log = em.inject_noise(case, spec, 1)
    for entry in run_cfg.catalog.entries:
        if entry.kind is StructureKind.TUMOR:
            continue
        assert not (noisy.pseudo.labels == entry.label).any()
        if (case.gold.labels == entry.label).any():
            assert em.dsc(noisy.pseudo.labels == entry.label,
                          case.gold.labels == entry.label) == 0.0


def test_shift_overlap_matches_direct_computation(run_cfg):
    case = em.generate_case(run_cfg.phantom, 5)
    for s, vec in ((1, [2, 0, 0]), (5, [0, 0, 2]), (2, [0, 2, 0])):
        shifted = apply_injections(case.gold, [InjectionOp(s, "shift", {"vector": vec})])
        gold_mask = case.gold.labels == s
        rolled = np.zeros_like(gold_mask)
        src = tuple(slice(max(0, -v), gold_mask.shape[i] - max(0, v))
                    for i, v in enumerate(vec))
        dst = tuple(slice(max(0, v), gold_mask.shape[i] + min(0, v))
                    for i, v in enumerate(vec))
        rolled[dst] = gold_mask[src]
        d = em.dsc(shifted.labels == s, gold_mask)
        assert d == pytest.approx(em.dsc(rolled, gold_mask), abs=1e-12)
        assert 0.0 < d < 1.0


def test_shift_of_at_least_the_grid_size_empties_the_structure(run_cfg):
    case = em.generate_case(run_cfg.phantom, 5)
    n = case.gold.dims[0]
    for vec in ([n, 0, 0], [-n, 0, 0], [0, 0, n + 3]):
        shifted = apply_injections(case.gold, [InjectionOp(1, "shift", {"vector": vec})])
        assert not (shifted.labels == 1).any()
        assert np.array_equal(shifted.labels, np.where(case.gold.labels == 1, 0,
                                                       case.gold.labels))


def test_unknown_injection_op_is_rejected():
    gold = make_label_map(np.ones((2, 2, 2)), CAT4)
    with pytest.raises(ConfigError, match="unknown injection op 'teleport'"):
        apply_injections(gold, [InjectionOp(1, "teleport", {})])


def test_inject_noise_needs_gold():
    case = make_case(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), CAT4)
    with pytest.raises(ConfigError, match="noise injection needs gold labels"):
        em.inject_noise(case, NoiseSpec(), 1)


def test_gold_never_mutated(run_cfg, small_corpus):
    cases, _ = small_corpus
    for case in cases:
        clean = em.generate_case(
            run_cfg.phantom,
            np.random.SeedSequence([123, int(case.case_id.split("_")[1])]).spawn(2)[0],
            case_id=case.case_id)
        assert np.array_equal(case.gold.labels, clean.gold.labels)


def test_injection_log_replays_bit_exact(run_cfg, small_corpus):
    cases, logs = small_corpus
    replayed_any = False
    for case in cases:
        log = logs[case.case_id]
        if not log:
            continue
        replayed = apply_injections(case.gold, log)
        assert np.array_equal(replayed.labels, case.pseudo.labels)
        replayed_any = True
    assert replayed_any


def test_corpus_gold_flag_counts(run_cfg):
    cases, _ = em.generate_corpus(run_cfg.phantom, run_cfg.noise, 10, 0.25, seed=3)
    assert sum(c.meta.is_gold for c in cases) == 3  # ceil(0.25 * 10)
    for c in cases:
        if c.meta.is_gold:
            assert np.array_equal(c.pseudo.labels, c.gold.labels)


def test_single_clean_gold_case(run_cfg):
    cases, logs = em.generate_corpus(run_cfg.phantom, run_cfg.noise, 1, 1.0, seed=3)
    assert len(cases) == 1 and cases[0].meta.is_gold
    assert np.array_equal(cases[0].pseudo.labels, cases[0].gold.labels)
    assert logs[cases[0].case_id] == []


def test_deletion_rate_within_binomial_bounds(run_cfg):
    n = 150
    cases, logs = em.generate_corpus(run_cfg.phantom, run_cfg.noise, n, 0.0, seed=17)
    organ_structures = [e.label for e in run_cfg.catalog.entries
                        if e.kind is not StructureKind.TUMOR]
    deletions = sum(1 for ops in logs.values() for op in ops if op.op == "delete")
    trials = n * len(organ_structures)
    p = run_cfg.noise.delete
    expected = trials * p
    sigma = (trials * p * (1 - p)) ** 0.5
    assert abs(deletions - expected) <= 3 * sigma


def test_phantom_source_varies_but_is_deterministic(run_cfg):
    source = em.PhantomSource(run_cfg.phantom, intensity_jitter=3.0)
    a = source.sample(7, case_id="s")
    b = source.sample(7, case_id="s")
    c = source.sample(8, case_id="s")
    assert np.array_equal(a.volume.data, b.volume.data)
    assert not np.array_equal(a.volume.data, c.volume.data)
    assert np.array_equal(a.pseudo.labels, a.gold.labels)


@pytest.mark.parametrize("mode", ["dilate", "erode"])
@pytest.mark.parametrize("box", [
    (slice(0, 7), slice(0, 6), slice(0, 5)),   # fills the grid: touches every face
    (slice(0, 3), slice(2, 6), slice(4, 5)),   # touches some faces
    (slice(2, 5), slice(1, 4), slice(1, 3)),   # touches none
], ids=["all_faces", "some_faces", "interior"])
def test_jitter_matches_full_grid_morphology(mode, box):
    """A jitter op works on the structure's padded box only; it must write
    what the full-grid face dilation / surface erosion writes."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        labels = np.zeros((7, 6, 5), np.uint16)
        labels[box] = rng.integers(0, 3, labels[box].shape)
        mask = labels == 1
        expected = labels.copy()
        if mode == "dilate":
            expected[full_grid_face_dilation(mask) & (labels == 0)] = 1
        else:
            expected[mask & ~ndimage.binary_erosion(mask, structure=STRUCTURES[6],
                                                    border_value=0)] = 0
        _apply_op(labels, InjectionOp(1, "jitter", {"mode": mode}))
        assert np.array_equal(labels, expected)
