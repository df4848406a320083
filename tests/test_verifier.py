import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import emcurate as em
from emcurate import AuditAction, ModelError, ShapeError, classify_action
from emcurate.grid import StructureCatalog, StructureEntry, StructureKind, VoxelGrid
from emcurate.verifier import (
    _FLOOR_SLACK_NATS,
    PROB_FLOOR,
    GaussianIntensityModel,
    _log_ratio_intervals,
    _StructureParams,
    apply_update_rule,
    audit_case,
    changed_structures,
    write_structures,
)

from conftest import CAT4, intensities_for, label_volumes, make_case
from oracles import (
    full_grid_changed_structures,
    full_grid_fit,
    full_grid_predict,
    full_grid_predict_prob,
    write_structure,
)

CAT2 = StructureCatalog((
    StructureEntry(1, "organ_a", StructureKind.ORGAN),
    StructureEntry(2, "tumor_a", StructureKind.TUMOR),
))
# CAT4's labels without a tumor: no write is ever blocked
ORGANS4 = StructureCatalog(tuple(StructureEntry(e.label, e.name, StructureKind.ORGAN)
                                 for e in CAT4.entries))


def test_classify_action_thresholds():
    assert classify_action(0.0) is AuditAction.AUTO_REPLACE
    assert classify_action(1e-9) is AuditAction.ROUTE_TO_EXPERT
    assert classify_action(0.4999) is AuditAction.ROUTE_TO_EXPERT
    assert classify_action(0.5) is AuditAction.KEEP
    assert classify_action(1.0) is AuditAction.KEEP


def test_fit_degenerate_intensity_gets_std_floor():
    labels = np.zeros((4, 4, 4), np.uint16)
    labels[:2] = 1
    data = np.full((4, 4, 4), 7.0)
    data[labels == 1] = 40.0
    case = make_case(data, labels, CAT2)
    model = em.fit_model([case])
    assert model.params[1].mean == pytest.approx(40.0)
    assert model.params[1].std == pytest.approx(1e-3)


def test_zero_weight_cases_excluded():
    labels_a = np.zeros((4, 4, 4), np.uint16)
    labels_a[:2] = 1
    data_a = np.where(labels_a == 1, 40.0, 5.0)
    labels_b = np.zeros((4, 4, 4), np.uint16)
    labels_b[2:] = 1
    data_b = np.where(labels_b == 1, 90.0, 5.0)
    case_a = make_case(data_a, labels_a, CAT2, case_id="a")
    case_b = make_case(data_b, labels_b, CAT2, case_id="b")
    weighted = em.fit_model([case_a, case_b], weights=[1.0, 0.0])
    solo = em.fit_model([case_a])
    assert weighted.params[1].mean == pytest.approx(solo.params[1].mean)
    assert weighted.params[1].std == pytest.approx(solo.params[1].std)
    assert weighted.params[1].box == solo.params[1].box


def test_fit_rejects_bad_weights(small_corpus):
    cases, _ = small_corpus
    with pytest.raises(ModelError):
        em.fit_model(cases[:2], weights=[0.0, 0.0])
    with pytest.raises(ModelError):
        em.fit_model([])
    with pytest.raises(ShapeError, match="one weight per case"):
        em.fit_model(cases[:2], weights=[1.0])


def test_fitted_means_close_to_generator(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(5)]
    model = em.fit_model(cases)
    for s in run_cfg.phantom.structures:
        assert abs(model.params[s.label].mean - s.intensity.mean) < 1.0
    host = run_cfg.phantom.host_spec()
    expected_tumor = host.intensity.mean + run_cfg.phantom.tumor.intensity_offset
    assert abs(model.params[7].mean - expected_tumor) < 1.0


def test_unmodeled_structure_predicts_empty():
    labels = np.zeros((4, 4, 4), np.uint16)
    labels[:2] = 1  # tumor label 2 never appears
    data = np.where(labels == 1, 40.0, 5.0) + np.random.default_rng(0).normal(
        0, 0.5, (4, 4, 4))
    case = make_case(data, labels, CAT2)
    model = em.fit_model([case])
    assert model.params[2].modeled is False
    pred = model.predict(case.volume)
    assert not (pred.labels == 2).any()


def test_predict_requires_fit():
    model = GaussianIntensityModel(CAT2)
    case = make_case(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), np.uint16), CAT2)
    with pytest.raises(ModelError):
        model.predict(case.volume)


def test_pure_background_volume_predicts_background(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s) for s in range(3)]
    model = em.fit_model(cases)
    rng = np.random.default_rng(1)
    flat = em.VoxelGrid(dims=run_cfg.phantom.dims, spacing=run_cfg.phantom.spacing,
                        data=rng.normal(run_cfg.phantom.background.mean,
                                        run_cfg.phantom.background.std,
                                        run_cfg.phantom.dims).astype(np.float32))
    pred = model.predict(flat)
    assert not pred.labels.any()


def test_prior_gating_beats_intensity():
    # structure 1 lives in the lower half; an identical-intensity voxel far
    # outside the learned box must stay background
    labels = np.zeros((8, 8, 8), np.uint16)
    labels[1:3, 1:3, 1:3] = 1
    rng = np.random.default_rng(0)
    data = rng.normal(5.0, 0.5, (8, 8, 8))
    data[labels == 1] = rng.normal(50.0, 0.5, 8)
    case = make_case(data, labels, CAT2)
    model = em.fit_model([case])
    probe = data.copy()
    probe[7, 7, 7] = 50.0  # structure-like intensity outside the box
    pred = model.predict(em.VoxelGrid(dims=(8, 8, 8), spacing=(1, 1, 1),
                                      data=probe.astype(np.float32)))
    assert pred.labels[7, 7, 7] == 0


def test_clean_phantom_prediction_quality(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(5)]
    model = em.fit_model(cases)
    case = cases[0]  # seed 0 phantom
    pred = model.predict(case.volume)
    for s in run_cfg.catalog.labels:
        assert em.dsc(pred.labels == s, case.gold.labels == s) >= 0.95


def test_audit_fixed_point(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    model = em.fit_model(cases)
    pred = model.predict(cases[0].volume)
    consistent = cases[0].with_pseudo(pred)
    outcome = audit_case(model, consistent)
    assert all(a.action is AuditAction.KEEP and a.dsc == 1.0
               for a in outcome.per_structure.values())


def test_audit_absent_structure_triggers_auto_replace(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    model = em.fit_model(cases)
    case = cases[0]
    wiped = case.pseudo.labels.copy()
    wiped[wiped == 2] = 0  # delete the spleen annotation
    outcome = audit_case(model, case.with_pseudo(case.pseudo.with_labels(wiped)))
    assert outcome.per_structure[2].dsc == 0.0
    assert outcome.per_structure[2].action is AuditAction.AUTO_REPLACE


def test_audit_constructed_overlap_routes():
    # two 1D runs with overlap 1 of sizes 3+4: dsc = 2/7 < 0.5
    labels = np.zeros((16, 1, 1), np.uint16)
    labels[0:3, 0, 0] = 1
    pred_labels = np.zeros((16, 1, 1), np.uint16)
    pred_labels[2:6, 0, 0] = 1

    class FixedModel:
        def predict(self, volume):
            return case.pseudo.with_labels(pred_labels)

    data = np.zeros((16, 1, 1))
    case = make_case(data, labels, CAT2)
    outcome = audit_case(FixedModel(), case)
    assert outcome.per_structure[1].dsc == pytest.approx(2 / 7)
    assert outcome.per_structure[1].action is AuditAction.ROUTE_TO_EXPERT


def test_apply_update_rule_noop_when_all_keep(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    model = em.fit_model(cases)
    pred = model.predict(cases[0].volume)
    consistent = cases[0].with_pseudo(pred)
    outcome = audit_case(model, consistent)
    updated, log = apply_update_rule(consistent, outcome)
    assert log == []
    assert np.array_equal(updated.pseudo.labels, consistent.pseudo.labels)


def test_apply_update_rule_idempotent(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    model = em.fit_model(cases)
    case = cases[0]
    wiped = case.pseudo.labels.copy()
    wiped[wiped == 2] = 0
    case = case.with_pseudo(case.pseudo.with_labels(wiped))
    outcome = audit_case(model, case)
    updated, log = apply_update_rule(case, outcome)
    assert any(e.structure == 2 for e in log)
    again = audit_case(model, updated)
    assert again.per_structure[2].dsc == 1.0
    assert not any(a.action is AuditAction.AUTO_REPLACE
                   for a in again.per_structure.values())


def test_update_rule_never_touches_kept_structures(run_cfg):
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    model = em.fit_model(cases)
    case = cases[1]
    wiped = case.pseudo.labels.copy()
    wiped[wiped == 6] = 0
    case = case.with_pseudo(case.pseudo.with_labels(wiped))
    outcome = audit_case(model, case)
    updated, _ = apply_update_rule(case, outcome)
    for s, audit in outcome.per_structure.items():
        if audit.action is not AuditAction.AUTO_REPLACE:
            assert np.array_equal(updated.pseudo.labels == s, case.pseudo.labels == s)


def test_tumor_precedence_on_conflict():
    # organ replacement may not overwrite voxels of a kept tumor annotation
    labels = np.zeros((8, 1, 1), np.uint16)
    labels[4, 0, 0] = 2          # kept tumor annotation at voxel 4 ...
    labels[7, 0, 0] = 2          # ... and at voxel 7 (dsc vs pred = 2/3, keep)
    pred_labels = np.zeros((8, 1, 1), np.uint16)
    pred_labels[3:6, 0, 0] = 1   # organ predicted across voxel 4
    pred_labels[7, 0, 0] = 2

    class FixedModel:
        def predict(self, volume):
            return case.pseudo.with_labels(pred_labels)

    case = make_case(np.zeros((8, 1, 1)), labels, CAT2)
    outcome = audit_case(FixedModel(), case)
    assert outcome.per_structure[1].action is AuditAction.AUTO_REPLACE
    assert outcome.per_structure[2].action is AuditAction.KEEP
    updated, log = apply_update_rule(case, outcome)
    assert updated.pseudo.labels[4, 0, 0] == 2  # tumor kept
    assert updated.pseudo.labels[3, 0, 0] == 1
    assert updated.pseudo.labels[5, 0, 0] == 1
    organ_entry = next(e for e in log if e.structure == 1)
    assert organ_entry.conflicts == 1


@st.composite
def structure_writes(draw, labels: np.ndarray):
    """0 to 5 (structure, mask, action) writes on labels' grid. A mask is
    random (often across tumor voxels), empty, or some label's voxels, so
    writes that change nothing occur too; five writes over four labels
    often write one structure twice."""
    writes = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "empty", "label"]))
        if kind == "random":
            mask = draw(arrays(bool, labels.shape))
        elif kind == "empty":
            mask = np.zeros(labels.shape, bool)
        else:
            mask = labels == draw(st.integers(0, 4))
        writes.append((draw(st.integers(1, 4)), mask,
                       draw(st.sampled_from(["auto_replace", "expert_keep", "escalated_1"]))))
    return writes


@given(data=st.data(), catalog=st.sampled_from([CAT4, ORGANS4]))
def test_write_structures_equals_one_write_at_a_time(data, catalog):
    (labels,) = data.draw(label_volumes())
    writes = data.draw(structure_writes(labels))
    case = make_case(np.zeros(labels.shape), labels, catalog)
    updated, log = write_structures(case, writes)

    ref = labels.copy()
    ref_log = [write_structure(ref, catalog, case.case_id, structure, mask, action)
               for structure, mask, action in writes]
    assert np.array_equal(updated.pseudo.labels, ref)
    assert log == ref_log
    assert np.array_equal(case.pseudo.labels, labels)  # the input case is not written
    if not writes:
        assert updated is case


@given(data=st.data(), catalog=st.sampled_from([CAT4, ORGANS4]))
def test_changed_structures_equals_full_grid_diff(data, catalog):
    """The box-cropped count equals a full-grid per-label diff. Empty masks
    in structure_writes empty labels, and label_volumes' small grids put
    boxes on the grid faces."""
    (labels,) = data.draw(label_volumes())
    writes = data.draw(structure_writes(labels))
    case = make_case(np.zeros(labels.shape), labels, catalog)
    updated, _ = write_structures(case, writes)
    assert changed_structures(case.pseudo, updated.pseudo) == full_grid_changed_structures(
        labels, updated.pseudo.labels, catalog)


def test_deletion_only_noise_auto_replace_fraction(run_cfg):
    """With pure 20% deletion noise the auto-replace fraction over organ and
    vessel audits matches the injected rate within 3-sigma binomial bounds."""
    from emcurate.grid import StructureKind
    from emcurate.phantom import NoiseSpec
    noise = NoiseSpec(delete=0.2, shift=0, fragment=0, spurious=0,
                      boundary_jitter=0, tumor_miss=0, tumor_fp_rate=0)
    n = 40
    cases, _ = em.generate_corpus(run_cfg.phantom, noise, n, 0.0, seed=8)
    model = em.fit_model(cases)
    eligible = [e.label for e in run_cfg.catalog.entries
                if e.kind is not StructureKind.TUMOR]
    replaced = trials = 0
    for case in cases:
        outcome = audit_case(model, case)
        for s in eligible:
            trials += 1
            replaced += outcome.per_structure[s].action is AuditAction.AUTO_REPLACE
    sigma = (trials * 0.2 * 0.8) ** 0.5
    assert abs(replaced - 0.2 * trials) <= 3 * sigma


def test_injected_deletions_recovered_at_injected_rate(run_cfg):
    n = 40
    cases, logs = em.generate_corpus(run_cfg.phantom, run_cfg.noise, n, 0.1, seed=21)
    model = em.fit_model(cases)
    deleted = {(c.case_id, op.structure)
               for c in cases for op in logs[c.case_id] if op.op == "delete"}
    recovered = 0
    for case in cases:
        outcome = audit_case(model, case)
        for s, audit in outcome.per_structure.items():
            if (case.case_id, s) in deleted and audit.action is AuditAction.AUTO_REPLACE:
                recovered += 1
    assert recovered / max(len(deleted), 1) >= 0.95


def test_model_serialization_round_trip(run_cfg):
    """The snapshot records every setting, the background and every field of
    every structure's parameters, each learned box as inclusive bounds."""
    cases = [em.generate_case(run_cfg.phantom, s, case_id=f"c{s}") for s in range(3)]
    # the default model, and one whose tumor size filter differs from the default
    filtered = GaussianIntensityModel(run_cfg.catalog, tumor_min_component_voxels=400)
    filtered.fit(cases)
    for model, min_voxels in ((em.fit_model(cases), 20), (filtered, 400)):
        d = model.to_dict()
        assert {k: v for k, v in d.items() if k not in ("background", "structures")} == {
            "kind": "gaussian_intensity", "catalog_id": run_cfg.catalog.catalog_id,
            "organ_connectivity": 26, "tumor_connectivity": 6,
            "tumor_min_component_voxels": min_voxels}
        assert d["background"] == {"mean": model.background[0], "std": model.background[1]}
        assert list(d["structures"]) == [str(s) for s in run_cfg.catalog.labels]
        for s, p in model.params.items():
            row = d["structures"][str(s)]
            assert (row["mean"], row["std"], row["modeled"]) == (p.mean, p.std, p.modeled)
            box = tuple(slice(lo, hi + 1) for lo, hi in zip(row["bbox_lo"], row["bbox_hi"]))
            if p.modeled:
                assert box == p.box
            else:
                assert row["bbox_lo"] == row["bbox_hi"] == [0, 0, 0]


def test_model_dict_round_trip_with_unmodeled_structures():
    rng = np.random.default_rng(5)
    labels = np.zeros((5, 6, 7), np.uint16)
    labels[1:3, 2:5, 0:2] = 1
    labels[4, 5, 6] = 3
    model = em.fit_model([make_case(intensities_for(labels, rng), labels, CAT4)])
    assert [p.modeled for p in model.params.values()] == [True, False, True, False]
    rows = model.to_dict()["structures"]
    assert [row["modeled"] for row in rows.values()] == [True, False, True, False]
    assert rows["2"]["bbox_lo"] == rows["2"]["bbox_hi"] == [0, 0, 0]
    assert rows["4"]["bbox_lo"] == rows["4"]["bbox_hi"] == [0, 0, 0]
    assert rows["1"]["bbox_lo"] == [1, 2, 0] and rows["1"]["bbox_hi"] == [2, 4, 1]
    assert rows["3"]["bbox_lo"] == rows["3"]["bbox_hi"] == [4, 5, 6]


def test_fit_deterministic(small_corpus):
    cases, _ = small_corpus
    a = em.fit_model(cases)
    b = em.fit_model(cases)
    assert a.to_dict() == b.to_dict()


@given(volumes=label_volumes(n=2), seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=2, max_size=2)
       .filter(any))
def test_fit_matches_full_grid_oracle_bit_for_bit(volumes, seed, weights):
    rng = np.random.default_rng(seed)
    cases = [make_case(intensities_for(labels, rng), labels, CAT4, case_id=f"c{i}")
             for i, labels in enumerate(volumes)]
    model = GaussianIntensityModel(CAT4)
    model.fit(cases, weights)
    expected = full_grid_fit([(c.volume.data, c.pseudo.labels) for c in cases], weights,
                             CAT4.labels)
    got = model.to_dict()
    assert got["background"] == expected["background"]
    assert got["structures"] == expected["structures"]


@given(volumes=label_volumes(n=2), seed=st.integers(0, 2**32 - 1),
       tumor_min_component_voxels=st.integers(1, 4))
def test_predict_matches_full_grid_oracle(volumes, seed, tumor_min_component_voxels):
    train, test = volumes
    rng = np.random.default_rng(seed)
    model = GaussianIntensityModel(CAT4, tumor_min_component_voxels)
    model.fit([make_case(intensities_for(train, rng), train, CAT4)])
    volume = VoxelGrid(dims=test.shape, spacing=(1.0, 1.0, 1.0),
                       data=intensities_for(test, rng))
    assert np.array_equal(model.predict(volume).labels, full_grid_predict(model, volume.data))


# Organ 1 ends where the tumor's box starts, and reaches beyond its margin;
# organ 4 overlaps the tumor's box. Only organ 4 joins the tumor's region.
ADJACENT_ORGAN = np.repeat(np.array([1, 1, 1, 1, 3, 4], np.uint16), 9).reshape(6, 3, 3)


@given(labels=label_volumes(), pads=st.tuples(*[st.tuples(st.integers(0, 4),
                                                          st.integers(0, 4))] * 3),
       seed=st.integers(0, 2**32 - 1), label=st.sampled_from(CAT4.labels))
@example(labels=(ADJACENT_ORGAN,), pads=((0, 4), (3, 3), (3, 3)), seed=0, label=3)
def test_predict_prob_matches_full_grid_oracle(labels, pads, seed, label):
    """Bit for bit. The training labels sit in a background frame 0..4 voxels
    wide per side, so a learned box touches a grid face or lies inside, and
    the prior margin is clipped on some sides and not on others; label may
    be unmodeled (an all-zero map) or an organ."""
    train = np.pad(labels[0], pads)
    rng = np.random.default_rng(seed)
    model = em.fit_model([make_case(intensities_for(train, rng), train, CAT4)])
    test = rng.integers(0, 5, train.shape).astype(np.uint16)
    volume = VoxelGrid(dims=train.shape, spacing=(1.0, 1.0, 1.0),
                       data=intensities_for(test, rng))
    assert np.array_equal(model.predict_prob(volume, label),
                          full_grid_predict_prob(model, volume.data, label))


def _hand_model(background, structures, dims):
    """A CAT4 model with the given background and per-label (mean, std),
    None for unmodeled; every learned box is the whole grid."""
    model = GaussianIntensityModel(CAT4)
    model.background = background
    whole = tuple(slice(0, d) for d in dims)
    model.params = {s: _StructureParams() if p is None else _StructureParams(*p, whole)
                    for s, p in structures.items()}
    return model


FLOOR_LOG_ODDS = math.log(PROB_FLOOR / (1.0 - PROB_FLOOR))
MEANS = st.sampled_from([0.0, 20.0, 50.0]) | st.floats(-50.0, 150.0)
STDS = st.sampled_from([0.5, 3.0, 8.0]) | st.floats(0.01, 40.0)  # equal stds are common


@given(background=st.tuples(MEANS, STDS), tumor=st.tuples(MEANS, STDS),
       organs=st.lists(st.none() | st.tuples(MEANS, STDS), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(background=(0.0, 8.0), tumor=(50.0, 8.0), organs=[None] * 3, seed=0)  # linear
@example(background=(50.0, 8.0), tumor=(50.0, 8.0), organs=[None] * 3, seed=0)  # identical
@example(background=(0.0, 3.0), tumor=(50.0, 20.0), organs=[None] * 3, seed=0)  # two rays
@example(background=(0.0, 20.0), tumor=(50.0, 3.0), organs=[None] * 3, seed=0)  # interval
@example(background=(0.0, 8.0), tumor=(50.0, 8.0), organs=[(40.0, 3.0), None, (80.0, 20.0)],
         seed=0)
def test_predict_prob_at_the_floor_bounds_matches_oracle(background, tumor, organs, seed):
    """Bit for bit, on intensities exactly on every bound of every pairwise
    condition ll_t - ll_o >= c, at the floor's log-odds and at the slack
    below it, and two float32 ulps either side; with background and tumor
    alone the floor's bounds are where the posterior crosses PROB_FLOOR."""
    structures = {1: organs[0], 2: organs[1], 3: tumor, 4: organs[2]}
    others = [background] + [p for p in organs if p]
    edges = [np.float32(b) for c in (FLOOR_LOG_ODDS, FLOOR_LOG_ODDS - _FLOOR_SLACK_NATS)
             for o in others for iv in _log_ratio_intervals(tumor, o, c) for b in iv
             if abs(b) < 1e4]
    ulps = [np.float32(e + k * np.spacing(e)) for e in edges for k in range(-2, 3)]
    rng = np.random.default_rng(seed)
    data = np.concatenate([ulps, rng.uniform(-60.0, 160.0, 8)]).astype(np.float32)
    dims = (len(data), 1, 1)
    model = _hand_model(background, structures, dims)
    volume = VoxelGrid(dims=dims, spacing=(1.0, 1.0, 1.0), data=data.reshape(dims))
    assert np.array_equal(model.predict_prob(volume, 3),
                          full_grid_predict_prob(model, volume.data, 3))


def test_predict_prob_without_candidate_voxels_matches_oracle():
    """A narrow tumor and a wide background: no voxel's intensity lies near
    enough to the tumor's mean to reach the floor, so no voxel is computed."""
    dims = (4, 5, 6)
    model = _hand_model((50.0, 20.0), {1: None, 2: None, 3: (50.0, 1.0), 4: None}, dims)
    data = np.random.default_rng(0).uniform(150.0, 200.0, dims).astype(np.float32)
    volume = VoxelGrid(dims=dims, spacing=(1.0, 1.0, 1.0), data=data)
    prob = model.predict_prob(volume, 3)
    assert not prob.any()
    assert np.array_equal(prob, full_grid_predict_prob(model, volume.data, 3))


def test_predict_without_modeled_structures_matches_oracle():
    rng = np.random.default_rng(4)
    labels = np.zeros((5, 6, 7), np.uint16)
    model = em.fit_model([make_case(intensities_for(labels, rng), labels, CAT4)])
    assert not any(p.modeled for p in model.params.values())
    volume = VoxelGrid(dims=labels.shape, spacing=(1.0, 1.0, 1.0),
                       data=rng.normal(40.0, 30.0, labels.shape).astype(np.float32))
    pred = model.predict(volume).labels
    assert np.array_equal(pred, full_grid_predict(model, volume.data))
    assert not pred.any()


# Training layouts whose learned boxes touch the grid faces (index 0 and
# dims - 1) or sit strictly inside, so the hull starts at 0, ends at the
# last index, or is offset on every axis.
HULL_LAYOUTS = {
    "both_faces": {1: [(0, 0, 0), (1, 2, 1)], 4: [(3, 4, 6), (4, 5, 6)]},
    "low_faces": {1: [(0, 0, 0), (1, 1, 1)], 3: [(0, 2, 0), (1, 2, 1)]},
    "high_faces": {2: [(4, 5, 6), (3, 3, 4)], 3: [(4, 1, 6)]},
    "interior": {1: [(1, 2, 2), (2, 3, 3)], 2: [(3, 3, 4)], 3: [(2, 2, 5)]},
}


@pytest.mark.parametrize("layout", sorted(HULL_LAYOUTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predict_at_the_hull_faces_matches_oracle(layout, seed):
    rng = np.random.default_rng(seed)
    dims = (5, 6, 7)
    train = np.zeros(dims, np.uint16)
    for s, voxels in HULL_LAYOUTS[layout].items():
        for v in voxels:
            train[v] = s
    model = GaussianIntensityModel(CAT4, tumor_min_component_voxels=1)
    model.fit([make_case(intensities_for(train, rng), train, CAT4)])
    test = rng.integers(0, 5, dims).astype(np.uint16)
    volume = VoxelGrid(dims=dims, spacing=(1.0, 1.0, 1.0), data=intensities_for(test, rng))
    pred = model.predict(volume).labels
    assert np.array_equal(pred, full_grid_predict(model, volume.data))


@given(volumes=label_volumes(n=2), seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=4, max_size=4)
       .filter(any))
def test_fit_with_repeated_and_reused_records_matches_oracle(volumes, seed, weights):
    rng = np.random.default_rng(seed)
    a, b = (make_case(intensities_for(labels, rng), labels, CAT4, case_id=f"c{i}")
            for i, labels in enumerate(volumes))
    for corpus, w in (([a, b, a, a], weights), ([b, a, b, a], weights[::-1])):
        model = GaussianIntensityModel(CAT4)
        model.fit(corpus, w)  # the second fit reuses both records' moments
        expected = full_grid_fit([(c.volume.data, c.pseudo.labels) for c in corpus], w,
                                 CAT4.labels)
        got = model.to_dict()
        assert got["background"] == expected["background"]
        assert got["structures"] == expected["structures"]
