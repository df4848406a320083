import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import emcurate as em
from emcurate import (
    ConfigError,
    ConfusionCounts,
    CostModel,
    ShapeError,
    UndefinedRateError,
    annotation_savings,
    select_threshold,
    suppress_fp_by_report,
)
from emcurate.metrics import RocCurve, RocPoint, build_roc, default_threshold_grid
from emcurate.roc import process_case

from conftest import boxed_mask_pairs, make_case
from emcurate.grid import StructureCatalog, StructureEntry, StructureKind

CAT = StructureCatalog((StructureEntry(1, "tumor", StructureKind.TUMOR),))
COST = CostModel()


def curve_from(rows):
    return RocCurve(points=tuple(RocPoint(*row) for row in rows))


def test_select_threshold_picks_largest_feasible():
    curve = curve_from([(0.9, 0.5, 0.1, 1.0), (0.5, 0.99, 0.4, 1.0),
                        (0.2, 1.0, 1.2, 0.9), (0.0, 1.0, 5.0, 0.5)])
    policy = select_threshold(curve, 0.99)
    assert policy.feasible
    assert policy.selected_threshold == 0.5
    assert policy.achieved_sensitivity == 0.99
    assert policy.fp_per_scan == 0.4


def test_select_threshold_infeasible_returns_lowest_point():
    curve = curve_from([(0.9, 0.1, 0.0, 1.0), (0.4, 0.6, 0.2, 1.0)])
    policy = select_threshold(curve, 0.99)
    assert not policy.feasible
    assert policy.selected_threshold == 0.4
    assert policy.achieved_sensitivity == 0.6


def test_select_threshold_validates():
    curve = curve_from([(0.5, 1.0, 0.0, 1.0)])
    with pytest.raises(ConfigError):
        select_threshold(curve, 0.0)
    with pytest.raises(ShapeError):
        select_threshold(RocCurve(points=()), 0.9)


def test_select_threshold_matches_exhaustive_sweep():
    rng = np.random.default_rng(4)
    sens = np.sort(rng.random(30))
    thresholds = np.linspace(0.99, 0.01, 30)
    curve = curve_from([(t, s, 0.0, 1.0) for t, s in zip(thresholds, sens)])
    for target in (0.3, 0.6, 0.95):
        policy = select_threshold(curve, target)
        feasible = [p for p in curve.points if p.sensitivity >= target]
        if feasible:
            assert policy.feasible
            assert policy.selected_threshold == max(p.threshold for p in feasible)
        else:
            assert not policy.feasible


def tumor_case(case_id, tumor_count, pred_blobs, gold_blobs):
    labels = np.zeros((12, 12, 12), np.uint16)
    for x, y, z in gold_blobs:
        labels[x:x + 2, y:y + 2, z:z + 2] = 1
    pred = np.zeros((12, 12, 12), bool)
    for x, y, z in pred_blobs:
        pred[x:x + 2, y:y + 2, z:z + 2] = True
    case = make_case(np.zeros((12, 12, 12)), labels, CAT, case_id=case_id,
                     gold_labels=labels, tumor_count=tumor_count)
    return case, pred


def test_suppression_on_report_negative():
    case, pred = tumor_case("neg", 0, [(1, 1, 1)], [])
    out = suppress_fp_by_report(case, pred)
    assert not out.any()


def test_suppression_identity_on_report_positive():
    case, pred = tumor_case("pos", 1, [(1, 1, 1)], [(1, 1, 1)])
    out = suppress_fp_by_report(case, pred)
    assert np.array_equal(out, pred)


def test_erasure_no_false_positives():
    case, pred = tumor_case("p", 1, [(1, 1, 1)], [(1, 1, 1)])
    assert process_case(case, pred, case.gold.labels == 1) == ConfusionCounts(tp=1)


def test_erasure_counts_clicks():
    case, pred = tumor_case("p", 1, [(1, 1, 1), (6, 6, 6), (9, 9, 9)], [(1, 1, 1)])
    assert process_case(case, pred, case.gold.labels == 1) == ConfusionCounts(tp=1, fp=2)


@st.composite
def erasure_inputs(draw):
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    return (draw(arrays(bool, shape)), draw(arrays(bool, shape)),
            draw(st.booleans()), draw(st.sampled_from([6, 26])))


@st.composite
def boxed_erasure_inputs(draw):
    """pred and gold each filled only inside its own sub-box of a larger grid."""
    return (*draw(boxed_mask_pairs()), draw(st.booleans()), draw(st.sampled_from([6, 26])))


def border_example():
    """A kept component on the grid's far faces, an erased one in the near
    corner and a missed gold voxel in the interior."""
    pred = np.zeros((6, 7, 8), bool)
    gold = np.zeros_like(pred)
    pred[3:6, 5:7, 7] = True
    pred[0, 0, 0] = True
    gold[5, 6, 7] = True
    gold[2, 3, 4] = True
    return pred, gold, True, 26


@example(inputs=border_example())
@given(inputs=st.one_of(erasure_inputs(), boxed_erasure_inputs()))
def test_erasure_and_process_case_match_component_loop(inputs):
    pred, gold, report_positive, connectivity = inputs
    labels = gold.astype(np.uint16)
    case = make_case(np.zeros(pred.shape), labels, CAT, gold_labels=labels,
                     tumor_count=int(report_positive))
    # reference: one full-grid scan per component
    kept = pred if report_positive else np.zeros_like(pred)
    expected = kept.copy()
    clicks = 0
    comp = em.connected_components(kept, connectivity)
    for k in range(1, comp.count + 1):
        inst = comp.ids == k
        if not gold[inst].any():
            expected[inst] = False
            clicks += 1
    gold_comp = em.connected_components(gold, connectivity)
    missed = sum(not expected[gold_comp.ids == k].any()
                 for k in range(1, gold_comp.count + 1))

    counts = process_case(case, pred, gold, connectivity)
    assert counts == ConfusionCounts(tp=gold_comp.count - missed, fp=clicks, fn=missed)


def test_savings_perfect_detector():
    counts = [ConfusionCounts(tp=2), ConfusionCounts(tp=1)]
    report = annotation_savings(counts, COST)
    assert report.ratio == 1.0


def test_savings_total_miss_is_zero():
    report = annotation_savings([ConfusionCounts(fn=2)], COST)
    assert report.ratio == 0.0


def test_savings_requires_gold_instances():
    with pytest.raises(UndefinedRateError):
        annotation_savings([ConfusionCounts()], COST)


def test_savings_paper_style_arithmetic():
    # 100 scans, one tumor each, 99% sensitivity, 0.6 FP/scan:
    # ratio = 1 - (0.6*5 + 0.01*270)/270
    counts = [ConfusionCounts(fn=1)] + [ConfusionCounts(tp=1)] * 99  # 99/100 detected
    counts[1] = ConfusionCounts(tp=1, fp=60)  # 60 clicks in all
    report = annotation_savings(counts, COST)
    expected = 1 - (60 * 5 + 1 * 270) / (100 * 270)
    assert report.ratio == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1 - (0.6 * 5 + 0.01 * 270) / 270, abs=1e-12)


def test_savings_monotone_in_fp_and_sensitivity():
    base = annotation_savings([ConfusionCounts(tp=9, fn=1, fp=5)], COST).ratio
    more_fp = annotation_savings([ConfusionCounts(tp=9, fn=1, fp=9)], COST).ratio
    more_missed = annotation_savings([ConfusionCounts(tp=8, fn=2, fp=5)], COST).ratio
    assert more_fp < base
    assert more_missed < base


def test_process_case_report_negative_suppression_end_to_end():
    case, pred = tumor_case("neg", 0, [(2, 2, 2), (8, 8, 8)], [])
    counts = process_case(case, pred, case.gold.labels == 1)
    assert counts.fp == 0  # report removal costs nothing
    assert counts.tp + counts.fn == 0


def test_roc_workflow_end_to_end(run_cfg):
    """Model-driven curve: the selected threshold meets the target, verified
    against a brute-force sweep over the grid."""
    spec = run_cfg.phantom
    cases = [em.generate_case(spec, s, case_id=f"v{s}") for s in range(12)]
    model = em.fit_model(cases)
    tumor = 7
    probs = [model.predict_prob(c.volume, tumor) for c in cases]
    refs = [c.gold.labels == tumor for c in cases]
    grid = default_threshold_grid(51)
    curve = build_roc(probs, refs, grid, connectivity=6)
    policy = select_threshold(curve, 0.99)
    assert policy.feasible
    assert policy.achieved_sensitivity >= 0.99
    # exhaustive sweep oracle
    best = None
    for t in grid:
        tp = fn = 0
        for p, r in zip(probs, refs):
            comp = em.connected_components(r, 6)
            for k in range(1, comp.count + 1):
                if (p[comp.ids == k] > t).any():
                    tp += 1
                else:
                    fn += 1
        if tp + fn and tp / (tp + fn) >= 0.99:
            best = t
            break
    assert best == pytest.approx(policy.selected_threshold)
