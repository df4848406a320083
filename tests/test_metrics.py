import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emcurate import (
    ConfusionCounts,
    DetectionOutcome,
    ShapeError,
    UndefinedRateError,
    build_roc,
    classification_rates,
    dsc,
    nsd,
    patient_wise_detection,
    tumor_wise_detection,
)
from emcurate import metrics
from emcurate.grid import boundary_voxels
from emcurate.metrics import (
    RocCurve,
    RocPoint,
    default_threshold_grid,
    evaluate_pair,
    f1_score,
)

from conftest import CAT4, boxed_mask_pairs, label_volumes, make_label_map
from oracles import (
    brute_boundary,
    brute_dsc,
    brute_nsd,
    brute_tumor_wise,
    full_grid_nsd,
    per_threshold_roc,
)

UNIT = (1.0, 1.0, 1.0)


def cube(dims, lo, hi):
    m = np.zeros(dims, bool)
    m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return m


# -- dsc ---------------------------------------------------------------------

def test_dsc_identity():
    m = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    assert dsc(m, m) == 1.0


def test_dsc_disjoint():
    a = cube((4, 4, 4), (0, 0, 0), (1, 1, 1))
    b = cube((4, 4, 4), (2, 2, 2), (3, 3, 3))
    assert dsc(a, b) == 0.0


def test_dsc_half_overlap():
    a = np.zeros((4, 1, 1), bool)
    b = np.zeros((4, 1, 1), bool)
    a[0] = a[1] = True
    b[1] = b[2] = True
    assert dsc(a, b) == 0.5


def test_dsc_empty_conventions():
    e = np.zeros((3, 3, 3), bool)
    m = cube((3, 3, 3), (0, 0, 0), (1, 1, 1))
    assert dsc(e, e) == 1.0
    assert dsc(e, m) == 0.0


def test_dsc_dims_mismatch():
    with pytest.raises(ShapeError):
        dsc(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 3), bool))


def test_dsc_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.random((5, 5, 5)) < 0.4
        b = rng.random((5, 5, 5)) < 0.4
        assert dsc(a, b) == dsc(b, a)
        assert 0.0 <= dsc(a, b) <= 1.0


# -- nsd ---------------------------------------------------------------------

def test_nsd_identity():
    m = cube((5, 5, 5), (1, 1, 1), (4, 4, 4))
    assert nsd(m, m, 1.0, UNIT) == 1.0


def test_nsd_far_apart():
    a = np.zeros((12, 1, 1), bool)
    b = np.zeros((12, 1, 1), bool)
    a[0] = True
    b[10] = True  # 10 mm apart on unit spacing
    assert nsd(a, b, 1.0, UNIT) == 0.0


def test_nsd_empty_conventions():
    e = np.zeros((3, 3, 3), bool)
    m = cube((3, 3, 3), (0, 0, 0), (2, 2, 2))
    assert nsd(e, e, 1.0, UNIT) == 1.0
    assert nsd(e, m, 1.0, UNIT) == 0.0


def test_nsd_shifted_cube_matches_oracle():
    a = cube((7, 7, 7), (1, 1, 1), (6, 6, 6))  # 5^3 cube
    b = np.roll(a, 1, axis=0)                  # shifted one voxel in x
    expected = brute_nsd(a, b, 1.0, (1.0, 1.0, 1.0))
    assert abs(nsd(a, b, 1.0, UNIT) - expected) < 1e-12


def test_nsd_boundary_definition_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.random((5, 5, 5)) < 0.5
        got = set(map(tuple, np.argwhere(boundary_voxels(m))))
        assert got == set(brute_boundary(m))


def test_nsd_monotone_in_tolerance():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.random((6, 6, 6)) < 0.4
        b = rng.random((6, 6, 6)) < 0.4
        values = [nsd(a, b, t, (1, 1, 1)) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))


def test_nsd_respects_anisotropic_spacing():
    a = np.zeros((4, 1, 1), bool)
    b = np.zeros((4, 1, 1), bool)
    a[0] = True
    b[1] = True  # 1 voxel apart: 2.5mm under spacing (2.5,1,1)
    assert nsd(a, b, 2.0, (2.5, 1.0, 1.0)) == 0.0
    assert nsd(a, b, 2.6, (2.5, 1.0, 1.0)) == 1.0


@pytest.mark.parametrize("tolerance_mm, spacing", [
    (0.0, UNIT), (-1.0, UNIT), (1.0, (1.0, 1.0)), (1.0, (1.0, 0.0, 1.0)), (1.0, (1.0, 1.0, -2.0)),
    (math.nan, UNIT), (1.5, (math.nan, 1.0, 1.0)), (1.5, (1.0, math.inf, 1.0)),
], ids=["zero_tolerance", "negative_tolerance", "two_axes", "zero_spacing", "negative_spacing",
        "nan_tolerance", "nan_spacing", "inf_spacing"])
def test_nsd_rejects_nonpositive_tolerance_and_spacing(tolerance_mm, spacing):
    m = cube((3, 3, 3), (0, 0, 0), (2, 2, 2))
    with pytest.raises(ShapeError):
        nsd(m, m, tolerance_mm, spacing)


# -- classification rates ----------------------------------------------------

def test_sensitivity_arithmetic():
    sens, _, _ = classification_rates(ConfusionCounts(tp=9, tn=1, fp=1, fn=1))
    assert sens == 0.9


def test_paper_reported_fractions():
    # specificity 550/623 reported as 88.3, sensitivity 509/578 as 88.1
    spec_rate = classification_rates(ConfusionCounts(tp=1, tn=550, fp=73, fn=0))[1]
    assert abs(spec_rate * 100 - 88.3) <= 0.05
    sens_rate = classification_rates(ConfusionCounts(tp=509, tn=1, fp=1, fn=69))[0]
    assert abs(sens_rate * 100 - 88.1) <= 0.05


def test_perfect_detector_f1():
    assert f1_score(ConfusionCounts(tp=5, tn=0, fp=0, fn=0)) == 1.0


def test_undefined_rates_named():
    with pytest.raises(UndefinedRateError) as err:
        classification_rates(ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
    assert err.value.rate == "sensitivity"
    with pytest.raises(UndefinedRateError) as err:
        classification_rates(ConfusionCounts(tp=1, tn=0, fp=0, fn=1))
    assert err.value.rate == "specificity"
    with pytest.raises(UndefinedRateError) as err:
        f1_score(ConfusionCounts(tp=0, tn=1, fp=0, fn=1))
    assert err.value.rate == "precision"
    with pytest.raises(UndefinedRateError) as err:  # precision and recall both 0
        f1_score(ConfusionCounts(tp=0, tn=0, fp=1, fn=1))
    assert err.value.rate == "f1"


def test_confusion_counts_reject_negatives():
    for counts in ({"tp": -1}, {"tn": -1}, {"fp": -1}, {"fn": -1}):
        with pytest.raises(ShapeError, match="non-negative"):
            ConfusionCounts(**counts)


# -- detection ---------------------------------------------------------------

def test_patient_wise_outcomes():
    e = np.zeros((3, 3, 3), bool)
    m = cube((3, 3, 3), (0, 0, 0), (1, 1, 1))
    far = cube((3, 3, 3), (2, 2, 2), (3, 3, 3))
    assert patient_wise_detection(e, e) is DetectionOutcome.TN
    assert patient_wise_detection(e, m) is DetectionOutcome.FN
    assert patient_wise_detection(m, e) is DetectionOutcome.FP
    # disjoint but both nonempty is still TP patient-wise
    assert patient_wise_detection(m, far) is DetectionOutcome.TP


def test_tumor_wise_partial_coverage():
    ref = np.zeros((10, 1, 1), bool)
    ref[0:2] = True
    ref[5:7] = True
    pred = np.zeros((10, 1, 1), bool)
    pred[0] = True
    counts = tumor_wise_detection(pred, ref, connectivity=6)
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 0, 0)


def test_tumor_wise_all_false_positives():
    ref = np.zeros((10, 1, 1), bool)
    ref[9] = True
    pred = np.zeros((10, 1, 1), bool)
    pred[0] = pred[3] = pred[6] = True
    counts = tumor_wise_detection(pred, ref, connectivity=6)
    assert (counts.tp, counts.fn, counts.fp) == (0, 1, 3)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_tumor_wise_matches_oracle(connectivity):
    rng = np.random.default_rng(17)
    for _ in range(30):
        pred = rng.random((8, 8, 8)) < 0.12
        ref = rng.random((8, 8, 8)) < 0.12
        counts = tumor_wise_detection(pred, ref, connectivity)
        tp, fp, fn = brute_tumor_wise(pred, ref, connectivity)
        assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
        # tp + fn always equals the number of reference components
        assert counts.tp + counts.fn == len(
            __import__("oracles").brute_components(ref, connectivity))


@st.composite
def border_mask_pairs(draw):
    """Random (pred, ref) masks with one voxel of each on the grid border."""
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    masks = []
    for _ in range(2):
        mask = draw(arrays(bool, shape))
        axis = draw(st.integers(0, 2))
        voxel = [draw(st.integers(0, n - 1)) for n in shape]
        voxel[axis] = draw(st.sampled_from([0, shape[axis] - 1]))
        mask[tuple(voxel)] = True
        masks.append(mask)
    return tuple(masks)


@pytest.mark.parametrize("connectivity", [6, 26])
@given(pair=st.one_of(border_mask_pairs(), boxed_mask_pairs(),
                      boxed_mask_pairs().map(lambda p: (np.zeros_like(p[0]), p[1])),
                      boxed_mask_pairs().map(lambda p: (p[0], np.zeros_like(p[1])))),
       fp_min_voxels=st.integers(1, 3))
def test_tumor_wise_matches_oracle_at_border(connectivity, pair, fp_min_voxels):
    pred, ref = pair
    counts = tumor_wise_detection(pred, ref, connectivity, fp_min_voxels)
    assert (counts.tp, counts.fp, counts.fn) == \
        brute_tumor_wise(pred, ref, connectivity, fp_min_voxels)


# -- roc ---------------------------------------------------------------------

def _roc_case(rng, with_tumor):
    prob = rng.random((8, 8, 8)) * 0.3
    ref = np.zeros((8, 8, 8), bool)
    if with_tumor:
        x, y, z = rng.integers(1, 6, size=3)
        ref[x:x + 2, y:y + 2, z:z + 2] = True
        prob[ref] = 0.5 + 0.5 * rng.random(int(ref.sum()))
    return prob, ref


def test_roc_extreme_thresholds():
    rng = np.random.default_rng(2)
    probs, refs = zip(*[_roc_case(rng, True) for _ in range(3)])
    curve = build_roc(probs, refs, [1.0, 0.0])
    assert curve.points[0].sensitivity == 0.0
    assert curve.points[0].fp_per_scan == 0.0
    # prob > 0 everywhere, so threshold 0 predicts everything
    assert curve.points[-1].sensitivity == 1.0


def test_roc_matches_per_threshold_recomputation():
    rng = np.random.default_rng(23)
    cases = [_roc_case(rng, t) for t in (True, True, False)]
    probs = [c[0] for c in cases]
    refs = [c[1] for c in cases]
    thresholds = [0.9, 0.7, 0.5, 0.3, 0.1]
    curve = build_roc(probs, refs, thresholds)
    for point in curve.points:
        tp = fn = fp = 0
        tn_cases = n_neg = 0
        for prob, ref in zip(probs, refs):
            pred = prob > point.threshold
            t, f, n = brute_tumor_wise(pred, ref, 6)
            tp, fp, fn = tp + t, fp + f, fn + n
            if not ref.any():
                n_neg += 1
                tn_cases += int(not pred.any())
        assert point.sensitivity == pytest.approx(tp / (tp + fn))
        assert point.fp_per_scan == pytest.approx(fp / len(probs))
        assert point.specificity == pytest.approx(tn_cases / n_neg)


ROC_LEVELS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


@st.composite
def sparse_roc_cases(draw):
    """Probability maps that are zero outside a sub-box (on the levels, so
    thresholds tie with voxel values), with references anywhere."""
    shape = draw(st.tuples(*[st.integers(2, 7)] * 3))
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(a, n - 1)) for a, n in zip(lo, shape)]
        box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        prob = np.zeros(shape)
        prob[box] = draw(arrays(np.float64, prob[box].shape,
                                elements=st.sampled_from(ROC_LEVELS)))
        ref = draw(arrays(bool, shape))
        cases.append((prob, ref))
    return cases


@pytest.mark.parametrize("connectivity", [6, 26])
@given(cases=sparse_roc_cases(), fp_min_voxels=st.integers(1, 3))
def test_roc_on_sparse_maps_matches_uncropped_oracle(connectivity, cases, fp_min_voxels):
    thresholds = [1.0, 0.8, 0.7, 0.4, 0.2, 0.1, 0.0]
    curve = build_roc([c[0] for c in cases], [c[1] for c in cases], thresholds,
                      connectivity, fp_min_voxels)
    for point in curve.points:
        tp = fp = fn = tn_cases = n_neg = 0
        for prob, ref in cases:
            pred = prob > point.threshold
            t, f, n = brute_tumor_wise(pred, ref, connectivity, fp_min_voxels)
            tp, fp, fn = tp + t, fp + f, fn + n
            if not ref.any():
                n_neg += 1
                tn_cases += int(not pred.any())
        assert point.sensitivity == (tp / (tp + fn) if tp + fn else 0.0)
        assert point.fp_per_scan == fp / len(cases)
        if n_neg:
            assert point.specificity == tn_cases / n_neg
        else:
            assert math.isnan(point.specificity)


@st.composite
def scattered_roc_inputs(draw):
    """Cases whose support is scattered over the whole grid, on values that
    tie with each other and with the thresholds, some with an empty support
    and no reference; strictly decreasing thresholds holding 0.0, 1.0, some
    of the voxel values and some values in between."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    level = st.one_of(st.sampled_from(ROC_LEVELS), st.floats(0.0, 1.0))
    probs, refs = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            probs.append(np.zeros(shape))
            refs.append(np.zeros(shape, bool))
            continue
        support = draw(arrays(bool, shape))
        probs.append(np.where(support, draw(arrays(np.float64, shape, elements=level)), 0.0))
        refs.append(draw(arrays(bool, shape)))
    values = sorted({float(v) for p in probs for v in p[p > 0]})
    picked = draw(st.lists(st.sampled_from(values), max_size=6)) if values else []
    between = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    thresholds = sorted({0.0, 1.0, *picked, *between}, reverse=True)
    return probs, refs, thresholds


@pytest.mark.parametrize("connectivity", [6, 26])
@given(inputs=scattered_roc_inputs(), fp_min_voxels=st.integers(1, 3))
# an instance with zero probability on every voxel, beside a false positive
@example(inputs=([np.array([0.0, 0.0, 0.0, 0.5]).reshape(4, 1, 1)],
                 [np.array([True, True, False, False]).reshape(4, 1, 1)],
                 [1.0, 0.5, 0.0]), fp_min_voxels=1)
# instances whose maxima equal thresholds
@example(inputs=([np.array([0.25, 0.5, 0.0, 0.7, 0.5]).reshape(5, 1, 1)],
                 [np.array([True, True, False, True, False]).reshape(5, 1, 1)],
                 [1.0, 0.7, 0.5, 0.25, 0.0]), fp_min_voxels=1)
def test_roc_sweep_matches_per_threshold_oracle(connectivity, inputs, fp_min_voxels):
    probs, refs, thresholds = inputs
    got = build_roc(probs, refs, thresholds, connectivity, fp_min_voxels)
    want = per_threshold_roc(probs, refs, thresholds, connectivity, fp_min_voxels)
    assert len(got.points) == len(want.points) == len(thresholds)
    for a, b in zip(got.points, want.points):
        assert (a.threshold, a.sensitivity, a.fp_per_scan) == \
            (b.threshold, b.sensitivity, b.fp_per_scan)
        assert a.specificity == b.specificity or \
            (math.isnan(a.specificity) and math.isnan(b.specificity))


@pytest.mark.parametrize("n_thresholds", [2, 101])
def test_roc_labels_each_case_once(monkeypatch, n_thresholds):
    """The sweep labels each case's reference once, whatever the number of
    thresholds: no per-threshold relabeling."""
    calls = []
    label = metrics.connected_components

    def counting(*args, **kwargs):
        calls.append(args)
        return label(*args, **kwargs)

    monkeypatch.setattr(metrics, "connected_components", counting)
    rng = np.random.default_rng(7)
    cases = [_roc_case(rng, t) for t in (True, False, True, True)]
    build_roc([c[0] for c in cases], [c[1] for c in cases],
              default_threshold_grid(n_thresholds))
    assert len(calls) == len(cases)


def test_roc_validates_inputs():
    with pytest.raises(ShapeError):
        build_roc([], [], [0.5])
    prob = np.zeros((2, 2, 2))
    ref = np.zeros((2, 2, 2), bool)
    with pytest.raises(ShapeError):
        build_roc([prob], [ref], [0.2, 0.5])  # not decreasing
    with pytest.raises(ShapeError):
        build_roc([prob], [ref], [])
    with pytest.raises(ShapeError, match="shape"):
        build_roc([prob], [np.zeros((2, 2, 3), bool)], [0.5])
    for thresholds in ([1.5, 0.5], [0.5, -0.1]):
        with pytest.raises(ShapeError, match=r"within \[0, 1\]"):
            build_roc([prob], [ref], thresholds)


def test_roc_curve_invariants_enforced():
    with pytest.raises(ShapeError):
        RocCurve(points=(RocPoint(0.5, 0.5, 0.0, 1.0), RocPoint(0.5, 0.6, 0.0, 1.0)))
    with pytest.raises(ShapeError):
        RocCurve(points=(RocPoint(0.9, 0.5, 0.0, 1.0), RocPoint(0.5, 0.4, 0.0, 1.0)))


def test_roc_sensitivity_monotone_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        cases = [_roc_case(rng, rng.random() < 0.7) for _ in range(4)]
        probs = [c[0] for c in cases]
        refs = [c[1] for c in cases]
        if not any(r.any() for r in refs):
            continue
        curve = build_roc(probs, refs, list(np.linspace(1, 0, 21)))
        sens = [p.sensitivity for p in curve.points]
        assert all(a <= b + 1e-15 for a, b in zip(sens, sens[1:]))


# -- evaluate_pair -----------------------------------------------------------

@given(volumes=label_volumes(n=2),
       spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.8, 0.8, 2.5), (1.5, 0.7, 1.1)]),
       tolerance_mm=st.sampled_from([0.5, 1.0, 1.6, 3.0]))
def test_evaluate_pair_matches_full_grid_oracle(volumes, spacing, tolerance_mm):
    pred, ref = volumes
    scores = evaluate_pair(make_label_map(pred, CAT4, spacing), make_label_map(ref, CAT4, spacing),
                           tolerance_mm)
    for s in CAT4.labels:
        a, b = pred == s, ref == s
        got = scores[s]
        assert got.dsc == brute_dsc(a, b)
        assert got.nsd == full_grid_nsd(a, b, tolerance_mm, spacing)
        assert (got.pred_voxels, got.ref_voxels) == (np.count_nonzero(a), np.count_nonzero(b))


def test_evaluate_pair_rejects_other_lattices():
    pred = make_label_map(np.zeros((2, 2, 2)), CAT4)
    for ref in (make_label_map(np.zeros((2, 2, 3)), CAT4),
                make_label_map(np.zeros((2, 2, 2)), CAT4, spacing=(1.0, 1.0, 2.0))):
        with pytest.raises(ShapeError, match="lattices differ"):
            evaluate_pair(pred, ref, 2.0)
