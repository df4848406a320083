import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emcurate as em
from emcurate import Preference, RuleBasedJudge, judge_pair, run_tournament, score_overlay
from emcurate.expert import AnatomicalPrior, CentroidBox, overlay_features, shape_cleanup
from emcurate.grid import Projection2D, front_view_projection
from emcurate.phantom import InjectionOp, apply_injections

from conftest import CAT4, label_volumes, make_label_map
from oracles import full_grid_shape_cleanup, overlay_component_count


def aorta_prior(run_cfg):
    return run_cfg.priors[6]


def make_volume(dims=(64, 64, 64)):
    return em.VoxelGrid(dims=dims, spacing=(1, 1, 1),
                        data=np.zeros(dims, dtype=np.float32))


def vertical_line_mask(dims=(64, 64, 64), x=31, z_lo=9, z_hi=55, width=4):
    mask = np.zeros(dims, bool)
    mask[x:x + width, 30:32, z_lo:z_hi] = True
    return mask


def test_empty_overlay_scores_zero(run_cfg):
    vol = make_volume()
    proj = front_view_projection(vol, np.zeros(vol.dims, bool))
    assert score_overlay(aorta_prior(run_cfg), proj) == 0.0


def test_ideal_aorta_overlay_scores_high(run_cfg):
    vol = make_volume()
    mask = vertical_line_mask()
    proj = front_view_projection(vol, mask)
    # every criterion is satisfied, so the weighted product is 1.0 >= 0.9
    assert score_overlay(aorta_prior(run_cfg), proj) >= 0.9


def test_fragmented_overlay_scores_strictly_lower(run_cfg):
    vol = make_volume()
    whole = vertical_line_mask()
    fragmented = whole.copy()
    fragmented[:, :, 20:23] = False
    fragmented[:, :, 40:43] = False  # 3 pieces
    s_whole = score_overlay(aorta_prior(run_cfg), front_view_projection(vol, whole))
    s_frag = score_overlay(aorta_prior(run_cfg), front_view_projection(vol, fragmented))
    assert s_frag < s_whole


def test_judge_pair_tie_on_identical(run_cfg):
    vol = make_volume()
    mask = vertical_line_mask()
    verdict = judge_pair(vol, mask, mask, aorta_prior(run_cfg))
    assert verdict.preference is Preference.TIE


def test_judge_pair_prefers_in_place_mask(run_cfg):
    vol = make_volume()
    good = vertical_line_mask()
    displaced = np.roll(good, 20, axis=0)  # fully outside the centroid box
    verdict = judge_pair(vol, good, displaced, aorta_prior(run_cfg))
    assert verdict.preference is Preference.FIRST
    swapped = judge_pair(vol, displaced, good, aorta_prior(run_cfg))
    assert swapped.preference is Preference.SECOND


def test_judge_pair_antisymmetric_random(run_cfg):
    rng = np.random.default_rng(5)
    vol = make_volume((16, 16, 16))
    prior = AnatomicalPrior(label=1, name="blob", prompt="a blob",
                            centroid_box=CentroidBox((0.2, 0.8), (0.2, 0.8)),
                            components=(1, 2), vertical_extent=(0.1, 0.9),
                            elongation=(0.3, 3.0))
    for _ in range(30):
        a = rng.random((16, 16, 16)) < 0.05
        b = rng.random((16, 16, 16)) < 0.05
        va = judge_pair(vol, a, b, prior)
        vb = judge_pair(vol, b, a, prior)
        assert va.preference is vb.preference.swapped()


def test_rule_judge_deterministic(run_cfg):
    vol = make_volume()
    judge = RuleBasedJudge(run_cfg.priors)
    a = vertical_line_mask()
    b = np.roll(a, 6, axis=0)
    v1 = judge.compare("c", 6, vol, a, b)
    v2 = judge.compare("c", 6, vol, a, b)
    assert v1.preference is v2.preference
    assert v1.score_first == v2.score_first


def test_tournament_identical_candidates_keeps_incumbent(run_cfg, small_corpus):
    cases, _ = small_corpus
    case = cases[0]
    judge = RuleBasedJudge(run_cfg.priors)
    verdicts = run_tournament(case, case.pseudo, case.pseudo, judge, run_cfg.catalog.labels)
    assert list(verdicts) == list(run_cfg.catalog.labels)
    assert all(v.preference is Preference.TIE for v in verdicts.values())


def test_tournament_prefers_gold_derived_over_corrupted(run_cfg):
    case = em.generate_case(run_cfg.phantom, 2, case_id="t")
    # corrupt every structure visibly: big x-shifts violate the centroid prior
    log = [InjectionOp(s, "shift", {"vector": [10, 0, 0]})
           for s in run_cfg.catalog.labels if (case.gold.labels == s).any()]
    corrupted = apply_injections(case.gold, log)
    judge = RuleBasedJudge(run_cfg.priors)
    verdicts = run_tournament(case.with_pseudo(corrupted), corrupted, case.gold, judge,
                              run_cfg.catalog.labels)
    prefs = [v.preference for v in verdicts.values()]
    assert prefs.count(Preference.FIRST) > prefs.count(Preference.SECOND)


def test_shape_cleanup_removes_fragments_and_keeps_labels(run_cfg):
    case = em.generate_case(run_cfg.phantom, 4, case_id="t")
    labels = case.gold.labels.copy()
    labels[0, 0, 0] = 1  # far-away liver fragment
    dirty = case.gold.with_labels(labels)
    cleaned = shape_cleanup(dirty)
    assert cleaned.labels[0, 0, 0] == 0
    # main bodies survive
    for s in run_cfg.catalog.labels:
        if (case.gold.labels == s).any():
            assert em.dsc(cleaned.labels == s, case.gold.labels == s) > 0.95


def test_judge_benchmark_sample(run_cfg):
    """Miniature version of the accuracy harness: gold vs corrupted pairs."""
    judge = RuleBasedJudge(run_cfg.priors)
    wins = ties = losses = total = 0
    for seed in range(6):
        case = em.generate_case(run_cfg.phantom, seed, case_id=f"b{seed}")
        noisy, log = em.inject_noise(case, run_cfg.noise, seed + 100)
        for s in run_cfg.catalog.labels:
            gold_mask = case.gold.labels == s
            bad_mask = noisy.pseudo.labels == s
            if np.array_equal(gold_mask, bad_mask):
                continue
            verdict = judge.compare(case.case_id, s, case.volume, gold_mask, bad_mask)
            total += 1
            if verdict.preference is Preference.FIRST:
                wins += 1
            elif verdict.preference is Preference.TIE:
                ties += 1
            else:
                losses += 1
    assert total > 0
    assert wins >= losses  # full >=90% bar lives in the acceptance suite


# Equal-size components of every structure, each touching the grid border.
TIES = np.zeros((5, 4, 3), np.uint16)
TIES[0, 0, 0] = TIES[4, 3, 2] = 1
TIES[0:2, 3, 0] = TIES[3:5, 0, 2] = 2
TIES[2, 0, 1] = TIES[2, 3, 1] = 3
TIES[0, 2, 2] = TIES[4, 1, 0] = 4


@given(volumes=label_volumes(), organ_connectivity=st.sampled_from([6, 26]),
       tumor_connectivity=st.sampled_from([6, 26]))
@example(volumes=(TIES,), organ_connectivity=26, tumor_connectivity=6)
@example(volumes=(TIES,), organ_connectivity=6, tumor_connectivity=26)
def test_shape_cleanup_matches_full_grid_oracle(volumes, organ_connectivity,
                                                tumor_connectivity):
    (labels,) = volumes
    got = shape_cleanup(make_label_map(labels, CAT4), organ_connectivity, tumor_connectivity)
    kinds = {e.label: e.kind.value for e in CAT4.entries}
    assert np.array_equal(got.labels, full_grid_shape_cleanup(
        labels, kinds, organ_connectivity, tumor_connectivity))


@settings(max_examples=300)
@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1))
def test_overlay_components_match_8_connected_labeling(nx, nz, density, seed):
    overlay = np.random.default_rng(seed).random((nx, nz)) < density
    feats = overlay_features(Projection2D(overlay=overlay, spacing=(1.0, 1.0)))
    if not overlay.any():
        assert feats is None
    else:
        assert feats["components"] == overlay_component_count(overlay)
