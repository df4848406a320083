import hashlib
import json
import sys
import time

import numpy as np
import pytest

import emcurate as em
from emcurate import (
    EMConfig,
    ExternalJudge,
    RuleBasedJudge,
    SimulatedExpert,
    TieKeeperOracle,
)
from emcurate.errors import ConfigError
from emcurate.expert import JudgeVerdict, Preference, shape_cleanup
from emcurate.grid import LabelMap, StructureCatalog, StructureEntry, StructureKind
from emcurate.loop import (
    Annealing,
    DataMix,
    EscalationEntry,
    EscalationReason,
    expectation_pass,
    interactive_review,
    load_queue,
    maximization_pass,
    ordered_parallel_map,
    render_overlay_ascii,
    run_em,
    save_queue,
)

from conftest import make_case
from oracles import full_grid_changed_structures


def em_cfg(**over):
    base = dict(max_iterations=3, convergence_epsilon=1e-4, seed=0,
                data_mix=DataMix(0.7, 0.2, 0.1))
    base.update(over)
    return EMConfig(**base)


@pytest.fixture(scope="module")
def judge(run_cfg_module):
    return RuleBasedJudge(run_cfg_module.priors)


@pytest.fixture(scope="module")
def run_cfg_module():
    return em.load_run_config()


@pytest.fixture(scope="module")
def noisy_corpus(run_cfg_module):
    cases, logs = em.generate_corpus(run_cfg_module.phantom, run_cfg_module.noise,
                                     16, 0.25, seed=77)
    return cases, logs


def test_emconfig_validation():
    with pytest.raises(ConfigError):
        EMConfig(data_mix=DataMix(0.5, 0.2, 0.1))
    with pytest.raises(ConfigError):
        EMConfig(escalation_budget_fraction=0.0)
    with pytest.raises(ConfigError):
        EMConfig(convergence_mode="nope")
    with pytest.raises(ConfigError):
        EMConfig(seed=-1)


def test_expectation_fixed_point(run_cfg_module, judge):
    cases = [em.generate_case(run_cfg_module.phantom, s, case_id=f"c{s}")
             for s in range(4)]
    model = em.fit_model(cases)
    consistent = [c.with_pseudo(model.predict(c.volume)) for c in cases]
    updated, entries, stats = expectation_pass(consistent, model, judge,
                                               TieKeeperOracle(), em_cfg())
    assert stats.changed_structures == 0
    assert stats.counts["escalate"] == 0
    assert entries == []
    for before, after in zip(consistent, updated):
        assert np.array_equal(before.pseudo.labels, after.pseudo.labels)


def test_expectation_single_deletion(run_cfg_module, judge):
    cases = [em.generate_case(run_cfg_module.phantom, s, case_id=f"c{s}")
             for s in range(4)]
    model = em.fit_model(cases)
    consistent = [c.with_pseudo(model.predict(c.volume)) for c in cases]
    labels = consistent[0].pseudo.labels.copy()
    labels[labels == 2] = 0
    consistent[0] = consistent[0].with_pseudo(consistent[0].pseudo.with_labels(labels))
    updated, entries, stats = expectation_pass(consistent, model, judge,
                                               TieKeeperOracle(), em_cfg())
    assert stats.counts["auto_replace"] == 1
    assert stats.counts["escalate"] == 0
    assert (updated[0].pseudo.labels == 2).any()


def test_expectation_counts_sum(noisy_corpus, run_cfg_module, judge):
    cases, _ = noisy_corpus
    model = em.fit_model(cases)
    _, entries, stats = expectation_pass(cases, model, judge, TieKeeperOracle(), em_cfg())
    counts = stats.counts
    assert counts["keep"] + counts["auto_replace"] + counts["route"] == \
        counts["structures_audited"]
    routed_not_tournament = counts["route"] - counts["tournament_decided"]
    assert counts["escalate"] + counts["auto_resolved"] == routed_not_tournament
    assert len(entries) == counts["escalate"]


class RecordingJudge(RuleBasedJudge):
    def __init__(self, priors, **kwargs):
        super().__init__(priors, **kwargs)
        self.calls = []

    def compare(self, case_id, structure, volume, mask_a, mask_b):
        self.calls.append((case_id, structure, mask_a, mask_b))
        return super().compare(case_id, structure, volume, mask_a, mask_b)


class RecordingOracle(SimulatedExpert):
    """A simulated expert that records the context of each review."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.contexts = []

    def review(self, case, structure, candidates, context):
        self.contexts.append(context)
        return super().review(case, structure, candidates, context)


def test_expectation_thread_count_invariant(noisy_corpus, run_cfg_module):
    cases, _ = noisy_corpus
    model = em.fit_model(cases)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # frequent thread switches expose any race
    try:
        for threads in (1, 4):
            # a tie band wider than any score gap sends every routed structure on
            recorder = RecordingJudge(run_cfg_module.priors, tie_epsilon=1.1)
            oracle = RecordingOracle(accuracy=0.9, seed=5)
            updated, _, _ = expectation_pass(cases, model, recorder, oracle, em_cfg(),
                                             threads=threads)
            runs.append((updated, [call[:2] for call in recorder.calls], oracle.contexts))
    finally:
        sys.setswitchinterval(interval)
    (a, calls_a, contexts_a), (b, calls_b, contexts_b) = runs
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.pseudo.labels, cb.pseudo.labels)
    assert len({case_id for case_id, _ in calls_a}) > 1
    assert len({context.split(":")[1] for context in contexts_a}) > 1
    assert calls_b == calls_a
    assert contexts_b == contexts_a


@pytest.mark.parametrize("threads", [1, 2])
def test_ordered_parallel_map_stays_lazy(threads):
    """Results arrive in input order, and no more than ``threads`` of them
    are computed ahead of the consumer, however slow it is."""
    started = []

    def square(x):
        started.append(x)
        return x * x

    ahead = []
    results = []
    for result in ordered_parallel_map(square, range(12), threads):
        time.sleep(0.01)  # a slow consumer: an eager map would run ahead
        results.append(result)
        ahead.append(len(started) - len(results))
    assert results == [x * x for x in range(12)]
    assert max(ahead) <= threads


def test_expectation_pass_on_an_empty_corpus(run_cfg_module, judge):
    model = em.GaussianIntensityModel(run_cfg_module.catalog)  # never asked
    corpus, entries, stats = expectation_pass([], model, judge, TieKeeperOracle(), em_cfg())
    assert corpus == [] and entries == []
    assert stats.counts["structures_audited"] == 0
    assert stats.escalation_fraction == 0.0
    assert stats.change_fraction == 0.0


def test_simulated_expert_deterministic_and_gold_seeking(noisy_corpus):
    cases, _ = noisy_corpus
    case = next(c for c in cases if c.gold is not None and (c.gold.labels == 1).any())
    gold_mask = case.gold.labels == 1
    wrong = np.roll(gold_mask, 9, axis=0)
    perfect = SimulatedExpert(accuracy=1.0, seed=3)
    for ctx in ("1:c:1", "2:c:1", "9:x:4"):
        assert perfect.review(case, 1, [wrong, gold_mask], ctx) == 1
    p_half = SimulatedExpert(accuracy=0.5, seed=3)
    picks = [p_half.review(case, 1, [wrong, gold_mask], f"i:{i}") for i in range(40)]
    assert picks == [p_half.review(case, 1, [wrong, gold_mask], f"i:{i}")
                     for i in range(40)]
    assert 0 < sum(picks) < 40  # both branches exercised


def test_simulated_expert_without_gold_fails():
    oracle = SimulatedExpert(accuracy=1.0, seed=0)
    cfg = em.load_run_config()
    case = em.generate_case(cfg.phantom, 0).without_gold()
    assert oracle.review(case, 1, [np.zeros(cfg.phantom.dims, bool)], "ctx") is None


def test_low_confidence_escalation(run_cfg_module):
    """A decisive preference between two prior-violating candidates is not
    trusted: the structure escalates with the low_confidence reason."""
    case = em.generate_case(run_cfg_module.phantom, 9, case_id="lc")
    # liver annotation and prediction both displaced into a corner, slightly
    # offset from each other (dsc in the routing band, both scores ~ 0)
    blob = np.zeros(run_cfg_module.phantom.dims, bool)
    blob[2:7, 2:7, 2:7] = True
    blob_b = np.roll(blob, 3, axis=0)
    labels = case.gold.labels.copy()
    labels[labels == 1] = 0
    labels[blob] = 1
    case = case.with_pseudo(case.gold.with_labels(labels))
    pred_labels = case.gold.labels.copy()
    pred_labels[pred_labels == 1] = 0
    pred_labels[blob_b] = 1

    class Fixed:
        def predict(self, volume):
            return case.pseudo.with_labels(pred_labels)

    judge = RuleBasedJudge(run_cfg_module.priors)
    _, entries, stats = expectation_pass([case], Fixed(), judge, TieKeeperOracle(),
                                         em_cfg())
    reasons = {e.structure: e.reason for e in entries}
    assert reasons.get(1) is EscalationReason.LOW_CONFIDENCE


def test_judge_compares_prediction_with_cleaned_incumbent(noisy_corpus, run_cfg_module):
    """The external judge numbers its requests in call order, so the calls
    are pinned: per case, one per routed structure in ascending label order,
    the prediction's mask first and the cleaned incumbent's second."""
    cases, _ = noisy_corpus
    model = em.fit_model(cases)
    cfg = em_cfg()
    judge = RecordingJudge(run_cfg_module.priors)
    expectation_pass(cases, model, judge, TieKeeperOracle(), cfg)
    expected = []
    for case in cases:
        outcome = em.audit_case(model, case, cfg.auto_replace_dsc, cfg.route_dsc)
        updated, _ = em.apply_update_rule(case, outcome)
        incumbent = shape_cleanup(updated.pseudo)
        for s in sorted(outcome.actions(em.AuditAction.ROUTE_TO_EXPERT)):
            expected.append((case.case_id, s, outcome.prediction.labels == s,
                             incumbent.labels == s))
    assert [c[:2] for c in judge.calls] == [e[:2] for e in expected]
    assert any(not np.array_equal(a, b) for _, _, a, b in expected)
    for (_, _, a, b), (_, _, want_a, want_b) in zip(judge.calls, expected):
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


class TieJudge:
    def compare(self, case_id, structure, volume, mask_a, mask_b):
        return JudgeVerdict(Preference.TIE, 0.5, 0.5)


class PickChallenger:
    def review(self, case, structure, candidates, context):
        return 1


def fixed_model(case, pred_labels):
    """A model whose prediction for every volume is pred_labels."""
    class FixedModel:
        def predict(self, volume):
            return case.pseudo.with_labels(pred_labels)

    return FixedModel()


def test_escalated_write_logs_conflicts():
    # the reviewer picks the challenger organ mask, which runs across a kept
    # tumor voxel: the tumor keeps the voxel and the row counts the conflict
    cat = StructureCatalog((
        StructureEntry(1, "organ_a", StructureKind.ORGAN),
        StructureEntry(2, "tumor_a", StructureKind.TUMOR),
    ))
    labels = np.zeros((8, 1, 1), np.uint16)
    labels[0:3, 0, 0] = 1        # organ annotation
    labels[4, 0, 0] = 2          # tumor annotation at voxels 4 ...
    labels[7, 0, 0] = 2          # ... and 7
    pred_labels = np.zeros((8, 1, 1), np.uint16)
    pred_labels[2:6, 0, 0] = 1   # organ predicted across voxel 4 (dsc 2/7: route)
    pred_labels[7, 0, 0] = 2     # tumor dsc 2/3: keep
    case = make_case(np.zeros((8, 1, 1)), labels, cat)

    updated, entries, stats = expectation_pass([case], fixed_model(case, pred_labels),
                                               TieJudge(), PickChallenger(), em_cfg())
    assert [e.structure for e in entries] == [1]
    row = next(e for e in stats.all_changes if e.action == "escalated_1")
    assert row.conflicts == 1
    assert updated[0].pseudo.labels[4, 0, 0] == 2
    assert list(updated[0].pseudo.labels[2:6, 0, 0]) == [1, 1, 2, 1]


def test_tie_on_identical_masks_is_auto_resolved(judge):
    """Structure 2 is ten isolated voxels, so its cleanup keeps one, and the
    audit DSC against a prediction equal to that cleanup is 2/11: routed.
    The rule judge ties on the identical masks, so the pass writes the
    cleaned mask as an auto-resolution and escalates nothing."""
    cat = StructureCatalog((StructureEntry(1, "organ_a", StructureKind.ORGAN),
                            StructureEntry(2, "organ_b", StructureKind.ORGAN)))
    labels = np.zeros((24, 1, 1), np.uint16)
    labels[0:20:2, 0, 0] = 2
    labels[21:24, 0, 0] = 1      # kept: the cleanup leaves it as it is
    case = make_case(np.zeros((24, 1, 1)), labels, cat)
    cleaned = shape_cleanup(case.pseudo)  # at fixed_model's connectivities
    updated, entries, stats = expectation_pass([case], fixed_model(case, cleaned.labels), judge,
                                               TieKeeperOracle(), em_cfg())
    assert np.count_nonzero(cleaned.labels == 2) == 1
    assert stats.per_case_audit_dsc[case.case_id] == pytest.approx((1 + 2 / 11) / 2)
    assert (stats.counts["keep"], stats.counts["route"]) == (1, 1)
    assert stats.counts["auto_resolved"] == 1
    assert [e.action for e in stats.all_changes] == ["expert_auto_resolved"]
    assert entries == [] and stats.counts["escalate"] == 0
    assert np.array_equal(updated[0].pseudo.labels, cleaned.labels)


class FailingOracle:
    def review(self, case, structure, candidates, context):
        raise RuntimeError("reviewer crashed")


class SkippingOracle:
    def review(self, case, structure, candidates, context):
        return None


def test_failing_oracle_is_logged_and_leaves_the_entry_unresolved(caplog):
    """An oracle that raises counts and writes as one that skips, and the
    failure is logged with its exception type and context."""
    cat = StructureCatalog((StructureEntry(1, "organ_a", StructureKind.ORGAN),))
    labels = np.zeros((8, 1, 1), np.uint16)
    labels[0:3, 0, 0] = 1
    pred_labels = np.zeros((8, 1, 1), np.uint16)
    pred_labels[2:5, 0, 0] = 1   # dsc 1/3: route, then a judge tie escalates
    case = make_case(np.zeros((8, 1, 1)), labels, cat, case_id="c0")
    model = fixed_model(case, pred_labels)
    with caplog.at_level("WARNING", logger="emcurate.loop"):
        failed, f_entries, f_stats = expectation_pass([case], model, TieJudge(),
                                                      FailingOracle(), em_cfg())
    skipped, s_entries, s_stats = expectation_pass([case], model, TieJudge(),
                                                   SkippingOracle(), em_cfg())
    assert [(e.structure, e.chosen) for e in f_entries] == [(1, None)]
    assert f_stats.counts == s_stats.counts and f_stats.counts["unresolved"] == 1
    assert f_stats.all_changes == s_stats.all_changes
    assert np.array_equal(failed[0].pseudo.labels, skipped[0].pseudo.labels)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert any("FailingOracle" in w and "RuntimeError" in w and "1:c0:1" in w
               for w in warnings), warnings


# external judge children: one answers every request with a tie, the other
# never answers
TIE_REPLY = ("import json, sys\n"
             "for line in sys.stdin:\n"
             "    print(json.dumps({'id': json.loads(line)['id'], 'preference': 'tie'}),"
             " flush=True)\n")
NO_REPLY = "import sys, time\nfor line in sys.stdin:\n    time.sleep(5)\n"


@pytest.mark.parametrize("script,timeout_s,reason", [
    (TIE_REPLY, 10.0, EscalationReason.EXPERT_TIE),
    (NO_REPLY, 0.3, EscalationReason.PROTOCOL_FAILURE),
], ids=["tie", "timeout"])
def test_unscored_verdicts_escape_the_low_confidence_floor(run_cfg_module, script, timeout_s,
                                                          reason):
    """An external judge's tie and a timeout carry no scores, so they escalate
    for their own reason even with a floor no scored verdict can pass."""
    cat = StructureCatalog((StructureEntry(1, "organ_a", StructureKind.ORGAN),))
    labels = np.zeros((8, 1, 1), np.uint16)
    labels[0:3, 0, 0] = 1
    pred_labels = np.zeros((8, 1, 1), np.uint16)
    pred_labels[2:5, 0, 0] = 1   # dsc 1/3: route
    case = make_case(np.zeros((8, 1, 1)), labels, cat, case_id="c0")
    model, cfg = fixed_model(case, pred_labels), em_cfg(low_confidence_floor=1.0)
    _, scored, _ = expectation_pass([case], model, TieJudge(), SkippingOracle(), cfg)
    assert [e.reason for e in scored] == [EscalationReason.LOW_CONFIDENCE]
    judge = ExternalJudge([sys.executable, "-u", "-c", script],
                          RuleBasedJudge(run_cfg_module.priors), timeout_s)
    try:
        _, entries, stats = expectation_pass([case], model, judge, SkippingOracle(), cfg)
    finally:
        judge.close()
    assert [(e.structure, e.reason) for e in entries] == [(1, reason)]
    assert stats.counts["escalate"] == 1 and judge.protocol_failures == 0


def test_answered_escalations_share_one_label_write(monkeypatch):
    """A case's oracle answers land in one label write: with two answered
    escalations the pass builds three label maps, namely the prediction, the
    judge's cleaned incumbent and the written pseudo labels."""
    cat = StructureCatalog((
        StructureEntry(1, "organ_a", StructureKind.ORGAN),
        StructureEntry(2, "organ_b", StructureKind.ORGAN),
    ))
    labels = np.zeros((12, 1, 1), np.uint16)
    labels[0:3, 0, 0] = 1
    labels[6:9, 0, 0] = 2
    pred_labels = np.zeros((12, 1, 1), np.uint16)
    pred_labels[2:5, 0, 0] = 1   # dsc 1/3: route
    pred_labels[8:11, 0, 0] = 2  # dsc 1/3: route
    case = make_case(np.zeros((12, 1, 1)), labels, cat)
    model = fixed_model(case, pred_labels)

    builds = []
    post_init = LabelMap.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(LabelMap, "__post_init__", counting)
    updated, entries, stats = expectation_pass([case], model, TieJudge(),
                                               PickChallenger(), em_cfg())
    assert [(e.structure, e.chosen) for e in entries] == [(1, 1), (2, 1)]
    assert [e.action for e in stats.all_changes] == ["escalated_1", "escalated_1"]
    assert np.array_equal(updated[0].pseudo.labels, pred_labels)
    assert len(builds) == 3


def test_change_count_includes_a_structure_that_only_lost_voxels():
    """Organ 1 is auto-replaced onto two voxels of organ 2, which is kept:
    both structures changed, though only organ 1 was written."""
    cat = StructureCatalog((StructureEntry(1, "organ_a", StructureKind.ORGAN),
                            StructureEntry(2, "organ_b", StructureKind.ORGAN)))
    labels = np.array([1, 1, 2, 2, 2, 2, 2, 2], np.uint16).reshape(8, 1, 1)
    pred_labels = np.array([0, 0, 1, 1, 2, 2, 2, 2], np.uint16).reshape(8, 1, 1)
    case = make_case(np.zeros((8, 1, 1)), labels, cat)
    updated, _, stats = expectation_pass([case], fixed_model(case, pred_labels), TieJudge(),
                                         TieKeeperOracle(), em_cfg())
    assert (stats.counts["auto_replace"], stats.counts["keep"]) == (1, 1)
    assert np.array_equal(updated[0].pseudo.labels, pred_labels)
    assert stats.changed_structures == 2
    assert stats.change_fraction == 1.0


def test_change_count_skips_auto_replacements_equal_to_the_prediction(run_cfg_module,
                                                                      judge):
    """With auto_replace_dsc 1.0 every structure is auto-replaced, but only
    those whose voxels the pass changed count as changed. An annotation
    equal to the prediction never changes; one that differs from it only
    where a tumor blocks the write does not change either."""
    cases, _ = em.generate_corpus(run_cfg_module.phantom, None, 4, 1.0, seed=1)
    model = em.fit_model(cases)
    cfg = em_cfg(auto_replace_dsc=1.0, route_dsc=1.0)
    updated, _, stats = expectation_pass(cases, model, judge, TieKeeperOracle(), cfg)
    audited = stats.counts["structures_audited"]
    differ = sum(not np.array_equal(c.pseudo.labels == s, model.predict(c.volume).labels == s)
                 for c in cases for s in c.pseudo.catalog.labels)
    changed = sum(full_grid_changed_structures(c.pseudo.labels, u.pseudo.labels,
                                               c.pseudo.catalog)
                  for c, u in zip(cases, updated))
    assert stats.counts["auto_replace"] == audited
    assert 0 < changed <= differ < audited
    assert stats.changed_structures == changed
    assert stats.change_fraction == changed / audited


def test_maximization_full_labeled_equals_plain_fit(noisy_corpus):
    cases, _ = noisy_corpus
    cfg = em_cfg(data_mix=DataMix(1.0, 0.0, 0.0), annealing=Annealing(enabled=False))
    model = maximization_pass(cases, cfg)
    plain = em.fit_model(cases)
    assert model.to_dict() == plain.to_dict()


def test_maximization_pure_synthetic_matches_generator(run_cfg_module, noisy_corpus):
    cases, _ = noisy_corpus
    cfg = em_cfg(data_mix=DataMix(0.0, 1.0, 0.0), annealing=Annealing(enabled=False))
    source = em.PhantomSource(run_cfg_module.phantom, intensity_jitter=0.0)
    model = maximization_pass(cases, cfg, phantom_source=source)
    for s in run_cfg_module.phantom.structures:
        assert abs(model.params[s.label].mean - s.intensity.mean) < 1.5


def test_maximization_selective_duplicates_worst_case(noisy_corpus, monkeypatch):
    cases, _ = noisy_corpus
    n = len(cases)
    audit_dsc = {c.case_id: 1.0 for c in cases}
    audit_dsc[cases[3].case_id] = 0.2  # worst audit agreement
    seen = {}

    def spy_fit(corpus, weights):
        seen["corpus"] = list(corpus)
        seen["weights"] = list(weights)

    monkeypatch.setattr("emcurate.loop.fit_model", spy_fit)
    cfg = em_cfg(data_mix=DataMix(0.7, 0.0, 0.3), annealing=Annealing(enabled=False))
    maximization_pass(cases, cfg, audit_dsc=audit_dsc)
    import math
    extra = [c for c in seen["corpus"] if c.case_id == cases[3].case_id]
    n_lab = round(0.7 * n)
    expected_extra = math.ceil(0.3 * n)
    # the worst case appears ceil(selective*N) times beyond any labeled draw
    assert len(extra) >= expected_extra
    assert len(seen["corpus"]) == n_lab + expected_extra


def test_maximization_annealing_weights_gold(noisy_corpus, monkeypatch):
    cases, _ = noisy_corpus
    seen = {}

    def spy_fit(corpus, weights):
        seen["pairs"] = [(c.case_id, w) for c, w in zip(corpus, weights)]

    monkeypatch.setattr("emcurate.loop.fit_model", spy_fit)
    cfg = em_cfg(data_mix=DataMix(1.0, 0.0, 0.0), annealing=Annealing(enabled=True, weight=5.0))
    maximization_pass(cases, cfg)
    gold_ids = {c.case_id for c in cases if c.meta.is_gold}
    weighted = {cid for cid, w in seen["pairs"] if w == 5.0}
    assert weighted == gold_ids


def test_maximization_annealing_skips_without_gold(noisy_corpus, caplog):
    cases, _ = noisy_corpus
    stripped = [c.without_gold() for c in cases]
    cfg = em_cfg(data_mix=DataMix(1.0, 0.0, 0.0), annealing=Annealing(enabled=True))
    model = maximization_pass(stripped, cfg)  # warns, does not raise
    assert model.fitted


def test_run_em_zero_iterations(noisy_corpus, run_cfg_module, judge):
    cases, _ = noisy_corpus
    corpus, model, reports = run_em(cases, em_cfg(max_iterations=0), judge,
                                    TieKeeperOracle())
    assert reports == []
    assert model.fitted
    for a, b in zip(cases, corpus):
        assert np.array_equal(a.pseudo.labels, b.pseudo.labels)


def test_run_em_noise_free_converges_immediately(run_cfg_module, judge):
    cases, _ = em.generate_corpus(run_cfg_module.phantom, None, 6, 1.0, seed=5)
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    corpus, _, reports = run_em(cases, em_cfg(max_iterations=4), judge,
                                TieKeeperOracle(), phantom_source=source)
    assert len(reports) == 1  # zero improvement after the first pass
    assert reports[0].counts["auto_replace"] == 0
    for a, b in zip(cases, corpus):
        assert np.array_equal(a.pseudo.labels, b.pseudo.labels)


def test_run_em_no_gold_mode_changes_convergence(run_cfg_module, judge):
    cases, _ = em.generate_corpus(run_cfg_module.phantom, run_cfg_module.noise,
                                  10, 0.0, seed=13)
    stripped = [c.without_gold() for c in cases]
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    cfg = em_cfg(convergence_mode="changes", max_iterations=4)
    corpus, _, reports = run_em(stripped, cfg, judge, TieKeeperOracle(),
                                phantom_source=source)
    assert reports
    assert all(r.mean_dsc_vs_gold is None for r in reports)


def test_no_gold_leakage(run_cfg_module, judge):
    """Gold presence must not affect pseudo outputs when the oracle ignores it."""
    cases, _ = em.generate_corpus(run_cfg_module.phantom, run_cfg_module.noise,
                                  10, 0.0, seed=31)
    stripped = [c.without_gold() for c in cases]
    cfg = em_cfg(convergence_mode="changes", max_iterations=2)
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    with_gold, _, _ = run_em(cases, cfg, judge, TieKeeperOracle(),
                             phantom_source=source)
    without_gold, _, _ = run_em(stripped, cfg, judge, TieKeeperOracle(),
                                phantom_source=source)
    for a, b in zip(with_gold, without_gold):
        assert np.array_equal(a.pseudo.labels, b.pseudo.labels)


def test_run_em_computes_one_box_table_per_label_map(run_cfg_module, judge, monkeypatch):
    """Every label map's box table is computed once and then reused: audit,
    gold metrics, fit and shape_cleanup all read LabelMap.boxes."""
    import emcurate.grid as grid_mod
    cases, _ = em.generate_corpus(run_cfg_module.phantom, run_cfg_module.noise, 6, 0.5,
                                  seed=21)
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    seen = []  # the labels arrays tabled; kept alive so their ids stay distinct
    label_boxes = grid_mod.label_boxes

    def counting(labels, n_labels):
        seen.append(labels)
        return label_boxes(labels, n_labels)

    monkeypatch.setattr(grid_mod, "label_boxes", counting)
    run_em(cases, em_cfg(max_iterations=1), judge, SimulatedExpert(seed=0),
           phantom_source=source)
    assert seen
    assert len({id(labels) for labels in seen}) == len(seen)


def test_recorder_outputs(tmp_path, noisy_corpus, run_cfg_module, judge):
    cases, _ = noisy_corpus
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    run_em(cases, em_cfg(max_iterations=1), judge, SimulatedExpert(seed=0),
           phantom_source=source, out_dir=tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"model_000.json", "model_001.json", "iteration_001.json",
                     "changes_001.jsonl", "resolutions.jsonl"}  # no timing.jsonl by default
    report = json.loads((tmp_path / "iteration_001.json").read_text())
    assert "wall_clock_s" not in report
    counts = report["counts"]
    assert counts["keep"] + counts["auto_replace"] + counts["route"] == \
        counts["structures_audited"]


def test_model_snapshot_id_is_the_snapshot_file_hash(tmp_path, noisy_corpus, run_cfg_module,
                                                     judge):
    """Each report's model_snapshot_id is the first 12 hex digits of the
    sha256 of its model_NNN.json without the trailing newline."""
    cases, _ = noisy_corpus
    source = em.PhantomSource(run_cfg_module.phantom,
                               run_cfg_module.synthetic.intensity_jitter)
    _, _, reports = run_em(cases, em_cfg(max_iterations=2), judge, SimulatedExpert(seed=0),
                           phantom_source=source, out_dir=tmp_path)
    assert reports
    for r in reports:
        raw = (tmp_path / f"model_{r.iteration:03d}.json").read_bytes()
        assert raw.endswith(b"}\n")
        assert r.model_snapshot_id == hashlib.sha256(raw[:-1]).hexdigest()[:12]


# -- escalation queue & interactive review -----------------------------------

def make_entries():
    overlay_a = np.zeros((4, 3), bool)
    overlay_a[1, 1] = True
    overlay_b = np.zeros((4, 3), bool)
    overlay_b[2, 2] = True
    return [EscalationEntry(case_id="c1", structure=2,
                            reason=EscalationReason.EXPERT_TIE,
                            overlays=[overlay_a, overlay_b])]


def test_queue_round_trip(tmp_path):
    entries = make_entries()
    save_queue(tmp_path / "q.json", entries)
    loaded = load_queue(tmp_path / "q.json")
    assert len(loaded) == 1
    entry = loaded[0]
    assert entry.case_id == "c1" and entry.structure == 2
    assert np.array_equal(entry.overlays[0], entries[0].overlays[0])
    assert np.array_equal(entry.overlays[1], entries[0].overlays[1])


def test_render_overlay_ascii():
    overlay = np.zeros((3, 2), bool)
    overlay[0, 1] = True  # x=0, top row
    art = render_overlay_ascii(overlay)
    assert art.splitlines() == ["#..", "..."]


def test_interactive_review_scripted_choice():
    entries = make_entries()
    answers = iter(["1"])
    outputs = []
    interactive_review(entries, input_fn=lambda _: next(answers),
                       print_fn=outputs.append)
    assert entries[0].chosen == 0
    assert entries[0].source == "interactive"
    assert any("candidate 1" in line for line in outputs)


def test_interactive_review_skip_persists():
    entries = make_entries()
    interactive_review(entries, input_fn=lambda _: "skip",
                       print_fn=lambda _: None)
    assert entries[0].chosen is None
    assert entries[0].decision() == {"case_id": "c1", "structure": 2, "chosen": None,
                                     "source": "interactive"}


def test_interactive_review_empty_queue(monkeypatch):
    def fail(*_args):
        raise AssertionError("an empty queue must not prompt")

    monkeypatch.setattr("sys.stdin.isatty", lambda: False)
    assert interactive_review([], input_fn=fail, print_fn=fail, require_tty=True) is None


def test_interactive_oracle_scripted(run_cfg_module):
    from emcurate.loop import InteractiveCliOracle
    case = em.generate_case(run_cfg_module.phantom, 2, case_id="io")
    a = case.gold.labels == 1
    b = np.roll(a, 5, axis=0)
    answers = iter(["nonsense", "2", "skip"])

    def ask(_prompt):
        answer = next(answers, None)
        if answer is None:
            raise EOFError
        return answer

    oracle = InteractiveCliOracle(input_fn=ask, print_fn=lambda _: None)
    assert oracle.review(case, 1, [a, b], "1:io:1") == 1   # after a re-prompt
    assert oracle.review(case, 1, [a, b], "1:io:1") is None
    assert oracle.review(case, 1, [a, b], "1:io:1") is None  # end of input


def test_interactive_oracle_config_requires_tty(run_cfg_module):
    import yaml
    from emcurate.config import load_run_config
    import emcurate.config as config_mod
    raw = dict(run_cfg_module.raw)
    raw["oracle"] = {"kind": "interactive"}
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as td:
        p = pathlib.Path(td) / "cfg.yaml"
        p.write_text(yaml.safe_dump(raw))
        cfg = load_run_config(p)
        with pytest.raises(ConfigError):
            cfg.build_oracle()  # pytest runs without a tty
