"""Sensitivity-first tumor annotation: ROC curve, threshold policy, cleanup.

The model's tumor probability maps are swept over a threshold grid. The
policy picks the largest threshold that still reaches the sensitivity
target; the false positives that buys are cheap to remove - report-negative
cases are emptied automatically, the rest cost one click each - and the
saved effort is compared against annotating every tumor from scratch.
"""

import emcurate as em
from emcurate.metrics import build_roc, default_threshold_grid
from emcurate.roc import annotation_savings, process_case, select_threshold

cfg = em.load_run_config()

# a clean validation split: expert-grade labels, fresh seeds
cases = [em.generate_case(cfg.phantom, 40_000 + s, case_id=f"v{s:03d}")
         for s in range(30)]
model = em.fit_model(cases)
tumor = cfg.catalog.tumor_labels[0]
probs = [model.predict_prob(c.volume, tumor) for c in cases]
refs = [c.gold.labels == tumor for c in cases]

curve = build_roc(probs, refs, default_threshold_grid(cfg.metrics.roc_points))
print("threshold  sensitivity  fp/scan  specificity")
for p in curve.points[::10]:
    print(f"   {p.threshold:5.2f}      {p.sensitivity:5.3f}    {p.fp_per_scan:6.2f}"
          f"      {p.specificity:5.3f}")

policy = select_threshold(curve, cfg.metrics.roc_target_sensitivity)
print(f"\nselected threshold {policy.selected_threshold:.2f}: "
      f"sensitivity {policy.achieved_sensitivity:.3f}, "
      f"{policy.fp_per_scan:.2f} FP/scan (target {policy.target_sensitivity})")

counts = []
for case, prob in zip(cases, probs):
    pred = prob > policy.selected_threshold
    case_counts = process_case(case, pred, case.gold.labels == tumor)
    counts.append(case_counts)
    # report-negative cases are emptied outright, at no click
    if not case.report.tumor_present:
        assert case_counts.fp == 0

suppressed = sum(not case.report.tumor_present for case in cases)
clicks = sum(c.fp for c in counts)
savings = annotation_savings(counts, cfg.cost)
print(f"\n{suppressed} report-negative cases auto-emptied, "
      f"{clicks} clicks on the rest")
print(f"scratch annotation: {savings.scratch_seconds:7.0f} s "
      f"({savings.total_gold_instances} tumors x "
      f"{cfg.cost.seconds_per_scratch_annotation:.0f} s)")
print(f"assisted workflow:  {savings.workflow_seconds:7.0f} s "
      f"({savings.total_missed} missed, {savings.total_clicks} clicks)")
print(f"annotation time saved: {savings.ratio:.1%}")
