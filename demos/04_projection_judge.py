"""The projection judge: front views, anatomical priors, and pairwise judging.

Candidate annotations are compared on their x-z silhouettes (the volume is
projected along the anterior axis). Each structure has a prior describing
where its silhouette centroid belongs, how many pieces it may have, its
vertical span and its height/width ratio; the judge prefers the candidate
whose silhouette fits the prior better. The Expectation step asks it to
compare each routed structure's prediction with its incumbent annotation.
"""

import emcurate as em
from emcurate import RuleBasedJudge
from emcurate.grid import front_view_projection
from emcurate.loop import render_overlay_ascii
from emcurate.phantom import InjectionOp, apply_injections

cfg = em.default_run_config()
case = em.generate_case(cfg.phantom, seed=3, case_id="demo")
judge = RuleBasedJudge(cfg.priors, tie_epsilon=cfg.judge.tie_epsilon)

# show the aorta silhouette and its displaced twin
aorta = case.gold.labels == 6
displaced = apply_injections(case.gold,
                             [InjectionOp(6, "shift", {"vector": [12, 0, 0]})])
proj_good = front_view_projection(case.volume, aorta)
proj_bad = front_view_projection(case.volume, displaced.labels == 6)

print("gold aorta silhouette (x across, z up):")
print(render_overlay_ascii(proj_good.overlay[::2, ::2]))
print(f"\nscore vs prior: good {em.score_overlay(cfg.priors[6], proj_good):.3f}, "
      f"displaced {em.score_overlay(cfg.priors[6], proj_bad):.3f}")

verdict = judge.compare(case.case_id, 6, case.volume, aorta,
                        displaced.labels == 6)
print(f"judge preference: {verdict.preference.value}")
print("per-criterion scores (good vs displaced):")
for name, (sa, sb) in verdict.rationale.items():
    print(f"  {name:<11} {sa:5.3f}  vs  {sb:5.3f}")

# one comparison per structure: gold challenges a corrupted incumbent
corrupted = apply_injections(case.gold, [InjectionOp(1, "shift", {"vector": [14, 0, 0]}),
                                         InjectionOp(2, "delete", {}),
                                         InjectionOp(6, "shift", {"vector": [12, 0, 0]})])
verdicts = em.run_tournament(case.with_pseudo(corrupted), corrupted, case.gold, judge,
                             cfg.catalog.labels)
print("\ngold (first) vs corrupted incumbent (second), per structure:")
for s, v in verdicts.items():
    print(f"  {cfg.catalog.entry(s).name:<13} {v.preference.value:<6} "
          f"{v.score_first:5.3f} vs {v.score_second:5.3f}")
assert all(verdicts[s].preference is em.Preference.FIRST for s in (1, 2, 6))
