"""The annotation audit: fit the intensity model, flag inconsistencies,
apply the zero-overlap replacement rule.

A structure is replaced automatically only when model and annotation have
no spatial overlap at all (DSC = 0); low-but-nonzero agreement (DSC < 0.5)
is routed to the projection judge instead, and everything else is kept.
"""

import numpy as np

import emcurate as em
from emcurate import AuditAction

cfg = em.load_run_config()
cases, logs = em.generate_corpus(cfg.phantom, cfg.noise, n_cases=20,
                                 gold_fraction=0.2, seed=11)
model = em.fit_model(cases)

print("fitted per-structure intensity statistics (from noisy pseudo labels):")
for s in cfg.catalog.labels:
    p = model.params[s]
    print(f"  {cfg.catalog.entry(s).name:<13} mean {p.mean:7.1f}  std {p.std:6.1f}")

# audit a case that had structures deleted/shifted
case = next(c for c in cases if any(op.op in ("delete", "shift")
                                    for op in logs[c.case_id]))
print(f"\nauditing {case.case_id}; injected ops: "
      f"{[(cfg.catalog.entry(o.structure).name, o.op) for o in logs[case.case_id]]}")
outcome = em.audit_case(model, case)
for s, audit in outcome.per_structure.items():
    print(f"  {cfg.catalog.entry(s).name:<13} dsc {audit.dsc:5.3f} -> {audit.action.value}")

updated, changelog = em.apply_update_rule(case, outcome)
print("\nreplacements applied:")
for entry in changelog:
    print(f"  {cfg.catalog.entry(entry.structure).name:<13} "
          f"{entry.voxels_before:6d} -> {entry.voxels_after:6d} voxels "
          f"({entry.conflicts} label conflicts)")

# the pass is idempotent: re-auditing with the same model replaces nothing
again = em.audit_case(model, updated)
assert not any(a.action is AuditAction.AUTO_REPLACE
               for a in again.per_structure.values())
print("\nre-audit under the frozen model triggers zero further replacements")

print("\npseudo-vs-gold before / after the update rule:")
for s in cfg.catalog.labels:
    before = em.dsc(case.pseudo.labels == s, case.gold.labels == s)
    after = em.dsc(updated.pseudo.labels == s, case.gold.labels == s)
    marker = "  <-- improved" if after > before + 1e-9 else ""
    print(f"  {cfg.catalog.entry(s).name:<13} {before:5.3f} -> {after:5.3f}{marker}")
