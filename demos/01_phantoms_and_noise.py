"""Generate a synthetic phantom, corrupt its annotation, replay the log.

Every case is a 64^3 volume with seven structures (organs, a vessel, and
0-2 pancreatic tumors), a clean gold label map, and a structured report.
Noise injection produces the pseudo annotation and a log that replays
bit-exactly, which is what makes corruption rates verifiable.
"""

import numpy as np

import emcurate as em

cfg = em.load_run_config()
catalog = cfg.catalog

case = em.generate_case(cfg.phantom, seed=0, case_id="demo")
print(f"case {case.case_id}: dims={case.volume.dims}, "
      f"report={case.report}")
for entry in catalog.entries:
    voxels = int((case.gold.labels == entry.label).sum())
    mean = case.volume.data[case.gold.labels == entry.label].mean() if voxels else 0
    print(f"  {entry.name:<13} {voxels:6d} voxels, mean intensity {mean:7.1f}")

# corrupt the annotation with the standard noise profile
noisy, log = em.inject_noise(case, cfg.noise, seed=1)
print(f"\ninjected {len(log)} operations:")
for op in log:
    print(f"  {catalog.entry(op.structure).name:<13} {op.op:<10} {op.params}")

# per-structure damage, measured against gold
print("\npseudo-vs-gold DSC after corruption:")
for entry in catalog.entries:
    d = em.dsc(noisy.pseudo.labels == entry.label, case.gold.labels == entry.label)
    print(f"  {entry.name:<13} {d:.3f}")

# the log is sufficient to reproduce the corruption exactly
replayed = em.apply_injections(case.gold, log)
assert np.array_equal(replayed.labels, noisy.pseudo.labels)
print("\nreplaying the injection log reproduces the pseudo annotation bit-exactly")
