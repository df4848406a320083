"""Tour of the evaluation suite: DSC, NSD, classification and detection rates.

All metrics follow the empty-set conventions used by the annotation audit:
DSC(empty, empty) = 1 so that DSC = 0 means exactly "one side asserts
presence the other denies, or both point at disjoint places".
"""

import numpy as np

import emcurate as em
from emcurate import ConfusionCounts

# --- overlap ---------------------------------------------------------------
a = np.zeros((10, 10, 10), bool)
b = np.zeros((10, 10, 10), bool)
a[2:6, 2:6, 2:6] = True
b[3:7, 2:6, 2:6] = True                      # same cube shifted 1 voxel in x
print(f"DSC of 4^3 cube vs itself shifted 1 voxel: {em.dsc(a, b):.4f}")

unit = (1.0, 1.0, 1.0)                       # voxel spacing in mm
print(f"NSD at 1 mm tolerance:                     {em.nsd(a, b, 1.0, unit):.4f}")
print(f"NSD at 2 mm tolerance (monotone in delta): {em.nsd(a, b, 2.0, unit):.4f}")

# --- classification rates ----------------------------------------------------
counts = ConfusionCounts(tp=509, tn=550, fp=73, fn=69)
sens, spec_rate, f1 = em.classification_rates(counts)
print(f"\nsensitivity {sens:.3f}, specificity {spec_rate:.3f}, F1 {f1:.3f} "
      f"(509/578 and 550/623)")

# --- patient-wise vs tumor-wise ----------------------------------------------
ref = np.zeros((12, 12, 12), bool)
ref[1:3, 1:3, 1:3] = True                    # instance 1
ref[8:10, 8:10, 8:10] = True                 # instance 2
pred = np.zeros((12, 12, 12), bool)
pred[1:3, 1:3, 1:3] = True                   # hits instance 1 only
pred[5:6, 5:6, 5:6] = True                   # a false positive blob
print(f"\npatient-wise outcome: {em.patient_wise_detection(pred, ref).value}")
tw = em.tumor_wise_detection(pred, ref)
print(f"tumor-wise counts:    tp={tw.tp} fp={tw.fp} fn={tw.fn} "
      "(per-instance scoring is stricter)")

