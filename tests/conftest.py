import numpy as np
import pytest
from hypothesis import settings

import emcurate as em
from emcurate.grid import CaseMeta, CaseRecord, ContrastPhase, LabelMap, Sex, VoxelGrid

# Property tests replay the same examples on every run, write no example
# database and take a bounded time.
settings.register_profile("emcurate", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("emcurate")


@pytest.fixture(scope="session")
def run_cfg():
    return em.default_run_config()


@pytest.fixture(scope="session")
def catalog(run_cfg):
    return run_cfg.catalog


@pytest.fixture(scope="session")
def small_corpus(run_cfg):
    """12 cases with the default noise profile, for mid-weight tests."""
    cases, logs = em.generate_corpus(run_cfg.phantom, run_cfg.noise, 12, 0.25, seed=123)
    return cases, logs


def make_label_map(labels, catalog, spacing=(1.0, 1.0, 1.0)):
    labels = np.asarray(labels, dtype=np.uint16)
    return LabelMap(dims=labels.shape, spacing=spacing, labels=labels, catalog=catalog)


def make_case(volume_data, labels, catalog, case_id="t0", gold_labels=None,
              tumor_count=0, spacing=(1.0, 1.0, 1.0), is_gold=False):
    volume_data = np.asarray(volume_data, dtype=np.float32)
    volume = VoxelGrid(dims=volume_data.shape, spacing=spacing, data=volume_data)
    pseudo = make_label_map(labels, catalog, spacing)
    gold = make_label_map(gold_labels, catalog, spacing) if gold_labels is not None else None
    report = em.StructuredReport(
        tumor_present=tumor_count > 0, tumor_count=tumor_count,
        tumor_type=em.TumorType.PDAC if tumor_count else None)
    meta = CaseMeta(age=60, sex=Sex.FEMALE, phase=ContrastPhase.VENOUS, is_gold=is_gold)
    return CaseRecord(case_id=case_id, volume=volume, pseudo=pseudo, gold=gold,
                      report=report, meta=meta)
