import dataclasses

import pytest
import yaml

import emcurate as em
from emcurate import ConfigError
from emcurate.config import load_run_config


def test_default_config_loads_consistently(run_cfg):
    assert len(run_cfg.catalog.entries) == 7
    assert run_cfg.catalog.tumor_labels == [7]
    assert set(run_cfg.priors) == set(run_cfg.catalog.labels)
    assert run_cfg.em.route_dsc == 0.5
    assert run_cfg.em.auto_replace_dsc == 0.0
    assert run_cfg.cost.seconds_per_fp_removal == 5.0
    assert run_cfg.cost.seconds_per_scratch_annotation == 270.0


def test_every_noise_yaml_key_reaches_the_spec(run_cfg, tmp_path):
    """Guards against silently ignored config keys."""
    overrides = {
        "delete": 0.11, "shift": 0.21, "fragment": 0.31, "spurious": 0.41,
        "boundary_jitter": 0.51, "shift_voxels": [2, 3],
        "shift_axes": [0.2, 0.3, 0.5], "fragment_thickness": 4,
        "spurious_radius": [1.0, 2.0], "spurious_margin": 7,
        "tumor_miss": 0.61, "tumor_fp_rate": 0.71,
        "tumor_fp_radius": [1.5, 2.5], "tumor_fp_host": 5,
    }
    raw = dict(run_cfg.raw)
    raw["noise"] = overrides
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    noise = load_run_config(path).noise
    for key, value in overrides.items():
        got = getattr(noise, key)
        if isinstance(value, list):
            assert tuple(got) == tuple(value), key
        else:
            assert got == value, key
    # and the dataclass has no extra fields the test missed
    assert set(overrides) == {f.name for f in dataclasses.fields(em.NoiseSpec)}


def test_with_seed_rewrites_em_and_snapshot(run_cfg):
    reseeded = run_cfg.with_seed(42)
    assert reseeded.em.seed == 42
    assert reseeded.raw["em"]["seed"] == 42
    assert run_cfg.em.seed == 0  # original untouched


def test_missing_priors_file_rejected(run_cfg, tmp_path):
    raw = dict(run_cfg.raw)
    raw["priors_file"] = "does_not_exist.yaml"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_prior_required_for_every_structure(run_cfg, tmp_path):
    from emcurate.config import _data_path
    priors = yaml.safe_load(_data_path("default_priors.yaml").read_text())
    priors["priors"] = [p for p in priors["priors"] if p["label"] != 6]
    (tmp_path / "priors.yaml").write_text(yaml.safe_dump(priors))
    raw = dict(run_cfg.raw)
    raw["priors_file"] = "priors.yaml"
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="no prior"):
        load_run_config(tmp_path / "cfg.yaml")


def test_malformed_yaml_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("phantom: [unclosed")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_unknown_judge_and_oracle_kinds(run_cfg, tmp_path):
    raw = dict(run_cfg.raw)
    raw["judge"] = {"kind": "psychic"}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    cfg = load_run_config(path)
    with pytest.raises(ConfigError):
        cfg.build_judge()
    raw["judge"] = {"kind": "external", "command": []}
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError):
        load_run_config(path).build_judge()


@pytest.mark.parametrize("field,value", [
    ("roc_points", -1),
    ("roc_points", 0),
    ("nsd_tolerance_mm", 0.0),
    ("nsd_tolerance_mm", -2.0),
    ("organ_connectivity", 18),
    ("tumor_connectivity", 4),
    ("roc_target_sensitivity", 0.0),
    ("roc_target_sensitivity", 1.5),
])
def test_invalid_metrics_rejected_at_load(run_cfg, tmp_path, field, value):
    raw = dict(run_cfg.raw)
    raw["metrics"] = {**raw.get("metrics", {}), field: value}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=f"metrics.{field}"):
        load_run_config(path)
