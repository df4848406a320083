import copy
import dataclasses
import re
import sys
from pathlib import Path

import pytest
import yaml

import emcurate as em
from emcurate import ConfigError, EMConfig
from emcurate.cli import main
from emcurate.loop import InteractiveCliOracle
from emcurate.config import (
    CorpusConfig,
    JudgeConfig,
    MetricsConfig,
    OracleConfig,
    SyntheticConfig,
    _data_path,
    _read_yaml,
    load_run_config,
)


def test_default_config_loads_consistently(run_cfg):
    assert len(run_cfg.catalog.entries) == 7
    assert run_cfg.catalog.tumor_labels == [7]
    assert set(run_cfg.priors) == set(run_cfg.catalog.labels)
    assert run_cfg.em.route_dsc == 0.5
    assert run_cfg.em.auto_replace_dsc == 0.0
    assert run_cfg.cost.seconds_per_fp_removal == 5.0
    assert run_cfg.cost.seconds_per_scratch_annotation == 270.0


# A non-default value for every key of each section, nested keys included.
OVERRIDES = {
    "noise": {
        "delete": 0.11, "shift": 0.21, "fragment": 0.31, "spurious": 0.41,
        "boundary_jitter": 0.51, "shift_voxels": [2, 3],
        "shift_axes": [0.2, 0.3, 0.5], "fragment_thickness": 4,
        "spurious_radius": [1.0, 2.0], "spurious_margin": 7,
        "tumor_miss": 0.61, "tumor_fp_rate": 0.71,
        "tumor_fp_radius": [1.5, 2.5],
    },
    "em": {
        "max_iterations": 7, "auto_replace_dsc": 0.1, "route_dsc": 0.6,
        "escalation_budget_fraction": 0.2, "convergence_epsilon": 0.01,
        "convergence_mode": "changes",
        "data_mix": {"labeled": 0.5, "synthetic": 0.3, "selective": 0.2},
        "annealing": {"enabled": False, "weight": 2.0},
        "low_confidence_floor": 0.1, "seed": 9,
    },
    "cost": {"seconds_per_fp_removal": 7.0, "seconds_per_scratch_annotation": 100.0},
    "judge": {"command": ["judge", "--fast"], "timeout_s": 3.0, "tie_epsilon": 0.05},
    "oracle": {"kind": "tie_keeper", "accuracy": 0.8},
    "corpus": {"n_cases": 7, "gold_fraction": 0.3},
    "metrics": {"nsd_tolerance_mm": 1.5, "roc_points": 11, "roc_target_sensitivity": 0.9,
                "fp_min_voxels": 3},
    "synthetic": {"intensity_jitter": 1.5},
}
SECTIONS = {"noise": em.NoiseSpec, "em": EMConfig, "cost": em.CostModel,
            "judge": JudgeConfig, "oracle": OracleConfig, "corpus": CorpusConfig,
            "metrics": MetricsConfig, "synthetic": SyntheticConfig}


def _tuples(value):
    """value with every list read as a tuple, as the dataclasses hold them."""
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _leaves(mapping: dict, prefix: str = "") -> dict:
    """Each value of a nested mapping that is not itself a mapping, by its
    dotted key path, with lists read as tuples."""
    leaves = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            leaves.update(_leaves(value, f"{prefix}{key}."))
        else:
            leaves[prefix + key] = _tuples(value)
    return leaves


def _write(run_cfg, tmp_path, **sections):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**run_cfg.raw, **sections}))
    return path


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_every_yaml_key_reaches_its_dataclass(run_cfg, tmp_path, section):
    """Guards against silently ignored config keys."""
    overrides = OVERRIDES[section]
    assert set(run_cfg.raw[section]) <= set(overrides)
    cls = SECTIONS[section]
    # the table names every field, each with a value other than its default
    expected, default = _leaves(overrides), _leaves(dataclasses.asdict(cls()))
    assert set(expected) == set(default)
    for key, value in expected.items():
        assert default[key] != value, key
    loaded = getattr(load_run_config(_write(run_cfg, tmp_path, **{section: overrides})),
                     section)
    assert dataclasses.asdict(loaded) == _tuples(overrides)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_empty_section_means_defaults(run_cfg, tmp_path, section):
    path = tmp_path / "cfg.yaml"
    text = yaml.safe_dump({k: v for k, v in run_cfg.raw.items() if k != section})
    path.write_text(text + f"{section}:\n")
    cfg = load_run_config(path)
    assert getattr(cfg, section) == SECTIONS[section]()
    assert cfg.with_seed(3).em.seed == 3


def test_em_without_data_mix_gets_the_dataclass_default(run_cfg, tmp_path):
    em_section = {k: v for k, v in run_cfg.raw["em"].items() if k != "data_mix"}
    cfg = load_run_config(_write(run_cfg, tmp_path, em=em_section))
    assert cfg.em.data_mix == EMConfig().data_mix


PACKAGED_RUN = yaml.safe_load(_data_path("default_run.yaml").read_text())
PACKAGED_PRIORS = yaml.safe_load(_data_path("default_priors.yaml").read_text())


def _phantom(edit) -> dict:
    """The packaged phantom section changed in place by ``edit``."""
    phantom = copy.deepcopy(PACKAGED_RUN["phantom"])
    edit(phantom)
    return {"phantom": phantom}


MALFORMED = [
    *[({s: {"bogus_key": 1}}, f"{s}.bogus_key") for s in sorted(SECTIONS)],
    ({"bogus_key": 1}, "bogus_key"),
    ({"em": {"annealing": {"bogus_key": 1}}}, "em.annealing.bogus_key"),
    ({"em": {"annealing_enabled": False}}, "em.annealing_enabled"),
    ({"metrics": 3}, "'metrics'"),
    ({"judge": {"timeout_s": "fast"}}, "judge.timeout_s"),
    ({"cost": {"report_autoremoval": True}}, "cost.report_autoremoval"),
    ({"judge": {"kind": "rule_based"}}, "judge.kind"),
    ({"metrics": {"organ_connectivity": 26}}, "metrics.organ_connectivity"),
    ({"metrics": {"tumor_connectivity": 6}}, "metrics.tumor_connectivity"),
    ({"model": {"tumor_min_component_voxels": 20}}, "unknown key 'model'"),
    (_phantom(lambda p: p["structures"][0].update(shape="sphere")),
     "phantom.structures[0].shape"),
    ({"corpus": {"n_cases": True}}, "corpus.n_cases"),
    ({"corpus": {"n_cases": 2.7}}, "corpus.n_cases"),
    ({"corpus": {"n_cases": 0}}, "corpus.n_cases must be >= 1, got 0"),
    ({"corpus": {"gold_fraction": 1.5}}, "corpus.gold_fraction must lie in [0, 1], got 1.5"),
    ({"judge": {"command": ["judge", 5]}}, "judge.command"),
    ({"noise": {"shift_voxels": [4]}}, "noise.shift_voxels"),
    ({"noise": {"tumor_fp_host": 5}}, "noise.tumor_fp_host"),
    ({"priors_file": 5}, "priors_file must be a path"),
    ({"em": {"data_mix": [0.7, 0.2, 0.1]}}, "em.data_mix"),
    ({"em": {"data_mix": {"labeled": 0.8, "synthetic": 0.2}}}, "em.data_mix"),
    ({"phantom": {"structures": [3]}}, "malformed config"),
    (_phantom(lambda p: p.update(tumour=p.pop("tumor"))), "phantom.tumour"),
    (_phantom(lambda p: p["structures"][0].update(colour="red")), "phantom.structures[0].colour"),
    (_phantom(lambda p: p["background"].update(sd=5.0)), "phantom.background.sd"),
    (_phantom(lambda p: p["structures"][1]["intensity"].update(sdev=5.0)),
     "phantom.structures[1].intensity.sdev"),
    (_phantom(lambda p: p["tumor"].update(radius=0.04)), "phantom.tumor.radius"),
    (_phantom(lambda p: p.update(dim=[32, 32, 32])), "phantom.dim"),
    (_phantom(lambda p: p["structures"][0].update(label=1.7)), "phantom.structures[0].label"),
    ({"schema_version": 99}, "schema_version"),
    ({"judge": {"timeout_s": "10"}}, "judge.timeout_s: expected a number"),
    (_phantom(lambda p: p["structures"][0].update(label="1")),
     "phantom.structures[0].label: expected a number"),
    ({"noise": {"shift_axes": [1.0, "0", 1.0]}}, "noise.shift_axes"),
    ({"metrics": {"nsd_tolerance_mm": float("nan")}}, "metrics.nsd_tolerance_mm"),
    ({"em": {"convergence_epsilon": float("-inf")}}, "em.convergence_epsilon"),
    ({"em": {"seed": -1}}, "em.seed"),
    (_phantom(lambda p: p.update(dims=[0, 32, 32])), "phantom.dims must be positive, got [0"),
    (_phantom(lambda p: p.update(dims=[-4, 32, 32])), "phantom.dims must be positive, got [-4"),
    (_phantom(lambda p: p.update(spacing=[1.0, 0.0, 1.0])), "phantom.spacing"),
    (_phantom(lambda p: p["background"].update(std=-1.0)), "phantom.background.std"),
    (_phantom(lambda p: p["tumor"].update(intensity_std=-1.0)), "phantom.tumor.intensity_std"),
    ({"noise": {"shift_voxels": [8, 4]}}, "noise.shift_voxels must satisfy"),
    ({"noise": {"shift_axes": [1.0, -0.5, 1.0]}}, "noise.shift_axes must be nonnegative"),
    ({"noise": {"shift_axes": [0.0, 0.0, 0.0]}}, "with a positive sum, got [0.0, 0.0, 0.0]"),
    ({"oracle": {"accuracy": 2}}, "oracle.accuracy must lie in [0, 1], got 2"),
    ({"judge": {"timeout_s": 0.0}}, "judge.timeout_s must be > 0, got 0.0"),
    ({"em": {"annealing": {"weight": -1.0}}}, "em.annealing.weight must be >= 0, got -1.0"),
    # a value a section's validator rejects is named by its full key path
    ({"em": {"max_iterations": -1}}, "em.max_iterations must be >= 0, got -1"),
    ({"em": {"data_mix": {"labeled": 0.5, "synthetic": 0.2, "selective": 0.1}}},
     "em.data_mix must be nonnegative and sum to 1, got (0.5, 0.2, 0.1)"),
    ({"em": {"escalation_budget_fraction": 1.5}},
     "em.escalation_budget_fraction must lie in (0, 1), got 1.5"),
    ({"em": {"auto_replace_dsc": -0.1}}, "em.auto_replace_dsc must lie in [0, 1], got -0.1"),
    ({"em": {"route_dsc": 1.5}}, "em.route_dsc must lie in [0, 1], got 1.5"),
    ({"em": {"convergence_mode": "never"}},
     "em.convergence_mode must be 'gold' or 'changes', got 'never'"),
    (_phantom(lambda p: p["structures"][2].update(radii=[0.06, 0.0, 0.1])),
     "phantom.structures[2].radii must be positive, got [0.06, 0.0, 0.1]"),
    (_phantom(lambda p: p["structures"][2].update(center=[0.97, 0.58, 0.36])),
     "phantom.structures[2].center +- radii must lie within the unit cube, "
     "got center [0.97, 0.58, 0.36], radii [0.06, 0.055, 0.1]"),
    (_phantom(lambda p: p["structures"][1]["intensity"].update(std=0.0)),
     "phantom.structures[1].intensity.std must be > 0, got 0.0"),
    (_phantom(lambda p: p["tumor"].update(count_range=[3, 1])),
     "phantom.tumor.count_range must satisfy 0 <= lo <= hi, got [3, 1]"),
    (_phantom(lambda p: p["tumor"].update(radius_range=[0.0, 0.05])),
     "phantom.tumor.radius_range must satisfy 0 < lo <= hi, got [0.0, 0.05]"),
    (_phantom(lambda p: p["tumor"].update(host_label=9)),
     "phantom.tumor.host_label must name a structure, got 9"),
    ({"noise": {"shift": 1.5}}, "noise.shift must lie in [0, 1], got 1.5"),
    ({"noise": {"tumor_miss": -0.25}}, "noise.tumor_miss must lie in [0, 1], got -0.25"),
    ({"noise": {"tumor_fp_rate": -0.5}}, "noise.tumor_fp_rate must be >= 0, got -0.5"),
    ({"cost": {"seconds_per_fp_removal": 0.0}},
     "cost.seconds_per_fp_removal must be > 0, got 0.0"),
    ({"cost": {"seconds_per_scratch_annotation": -1.0}},
     "cost.seconds_per_scratch_annotation must be > 0, got -1.0"),
]


def _typed(value):
    """value with each scalar tagged by its type (so 1, 1.0 and True differ)
    and each mapping as its list of items (so key order counts)."""
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


@pytest.mark.parametrize("path", [_data_path("default_run.yaml"),
                                  _data_path("default_priors.yaml"),
                                  Path(__file__).parent / "fixtures" / "roc_fixture_config.yaml"],
                         ids=lambda p: p.name)
def test_config_loader_builds_the_safe_loader_objects(monkeypatch, path):
    """_read_yaml parses with libyaml where PyYAML has it, into the same
    objects as the pure-Python SafeLoader."""
    loaders, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: loaders.append(Loader)
                        or load(text, Loader=Loader))
    got = _read_yaml(path)
    assert loaders == [getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
    assert _typed(got) == _typed(load(path.read_text(), Loader=yaml.SafeLoader))


@pytest.mark.parametrize("sections,where", MALFORMED, ids=[w for _, w in MALFORMED])
def test_malformed_config_exits_2(run_cfg, tmp_path, capsys, sections, where):
    out = tmp_path / "out"
    assert main(["generate", "--config", str(_write(run_cfg, tmp_path, **sections)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert not out.exists()


def test_negative_seed_flag_exits_2(run_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--config", str(_write(run_cfg, tmp_path)), "--seed", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--seed: seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not out.exists()


# (section, key, value): a value the loop or the generator cannot use.
OUT_OF_RANGE = [
    ("metrics", "fp_min_voxels", 0),
    ("em", "low_confidence_floor", -0.1),
    ("em", "low_confidence_floor", 1.5),
    ("judge", "tie_epsilon", -0.01),
    ("synthetic", "intensity_jitter", -1.0),
    ("noise", "fragment_thickness", 0),
    ("noise", "spurious_margin", -1),
    ("noise", "spurious_radius", [0.0, 2.0]),
    ("noise", "spurious_radius", [3.0, 2.0]),
    ("noise", "tumor_fp_radius", [-1.0, 2.0]),
    ("noise", "tumor_fp_radius", [2.5, 2.0]),
]


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE,
                         ids=[f"{s}.{k}=" + "_".join(map(str, v if isinstance(v, list) else [v]))
                              for s, k, v in OUT_OF_RANGE])
def test_out_of_range_value_exits_2_naming_its_key(run_cfg, tmp_path, capsys, section, key,
                                                   value):
    out = tmp_path / "out"
    edited = {section: {**run_cfg.raw[section], key: value}}
    assert main(["generate", "--config", str(_write(run_cfg, tmp_path, **edited)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and "Traceback" not in err
    assert not out.exists()


def test_negative_convergence_epsilon_loads(run_cfg, tmp_path):
    """A negative em.convergence_epsilon never stops the loop early, so it
    runs every em.max_iterations pass; the benchmark's fixed-length loop
    relies on it."""
    cfg = load_run_config(_write(run_cfg, tmp_path,
                                 em={**run_cfg.raw["em"], "convergence_epsilon": -1.0}))
    assert cfg.em.convergence_epsilon == -1.0


def _edit_priors(edit) -> dict:
    """The packaged priors file changed in place by ``edit``."""
    priors = copy.deepcopy(PACKAGED_PRIORS)
    edit(priors)
    return priors


MALFORMED_PRIORS = [
    (_edit_priors(lambda p: p["priors"][0].update(centroid_falof=0.2)),
     "priors[0].centroid_falof"),
    (_edit_priors(lambda p: p["priors"][2]["centroid_box"].update(y=[0.3, 0.4])),
     "priors[2].centroid_box.y"),
    (_edit_priors(lambda p: p.update(bogus_key=1)), "'bogus_key'"),
    (_edit_priors(lambda p: p["priors"][6]["weights"].update(extnet=0.0)), "weights must map"),
    (_edit_priors(lambda p: p["priors"][6].update(centroid_falloff=0.0)),
     "centroid_falloff must be > 0"),
    ("priors: [unclosed", "cannot load"),
    (_edit_priors(lambda p: p.update(priors={"label": 1})), "'priors' must be a list"),
    (_edit_priors(lambda p: p["priors"].append(p["priors"][0])), "label 1 is listed twice"),
    # a value a row's validator rejects is named by its full key path
    (_edit_priors(lambda p: p["priors"][0]["centroid_box"].update(x=[0.6, 0.4])),
     "priors[0].centroid_box.x must satisfy 0 <= lo <= hi <= 1, got [0.6, 0.4]"),
    (_edit_priors(lambda p: p["priors"][1]["centroid_box"].update(z=[0.2, 1.2])),
     "priors[1].centroid_box.z must satisfy 0 <= lo <= hi <= 1, got [0.2, 1.2]"),
    (_edit_priors(lambda p: p["priors"][2].update(vertical_extent=[-0.1, 0.5])),
     "priors[2].vertical_extent must satisfy 0 <= lo <= hi <= 1, got [-0.1, 0.5]"),
    (_edit_priors(lambda p: p["priors"][3].update(components=[2, 1])),
     "priors[3].components must satisfy 0 <= lo <= hi, got [2, 1]"),
    (_edit_priors(lambda p: p["priors"][4].update(elongation=[0.0, 2.0])),
     "priors[4].elongation must satisfy 0 < lo <= hi, got [0.0, 2.0]"),
    (_edit_priors(lambda p: p["priors"][5].update(weights={"centroid": -1.0})),
     "priors[5].weights must map some of centroid, components, extent, elongation to values "
     ">= 0, got {'centroid': -1.0}"),
    (_edit_priors(lambda p: p["priors"][5].update(centroid_falloff=-0.1)),
     "priors[5].centroid_falloff must be > 0, got -0.1"),
]


@pytest.mark.parametrize("priors,where", MALFORMED_PRIORS, ids=[w for _, w in MALFORMED_PRIORS])
def test_malformed_priors_file_exits_2(run_cfg, tmp_path, capsys, priors, where):
    (tmp_path / "priors.yaml").write_text(priors if isinstance(priors, str)
                                          else yaml.safe_dump(priors))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(_write(run_cfg, tmp_path, priors_file="priors.yaml")),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert where in err and "priors.yaml" in err and "Traceback" not in err
    assert not out.exists()


# For each part: the path to its packaged mapping (in the priors file when it
# starts with "priors", else in the run config), its key path in error
# messages, and the object the loader builds from it.
PARTS = {
    "structure": (("phantom", "structures", 0), "phantom.structures[0]",
                  lambda cfg: cfg.phantom.structures[0]),
    "tumor": (("phantom", "tumor"), "phantom.tumor", lambda cfg: cfg.phantom.tumor),
    "background": (("phantom", "background"), "phantom.background",
                   lambda cfg: cfg.phantom.background),
    "prior": (("priors", 6), "priors[6]", lambda cfg: cfg.priors[7]),
}


def _as_loaded(mapping: dict) -> dict:
    """mapping as the asdict of its dataclass holds it: lists read as tuples,
    a prompt stripped."""
    values = _tuples(mapping)
    if "prompt" in values:
        values["prompt"] = values["prompt"].strip()
    return values


def _defaults(obj) -> dict:
    """The asdict form of each field default of obj's dataclass."""
    defaults = {}
    for f in dataclasses.fields(obj):
        if f.default_factory is not dataclasses.MISSING:
            defaults[f.name] = f.default_factory()
        elif f.default is not dataclasses.MISSING:
            defaults[f.name] = (dataclasses.asdict(f.default) if dataclasses.is_dataclass(f.default)
                                else f.default)
    return defaults


def test_packaged_files_are_their_dataclasses(run_cfg):
    """Each packaged section and priors row, over its field defaults, is the
    asdict of what it loads as: the YAML tree and the dataclass tree have
    one shape."""
    for name, section in PACKAGED_RUN.items():
        if name not in ("schema_version", "priors_file"):
            obj = getattr(run_cfg, name)
            assert dataclasses.asdict(obj) == {**_defaults(obj), **_as_loaded(section)}, name
    for row in PACKAGED_PRIORS["priors"]:
        obj = run_cfg.priors[row["label"]]
        assert dataclasses.asdict(obj) == {**_defaults(obj), **_as_loaded(row)}, row["name"]


@pytest.mark.parametrize("part", sorted(PARTS))
def test_every_packaged_key_reaches_a_field(run_cfg, tmp_path, part):
    """Every packaged key of the part reaches a field and every field has a
    key; the same key misspelled is rejected, not dropped."""
    path, where, built = PARTS[part]
    packaged = copy.deepcopy(PACKAGED_PRIORS if path[0] == "priors" else PACKAGED_RUN)
    mapping = packaged
    for key in path:
        mapping = mapping[key]
    assert dataclasses.asdict(built(run_cfg)) == _as_loaded(mapping)

    for key in list(mapping):
        mapping[f"{key}_typo"] = mapping.pop(key)
        if path[0] == "priors":
            (tmp_path / "priors.yaml").write_text(yaml.safe_dump(packaged))
            cfg_path = _write(run_cfg, tmp_path, priors_file="priors.yaml")
        else:
            cfg_path = _write(run_cfg, tmp_path, phantom=packaged["phantom"])
        with pytest.raises(ConfigError, match=re.escape(f"'{where}.{key}_typo'")):
            load_run_config(cfg_path)
        mapping[key] = mapping.pop(f"{key}_typo")


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
    """The oracle kind is checked when the config loads; the judge has no
    kind (a non-empty judge.command selects the external judge)."""
    path = _write(run_cfg, tmp_path, oracle={"kind": "psychic"})
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: oracle.kind must"):
        load_run_config(path)


@pytest.mark.parametrize("kind", ["rule_based", "external"])
def test_build_judge_wires_the_judge_section(run_cfg, tmp_path, kind):
    """A non-empty judge.command selects the external judge, with the
    configured timeout and a rule-based fallback with the configured tie
    epsilon; an empty one selects the rule-based judge."""
    command = [sys.executable, "-c", "pass"] if kind == "external" else []
    section = {"command": command, "timeout_s": 3.0, "tie_epsilon": 0.05}
    judge = load_run_config(_write(run_cfg, tmp_path, judge=section)).build_judge()
    if kind == "external":
        assert type(judge) is em.ExternalJudge
        assert judge.timeout_s == 3.0
        judge = judge.fallback
    assert type(judge) is em.RuleBasedJudge
    assert judge.tie_epsilon == 0.05
    assert judge.priors == run_cfg.priors


@pytest.mark.parametrize("kind,oracle", [("simulated", em.SimulatedExpert),
                                         ("tie_keeper", em.TieKeeperOracle),
                                         ("interactive", InteractiveCliOracle)])
def test_build_oracle_wires_the_oracle_section(run_cfg, tmp_path, monkeypatch, kind, oracle):
    """Each oracle kind builds its oracle; the interactive one needs a
    terminal on standard input."""
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    cfg = load_run_config(_write(run_cfg, tmp_path, oracle={"kind": kind, "accuracy": 0.7}))
    built = cfg.build_oracle()
    assert type(built) is oracle
    if kind == "simulated":
        assert (built.accuracy, built.seed) == (0.7, cfg.em.seed)


def test_packaged_noise_profile_is_the_noise_spec_default():
    """A config that leaves out a noise key gets the packaged "standard"
    profile's value for it."""
    assert load_run_config().noise == em.NoiseSpec()


@pytest.mark.parametrize("field,value", [
    ("roc_points", -1),
    ("roc_points", 0),
    ("nsd_tolerance_mm", 0.0),
    ("nsd_tolerance_mm", -2.0),
    ("organ_connectivity", 18),  # connectivity is fixed: an unknown key
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
