"""Run configuration: YAML loading, validation and object wiring.

A run config composes the phantom spec, the noise profile, the EM loop
parameters, the cost model, the prior table and the judge/oracle selection.
The packaged defaults live in ``emcurate/data`` and are used whenever no
config file is given.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError
from .expert import AnatomicalPrior, ExternalJudge, FallbackJudge, RuleBasedJudge
from .grid import StructureCatalog, StructureKind
from .loop import (
    EMConfig,
    InteractiveCliOracle,
    SimulatedExpert,
    TieKeeperOracle,
    require_terminal,
)
from .phantom import NoiseSpec, PhantomSpec, ShapeKind, StructureShapeSpec, TumorSpec
from .roc import CostModel
from .verifier import GaussianIntensityModel


@dataclass(frozen=True)
class MetricsConfig:
    nsd_tolerance_mm: float = 2.0
    organ_connectivity: int = 26
    tumor_connectivity: int = 6
    roc_points: int = 101
    roc_target_sensitivity: float = 0.99
    fp_min_voxels: int = 1

    def __post_init__(self):
        if self.nsd_tolerance_mm <= 0:
            raise ConfigError(f"metrics.nsd_tolerance_mm must be > 0, got {self.nsd_tolerance_mm}")
        for name in ("organ_connectivity", "tumor_connectivity"):
            if getattr(self, name) not in (6, 26):
                raise ConfigError(f"metrics.{name} must be 6 or 26, got {getattr(self, name)}")
        if self.roc_points < 1:
            raise ConfigError(f"metrics.roc_points must be >= 1, got {self.roc_points}")
        if not 0.0 < self.roc_target_sensitivity <= 1.0:
            raise ConfigError("metrics.roc_target_sensitivity must lie in (0, 1], "
                              f"got {self.roc_target_sensitivity}")


@dataclass(frozen=True)
class ModelConfig:
    tumor_min_component_voxels: int = 20


@dataclass(frozen=True)
class JudgeConfig:
    kind: str = "rule_based"
    command: tuple[str, ...] = ()
    timeout_s: float = 10.0
    tie_epsilon: float = 0.02


@dataclass(frozen=True)
class OracleConfig:
    kind: str = "simulated"
    accuracy: float = 0.9


@dataclass(frozen=True)
class CorpusConfig:
    n_cases: int = 100
    gold_fraction: float = 0.1


@dataclass(frozen=True)
class RunConfig:
    phantom: PhantomSpec
    noise: NoiseSpec
    em: EMConfig
    cost: CostModel
    priors: dict[int, AnatomicalPrior]
    judge: JudgeConfig
    oracle: OracleConfig
    corpus: CorpusConfig
    metrics: MetricsConfig
    model: ModelConfig
    intensity_jitter: float
    raw: dict

    @property
    def catalog(self) -> StructureCatalog:
        return self.phantom.catalog

    def with_seed(self, seed: int) -> "RunConfig":
        raw = {**self.raw, "em": {**(self.raw.get("em") or {}), "seed": seed}}
        return replace(self, em=replace(self.em, seed=seed), raw=raw)

    def build_model(self, catalog: StructureCatalog) -> GaussianIntensityModel:
        """A fresh, unfitted segmentation model with the configured settings."""
        return GaussianIntensityModel(catalog, self.metrics.organ_connectivity,
                                      self.metrics.tumor_connectivity,
                                      self.model.tumor_min_component_voxels)

    def build_judge(self):
        rule = RuleBasedJudge(self.priors, tie_epsilon=self.judge.tie_epsilon)
        if self.judge.kind == "rule_based":
            return rule
        if self.judge.kind == "external":
            if not self.judge.command:
                raise ConfigError("external judge requires a command")
            primary = ExternalJudge(self.judge.command, self.priors,
                                    timeout_s=self.judge.timeout_s)
            return FallbackJudge(primary, rule)
        raise ConfigError(f"unknown judge kind '{self.judge.kind}'")

    def build_oracle(self):
        if self.oracle.kind == "simulated":
            return SimulatedExpert(accuracy=self.oracle.accuracy, seed=self.em.seed)
        if self.oracle.kind == "tie_keeper":
            return TieKeeperOracle()
        if self.oracle.kind == "interactive":
            require_terminal()
            return InteractiveCliOracle()
        raise ConfigError(f"unknown oracle kind '{self.oracle.kind}'")


def _parse_phantom(d: dict) -> PhantomSpec:
    structures = []
    for s in d["structures"]:
        intensity = s["intensity"]
        structures.append(StructureShapeSpec(
            label=int(s["label"]), name=str(s["name"]), kind=StructureKind(s["kind"]),
            shape=ShapeKind(s["shape"]), center=tuple(s["center"]), radii=tuple(s["radii"]),
            intensity_mean=float(intensity["mean"]), intensity_std=float(intensity["std"])))
    tumor = None
    if d.get("tumor"):
        t = d["tumor"]
        tumor = TumorSpec(label=int(t["label"]), name=str(t.get("name", "tumor")),
                          host_label=int(t["host_label"]),
                          count_range=tuple(int(v) for v in t["count_range"]),
                          radius_range=tuple(float(v) for v in t["radius_range"]),
                          intensity_offset=float(t["intensity_offset"]),
                          intensity_std=float(t["intensity_std"]))
    bg = d["background"]
    return PhantomSpec(structures=tuple(structures), tumor=tumor,
                       background_mean=float(bg["mean"]), background_std=float(bg["std"]),
                       dims=tuple(int(v) for v in d.get("dims", (64, 64, 64))),
                       spacing=tuple(float(v) for v in d.get("spacing", (1.0, 1.0, 1.0))))


_DATA_MIX_KEYS = ("labeled", "synthetic", "selective")
_TOP_LEVEL_KEYS = ("schema_version", "phantom", "priors_file", "noise", "corpus", "em",
                   "judge", "oracle", "cost", "metrics", "model", "synthetic")


def _mapping(value, where: str, allowed) -> dict:
    """The config mapping at ``where`` ({} when absent or null), keys in ``allowed`` only."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'" if where else f"unknown key '{key}'")
    return value


def _coerce(hint, value):
    """``value`` converted to the declared field type ``hint``."""
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else _coerce(get_args(hint)[0], value)
    if get_origin(hint) is tuple:
        kinds = get_args(hint)
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        kinds = (kinds[0],) * len(value) if kinds[-1] is Ellipsis else kinds
        if len(value) != len(kinds):
            raise ValueError(f"expected {len(kinds)} values, got {len(value)}")
        return tuple(_coerce(k, v) for k, v in zip(kinds, value))
    # no implicit conversion to or from bool, nor to str
    if (hint is bool) != isinstance(value, bool) or (hint is str and not isinstance(value, str)):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return hint(value)


def _section(cls, value, where: str):
    """Build the dataclass ``cls`` from the config section ``where``: an absent
    key keeps its default, an unknown key or an unconvertible value is a ConfigError."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    kwargs = {}
    for key, v in _mapping(value, where, names).items():
        try:
            kwargs[key] = _coerce(hints[key], v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None
    return cls(**kwargs)


def _parse_em(d) -> EMConfig:
    """The ``em`` section, whose ``annealing: {enabled, weight}`` mapping
    fills the ``annealing_*`` fields and whose ``data_mix`` mapping is
    ordered (labeled, synthetic, selective)."""
    plain = [f.name for f in fields(EMConfig) if not f.name.startswith("annealing_")]
    d = dict(_mapping(d, "em", plain + ["annealing"]))
    annealing = _mapping(d.pop("annealing", None), "em.annealing", ("enabled", "weight"))
    if "data_mix" in d:
        mix = d["data_mix"]
        if not isinstance(mix, dict) or set(mix) != set(_DATA_MIX_KEYS):
            raise ConfigError("em.data_mix must be a mapping with exactly the keys "
                              f"{', '.join(_DATA_MIX_KEYS)}, got {mix!r}")
        d["data_mix"] = [mix[k] for k in _DATA_MIX_KEYS]
    d.update({f"annealing_{k}": v for k, v in annealing.items()})
    return _section(EMConfig, d, "em")


def load_priors(path: Union[str, Path]) -> dict[int, AnatomicalPrior]:
    try:
        payload = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read priors file {path}: {exc}") from exc
    priors: dict[int, AnatomicalPrior] = {}
    for row in payload["priors"]:
        cb = row["centroid_box"]
        prior = AnatomicalPrior(
            label=int(row["label"]), name=str(row["name"]), prompt=str(row["prompt"]).strip(),
            centroid_box=(tuple(float(v) for v in cb["x"]), tuple(float(v) for v in cb["z"])),
            components=tuple(int(v) for v in row["components"]),
            vertical_extent=tuple(float(v) for v in row["vertical_extent"]),
            elongation=tuple(float(v) for v in row["elongation"]),
            weights={str(k): float(v) for k, v in row.get("weights", {}).items()},
            centroid_falloff=float(row.get("centroid_falloff", 0.15)))
        priors[prior.label] = prior
    return priors


def _data_path(name: str) -> Path:
    return Path(str(resources.files("emcurate").joinpath("data", name)))


def load_run_config(path: Optional[Union[str, Path]] = None) -> RunConfig:
    """Load and validate a run config; None loads the packaged defaults."""
    cfg_path = _data_path("default_run.yaml") if path is None else Path(path)
    try:
        raw = yaml.safe_load(cfg_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {cfg_path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {cfg_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {cfg_path} must be a mapping")

    try:
        _mapping(raw, "", _TOP_LEVEL_KEYS)
        phantom = _parse_phantom(raw["phantom"])
        priors_ref = raw.get("priors_file", "default_priors.yaml")
        priors_path = Path(priors_ref)
        if not priors_path.is_absolute():
            local = cfg_path.parent / priors_path
            priors_path = local if local.exists() else _data_path(priors_ref)
        if not priors_path.exists():
            raise ConfigError(f"priors file {priors_path} does not exist")
        priors = load_priors(priors_path)
        for label in phantom.catalog.labels:
            if label not in priors:
                raise ConfigError(f"no prior for catalog structure {label}")
        synthetic = _mapping(raw.get("synthetic"), "synthetic", ("intensity_jitter",))
        return RunConfig(
            phantom=phantom, noise=_section(NoiseSpec, raw.get("noise"), "noise"),
            em=_parse_em(raw.get("em")), cost=_section(CostModel, raw.get("cost"), "cost"),
            priors=priors, judge=_section(JudgeConfig, raw.get("judge"), "judge"),
            oracle=_section(OracleConfig, raw.get("oracle"), "oracle"),
            corpus=_section(CorpusConfig, raw.get("corpus"), "corpus"),
            metrics=_section(MetricsConfig, raw.get("metrics"), "metrics"),
            model=_section(ModelConfig, raw.get("model"), "model"),
            intensity_jitter=float(synthetic.get("intensity_jitter", 3.0)), raw=raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config {cfg_path}: {type(exc).__name__}: {exc}") from None


def default_run_config() -> RunConfig:
    return load_run_config(None)
