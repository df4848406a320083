"""Run configuration: YAML loading, validation and object wiring.

A run config composes the phantom spec, the noise profile, the EM loop
parameters, the cost model, the prior table and the judge/oracle selection.
The packaged defaults live in ``emcurate/data`` and are used whenever no
config file is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Union

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
        raw = {**self.raw, "em": {**self.raw.get("em", {}), "seed": seed}}
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


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing '{key}' in {where}")
    return d[key]


def _parse_phantom(d: dict) -> PhantomSpec:
    structures = []
    for s in _require(d, "structures", "phantom"):
        intensity = _require(s, "intensity", f"structure {s.get('name')}")
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
    bg = _require(d, "background", "phantom")
    return PhantomSpec(structures=tuple(structures), tumor=tumor,
                       background_mean=float(bg["mean"]), background_std=float(bg["std"]),
                       dims=tuple(int(v) for v in d.get("dims", (64, 64, 64))),
                       spacing=tuple(float(v) for v in d.get("spacing", (1.0, 1.0, 1.0))))


def _parse_noise(d: dict) -> NoiseSpec:
    kwargs = {}
    for name in ("delete", "shift", "fragment", "spurious", "boundary_jitter",
                 "tumor_miss", "tumor_fp_rate"):
        if name in d:
            kwargs[name] = float(d[name])
    if "shift_voxels" in d:
        kwargs["shift_voxels"] = tuple(int(v) for v in d["shift_voxels"])
    if "shift_axes" in d:
        kwargs["shift_axes"] = tuple(float(v) for v in d["shift_axes"])
    for name in ("fragment_thickness", "spurious_margin"):
        if name in d:
            kwargs[name] = int(d[name])
    for name in ("spurious_radius", "tumor_fp_radius"):
        if name in d:
            kwargs[name] = tuple(float(v) for v in d[name])
    if d.get("tumor_fp_host") is not None:
        kwargs["tumor_fp_host"] = int(d["tumor_fp_host"])
    return NoiseSpec(**kwargs)


def _parse_em(d: dict) -> EMConfig:
    mix = d.get("data_mix", {})
    if isinstance(mix, dict):
        data_mix = (float(mix.get("labeled", 1.0)), float(mix.get("synthetic", 0.0)),
                    float(mix.get("selective", 0.0)))
    else:
        data_mix = tuple(float(v) for v in mix)
    annealing = d.get("annealing", {})
    return EMConfig(
        max_iterations=int(d.get("max_iterations", 4)),
        auto_replace_dsc=float(d.get("auto_replace_dsc", 0.0)),
        route_dsc=float(d.get("route_dsc", 0.5)),
        escalation_budget_fraction=float(d.get("escalation_budget_fraction", 0.05)),
        convergence_epsilon=float(d.get("convergence_epsilon", 1e-4)),
        convergence_mode=str(d.get("convergence_mode", "gold")),
        data_mix=data_mix,
        annealing_enabled=bool(annealing.get("enabled", True)),
        annealing_weight=float(annealing.get("weight", 5.0)),
        low_confidence_floor=float(d.get("low_confidence_floor", 0.05)),
        seed=int(d.get("seed", 0)))


def load_priors(path: Union[str, Path]) -> dict[int, AnatomicalPrior]:
    try:
        payload = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read priors file {path}: {exc}") from exc
    priors: dict[int, AnatomicalPrior] = {}
    for row in _require(payload, "priors", str(path)):
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

    phantom = _parse_phantom(_require(raw, "phantom", "config"))
    noise = _parse_noise(raw.get("noise", {}))
    em = _parse_em(raw.get("em", {}))
    cost_d = raw.get("cost", {})
    cost = CostModel(
        seconds_per_fp_removal=float(cost_d.get("seconds_per_fp_removal", 5.0)),
        seconds_per_scratch_annotation=float(cost_d.get("seconds_per_scratch_annotation", 270.0)),
        report_autoremoval=bool(cost_d.get("report_autoremoval", True)))

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

    judge_d = raw.get("judge", {})
    judge = JudgeConfig(kind=str(judge_d.get("kind", "rule_based")),
                        command=tuple(judge_d.get("command", []) or ()),
                        timeout_s=float(judge_d.get("timeout_s", 10.0)),
                        tie_epsilon=float(judge_d.get("tie_epsilon", 0.02)))
    oracle_d = raw.get("oracle", {})
    oracle = OracleConfig(kind=str(oracle_d.get("kind", "simulated")),
                          accuracy=float(oracle_d.get("accuracy", 0.9)))
    corpus_d = raw.get("corpus", {})
    corpus = CorpusConfig(n_cases=int(corpus_d.get("n_cases", 100)),
                          gold_fraction=float(corpus_d.get("gold_fraction", 0.1)))
    metrics_d = raw.get("metrics", {})
    metrics = MetricsConfig(
        nsd_tolerance_mm=float(metrics_d.get("nsd_tolerance_mm", 2.0)),
        organ_connectivity=int(metrics_d.get("organ_connectivity", 26)),
        tumor_connectivity=int(metrics_d.get("tumor_connectivity", 6)),
        roc_points=int(metrics_d.get("roc_points", 101)),
        roc_target_sensitivity=float(metrics_d.get("roc_target_sensitivity", 0.99)),
        fp_min_voxels=int(metrics_d.get("fp_min_voxels", 1)))

    model = ModelConfig(tumor_min_component_voxels=int(
        raw.get("model", {}).get("tumor_min_component_voxels", 20)))
    return RunConfig(phantom=phantom, noise=noise, em=em, cost=cost, priors=priors,
                     judge=judge, oracle=oracle, corpus=corpus, metrics=metrics,
                     model=model,
                     intensity_jitter=float(raw.get("synthetic", {}).get("intensity_jitter", 3.0)),
                     raw=raw)


def default_run_config() -> RunConfig:
    return load_run_config(None)
