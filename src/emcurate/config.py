"""Run configuration: YAML loading, validation and object wiring.

A run config composes the phantom spec, the noise profile, the EM loop
parameters, the cost model, the prior table and the judge/oracle selection.
The packaged defaults live in ``emcurate/data`` and are used whenever no
config file is given.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Union, get_type_hints

import yaml

from .errors import CatalogError, ConfigError
from .expert import TIE_EPSILON, AnatomicalPrior, ExternalJudge, RuleBasedJudge
from .grid import StructureCatalog
from .loop import (
    EMConfig,
    InteractiveCliOracle,
    SimulatedExpert,
    TieKeeperOracle,
    require_terminal,
)
from .phantom import NoiseSpec, PhantomSpec
from .roc import CostModel
from .volume_io import check_record, decode, decode_mapping


@dataclass(frozen=True)
class MetricsConfig:
    nsd_tolerance_mm: float = 2.0
    roc_points: int = 101
    roc_target_sensitivity: float = 0.99
    fp_min_voxels: int = 1

    def __post_init__(self):
        if self.nsd_tolerance_mm <= 0:
            raise ConfigError(f"nsd_tolerance_mm must be > 0, got {self.nsd_tolerance_mm}")
        if self.roc_points < 1:
            raise ConfigError(f"roc_points must be >= 1, got {self.roc_points}")
        if not 0.0 < self.roc_target_sensitivity <= 1.0:
            raise ConfigError("roc_target_sensitivity must lie in (0, 1], "
                              f"got {self.roc_target_sensitivity}")
        if self.fp_min_voxels < 1:
            raise ConfigError(f"fp_min_voxels must be >= 1, got {self.fp_min_voxels}")


@dataclass(frozen=True)
class JudgeConfig:
    command: tuple[str, ...] = ()  # the external judge's argv; empty: the rule judge
    timeout_s: float = 10.0
    tie_epsilon: float = TIE_EPSILON

    def __post_init__(self):
        if self.timeout_s <= 0:  # else every external request times out at once, a tie
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.tie_epsilon < 0:
            raise ConfigError(f"tie_epsilon must be >= 0, got {self.tie_epsilon}")


@dataclass(frozen=True)
class OracleConfig:
    kind: str = "simulated"
    accuracy: float = 0.9

    def __post_init__(self):
        if self.kind not in ("simulated", "tie_keeper", "interactive"):
            raise ConfigError("kind must be 'simulated', 'tie_keeper' or 'interactive', "
                              f"got {self.kind!r}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError(f"accuracy must lie in [0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class CorpusConfig:
    n_cases: int = 100
    gold_fraction: float = 0.1

    def __post_init__(self):
        if self.n_cases < 1:
            raise ConfigError(f"n_cases must be >= 1, got {self.n_cases}")
        if not 0.0 <= self.gold_fraction <= 1.0:
            raise ConfigError(f"gold_fraction must lie in [0, 1], got {self.gold_fraction}")


@dataclass(frozen=True)
class SyntheticConfig:
    intensity_jitter: float = 3.0

    def __post_init__(self):
        if self.intensity_jitter < 0:
            raise ConfigError(f"intensity_jitter must be >= 0, got {self.intensity_jitter}")


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
    synthetic: SyntheticConfig
    raw: dict

    @property
    def catalog(self) -> StructureCatalog:
        return self.phantom.catalog

    def with_seed(self, seed: int) -> "RunConfig":
        raw = {**self.raw, "em": {**(self.raw.get("em") or {}), "seed": seed}}
        return replace(self, em=replace(self.em, seed=seed), raw=raw)

    def build_judge(self):
        rule = RuleBasedJudge(self.priors, tie_epsilon=self.judge.tie_epsilon)
        if not self.judge.command:
            return rule
        if shutil.which(self.judge.command[0]) is None:  # fail now, not at the first comparison
            raise ConfigError(f"cannot run judge.command {self.judge.command[0]!r}")
        return ExternalJudge(self.judge.command, rule, self.judge.timeout_s)

    def build_oracle(self):
        if self.oracle.kind == "simulated":
            return SimulatedExpert(accuracy=self.oracle.accuracy, seed=self.em.seed)
        if self.oracle.kind == "tie_keeper":
            return TieKeeperOracle()
        require_terminal()
        return InteractiveCliOracle()


def _read_yaml(path: Path) -> dict:
    """A config file's top level, a record (see ``check_record``).

    Parsed by libyaml where PyYAML has it: CSafeLoader shares SafeLoader's
    constructor and resolver, so it builds the same objects."""
    try:
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from None
    return check_record(raw, path)


def load_priors(path: Union[str, Path]) -> dict[int, AnatomicalPrior]:
    """The anatomical priors file at ``path``, by structure label; each row's
    prompt is stripped."""
    raw = _read_yaml(Path(path))
    priors: dict[int, AnatomicalPrior] = {}
    try:
        rows = decode_mapping(raw, "", ("schema_version", "priors")).get("priors")
        if not isinstance(rows, list):
            raise ConfigError(f"'priors' must be a list, got {rows!r}")
        for i, row in enumerate(rows):
            where = f"priors[{i}]"
            prior = decode(AnatomicalPrior, row, where)
            if prior.label in priors:
                raise ConfigError(f"{where}: label {prior.label} is listed twice")
            priors[prior.label] = replace(prior, prompt=prior.prompt.strip())
    except ConfigError as exc:
        raise ConfigError(f"malformed priors file {path}: {exc}") from None
    return priors


def _data_path(name: str) -> Path:
    return Path(str(resources.files("emcurate").joinpath("data", name)))


def load_run_config(path: Optional[Union[str, Path]] = None) -> RunConfig:
    """Load and validate a run config; None loads the packaged defaults. Each
    dataclass-typed field of RunConfig is built from the section of its name."""
    cfg_path = _data_path("default_run.yaml") if path is None else Path(path)
    raw = _read_yaml(cfg_path)
    priors_ref = raw.get("priors_file", "default_priors.yaml")
    if not isinstance(priors_ref, str):
        raise ConfigError(f"{cfg_path}: priors_file must be a path, got {priors_ref!r}")
    local = cfg_path.parent / priors_ref
    priors = load_priors(local if local.exists() else _data_path(priors_ref))
    hints = get_type_hints(RunConfig)
    names = [name for name, hint in hints.items() if is_dataclass(hint)]
    try:
        decode_mapping(raw, "", (*names, "schema_version", "priors_file"))
        sections = {name: decode(hints[name], raw.get(name), name) for name in names}
        catalog = sections["phantom"].catalog
        for label in catalog.labels:
            if label not in priors:
                raise ConfigError(f"no prior for catalog structure {label}")
    except (CatalogError, ConfigError) as exc:
        raise ConfigError(f"malformed config {cfg_path}: {exc}") from None
    return RunConfig(priors=priors, raw=raw, **sections)
