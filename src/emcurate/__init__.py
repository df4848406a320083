"""EM-style co-evolution of a segmentation model and a noisy voxel-annotation
corpus on synthetic 3D phantoms, with the full evaluation suite (DSC, NSD,
detection rates, ROC) and an auditable human-escalation path."""

from .errors import (
    CatalogError,
    ConfigError,
    EmcurateError,
    ModelError,
    ProtocolError,
    ShapeError,
    UndefinedRateError,
    VolumeFormatError,
)
from .grid import (
    CaseMeta,
    CaseRecord,
    ComponentLabeling,
    LabelMap,
    Projection2D,
    StructureCatalog,
    StructureEntry,
    StructureKind,
    StructuredReport,
    TumorType,
    VoxelGrid,
    connected_components,
    front_view_projection,
    largest_component,
)
from .metrics import (
    ConfusionCounts,
    DetectionOutcome,
    MetricReport,
    RocCurve,
    RocPoint,
    build_roc,
    classification_rates,
    diagnosis_confusion,
    dsc,
    nsd,
    patient_wise_detection,
    tumor_wise_detection,
)
from .phantom import (
    Gaussian,
    InjectionOp,
    NoiseSpec,
    PhantomSource,
    PhantomSpec,
    ShapeKind,
    StructureShapeSpec,
    TumorSpec,
    apply_injections,
    generate_case,
    generate_corpus,
    inject_noise,
)
from .verifier import (
    AuditAction,
    AuditOutcome,
    GaussianIntensityModel,
    apply_update_rule,
    audit_case,
    classify_action,
    fit_model,
)
from .expert import (
    AnatomicalPrior,
    CentroidBox,
    ExternalJudge,
    FallbackJudge,
    JudgeVerdict,
    Preference,
    RuleBasedJudge,
    judge_pair,
    run_tournament,
    score_overlay,
    shape_cleanup,
)
from .roc import (
    CostModel,
    SavingsReport,
    ThresholdPolicy,
    annotation_savings,
    select_threshold,
    suppress_fp_by_report,
)
from .loop import (
    Annealing,
    DataMix,
    EMConfig,
    IterationReport,
    SimulatedExpert,
    TieKeeperOracle,
    expectation_pass,
    interactive_review,
    maximization_pass,
    run_em,
)
from .config import RunConfig, default_run_config, load_priors, load_run_config

__version__ = "0.1.0"
