"""EM orchestration: audit-driven expectation passes, data-mix maximization
passes, escalation bookkeeping, convergence tracking and run persistence.

One iteration audits every (case, structure) pair against the current model,
applies zero-overlap replacements automatically, routes low-agreement
structures through the projection judge, escalates unresolvable ones to a
human oracle, then refits the model on a mix of refined, synthetic and
hard-case data with an optional gold-subset annealing pass.

Within an iteration only the audit runs on a thread pool. Its outcomes are
consumed in case order by one loop, which alone applies the update rule,
asks the judge and the oracle and writes the labels; all randomness is
derived from (seed, iteration, case, structure). So outputs, the order of
judge requests and oracle prompts included, are byte-identical regardless
of thread count.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, astuple, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence, Union

import numpy as np

from .errors import ConfigError, ProtocolError, VolumeFormatError
from .expert import Preference, rle_decode, rle_encode, run_tournament, shape_cleanup
from .grid import CaseRecord, front_view_projection, structure_mask_pairs
from .metrics import dsc
from .phantom import PhantomSource
from .verifier import (
    AuditAction,
    ChangeLogEntry,
    GaussianIntensityModel,
    audit_case,
    apply_update_rule,
    changed_structures,
    fit_model,
    write_structures,
)
from .volume_io import decode, decode_mapping, read_json, write_json, write_jsonl

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Annealing:
    """Gold-subset annealing: each is_gold case joins every refit at ``weight``."""
    enabled: bool = True
    weight: float = 5.0


@dataclass(frozen=True)
class DataMix:
    """Fractions of a refit's training set: refined, synthetic and hard-case data."""
    labeled: float
    synthetic: float
    selective: float


@dataclass(frozen=True)
class EMConfig:
    max_iterations: int = 4
    auto_replace_dsc: float = 0.0
    route_dsc: float = 0.5
    escalation_budget_fraction: float = 0.05
    convergence_epsilon: float = 1e-4
    convergence_mode: str = "gold"  # "gold" | "changes"
    data_mix: DataMix = DataMix(0.7, 0.2, 0.1)
    annealing: Annealing = Annealing()
    low_confidence_floor: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        fractions = astuple(self.data_mix)
        if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
            raise ConfigError(f"data_mix must be nonnegative and sum to 1, got {fractions}")
        if not 0.0 < self.escalation_budget_fraction < 1.0:
            raise ConfigError("escalation_budget_fraction must lie in (0, 1), "
                              f"got {self.escalation_budget_fraction}")
        for name in ("auto_replace_dsc", "route_dsc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.annealing.weight < 0:
            raise ConfigError(f"annealing.weight must be >= 0, got {self.annealing.weight}")
        if self.convergence_mode not in ("gold", "changes"):
            raise ConfigError("convergence_mode must be 'gold' or 'changes', "
                              f"got {self.convergence_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.low_confidence_floor <= 1.0:
            raise ConfigError("low_confidence_floor must lie in [0, 1], "
                              f"got {self.low_confidence_floor}")


class EscalationReason(str, Enum):
    EXPERT_TIE = "expert_tie"
    LOW_CONFIDENCE = "low_confidence"
    PROTOCOL_FAILURE = "protocol_failure"


@dataclass
class EscalationEntry:
    """A structure neither the audit nor the judge could settle, and how it
    was resolved. ``chosen`` (a candidate index) stays None until the entry
    is resolved, and when the answer was a skip. ``source`` names who was
    asked: the oracle's class name, set when the expectation pass makes the
    entry, or "interactive" once ``review`` has asked; it is None on an
    entry read back from a queue file until then."""
    case_id: str
    structure: int
    reason: EscalationReason
    overlays: list[np.ndarray]  # 2D front-view silhouettes, incumbent first
    chosen: Optional[int] = None
    source: Optional[str] = None

    def decision(self) -> dict:
        """The row of a resolution or decisions file."""
        return {"case_id": self.case_id, "structure": self.structure,
                "chosen": self.chosen, "source": self.source}


@dataclass(frozen=True)
class QueueRow:
    """One entry of a review queue file: the incumbent's and the prediction's
    overlays, each width x height, run-length encoded."""
    case_id: str
    structure: int
    reason: EscalationReason
    width: int
    height: int
    overlays: tuple[str, str]


def save_queue(path: Union[str, Path], entries: Sequence[EscalationEntry]) -> None:
    """Write the entries' overlays, run-length encoded, as a review queue."""
    rows = [QueueRow(e.case_id, e.structure, e.reason, *e.overlays[0].shape,
                     tuple(rle_encode(o) for o in e.overlays)) for e in entries]
    write_json(path, {"entries": [asdict(row) for row in rows]})


def load_queue(path: Union[str, Path]) -> list[EscalationEntry]:
    """The unresolved entries of a queue file written by save_queue."""
    payload = read_json(path)
    try:
        decode_mapping(payload, "", ("schema_version", "entries"))
        rows = decode(tuple[QueueRow, ...], payload["entries"], "entries")
        return [EscalationEntry(case_id=row.case_id, structure=row.structure, reason=row.reason,
                                overlays=[rle_decode(o, row.width, row.height)
                                          for o in row.overlays])
                for row in rows]
    except (KeyError, TypeError, ConfigError, ProtocolError) as exc:
        raise VolumeFormatError(f"{path}: malformed escalation queue: {exc!r}") from None


class HumanOracle(Protocol):
    def review(self, case: CaseRecord, structure: int,
               candidates: Sequence[np.ndarray], context: str) -> Optional[int]: ...


def _context_rng(seed: int, context: str) -> np.random.Generator:
    digest = hashlib.sha256(context.encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


class SimulatedExpert:
    """Stand-in reviewer of the two candidates: picks the gold-closer one with
    probability `accuracy`, otherwise the other; deterministic given the seed."""

    def __init__(self, accuracy: float = 0.9, seed: int = 0):
        if not 0.0 <= accuracy <= 1.0:
            raise ConfigError("accuracy must lie in [0, 1]")
        self.accuracy = accuracy
        self.seed = seed

    def review(self, case: CaseRecord, structure: int,
               candidates: Sequence[np.ndarray], context: str) -> Optional[int]:
        if case.gold is None:
            return None
        gold_mask = case.gold.labels == structure
        scores = [dsc(c, gold_mask) for c in candidates]
        best = int(np.argmax(scores))
        return best if _context_rng(self.seed, context).random() < self.accuracy else 1 - best


class TieKeeperOracle:
    """Always keeps the incumbent; never consults gold (no-gold deployments)."""

    def review(self, case: CaseRecord, structure: int,
               candidates: Sequence[np.ndarray], context: str) -> Optional[int]:
        return 0


class InteractiveCliOracle:
    """Inline terminal review during a run: renders the candidates' front
    views and prompts 1/2/skip. Skipping leaves the entry unresolved."""

    def __init__(self, input_fn: Optional[Callable[[str], str]] = None,
                 print_fn: Callable[[str], None] = print):
        self.input_fn = input_fn
        self.print_fn = print_fn

    def review(self, case: CaseRecord, structure: int,
               candidates: Sequence[np.ndarray], context: str) -> Optional[int]:
        return prompt_choice(
            f"review {context}: case {case.case_id}, structure {structure}",
            [front_view_projection(case.volume, m).overlay for m in candidates],
            self.input_fn, self.print_fn)


# The counts of an expectation pass, under the key names of the iteration reports.
COUNT_NAMES = ("keep", "auto_replace", "route", "escalate", "tournament_decided",
               "auto_resolved", "unresolved", "structures_audited")


@dataclass
class ExpectationStats:
    counts: Counter = field(default_factory=lambda: Counter(dict.fromkeys(COUNT_NAMES, 0)))
    changed_structures: int = 0
    per_case_audit_dsc: dict[str, float] = field(default_factory=dict)
    all_changes: list[ChangeLogEntry] = field(default_factory=list)

    @property
    def escalation_fraction(self) -> float:
        if self.counts["structures_audited"] == 0:
            return 0.0
        return self.counts["escalate"] / self.counts["structures_audited"]

    @property
    def change_fraction(self) -> float:
        if self.counts["structures_audited"] == 0:
            return 0.0
        return self.changed_structures / self.counts["structures_audited"]


@dataclass
class IterationReport:
    iteration: int
    counts: dict[str, int]
    escalation_fraction: float
    budget_breached: bool
    change_fraction: float
    model_snapshot_id: str
    mean_dsc_vs_gold: Optional[float] = None
    per_structure_dsc_vs_gold: Optional[dict[str, dict[str, float]]] = None


def ordered_parallel_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """Yield fn(item) for each item in input order, whatever the thread
    count. With more than one thread, at most ``threads`` results are
    computed ahead of the consumer, so they do not pile up in memory."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def expectation_pass(corpus: Sequence[CaseRecord], model, judge, oracle: HumanOracle,
                     cfg: EMConfig, iteration: int = 1, threads: int = 1
                     ) -> tuple[list[CaseRecord], list[EscalationEntry], ExpectationStats]:
    """One full audit/repair sweep over the corpus.

    Per case: audit against the model, apply zero-overlap replacements, route
    low-agreement structures through the judge, and escalate per-structure
    ties to the oracle. Only the audits run on ``threads`` worker threads;
    the rest runs in case order, so the judge and the oracle are asked in
    the same order whatever the thread count. Each returned entry carries
    the oracle's answer and the oracle's class name as its source. A case's
    judge decisions, then its oracle answers, are written in one
    write_structures call; its changed structures are then counted against
    its input labels.
    """
    stats = ExpectationStats()
    entries: list[EscalationEntry] = []
    updated_corpus: list[CaseRecord] = []
    outcomes = ordered_parallel_map(
        lambda case: audit_case(model, case, cfg.auto_replace_dsc, cfg.route_dsc),
        corpus, threads)
    with closing(outcomes):
        for original, outcome in zip(corpus, outcomes):
            case, changes = apply_update_rule(original, outcome)
            routed = sorted(outcome.actions(AuditAction.ROUTE_TO_EXPERT))
            stats.counts.update(structures_audited=len(outcome.per_structure),
                                keep=len(outcome.actions(AuditAction.KEEP)),
                                auto_replace=len(outcome.actions(AuditAction.AUTO_REPLACE)),
                                route=len(routed))
            stats.per_case_audit_dsc[case.case_id] = outcome.mean_dsc
            stats.all_changes.extend(changes)
            writes, answers = [], []
            verdicts = {}
            if routed:
                incumbent = shape_cleanup(case.pseudo)
                verdicts = run_tournament(case, incumbent, outcome.prediction, judge, routed)
            for s, verdict in verdicts.items():
                incumbent_mask = incumbent.labels == s
                challenger_mask = outcome.prediction.labels == s
                tie = verdict.preference is Preference.TIE
                # verdicts with both scores under the floor are uninformative, tie
                # or not: neither candidate resembles the expected anatomy
                low_confidence = (verdict.score_first is not None
                                  and max(verdict.score_first, verdict.score_second)
                                  < cfg.low_confidence_floor)
                if tie and np.array_equal(incumbent_mask, challenger_mask):
                    writes.append((s, incumbent_mask, "expert_auto_resolved"))
                    stats.counts["auto_resolved"] += 1
                elif low_confidence or tie:
                    if low_confidence:
                        reason = EscalationReason.LOW_CONFIDENCE
                    elif verdict.protocol_issue:
                        reason = EscalationReason.PROTOCOL_FAILURE
                    else:
                        reason = EscalationReason.EXPERT_TIE
                    candidates = [incumbent_mask, challenger_mask]
                    entry = EscalationEntry(
                        case_id=case.case_id, structure=s, reason=reason,
                        overlays=[front_view_projection(case.volume, m).overlay
                                  for m in candidates],
                        source=type(oracle).__name__)
                    entries.append(entry)
                    stats.counts["escalate"] += 1
                    context = f"{iteration}:{case.case_id}:{s}"
                    try:
                        chosen = oracle.review(case, s, candidates, context)
                    except Exception as exc:  # a failing oracle leaves the entry unresolved
                        log.warning("oracle %s failed on %s (%s: %s); left unresolved",
                                    type(oracle).__name__, context, type(exc).__name__, exc)
                        chosen = None
                    if chosen is None:
                        stats.counts["unresolved"] += 1
                    else:
                        entry.chosen = int(chosen)
                        answers.append((s, candidates[entry.chosen], f"escalated_{entry.chosen}"))
                elif verdict.preference is Preference.FIRST:
                    writes.append((s, challenger_mask, "expert_replace"))
                    stats.counts["tournament_decided"] += 1
                else:
                    writes.append((s, incumbent_mask, "expert_keep"))
                    stats.counts["tournament_decided"] += 1
            case, changes = write_structures(case, writes + answers)
            stats.all_changes.extend(changes)
            stats.changed_structures += changed_structures(original.pseudo, case.pseudo)
            updated_corpus.append(case)

    return updated_corpus, entries, stats


def maximization_pass(corpus: Sequence[CaseRecord], cfg: EMConfig,
                      audit_dsc: Optional[dict[str, float]] = None,
                      phantom_source: Optional[PhantomSource] = None,
                      iteration: int = 1) -> GaussianIntensityModel:
    """Refit the model on the data mix, with optional gold-subset annealing.

    The training multiset is: a deterministic sample of round(labeled*N)
    refined cases, round(synthetic*N) freshly generated clean phantoms, and
    ceil(selective*N) extra copies of the case with the worst audit agreement:
    the lowest of ``audit_dsc``, each case's mean audit DSC by case id, where
    higher is better. Annealing appends each is_gold case with elevated weight.
    """
    if len(corpus) == 0:
        raise ConfigError("maximization requires a nonempty corpus")
    n = len(corpus)
    mix = cfg.data_mix
    n_lab = round(mix.labeled * n)
    n_syn = round(mix.synthetic * n)
    n_sel = math.ceil(mix.selective * n)

    train: list[CaseRecord] = []
    weights: list[float] = []

    if n_lab >= n:
        chosen = list(range(n))
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, iteration, 1]))
        chosen = sorted(rng.choice(n, size=n_lab, replace=False).tolist())
    for i in chosen:
        train.append(corpus[i])
        weights.append(1.0)

    if n_syn > 0:
        if phantom_source is None:
            raise ConfigError("synthetic fraction > 0 requires a phantom source")
        for j in range(n_syn):
            ss = np.random.SeedSequence([cfg.seed, iteration, 2, j])
            train.append(phantom_source.sample(ss, case_id=f"synth_{iteration:02d}_{j:04d}"))
            weights.append(1.0)

    if n_sel > 0 and audit_dsc:
        worst_id = max(sorted(audit_dsc), key=lambda cid: 1.0 - audit_dsc[cid])
        worst = next(c for c in corpus if c.case_id == worst_id)
        for _ in range(n_sel):
            train.append(worst)
            weights.append(1.0)

    if cfg.annealing.enabled:
        gold_cases = [c for c in corpus if c.meta.is_gold]
        if not gold_cases:
            log.warning("annealing enabled but corpus has no gold cases; skipping")
        else:
            for c in gold_cases:
                train.append(c)
                weights.append(cfg.annealing.weight)

    return fit_model(train, weights)


def _gold_metrics(corpus: Sequence[CaseRecord]) -> tuple[Optional[float], Optional[dict]]:
    cases = [c for c in corpus if c.gold is not None]
    if not cases:
        return None, None
    catalog = cases[0].pseudo.catalog
    scores_of: dict[int, list[float]] = {s: [] for s in catalog.labels}
    for c in cases:
        for s, a, b in structure_mask_pairs(c.pseudo, c.gold):
            scores_of[s].append(dsc(a, b))
    # keys are str(label): the written report sorts them as text, "10" before "2"
    per_structure: dict[str, dict[str, float]] = {}
    all_scores = []
    for s, scores in scores_of.items():
        all_scores.extend(scores)
        per_structure[str(s)] = {"mean": float(np.mean(scores)),
                                 "median": float(np.median(scores))}
    return float(np.mean(all_scores)), per_structure


def run_em(corpus: Sequence[CaseRecord], cfg: EMConfig, judge, oracle: HumanOracle,
           phantom_source: Optional[PhantomSource] = None, out_dir: Optional[Path] = None,
           timing: bool = False, threads: int = 1
           ) -> tuple[list[CaseRecord], GaussianIntensityModel, list[IterationReport]]:
    """Alternate expectation and maximization passes until convergence.

    Stops at max_iterations or when the convergence metric (mean DSC vs gold,
    or the fraction of changed structures in no-gold mode) improves by less
    than convergence_epsilon. Deterministic given corpus, config and seed.

    With ``out_dir``, the run is recorded there: ``model_NNN.json`` for the
    initial fit (000) and each refit, and per iteration ``iteration_NNN.json``,
    ``changes_NNN.jsonl`` and its rows of ``resolutions.jsonl``. ``timing``
    appends one row per iteration to ``timing.jsonl``, the one file whose
    bytes differ between identical runs: its wall-clock seconds and the
    seconds of its expectation pass, maximization pass, gold metrics and
    record writes (the model snapshot included).
    """
    def snapshot(iteration: int, model: GaussianIntensityModel) -> str:
        if out_dir is None:
            return ""
        blob = model.save(out_dir / f"model_{iteration:03d}.json")
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    corpus = list(corpus)
    model = fit_model(corpus)
    snapshot(0, model)
    reports: list[IterationReport] = []
    prev_metric, _ = _gold_metrics(corpus) if cfg.convergence_mode == "gold" else (None, None)
    for iteration in range(1, cfg.max_iterations + 1):
        started = time.perf_counter()
        corpus, entries, stats = expectation_pass(corpus, model, judge, oracle, cfg,
                                                  iteration=iteration, threads=threads)
        expected = time.perf_counter()
        model = maximization_pass(corpus, cfg, stats.per_case_audit_dsc, phantom_source,
                                  iteration=iteration)
        maximized = time.perf_counter()
        mean_gold, per_structure = _gold_metrics(corpus)
        scored = time.perf_counter()
        report = IterationReport(
            iteration=iteration,
            counts=dict(stats.counts),
            escalation_fraction=stats.escalation_fraction,
            budget_breached=stats.escalation_fraction > cfg.escalation_budget_fraction,
            change_fraction=stats.change_fraction,
            model_snapshot_id=snapshot(iteration, model),
            mean_dsc_vs_gold=mean_gold,
            per_structure_dsc_vs_gold=per_structure,
        )
        reports.append(report)
        if out_dir is not None:
            write_json(out_dir / f"iteration_{iteration:03d}.json", asdict(report))
            write_jsonl(out_dir / f"changes_{iteration:03d}.jsonl",
                        [asdict(e) for e in stats.all_changes])
            write_jsonl(out_dir / "resolutions.jsonl",
                        [{"iteration": iteration, "reason": e.reason.value, **e.decision()}
                         for e in entries], append=True)
            if timing:
                written = time.perf_counter()
                write_jsonl(out_dir / "timing.jsonl", [{
                    "iteration": iteration, "wall_clock_s": time.perf_counter() - started,
                    "expectation_s": expected - started, "maximization_s": maximized - expected,
                    "gold_metrics_s": scored - maximized, "records_s": written - scored}],
                    append=True)

        if cfg.convergence_mode == "gold" and mean_gold is not None:
            if prev_metric is not None and mean_gold - prev_metric < cfg.convergence_epsilon:
                break
            prev_metric = mean_gold
        elif cfg.convergence_mode == "changes":
            if stats.change_fraction < cfg.convergence_epsilon:
                break
    return corpus, model, reports


# ---------------------------------------------------------------------------
# interactive review


def render_overlay_ascii(overlay: np.ndarray) -> str:
    """ASCII front view: x across, z up (superior row first)."""
    nx, nz = overlay.shape
    rows = []
    for z in range(nz - 1, -1, -1):
        rows.append("".join("#" if overlay[x, z] else "." for x in range(nx)))
    return "\n".join(rows)


def require_terminal() -> None:
    if not sys.stdin.isatty():
        raise ConfigError("interactive review needs a terminal; "
                          "use the simulated expert oracle in batch runs")


def prompt_choice(header: str, overlays: Sequence[np.ndarray],
                  input_fn: Optional[Callable[[str], str]] = None,
                  print_fn: Callable[[str], None] = print) -> Optional[int]:
    """Show the candidates' overlays and prompt 1/2/skip; returns the chosen
    candidate index, or None when skipped or at the end of input."""
    ask = input_fn if input_fn is not None else input  # late: tests patch builtins
    # input() from a pipe echoes no newline, so the prompt line is ended here
    end_prompt = input_fn is None and not sys.stdin.isatty()
    print_fn(header)
    for i, overlay in enumerate(overlays):
        print_fn(f"--- candidate {i + 1} ---")
        print_fn(render_overlay_ascii(overlay))
    while True:
        try:
            answer = ask("choose 1/2/skip> ").strip().lower()
        except EOFError:  # end of input skips
            answer = "skip"
        if end_prompt:
            print()
        if answer in ("1", "2"):
            return int(answer) - 1
        if answer in ("s", "skip", ""):
            return None
        print_fn("please answer 1, 2 or skip")


def interactive_review(entries: Sequence[EscalationEntry],
                       input_fn: Optional[Callable[[str], str]] = None,
                       print_fn: Callable[[str], None] = print,
                       require_tty: bool = False) -> None:
    """Prompt 1/2/skip for each escalated entry and record the answer on it
    with source "interactive"; a skipped entry keeps ``chosen`` None. An
    empty queue (refine escalated nothing) needs no answers and no terminal."""
    if not entries:
        return
    if require_tty:
        require_terminal()
    for entry in entries:
        entry.chosen = prompt_choice(
            f"case {entry.case_id}  structure {entry.structure}  [{entry.reason.value}]",
            entry.overlays, input_fn, print_fn)
        entry.source = "interactive"
