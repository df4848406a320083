"""Command-line surface tying the modules together.

Subcommands: generate, audit, refine, roc, run-loop, evaluate, review.
Exit codes: 0 success, 2 configuration problem, 3 I/O or file-format
problem, 4 violated invariant. All randomness flows from --seed (or the
config's seed); no wall-clock entropy is used, so identical invocations
produce byte-identical outputs. --out and --threads take precedence;
EMCURATE_OUT and EMCURATE_THREADS are the fallbacks when they are absent.
A non-empty --out is emptied with --force and refused without it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Sequence


from . import volume_io
from .config import RunConfig, load_run_config
from .errors import (
    CatalogError,
    ConfigError,
    ModelError,
    ProtocolError,
    ShapeError,
    UndefinedRateError,
    VolumeFormatError,
)
from .grid import CaseRecord, nonzero_box
from .loop import expectation_pass, interactive_review, load_queue, run_em, save_queue
from .metrics import (
    build_roc,
    corpus_summary,
    default_threshold_grid,
    evaluate_pair,
)
from .phantom import PhantomSource, generate_corpus
from .roc import annotation_savings, process_case, select_threshold
from .verifier import apply_update_rule, audit_case, fit_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

_IO_ERRORS = (VolumeFormatError, OSError)
_INVARIANT_ERRORS = (ShapeError, CatalogError, UndefinedRateError, ModelError, ProtocolError)


def _resolve_threads(args) -> int:
    source, value = "--threads", args.threads
    if value is None:
        source, value = "EMCURATE_THREADS", os.environ.get("EMCURATE_THREADS")
        if not value:
            return os.cpu_count() or 1
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    return threads


def _load_config(args) -> RunConfig:
    cfg = load_run_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        try:
            cfg = cfg.with_seed(int(args.seed))
        except ConfigError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return cfg


def _read_config_corpus(cfg: RunConfig, corpus_dir: str) -> list[CaseRecord]:
    """The corpus at corpus_dir, whose catalog and lattice must be the
    config's: the commands that call this write their corpora under
    cfg.catalog, and run-loop mixes in phantoms drawn on cfg.phantom's
    lattice."""
    cases, catalog = volume_io.read_corpus(corpus_dir)
    if catalog != cfg.catalog:
        raise ConfigError(f"corpus {corpus_dir} has catalog {catalog.catalog_id}, "
                          f"the config has {cfg.catalog.catalog_id}")
    volume = cases[0].volume
    if (volume.dims, volume.spacing) != volume_io.stored_lattice(cfg.phantom.dims,
                                                                 cfg.phantom.spacing):
        raise ConfigError(f"corpus {corpus_dir} has lattice {volume.dims} x {volume.spacing}, "
                          f"the config's phantom has {cfg.phantom.dims} x {cfg.phantom.spacing}")
    return cases


def _prepare_out_dir(args) -> Path:
    """The output directory (--out, else EMCURATE_OUT), created and empty.
    A non-empty one is emptied with --force and refused without it; one
    that is or holds --corpus is refused either way. Commands call this
    after their input checks, so a failed check leaves it untouched."""
    out = args.out or os.environ.get("EMCURATE_OUT")
    if not out:
        raise ConfigError("no output directory given (use --out or EMCURATE_OUT)")
    out_dir = Path(out)
    if getattr(args, "corpus", None):
        corpus = Path(args.corpus).resolve()
        if out_dir.resolve() in (corpus, *corpus.parents):
            raise ConfigError(f"output directory {out_dir} holds the input corpus {args.corpus}")
    if out_dir.exists() and any(out_dir.iterdir()):
        if not args.force:
            raise ConfigError(f"output directory {out_dir} is not empty (use --force)")
        for p in sorted(out_dir.rglob("*"), reverse=True):  # rglob follows no symlink
            if p.is_dir() and not p.is_symlink():
                p.rmdir()
            else:
                p.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    out_dir = _prepare_out_dir(args)
    cases, logs = generate_corpus(cfg.phantom, cfg.noise, cfg.corpus.n_cases,
                                  cfg.corpus.gold_fraction, cfg.em.seed)
    manifest = volume_io.write_corpus(out_dir, cases, cfg.catalog)
    volume_io.write_jsonl(out_dir / "injections.jsonl",
                          [{"case_id": case_id, "ops": [asdict(op) for op in logs[case_id]]}
                           for case_id in manifest["case_ids"]])
    print(f"wrote {len(cases)} cases to {out_dir}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_config(args)
    cases = _read_config_corpus(cfg, args.corpus)
    out_dir = _prepare_out_dir(args)
    model = fit_model(cases, new_model=cfg.build_model)
    model.save(out_dir / "model.json")
    rows = []
    changes = []
    updated = []
    for case in cases:
        outcome = audit_case(model, case, cfg.em.auto_replace_dsc, cfg.em.route_dsc)
        rows.append({
            "case_id": case.case_id,
            "structures": {str(s): {"dsc": a.dsc, "action": a.action.value}
                           for s, a in outcome.per_structure.items()},
        })
        if args.apply:
            case, log = apply_update_rule(case, outcome)
            changes.extend(log)
        updated.append(case)
    volume_io.write_json(out_dir / "audit.json", {"cases": rows})
    if args.apply:
        volume_io.write_corpus(out_dir / "refined", updated, cfg.catalog)
        volume_io.write_jsonl(out_dir / "changes.jsonl", [asdict(e) for e in changes])
    print(f"audited {len(cases)} cases -> {out_dir / 'audit.json'}")
    return EXIT_OK


def cmd_refine(args) -> int:
    """One full expectation pass (audit, auto-replace, judge, escalate)."""
    cfg = _load_config(args)
    threads = _resolve_threads(args)
    with closing(cfg.build_judge()) as judge:
        oracle = cfg.build_oracle()
        cases = _read_config_corpus(cfg, args.corpus)
        out_dir = _prepare_out_dir(args)
        model = fit_model(cases, new_model=cfg.build_model)
        updated, entries, stats = expectation_pass(cases, model, judge, oracle, cfg.em,
                                                   threads=threads)
    volume_io.write_corpus(out_dir / "refined", updated, cfg.catalog)
    save_queue(out_dir / "queue.json", entries)
    volume_io.write_jsonl(out_dir / "changes.jsonl", [asdict(e) for e in stats.all_changes])
    volume_io.write_json(out_dir / "refine_stats.json", {
        **stats.counts,
        "escalation_fraction": stats.escalation_fraction,
        "change_fraction": stats.change_fraction,
    })
    print(f"refined corpus -> {out_dir / 'refined'}")
    return EXIT_OK


def cmd_roc(args) -> int:
    cfg = _load_config(args)
    if args.target is not None:
        try:
            cfg = replace(cfg, metrics=replace(cfg.metrics, roc_target_sensitivity=args.target))
        except ConfigError as exc:
            raise ConfigError(f"--target: {exc}") from None
    cases, catalog = volume_io.read_corpus(args.corpus)
    tumor_labels = catalog.tumor_labels
    if not tumor_labels:
        raise ConfigError("ROC workflow requires a tumor structure in the catalog")
    tumor = tumor_labels[0]
    for case in cases:
        if case.gold is None:
            raise ConfigError(f"case {case.case_id} lacks gold labels; "
                              "the ROC workflow is a simulation against gold")
    out_dir = _prepare_out_dir(args)
    model = fit_model(cases, new_model=cfg.build_model)
    # Each case keeps only its support crop, nonzero_box((prob > 0) | ref):
    # build_roc crops to that box itself, and process_case counts components,
    # which the crop holds whole, so no curve point or count changes.
    probs, refs = [], []
    for case in cases:
        prob = model.predict_prob(case.volume, tumor)
        ref = case.gold.labels == tumor
        box = nonzero_box((prob > 0) | ref)
        probs.append(prob[box].copy())
        refs.append(ref[box].copy())
    curve = build_roc(probs, refs, default_threshold_grid(cfg.metrics.roc_points),
                      connectivity=model.tumor_connectivity,
                      fp_min_voxels=cfg.metrics.fp_min_voxels)
    with (out_dir / "roc_curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "sensitivity", "fp_per_scan", "specificity"])
        for p in curve.points:
            writer.writerow([f"{p.threshold:.6f}", f"{p.sensitivity:.9f}",
                             f"{p.fp_per_scan:.9f}", f"{p.specificity:.9f}"])
    policy = select_threshold(curve, cfg.metrics.roc_target_sensitivity)
    volume_io.write_json(out_dir / "policy.json", asdict(policy))
    counts = [process_case(case, prob > policy.selected_threshold, gold, cfg.cost,
                           connectivity=model.tumor_connectivity)
              for case, prob, gold in zip(cases, probs, refs)]
    savings = annotation_savings(counts, cfg.cost)
    volume_io.write_json(out_dir / "savings.json", asdict(savings))
    print(f"threshold {policy.selected_threshold:.3f} "
          f"(sensitivity {policy.achieved_sensitivity:.3f}, "
          f"{policy.fp_per_scan:.2f} FP/scan) -> {out_dir}")
    return EXIT_OK


def cmd_run_loop(args) -> int:
    cfg = _load_config(args)
    threads = _resolve_threads(args)
    # a bad judge, oracle or corpus fails before --out is emptied, keeping the last run
    with closing(cfg.build_judge()) as judge:
        oracle = cfg.build_oracle()
        if args.corpus:
            cases = _read_config_corpus(cfg, args.corpus)
        out_dir = _prepare_out_dir(args)
        if not args.corpus:
            cases, _logs = generate_corpus(cfg.phantom, cfg.noise, cfg.corpus.n_cases,
                                           cfg.corpus.gold_fraction, cfg.em.seed)
        volume_io.write_json(out_dir / "config_snapshot.json", cfg.raw)
        source = PhantomSource(cfg.phantom, intensity_jitter=cfg.synthetic.intensity_jitter)
        corpus, model, reports = run_em(
            cases, cfg.em, judge, oracle, phantom_source=source, out_dir=out_dir,
            timing=args.timing, threads=threads, new_model=cfg.build_model)
    volume_io.write_corpus(out_dir / "final_corpus", corpus, cfg.catalog)
    volume_io.write_json(out_dir / "summary.json", {
        "iterations": len(reports),
        "mean_dsc_vs_gold": reports[-1].mean_dsc_vs_gold if reports else None,
        "escalation_fractions": [r.escalation_fraction for r in reports],
    })
    last = f", final mean DSC vs gold {reports[-1].mean_dsc_vs_gold:.4f}" \
        if reports and reports[-1].mean_dsc_vs_gold is not None else ""
    print(f"ran {len(reports)} iterations{last} -> {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    cases, catalog = volume_io.read_corpus(args.corpus)
    for case in cases:
        if case.gold is None:
            raise ConfigError(f"case {case.case_id} lacks gold labels")
    out_dir = _prepare_out_dir(args)
    tolerance = None if args.no_nsd else cfg.metrics.nsd_tolerance_mm
    reports = {case.case_id: evaluate_pair(case.pseudo, case.gold, tolerance)
               for case in cases}
    payload = {
        "cases": {cid: {str(s): asdict(sc) for s, sc in rep.per_structure.items()}
                  for cid, rep in reports.items()},
        "aggregate": corpus_summary(reports, catalog),
    }
    volume_io.write_json(out_dir / "evaluation.json", payload)
    print(f"mean DSC {payload['aggregate']['mean_dsc']:.4f} -> {out_dir / 'evaluation.json'}")
    return EXIT_OK


def cmd_review(args) -> int:
    entries = load_queue(args.queue)
    interactive_review(entries, require_tty=not args.allow_pipe)
    volume_io.write_jsonl(args.decisions, [e.decision() for e in entries])
    print(f"recorded {len(entries)} decisions -> {args.decisions}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emcurate",
                                     description="EM-style annotation refinement on phantoms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--config", help="run config YAML (defaults to packaged config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads, >= 1 (or EMCURATE_THREADS; default: all cores)")
        p.add_argument("--out", help="output directory (or EMCURATE_OUT)")
        p.add_argument("--force", action="store_true", help="empty a non-empty output directory")

    p = sub.add_parser("generate", help="generate a phantom corpus")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit", help="model-consistency audit of a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--apply", action="store_true",
                   help="apply zero-overlap replacements and write the refined corpus")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("refine", help="one expectation pass incl. judge and escalation")
    common(p, threads=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("roc", help="ROC threshold selection + FP cleanup simulation")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", type=float, default=None, help="sensitivity target")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("run-loop", help="full EM loop")
    common(p, threads=True)
    p.add_argument("--corpus", help="existing corpus dir (default: generate per config)")
    p.add_argument("--timing", action="store_true",
                   help="append each iteration's wall-clock seconds and its expectation, "
                        "maximization, gold-metric and record-write seconds to timing.jsonl "
                        "(every other file stays byte-identical)")
    p.set_defaults(func=cmd_run_loop)

    p = sub.add_parser("evaluate", help="pseudo-vs-gold corpus metrics")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--no-nsd", action="store_true", help="skip surface-distance scores")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("review", help="interactive review of an escalation queue")
    p.add_argument("--queue", required=True)
    p.add_argument("--decisions", required=True, help="output decisions file (JSON lines)")
    p.add_argument("--allow-pipe", action="store_true",
                   help="accept scripted input instead of a terminal")
    p.set_defaults(func=cmd_review)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INVARIANT_ERRORS as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
