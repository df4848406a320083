"""Checks of the benchmark itself; prints one PASS/FAIL line per check.

    python3 perfbench/selfcheck.py

- the tracer's self-time arithmetic, on synthetic spans;
- a wrong reference digest makes every run count as failed;
- on every workload a traced run is correct: the layers the workload must
  reach are called, those it must bypass get 0 calls, and every count
  repeats exactly between two traced runs;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result;
- the program still reproduces the repository's pinned outputs: the seed-0
  default run (tests/fixtures/default_run_seed0.json) and the seed-777 ROC
  curve (tests/fixtures/roc_curve.csv, byte for byte). Both are read, never
  written.

Takes about three minutes on two cores. Not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import run
import tracer
from tracer import Span
from workloads import ROOT, WORKLOADS, child_env, cli_argv

WORK = ROOT / ".perfbench_work" / "selfcheck"
FIXTURES = ROOT / "tests" / "fixtures"


def run_bench(*argv: str) -> dict:
    """run.main in-process; returns its result line."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(list(argv))
    assert rc == 0, f"run.py exited {rc}"
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def check_self_time_arithmetic():
    spans = [
        Span(1, "loop.expectation_pass", 0.0, 10.0, 0, 1),
        Span(2, "verifier.audit_case", 1.0, 3.0, 1, 1),
        Span(3, "verifier.audit_case", 2.0, 5.0, 1, 2),   # overlaps span 2 (other thread)
        Span(4, "expert.run_tournament", 8.0, 12.0, 1, 1),  # ends after its parent
        Span(5, "metrics.dsc", 3.5, 4.5, 3, 2),
    ]
    selfs = tracer.self_times(spans)
    # the parent's children cover [1, 5] and [8, 10]: 6 of its 10 s
    assert selfs == {1: 4.0, 2: 2.0, 3: 2.0, 4: 4.0, 5: 1.0}, selfs
    stats = tracer.layer_stats(spans)
    assert stats["verifier.audit_case"]["calls"] == 2
    assert stats["verifier.audit_case"]["self_s"] == 4.0
    assert stats["verifier.audit_case"]["p50_ms"] == 2500.0
    assert stats["metrics.nsd"] == {"calls": 0, "self_s": 0, "p50_ms": 0.0, "p90_ms": 0,
                                    "edt_voxels": 0}


def check_wrong_reference_fails():
    name = "evaluate_nsd"
    original = run.load_references
    run.load_references = lambda: {name: {str(s): "0" * 64 for s in range(3)}}
    try:
        result = run_bench("--workload", name, "--seed", "0", "--seconds", "1")
    finally:
        run.load_references = original
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"], result
    assert result["correct"] is False


def check_traced_workloads():
    for name in WORKLOADS:
        result = run_bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert result["correct"] and result["failed"] == 0, (name, result["failed"])


def check_bare_directory_fails():
    bare = WORK / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "em_loop",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def cli(*args: str) -> None:
    subprocess.run(cli_argv(list(args)), cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=170)


def check_default_run_pin():
    corpus, out = WORK / "pin_corpus", WORK / "pin_run"
    cli("generate", "--seed", "0", "--out", str(corpus))
    cli("run-loop", "--threads", "1", "--corpus", str(corpus), "--seed", "0", "--out", str(out))
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("iteration_*.json"))]
    pin = json.loads((FIXTURES / "default_run_seed0.json").read_text())
    assert [r["counts"]["auto_replace"] for r in reports] == pin["auto_replace_per_iteration"]
    assert [r["mean_dsc_vs_gold"] for r in reports] == pin["mean_dsc_per_iteration"]
    assert [r["escalation_fraction"] for r in reports] == pin["escalation_fractions"]


def check_roc_curve_pin():
    config = str(FIXTURES / "roc_fixture_config.yaml")
    corpus, out = WORK / "roc_corpus", WORK / "roc_out"
    cli("generate", "--config", config, "--out", str(corpus))
    cli("roc", "--config", config, "--corpus", str(corpus), "--out", str(out))
    assert (out / "roc_curve.csv").read_bytes() == (FIXTURES / "roc_curve.csv").read_bytes()


CHECKS = (check_self_time_arithmetic, check_wrong_reference_fails, check_traced_workloads,
          check_bare_directory_fails, check_default_run_pin, check_roc_curve_pin)


def main() -> int:
    failed = 0
    for check in CHECKS:
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                check()
            print(f"PASS {check.__name__}", flush=True)
        except Exception:  # report every check, then fail overall
            failed += 1
            print(f"FAIL {check.__name__}\n{traceback.format_exc()}{err.getvalue()}",
                  flush=True)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
