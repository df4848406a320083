"""Workload definitions, child-process timing and output digests.

Each workload is one emcurate CLI command run on corpora that the
benchmark generates from its seed. The configs are derived at run time
from the config files in the checkout, so the benchmark always measures
the packaged defaults plus the few overrides listed here.

Corpus ``i`` of a run with seed ``S`` is generated with seed ``3*S + i``
(``CORPORA`` corpora per run). Cycling the timed command over three
corpora averages out the per-corpus differences in work (tumour count,
injected noise), so a run's median moves with the code, not with the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import yaml

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = Path(__file__).resolve().parent / "references.json"
CORPORA = 3

DEFAULT_CONFIG = "src/emcurate/data/default_run.yaml"
ROC_FIXTURE_CONFIG = "tests/fixtures/roc_fixture_config.yaml"


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str                  # relative to the checkout root
    overrides: dict                   # dotted key -> value; sets corpus.n_cases
    command: Callable[[str, str, str, int], list[str]]  # (config, corpus, out, seed) -> argv
    digest: Callable[[Path], tuple[str, dict]]          # out dir -> (sha256, counts)
    # Per-layer predictions checked on every traced run: functions that
    # must be called, and functions that must never be called.
    hit: tuple[str, ...]
    absent: tuple[str, ...]

    @property
    def cases(self) -> int:
        return self.overrides["corpus.n_cases"]


def _em_cmd(cfg, corpus, out, seed):
    return ["run-loop", "--config", cfg, "--threads", "1", "--corpus", corpus,
            "--seed", str(seed), "--out", out]


def _roc_cmd(cfg, corpus, out, seed):
    return ["roc", "--config", cfg, "--corpus", corpus, "--seed", str(seed), "--out", out]


def _eval_cmd(cfg, corpus, out, seed):
    return ["evaluate", "--config", cfg, "--corpus", corpus, "--seed", str(seed), "--out", out]


# ---------------------------------------------------------------------------
# semantic digests: parsed outputs with timing fields dropped

_VOLATILE_KEYS = {"schema_version", "wall_clock_s", "timing"}
_SMAI_HEADER = struct.Struct("<4sHB3I3f")
_SMAI_LABELS = 2


def _semantic(obj):
    if isinstance(obj, dict):
        return {k: _semantic(v) for k, v in obj.items() if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_semantic(v) for v in obj]
    return obj


def _load(path: Path):
    return _semantic(json.loads(path.read_text()))


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def label_payload_digests(corpus_dir: Path) -> dict[str, str]:
    """sha256 of dims + payload for every label volume of a corpus directory."""
    out = {}
    for path in sorted(corpus_dir.glob("*.smai")):
        raw = path.read_bytes()
        if len(raw) < _SMAI_HEADER.size:
            raise ValueError(f"{path.name}: truncated volume")
        magic, _version, dtype, nx, ny, nz, *_spacing = _SMAI_HEADER.unpack_from(raw)
        if magic != b"SMAI":
            raise ValueError(f"{path.name}: not a SMAI volume")
        if dtype == _SMAI_LABELS:
            h = hashlib.sha256(struct.pack("<3I", nx, ny, nz))
            h.update(raw[_SMAI_HEADER.size:])
            out[path.name] = h.hexdigest()
    return out


# counts the EM loop reports per run; 0 on workloads that never run the loop
LOOP_COUNTS = ("loop.iterations", "loop.routed", "loop.escalated", "loop.auto_replace",
               "loop.judge_decided_ratio")


def digest_em_loop(out: Path) -> tuple[str, dict]:
    iterations = [_load(p) for p in sorted(out.glob("iteration_*.json"))]
    per_iter = [{"counts": it["counts"], "mean_dsc_vs_gold": it["mean_dsc_vs_gold"]}
                for it in iterations]
    labels = label_payload_digests(out / "final_corpus")
    if not labels:
        raise ValueError("final corpus holds no label volumes")
    digest = _sha({"labels": labels, "summary": _load(out / "summary.json"),
                   "iterations": per_iter})
    routed = sum(it["counts"]["route"] for it in per_iter)
    decided = sum(it["counts"]["tournament_decided"] for it in per_iter)
    counts = {
        "loop.iterations": len(per_iter),
        "loop.routed": routed,
        "loop.escalated": sum(it["counts"]["escalate"] for it in per_iter),
        "loop.auto_replace": sum(it["counts"]["auto_replace"] for it in per_iter),
        "loop.judge_decided_ratio": decided / routed if routed else 0.0,
    }
    return digest, counts


def digest_roc_sweep(out: Path) -> tuple[str, dict]:
    return _sha({"roc_curve.csv": (out / "roc_curve.csv").read_text(),
                 "policy": _load(out / "policy.json"),
                 "savings": _load(out / "savings.json")}), {}


def digest_evaluate_nsd(out: Path) -> tuple[str, dict]:
    return _sha(_load(out / "evaluation.json")), {}


# ---------------------------------------------------------------------------
# the workloads

_COMMON_ABSENT = ("metrics.build_roc", "metrics.tumor_wise_detection")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="em_loop",
        base_config=DEFAULT_CONFIG,
        # The iteration count is fixed (epsilon -1 never converges early) so
        # every seed does the same number of E/M passes; with convergence on,
        # seeds stop after 2 to 4 iterations and the run time follows that.
        overrides={"corpus.n_cases": 24, "em.max_iterations": 3,
                   "em.convergence_epsilon": -1.0},
        command=_em_cmd,
        digest=digest_em_loop,
        hit=("grid.connected_components", "grid.largest_component", "verifier.predict",
             "verifier.audit_case", "verifier.apply_update_rule", "verifier.fit",
             "metrics.dsc", "expert.shape_cleanup", "expert.run_tournament",
             "expert.judge", "loop.expectation_pass", "loop.maximization_pass",
             "phantom.PhantomSource.sample", "volume_io.read_corpus",
             "volume_io.write_corpus"),
        absent=_COMMON_ABSENT + ("metrics.nsd", "metrics.evaluate_pair",
                                 "verifier.predict_prob", "phantom.generate_corpus"),
    ),
    Workload(
        name="roc_sweep",
        base_config=ROC_FIXTURE_CONFIG,
        # 13 thresholds on 32 cases, not 101 on the fixture's 20: the run
        # time follows the number of predicted components, which follows
        # the corpus's tumour count (0 to 2 per case). With 32 cases a
        # corpus's time varies by about 5% between seeds, against 10% with
        # 16 and a factor of 3 with 4. 32 cases also make a corpus without
        # any tumour (savings ratio undefined, exit 4 by design)
        # practically impossible.
        overrides={"corpus.n_cases": 32, "metrics.roc_points": 13},
        command=_roc_cmd,
        digest=digest_roc_sweep,
        hit=("grid.connected_components", "metrics.build_roc",
             "metrics.tumor_wise_detection", "verifier.predict_prob", "verifier.fit",
             "volume_io.read_corpus"),
        absent=("verifier.predict", "verifier.audit_case", "metrics.nsd",
                "metrics.evaluate_pair", "expert.judge", "expert.run_tournament",
                "expert.shape_cleanup", "loop.expectation_pass", "loop.maximization_pass",
                "phantom.PhantomSource.sample", "volume_io.write_corpus"),
    ),
    Workload(
        name="evaluate_nsd",
        base_config=DEFAULT_CONFIG,
        overrides={"corpus.n_cases": 12},
        command=_eval_cmd,
        digest=digest_evaluate_nsd,
        hit=("metrics.nsd", "metrics.evaluate_pair", "metrics.dsc", "volume_io.read_corpus"),
        absent=_COMMON_ABSENT + ("grid.connected_components", "grid.largest_component",
                                 "verifier.predict", "verifier.predict_prob", "verifier.fit",
                                 "verifier.audit_case", "expert.judge", "expert.run_tournament",
                                 "expert.shape_cleanup", "loop.expectation_pass",
                                 "loop.maximization_pass", "volume_io.write_corpus"),
    ),
)}


def corpus_seeds(seed: int) -> list[int]:
    return [CORPORA * seed + i for i in range(CORPORA)]


def write_config(workload: Workload, path: Path) -> None:
    raw = yaml.safe_load((ROOT / workload.base_config).read_text())
    for key, value in workload.overrides.items():
        *parents, leaf = key.split(".")
        node = raw
        for p in parents:
            node = node[p]
        node[leaf] = value
    path.write_text(yaml.safe_dump(raw, sort_keys=True))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


# ---------------------------------------------------------------------------
# child processes


def check_checkout() -> Optional[str]:
    """None if the checkout holds what the benchmark runs, else the problem."""
    for rel in ("src/emcurate/cli.py", DEFAULT_CONFIG, ROC_FIXTURE_CONFIG):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}"
    return None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("EMCURATE_OUT", "EMCURATE_THREADS")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "emcurate.cli", *args]


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def spawn(argv: list[str], stderr_path: Path, timeout_s: float) -> Sample:
    """Run argv to completion; time it from spawn to exit with its own rusage.

    The child is killed when it outlives timeout_s or when the wait is
    interrupted; it is always reaped.
    """
    with stderr_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 0.1), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                  stderr=stderr_path.read_text()[-2000:])
