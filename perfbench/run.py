"""emcurate benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload em_loop --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is run
from the checkout's ``src/`` with the interpreter that runs this script.

``--trace 0`` generates ``CORPORA`` corpora from the seed (the set-up, timed
as ``setup_s``, the median of the generations), then runs the workload's CLI
command in a fresh child process, round robin over the corpora, until
``--seconds`` have passed. Each metric is the mean over the corpora of the
median over that corpus's runs. Every time (set-up included) is scaled to
the reference host speed by a kernel timed around the command
(``hostspeed.py``); the unscaled wall time is printed beside the result.
Closed loop, one client: the next command starts when the last one has
exited.

``--trace 1`` runs the command in-process under ``tracer.py`` twice on the
first corpus and reports the per-layer metrics of the first traced run,
after checking that the layers the workload must (not) reach were (not)
called and that every count repeats exactly between the two runs.

Every run's outputs are digested and compared with ``references.json``
(per corpus seed); for a seed with no reference, every run of the same
corpus must give the same digest. The last line of standard output is the
result as JSON; the exit code is 0 unless the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import tracer
from workloads import (LOOP_COUNTS, ROOT, WORKLOADS, Sample, Workload, check_checkout,
                       cli_argv, corpus_seeds, load_references, spawn, write_config)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_BUDGET_S = 170.0     # a run must end within 180 s
TRACED_RUNS = 2
UNTRACED_REFERENCE_RUNS = 3
# per-layer statistics that are counts, so they must repeat exactly
REPEATABLE = ("calls", "compares", "voxels", "edt_voxels", "thresholds", "bytes")


class RunError(Exception):
    """The benchmark cannot produce a result (set-up failed, budget gone)."""


class Run:
    """State of one benchmark run: its work directory, deadline and checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.config = work / "config.yaml"
        self.refs = load_references().get(workload.name, {})
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failures: set[str] = set()   # tags of commands that failed a check
        self.unreferenced: set[int] = set()
        self.raw: dict[str, float] = {}   # unscaled figures, for the printed table

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str], tag: str) -> Sample:
        if self.remaining() <= 1.0:
            raise RunError("run budget exhausted")
        return spawn(argv, self.work / f"{tag}.stderr", self.remaining())

    def setup(self, index: int) -> Sample:
        """Generate corpus ``index``."""
        sample = self.spawn(cli_argv(["generate", "--config", str(self.config), "--seed",
                                      str(corpus_seeds(self.seed)[index]),
                                      "--out", str(self.work / f"corpus_{index}")]),
                            f"generate_{index}")
        if sample.returncode != 0:
            raise RunError(f"generate exited {sample.returncode}: {sample.stderr}")
        return sample

    def command(self, index: int, out: Path) -> list[str]:
        return self.workload.command(str(self.config), str(self.work / f"corpus_{index}"),
                                     str(out), corpus_seeds(self.seed)[index])

    def check(self, tag: str, index: int, out: Path, returncode: int) -> dict:
        """Count one attempted command; returns its counts when its output is right."""
        self.attempted += 1
        sub_seed = corpus_seeds(self.seed)[index]
        try:
            if returncode != 0:
                stderr = (self.work / f"{tag}.stderr").read_text()[-2000:]
                raise ValueError(f"exit code {returncode}: {stderr}")
            digest, counts = self.workload.digest(out)
            expected = self.refs.get(str(sub_seed)) or self.seen.setdefault(sub_seed, digest)
            if str(sub_seed) not in self.refs:
                self.unreferenced.add(sub_seed)
            if digest != expected:
                raise ValueError(f"digest {digest[:12]} != expected {expected[:12]}")
        except (OSError, ValueError, KeyError) as exc:
            self.fail(tag, f"corpus seed {sub_seed}: {exc}")
            return {}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return counts

    def fail(self, tag: str, message: str) -> None:
        self.failures.add(tag)
        print(f"FAILED {self.workload.name} {tag}: {message}", file=sys.stderr)


def measure_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Median set-up and per-corpus medians of the timed command, each time
    scaled to the reference host speed (``hostspeed``)."""
    n = len(corpus_seeds(run.seed))
    calibrator = hostspeed.Calibrator()
    setups = []
    for i in range(n):
        sample, scale = calibrator.around(lambda: run.setup(i))
        setups.append(sample.wall_s * scale)
    samples: list[list[tuple[Sample, float]]] = [[] for _ in range(n)]
    started = time.monotonic()
    done = 0
    # round robin over the corpora, each at least once; every corpus weighs
    # the same in the result however many runs it got
    while done < n or time.monotonic() - started < seconds:
        longest = max((s.wall_s for group in samples for s, _ in group), default=0.0)
        if done >= n and run.remaining() < 2 * longest:
            break
        index, tag = done % n, f"run_{done}"
        out = run.work / f"out_{done}"
        sample, scale = calibrator.around(
            lambda: run.spawn(cli_argv(run.command(index, out)), tag))
        samples[index].append((sample, scale))
        run.check(tag, index, out, sample.returncode)
        done += 1

    def per_corpus(value) -> float:
        """Mean over the corpora of the median over each corpus's runs."""
        return statistics.fmean(statistics.median(value(s, k) for s, k in group)
                                for group in samples if group)

    wall = per_corpus(lambda s, k: s.wall_s * k)
    run.raw = {"wall_s": per_corpus(lambda s, k: s.wall_s),
               "host_scale": statistics.median(k for group in samples for _, k in group)}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cases_per_s": run.workload.cases / wall,
        "cpu_s": per_corpus(lambda s, k: s.cpu_s * k),
        "peak_rss_mb": per_corpus(lambda s, k: s.peak_rss_mb),
    }


def traced(run: Run, args: list[str], tag: str) -> tuple[Sample, dict, list[tracer.Span]]:
    spans_path = run.work / f"{tag}.spans.json"
    argv = [sys.executable, str(Path(tracer.__file__)), "--spans", str(spans_path), "--", *args]
    sample = run.spawn(argv, tag)
    if sample.returncode != 0 or not spans_path.exists():
        return sample, {}, []
    payload, spans = tracer.load_spans(spans_path)
    return sample, payload, spans


def layer_values(stats: dict, counts: dict) -> dict[str, float]:
    """Flatten per-layer stats into ``<layer>.<stat>`` metric values."""
    values = {name: 0 for name in LOOP_COUNTS}
    values.update(counts)
    for layer, st in stats.items():
        for stat, value in st.items():
            values[f"{layer}.{stat}"] = value
    values["expert.judge.compares"] = stats["expert.judge"]["calls"]
    return values


def measure_layers(run: Run) -> dict[str, float]:
    gen_args = ["generate", "--config", str(run.config), "--seed",
                str(corpus_seeds(run.seed)[0]), "--out", str(run.work / "corpus_0")]
    sample, _payload, spans = traced(run, gen_args, "trace_generate")
    if sample.returncode != 0:
        raise RunError(f"traced generate exited {sample.returncode}: {sample.stderr}")
    setup_stats = tracer.layer_stats(spans)

    untraced = []
    for i in range(UNTRACED_REFERENCE_RUNS):
        out = run.work / f"out_{i}"
        s = run.spawn(cli_argv(run.command(0, out)), f"run_{i}")
        untraced.append(s.wall_s)
        run.check(f"run_{i}", 0, out, s.returncode)

    runs = []
    for i in range(TRACED_RUNS):
        out = run.work / f"trace_out_{i}"
        sample, payload, spans = traced(run, run.command(0, out), f"trace_{i}")
        counts = run.check(f"trace_{i}", 0, out, sample.returncode)
        if not spans:
            raise RunError(f"traced run exited {sample.returncode}: {sample.stderr}")
        stats = tracer.layer_stats(spans)
        runs.append((sample, payload, stats, layer_values(stats, counts)))

    first_sample, first_payload, first_stats, values = runs[0]
    for name in run.workload.hit:
        if first_stats[name]["calls"] == 0:
            run.fail("trace_0", f"{name} was never called")
    for name in run.workload.absent:
        if first_stats[name]["calls"] != 0:
            run.fail("trace_0", f"{name} was called {first_stats[name]['calls']:.0f} times")
    for i, (_s, _p, _st, other) in enumerate(runs[1:], start=1):
        for key, value in values.items():
            repeatable = key in LOOP_COUNTS or key.rsplit(".", 1)[-1] in REPEATABLE
            if repeatable and other.get(key) != value:
                run.fail(f"trace_{i}", f"{key} did not repeat: {value} then {other.get(key)}")

    values["phantom.generate_corpus.calls"] = setup_stats["phantom.generate_corpus"]["calls"]
    values["phantom.generate_corpus.self_s"] = setup_stats["phantom.generate_corpus"]["self_s"]
    values["cli.import_s"] = first_payload["import_s"]
    values["trace.overhead_s"] = first_sample.wall_s - statistics.median(untraced)
    return values


def machine_block() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                        cwd=ROOT, text=True, capture_output=True,
                                        check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy", "PyYAML"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_dirty": dirty,
        "threads": {"run-loop --threads": 1,
                    **{k: os.environ.get(k) for k in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emcurate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so children are killed and work files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    problem = check_checkout()
    if problem or not BENCHMARK_JSON.is_file():
        print(f"cannot run: {problem or 'BENCHMARK.json not found'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, work)
        write_config(workload, run.config)
        # Compile the package's bytecode before anything is timed.
        warm = run.spawn(cli_argv(["--help"]), "warmup")
        if warm.returncode != 0:
            raise RunError(f"emcurate does not start: {warm.stderr}")
        values = measure_layers(run) if args.trace else measure_end_to_end(run, args.seconds)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    if run.unreferenced:
        print(f"note: no reference digest for corpus seeds {sorted(run.unreferenced)}; "
              "checked that repeated runs agree", file=sys.stderr)
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print(f"{workload.name} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    for m in wanted:
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    if run.raw:
        print(f"  times above are scaled to the reference host speed; unscaled wall_s "
              f"{run.raw['wall_s']:.6g} s, median scale {run.raw['host_scale']:.4f}")
    failed = len(run.failures)
    print(f"  {'failed_frac':<40} {failed / run.attempted:>14.6g} "
          f"({failed}/{run.attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
