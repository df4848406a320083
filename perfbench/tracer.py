"""In-process tracing of emcurate's public functions, from outside ``src/``.

Run as a script, it imports ``emcurate.cli``, swaps every traced function
for a timing wrapper at each module that bound it, calls
``emcurate.cli.main`` with the given arguments and writes the spans as JSON
when the command returns::

    python3 perfbench/tracer.py --spans spans.json -- run-loop --corpus c --out r

Spans stay in memory until then. The parent process turns them into
per-layer metrics with ``layer_stats``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int          # 0 for a root span
    thread: int
    work: float = 0.0    # computed from argument shapes; meaning depends on the layer


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _grid_voxels(args, kwargs, result) -> float:
    return float(getattr(args[0], "size", 0))


def _fit_voxels(args, kwargs, result) -> float:
    corpus = args[1] if len(args) > 1 else kwargs["corpus"]
    return float(sum(c.volume.data.size for c in corpus))


def _nsd_edt_voxels(args, kwargs, result) -> float:
    # nsd runs one full-grid distance transform per surface, and only when
    # both masks (hence both surfaces) are nonempty
    a, b = args[0], args[1]
    return 2.0 * a.size if a.any() and b.any() else 0.0


def _roc_thresholds(args, kwargs, result) -> float:
    return float(len(args[2] if len(args) > 2 else kwargs["thresholds"]))


def _path_bytes(args, kwargs, result) -> float:
    return float(_dir_bytes(args[0]))


# (layer name, module, attribute path, work metric, work measure). The
# work metric is reported as ``<layer>.<work metric>``, computed from the
# arguments (and, for writes, the files written), not measured.
TARGETS: tuple[tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("grid.connected_components", "emcurate.grid", "connected_components",
     "voxels", _grid_voxels),
    ("grid.largest_component", "emcurate.grid", "largest_component", None, None),
    ("metrics.dsc", "emcurate.metrics", "dsc", None, None),
    ("metrics.nsd", "emcurate.metrics", "nsd", "edt_voxels", _nsd_edt_voxels),
    ("metrics.evaluate_pair", "emcurate.metrics", "evaluate_pair", None, None),
    ("metrics.tumor_wise_detection", "emcurate.metrics", "tumor_wise_detection", None, None),
    ("metrics.build_roc", "emcurate.metrics", "build_roc", "thresholds", _roc_thresholds),
    ("verifier.fit", "emcurate.verifier", "GaussianIntensityModel.fit", "voxels", _fit_voxels),
    ("verifier.predict", "emcurate.verifier", "GaussianIntensityModel.predict", None, None),
    ("verifier.predict_prob", "emcurate.verifier", "GaussianIntensityModel.predict_prob",
     None, None),
    ("verifier.audit_case", "emcurate.verifier", "audit_case", None, None),
    ("verifier.apply_update_rule", "emcurate.verifier", "apply_update_rule", None, None),
    ("expert.shape_cleanup", "emcurate.expert", "shape_cleanup", None, None),
    ("expert.run_tournament", "emcurate.expert", "run_tournament", None, None),
    ("expert.judge", "emcurate.expert", "RuleBasedJudge.compare", None, None),
    ("loop.expectation_pass", "emcurate.loop", "expectation_pass", None, None),
    ("loop.maximization_pass", "emcurate.loop", "maximization_pass", None, None),
    ("phantom.PhantomSource.sample", "emcurate.phantom", "PhantomSource.sample", None, None),
    ("phantom.generate_corpus", "emcurate.phantom", "generate_corpus", None, None),
    ("volume_io.read_corpus", "emcurate.volume_io", "read_corpus", "bytes", _path_bytes),
    ("volume_io.write_corpus", "emcurate.volume_io", "write_corpus", "bytes", _path_bytes),
)


class Tracer:
    """Collects spans from wrapped functions; one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            amount = work(args, kwargs, result) if work else 0.0
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), amount))
            return result
        return traced

    def install(self) -> None:
        """Swap each target for its wrapper in every emcurate module that bound it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "emcurate" or n.startswith("emcurate.")]
        for name, module_name, attr, _work_name, work in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapped = self.wrap(name, original, work)
            setattr(owner, fn_name, wrapped)
            if cls_path:
                continue  # methods are looked up on the class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced layer: calls, self_s, p50_ms and p90_ms of the span
    durations, and its work metric if it has one."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {name: [] for name, *_ in TARGETS}
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name, _module, _attr, work_name, _work in TARGETS:
        group = by_name[name]
        durs = sorted((s.end - s.start) * 1e3 for s in group)
        st = {
            "calls": len(group),
            "self_s": sum(selfs[s.id] for s in group),
            "p50_ms": statistics.median(durs) if durs else 0.0,
            "p90_ms": statistics.quantiles(durs, n=10)[8] if len(durs) > 1 else sum(durs),
        }
        if work_name:
            st[work_name] = sum(s.work for s in group)
        out[name] = st
    return out


def load_spans(path: Path) -> tuple[dict, list[Span]]:
    payload = json.loads(path.read_text())
    return payload, [Span(**s) for s in payload.pop("spans")]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for emcurate.cli.main, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    started = time.perf_counter()
    cli = importlib.import_module("emcurate.cli")
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_args)
    Path(args.spans).write_text(json.dumps({
        "import_s": import_s, "returncode": rc,
        "spans": [asdict(s) for s in tracer.spans]}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
