"""The benchmark's tracer wraps emcurate functions by attribute path, and each
workload names the layers it must and must not hit. A rename, deletion or
signature change in ``src/`` would break traced runs only when the benchmark
runs, so check the hooks here: every target resolves, every hit/absent name
is a target, every work measure finds the arguments it reads, and a traced
em_loop run calls its hit layers and none of its absent ones."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CAT4, make_case
from emcurate import volume_io
from emcurate.verifier import GaussianIntensityModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    """Import perfbench/<name>.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def targets(monkeypatch):
    return _load("tracer", monkeypatch).TARGETS


def test_every_traced_target_resolves(targets):
    for layer, module_name, attr, _work_name, _work in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {module_name}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {module_name}.{attr} is not callable"


def test_workload_layers_are_targets(targets, monkeypatch):
    layers = {t[0] for t in targets}
    workloads = _load("workloads", monkeypatch).WORKLOADS
    assert workloads
    for name, workload in workloads.items():
        for layer in workload.hit + workload.absent:
            assert layer in layers, f"workload {name} names {layer}, which is not traced"


def _mask() -> np.ndarray:
    m = np.zeros((4, 4, 4), bool)
    m[1:3, 1:3, 1:3] = True
    return m


def _tiny_case():
    labels = _mask().astype(np.uint16)
    return make_case(np.arange(64, dtype=np.float32).reshape(4, 4, 4), labels, CAT4,
                     gold_labels=labels)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# Each call runs a traced function as emcurate calls it, on a tiny input,
# and returns the work that call must record.

def _call_connected_components(traced, tmp_path):
    traced(_mask(), 6)
    return 64


def _call_nsd(traced, tmp_path):
    traced(_mask(), np.roll(_mask(), 1, axis=0), 1.0, (1.0, 1.0, 1.0))
    return 2 * 64


def _call_build_roc(traced, tmp_path):
    traced([0.7 * _mask()], [_mask()], [1.0, 0.5, 0.0])
    return 3


def _call_fit(traced, tmp_path):
    traced(GaussianIntensityModel(CAT4), [_tiny_case(), _tiny_case()])
    return 2 * 64


def _call_write_corpus(traced, tmp_path):
    traced(tmp_path / "corpus", [_tiny_case()], CAT4)
    return _dir_bytes(tmp_path / "corpus")


def _call_read_corpus(traced, tmp_path):
    volume_io.write_corpus(tmp_path / "corpus", [_tiny_case()], CAT4)
    traced(tmp_path / "corpus")
    return _dir_bytes(tmp_path / "corpus")


WORK_CALLS = {
    "grid.connected_components": _call_connected_components,
    "metrics.nsd": _call_nsd,
    "metrics.build_roc": _call_build_roc,
    "verifier.fit": _call_fit,
    "volume_io.write_corpus": _call_write_corpus,
    "volume_io.read_corpus": _call_read_corpus,
}


def test_every_work_measure_has_a_call(targets):
    assert {t[0] for t in targets if t[4]} == set(WORK_CALLS)


@pytest.mark.parametrize("layer", sorted(WORK_CALLS))
def test_work_measure_reads_the_traced_arguments(layer, monkeypatch, tmp_path):
    tracer = _load("tracer", monkeypatch)
    (_, module_name, attr, _work_name, work), = (t for t in tracer.TARGETS if t[0] == layer)
    fn = importlib.import_module(module_name)
    for part in attr.split("."):
        fn = getattr(fn, part)
    recorder = tracer.Tracer()
    expected = WORK_CALLS[layer](recorder.wrap(layer, fn, work), tmp_path)
    assert expected > 0
    assert [s.work for s in recorder.spans] == [expected]


def _install_undoably(tracer, recorder, monkeypatch) -> None:
    """recorder.install(), with every binding it replaces restored at teardown."""
    modules = [m for n, m in sys.modules.items() if n == "emcurate" or n.startswith("emcurate.")]
    for _layer, module_name, attr, _work_name, _work in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        monkeypatch.setattr(owner, fn_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, value)
    recorder.install()


def test_em_loop_calls_its_hit_layers_and_no_absent_one(monkeypatch, tmp_path):
    """A traced em_loop run fails when a hit layer has no span or an absent
    one has any; run the workload's command in process, as the tracer does."""
    from emcurate.cli import main
    tracer = _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS["em_loop"]
    cfg, corpus, out = tmp_path / "em_loop.yaml", tmp_path / "corpus", tmp_path / "out"
    workloads.write_config(workload, cfg)
    # the benchmark generates its corpora untraced, in another process
    assert main(["generate", "--config", str(cfg), "--seed", "0", "--out", str(corpus)]) == 0
    recorder = tracer.Tracer()
    _install_undoably(tracer, recorder, monkeypatch)
    assert main(workload.command(str(cfg), str(corpus), str(out), 0)) == 0
    _digest, counts = workload.digest(out)
    assert counts["loop.routed"] > 0
    stats = tracer.layer_stats(recorder.spans)
    assert [layer for layer in workload.hit if stats[layer]["calls"] == 0] == []
    assert [layer for layer in workload.absent if stats[layer]["calls"] > 0] == []
