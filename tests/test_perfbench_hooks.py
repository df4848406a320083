"""The benchmark's tracer wraps emcurate functions by attribute path, and each
workload names the layers it must and must not hit. A rename or deletion in
``src/`` would break traced runs only when the benchmark runs, so check the
hooks here: every target resolves, and every hit/absent name is a target."""

import importlib.util
import sys
from pathlib import Path

import pytest

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
