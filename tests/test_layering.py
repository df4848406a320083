"""Which package module may import what, read from the source with ast."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from emcurate.config import RunConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "emcurate"
MODULES = sorted(SRC.glob("*.py"))


def _imports(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(module, names) per imported module of a source file, function-level
    imports included: module as written (a relative import keeps its dots),
    names the names a from-import takes, empty for a plain import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""),
                          tuple(alias.name for alias in node.names)))
    return found


def test_the_modules_are_found():
    assert {"grid.py", "metrics.py", "phantom.py", "expert.py"} <= {p.name for p in MODULES}


def test_no_module_imports_scipy():
    """grid's voxel kernels are plain numpy; scipy is only the tests' oracle,
    so no module imports it, not even inside a function."""
    importers = [p.name for p in MODULES
                 if any(m == "scipy" or m.startswith("scipy.") for m, _ in _imports(p))]
    assert importers == []


def test_the_cli_loads_no_scipy():
    """Importing the command line in a fresh interpreter loads no scipy
    module, through any dependency either: every command starts without
    paying scipy's import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, emcurate.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_phantom_imports_nothing_from_metrics():
    for module, names in _imports(SRC / "phantom.py"):
        assert module not in (".metrics", "emcurate.metrics")
        assert not (module in (".", "emcurate") and "metrics" in names)


def test_no_module_imports_a_private_name():
    private = [(p.name, module, name) for p in MODULES for module, names in _imports(p)
               for name in names if name.startswith("_")]
    assert private == []


def test_no_module_reads_the_environment():
    """The commands take their settings from flags and the config alone:
    no module names os.environ or os.getenv, as an attribute, a bare name
    or an imported one."""
    names = ("environ", "getenv")
    readers = [(p.name, node.lineno) for p in MODULES
               for node in ast.walk(ast.parse(p.read_text(), str(p)))
               if isinstance(node, ast.Attribute) and node.attr in names
               or isinstance(node, ast.Name) and node.id in names
               or isinstance(node, ast.alias) and node.name in names]
    assert readers == []


def _message_head(call: ast.Call) -> str:
    """The literal text that a call's first argument starts with, '' when
    it starts with a replacement field or is not a string."""
    arg = call.args[0] if call.args else None
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


def test_validators_leave_the_key_path_to_the_decoder():
    """A dataclass validator names only the field it rejects, and the config
    decoder (volume_io._section) prefixes the key path it decodes: so no
    ConfigError raised in a __post_init__ starts with a RunConfig section
    name and a dot, or with a prior's name."""
    heads = tuple(f"{f.name}." for f in dataclasses.fields(RunConfig)) + ("prior '",)
    raises = [(p.name, node.lineno, _message_head(node)) for p in MODULES
              for fn in ast.walk(ast.parse(p.read_text(), str(p)))
              if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"]
    assert len(raises) > 40
    assert [r for r in raises if r[2].startswith(heads)] == []


def test_component_connectivity_is_defined_once_in_grid():
    """What one component is (grid.TUMOR_CONNECTIVITY for tumors,
    grid.ORGAN_CONNECTIVITY for the rest) is stated in grid alone: no call
    outside it passes an int literal as its connectivity= keyword, and no
    function takes an organ_connectivity or tumor_connectivity parameter."""
    per_kind = ("organ_connectivity", "tumor_connectivity")
    found = []
    for p in MODULES:
        if p.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Call):
                found.extend((p.name, node.lineno, "connectivity=")
                             for kw in node.keywords if kw.arg == "connectivity"
                             and isinstance(kw.value, ast.Constant)
                             and isinstance(kw.value.value, int))
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                found.extend((p.name, node.lineno, a.arg)
                             for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                             if a.arg in per_kind)
    assert found == []
