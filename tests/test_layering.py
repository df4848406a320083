"""Which package module may import what, read from the source with ast."""

import ast
from pathlib import Path

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


def test_only_grid_imports_scipy():
    """grid owns every scipy kernel, so swapping one changes one module."""
    importers = [p.name for p in MODULES
                 if any(m == "scipy" or m.startswith("scipy.") for m, _ in _imports(p))]
    assert importers == ["grid.py"]


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
