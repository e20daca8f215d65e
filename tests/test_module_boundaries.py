"""No soilspec module reaches into another module's private names, every
exported name exists, and importing the package stays light."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soilspec

PACKAGE_DIR = Path(soilspec.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _soilspec_module(node):
    """The soilspec module an ``ImportFrom`` reads from, or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "soilspec":
        return node.module.removeprefix("soilspec").lstrip(".")
    return None


def private_cross_module_uses(source):
    """``from .m import _x`` and ``m._x`` uses of other soilspec modules."""
    tree = ast.parse(source)
    found = []
    module_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _soilspec_module(node) is not None:
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: from {'.' * node.level}"
                                 f"{node.module or ''} import {alias.name}")
                elif _soilspec_module(node) == "" and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "soilspec":
                    module_names.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        target = node.value
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id == "soilspec":
            found.append(f"line {node.lineno}: soilspec.{target.attr}.{node.attr}")
        elif isinstance(target, ast.Name) and target.id in module_names:
            found.append(f"line {node.lineno}: {target.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_cross_module_helpers(module):
    source = (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
    assert private_cross_module_uses(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("soilspec" if module == "__init__" else f"soilspec.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("source", [
    "from .metrics import _ratio\n",
    "from soilspec.metrics import _matching\n",
    "from . import metrics\nmetrics._ratio(1.0, 2.0, ValueError, 'x')\n",
    "import soilspec.metrics\nsoilspec.metrics._matching\n",
    "import soilspec.metrics as m\nm._ratio\n",
])
def test_checker_flags_private_cross_module_use(source):
    assert private_cross_module_uses(source)


def test_checker_allows_public_and_own_private_names():
    source = (
        "from .spectral import integrate\n"
        "from . import metrics\n"
        "def _helper():\n    return metrics.index_report, metrics.__all__\n"
        "_helper()\n"
        "class A:\n    def f(self):\n        return self._x\n"
    )
    assert private_cross_module_uses(source) == []


def test_import_leaves_multiprocessing_unimported():
    # write_campaign_dir and run_campaign import multiprocessing when they
    # run, so that every `import soilspec` does not pay for it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = "import sys, soilspec; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def imports_by_function(source):
    """(module, enclosing function name or None) of each import in ``source``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.extend((f"{child.module}.{alias.name}", function) for alias in child.names)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else function)

    visit(ast.parse(source), None)
    return found


def package_imports():
    """(file name, module, enclosing function name or None) of each import under src/."""
    return [(path.name, module, function)
            for path in sorted(PACKAGE_DIR.parent.rglob("*.py"))
            for module, function in imports_by_function(path.read_text(encoding="utf-8"))]


def test_one_function_starts_processes():
    # One way to use a second process: no executor pool, and multiprocessing
    # imported in one function only.
    uses = package_imports()
    assert [u for u in uses if u[1].startswith("concurrent.futures")] == []
    assert [u for u in uses if u[1].split(".")[0] == "multiprocessing"] == [
        ("pipeline.py", "multiprocessing", "_in_two")]


def test_no_module_warns():
    # Noise and coverage are per-week data, which Python's once-per-location
    # warning filter would thin out; so no module imports warnings.
    assert [u for u in package_imports() if u[1].split(".")[0] == "warnings"] == []


@pytest.mark.parametrize("source, expected", [
    ("import concurrent.futures\n", [("concurrent.futures", None)]),
    ("from concurrent import futures\n", [("concurrent.futures", None)]),
    ("def f():\n    def g():\n        import multiprocessing\n    import os\n",
     [("multiprocessing", "g"), ("os", "f")]),
    ("from warnings import warn\n", [("warnings.warn", None)]),
])
def test_import_finder_names_module_and_function(source, expected):
    assert imports_by_function(source) == expected
