"""Package imports run one way, from the lower layers up:

    errors -> core -> {cpd, neural} -> optim -> modelio -> metrics -> harness -> cli

A module imports, at module level, only modules below it (cpd and neural
share a layer, so neither imports the other). A function-level import of a
package module would hide a cycle; the one allowed is `neural.costco_fit`'s
import of `optim`, a thin wrapper kept because perfbench's tracer names it.

No module imports scipy at module level: `scipy.optimize` alone costs about
48 MB and 0.4 s to load, and only a factor comparison needs it. The one
scipy import is `metrics.fms`'s call-time import of `scipy.optimize`.

These rules are checked on the source text, so nothing is imported. One
test runs a fresh interpreter to see that `import tenfit` and the CLI's
ingest, fit and predict leave `scipy.optimize` unloaded, and that a factor
comparison loads it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tenfit"
LAYERS = [
    ("errors",), ("core",), ("cpd", "neural"), ("optim",), ("modelio",), ("metrics",),
    ("harness",), ("cli",), ("__init__",),
]
LEVEL = {module: level for level, modules in enumerate(LAYERS) for module in modules}
CALL_TIME_ALLOWED = {("neural", "costco_fit", "optim")}
SCIPY_ALLOWED = {("metrics", "fms", "scipy.optimize")}


def imports(tree: ast.Module):
    """(import node, enclosing function name or None) for every import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, function))
            visit(child, function)

    visit(tree, None)
    return found


def package_imports(tree: ast.Module):
    """(imported module, enclosing function name or None) for every import
    of a tenfit module, relative or absolute."""
    found = []
    for node, function in imports(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif (node.module or "").startswith("tenfit."):
                names = [node.module.split(".")[1]]
            else:
                names = []
            found.extend((name.split(".")[0], function) for name in names)
        else:
            found.extend(
                (a.name.split(".")[1], function)
                for a in node.names
                if a.name.startswith("tenfit.")
            )
    return found


def all_imports():
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for imported, function in package_imports(ast.parse(path.read_text(encoding="utf-8"))):
            yield module, imported, function


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(LEVEL)


def test_module_level_imports_point_down():
    upward = [
        (module, imported)
        for module, imported, function in all_imports()
        if function is None and LEVEL[imported] >= LEVEL[module]
    ]
    assert upward == []


def test_only_costco_fit_imports_at_call_time():
    call_time = {
        (module, function, imported)
        for module, imported, function in all_imports()
        if function is not None
    }
    assert call_time == CALL_TIME_ALLOWED


def test_only_fms_imports_scipy():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node, function in imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                names = [a.name for a in node.names]
            found.update((path.stem, function, name) for name in names
                         if name.split(".")[0] == "scipy")
    assert found == SCIPY_ALLOWED


CHILD = """
import json, sys
from pathlib import Path
import numpy as np
import tenfit
from tenfit import cli, metrics
from tenfit.cpd import FactorSet

work = Path(sys.argv[1])
for argv in (
    ["ingest", "--data", str(work / "data.csv"), "--outcome", "y", "--categorical", "g",
     "--out", str(work / "ds")],
    ["fit", "--obs", str(work / "ds"), "--model", "cpd", "--rank", "2", "--epochs", "5",
     "--out", str(work / "model.json")],
    ["predict", "--model", str(work / "model.json"), "--indices", str(work / "cells.csv"),
     "--out", str(work / "preds.csv")],
):
    assert cli.main(argv) == 0, argv
loaded = ["scipy.optimize" in sys.modules]
factors = FactorSet([np.eye(3)[:, :2], np.eye(2)])
metrics.fms(factors, factors)
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_a_factor_comparison(tmp_path):
    rows = [f"g{g},{x},{g + 2 * x + 1}" for g in range(3) for x in range(2)]
    (tmp_path / "data.csv").write_text("g,x,y\n" + "\n".join(rows) + "\n")
    (tmp_path / "cells.csv").write_text("g,x\n0,1\n2,0\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, True]
