"""Package imports run one way, from the lower layers up:

    errors -> core -> {cpd, neural} -> optim -> modelio -> metrics -> harness -> cli

A module imports, at module level, only modules below it (cpd and neural
share a layer, so neither imports the other). A function-level import of a
package module would hide a cycle; the one allowed is `neural.costco_fit`'s
import of `optim`, a thin wrapper kept because perfbench's tracer names it.

`cli` and `harness` import neither model module: they reach the model
kinds through `optim.MODEL_KINDS` and ask a model for its `factors`.

No module imports scipy: the factor match score's assignment solver is
ported into `metrics`, and scipy is a test-only reference for it.

Every name that a module of `src/tenfit/`, `bench/` or `tests/` imports is
used in it or named in its `__all__`.

These rules are checked on the source text, so nothing is imported. One
test runs a fresh interpreter through the CLI's ingest, fit, predict, fms
and an experiment that scores factors, and sees that no scipy module loads.
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


def test_cli_and_harness_reach_model_kinds_through_optim_alone():
    for module in ("cli", "harness"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert not {name for name, _ in package_imports(tree)} & {"cpd", "neural"}, module
        from_optim = {alias.name for node, _ in imports(tree) if isinstance(node, ast.ImportFrom)
                      and node.level and node.module == "optim" for alias in node.names}
        assert "MODEL_KINDS" in from_optim, module


def test_no_module_imports_scipy():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node, function in imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                names = [a.name for a in node.names]
            found.update((path.stem, function, name) for name in names
                         if name.split(".")[0] == "scipy")
    assert found == set()


def unused_imports(tree: ast.Module) -> list:
    """Names that an import binds but the module never reads or lists in `__all__`."""
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node, _ in imports(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and type(n.ctx) is ast.Load}
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]
        for name in ast.literal_eval(node.value)
    }
    return sorted(bound - read - exported)


def test_every_import_is_used():
    root = SRC.parents[1]
    unused = {
        str(path.relative_to(root)): names
        for folder in (SRC, root / "bench", root / "tests")
        for path in sorted(folder.glob("*.py"))
        if (names := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


CHILD = """
import json, sys
from pathlib import Path
from tenfit import cli

work = Path(sys.argv[1])
experiment = {
    "dataset": str(work / "ds"), "iterations": 1, "seed": 0,
    "models": [{"kind": "cpd", "rank": 2, "epochs": 5}],
    "plans": [{"kind": "uniform", "fraction": 0.8},
              {"kind": "biased", "n_in": 3, "n_out": 5,
               "region": {"axis_a": "g", "axis_b": "x", "a_range": [0, 1], "b_range": [0, 1]}}],
}
(work / "experiment.json").write_text(json.dumps(experiment))
for argv in (
    ["ingest", "--data", str(work / "data.csv"), "--outcome", "y", "--categorical", "g",
     "--out", str(work / "ds")],
    ["fit", "--obs", str(work / "ds"), "--model", "cpd", "--rank", "2", "--epochs", "5",
     "--out", str(work / "model.json")],
    ["predict", "--model", str(work / "model.json"), "--indices", str(work / "cells.csv"),
     "--out", str(work / "preds.csv")],
    ["fms", "--a", str(work / "model.json"), "--b", str(work / "model.json"),
     "--out", str(work / "fms.json")],
    ["experiment", "--config", str(work / "experiment.json"), "--out", str(work / "exp")],
):
    assert cli.main(argv) == 0, argv
assert (work / "exp" / "fms_uniform_vs_biased.json").is_file()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    rows = [f"g{g},{x},{g + 2 * x + 1}" for g in range(4) for x in range(3)]
    (tmp_path / "data.csv").write_text("g,x,y\n" + "\n".join(rows) + "\n")
    (tmp_path / "cells.csv").write_text("g,x\n0,1\n2,0\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
