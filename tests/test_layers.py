"""Package imports run one way, from the lower layers up:

    errors -> core -> {cpd, neural} -> optim -> modelio -> metrics -> harness -> cli

A module imports, at module level, only modules below it (cpd and neural
share a layer, so neither imports the other). A function-level import of a
package module would hide a cycle; the one allowed is `neural.costco_fit`'s
import of `optim`, a thin wrapper kept because perfbench's tracer names it.
Checked on the source text, so nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tenfit"
LAYERS = [
    ("errors",), ("core",), ("cpd", "neural"), ("optim",), ("modelio",), ("metrics",),
    ("harness",), ("cli",), ("__init__",),
]
LEVEL = {module: level for level, modules in enumerate(LAYERS) for module in modules}
CALL_TIME_ALLOWED = {("neural", "costco_fit", "optim")}


def package_imports(tree: ast.Module):
    """(imported module, enclosing function name or None) for every import
    of a tenfit module, relative or absolute."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                if child.level:
                    names = [child.module] if child.module else [a.name for a in child.names]
                elif (child.module or "").startswith("tenfit."):
                    names = [child.module.split(".")[1]]
                else:
                    names = []
                found.extend((name.split(".")[0], function) for name in names)
            elif isinstance(child, ast.Import):
                found.extend(
                    (a.name.split(".")[1], function)
                    for a in child.names
                    if a.name.startswith("tenfit.")
                )
            visit(child, function)

    visit(tree, None)
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
