"""The package surface the benchmark relies on.

`perfbench --trace 1` replaces every function named in `perfbench/spans.py`'s
`TRACED` table and reads `optim.fit`'s first four arguments for its span
metadata; only the (slow, separate) benchmark smoke test would otherwise
notice a deletion or a rename that breaks it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import tenfit
from tenfit import optim

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    # as the tracer patches it: a method from its class's own __dict__, so
    # an inherited method does not count
    for key, targets in traced_table().items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"tenfit.{module_name}")
            *classes, name = attr.split(".")
            for part in classes:
                owner = getattr(owner, part)
            assert callable(vars(owner).get(name)), (key, module_name, attr)


def test_fit_keeps_the_arguments_the_tracer_reads():
    params = list(inspect.signature(optim.fit).parameters)
    assert params[:4] == ["shape", "obs_train", "cfg", "model_kind"]


def test_every_public_name_resolves():
    missing = [name for name in tenfit.__all__ if not hasattr(tenfit, name)]
    assert not missing


def called_names() -> set:
    """The name of every function or method that code in src/ calls."""
    names = set()
    for path in (ROOT / "src" / "tenfit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(getattr(func, "attr", None) or getattr(func, "id", None))
    return names


def test_tracer_only_functions_are_the_known_ones():
    """The traced functions no src/ code calls: they exist only so that the
    tracer can time them by name. The set may only shrink."""
    called = called_names()
    tracer_only = {
        f"{module_name}.{attr}"
        for targets in traced_table().values()
        for module_name, attr in targets
        if attr.split(".")[-1] not in called
    }
    assert tracer_only == {
        "cpd.masked_mse",
        "cpd.grad_masked_loss",
        "cpd.smoothness_penalty",
        "neural.neural_loss",
        "neural.costco_fit",
    }
