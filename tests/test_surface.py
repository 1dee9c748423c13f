"""The package surface the benchmark relies on.

`perfbench --trace 1` replaces every function named in `perfbench/spans.py`'s
`TRACED` table and reads `optim.fit`'s first four arguments for its span
metadata; only the (slow, separate) benchmark smoke test would otherwise
notice a deletion or a rename that breaks it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import tenfit
from tenfit import optim

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    for key, targets in traced_table().items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"tenfit.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (key, module_name, attr)


def test_fit_keeps_the_arguments_the_tracer_reads():
    params = list(inspect.signature(optim.fit).parameters)
    assert params[:4] == ["shape", "obs_train", "cfg", "model_kind"]


def test_every_public_name_resolves():
    missing = [name for name in tenfit.__all__ if not hasattr(tenfit, name)]
    assert not missing
