"""In-memory span tracer installed from outside the package.

Each traced function is replaced, in every tenfit module namespace that
binds it, by a wrapper that records a span: key, start, end, parent span,
enclosing fit and a little call metadata. Module-global rebinding matters
because the optim closures look up `masked_mse`, `grad_masked_loss`,
`smoothness_penalty` and `adam_step` as globals on every epoch, and
harness/cli import `fit`, `fms`, `load_dataset` and friends by name.

A span's self time is its duration minus the time its direct children
cover. The key's prefix before the first dot is its layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# span key -> (module, attribute) pairs of the original definitions.
TRACED = {
    "core.obs_ops": [("core", "ObservationSet.canonical_order"),
                     ("core", "ObservationSet.take"),
                     ("core", "ObservationSet.renormalized")],
    "cpd.masked_mse": [("cpd", "masked_mse")],
    "cpd.grad_masked_loss": [("cpd", "grad_masked_loss")],
    "cpd.smoothness_penalty": [("cpd", "smoothness_penalty")],
    "cpd.predict": [("cpd", "CPDModel.predict")],
    "neural.costco_fit": [("neural", "costco_fit")],
    "neural.neural_loss": [("neural", "neural_loss")],
    "neural.predict": [("neural", "NeuralModel.predict")],
    "optim.fit": [("optim", "fit")],
    "optim.adam_step": [("optim", "adam_step")],
    "metrics.regression_metrics": [("metrics", "regression_metrics")],
    "metrics.fms": [("metrics", "fms")],
    "metrics.export": [("metrics", "component_expression_export")],
    "harness": [("harness", "run_experiment"), ("harness", "run_sweep"),
                ("harness", "ood_sweep")],
    "harness.split": [("harness", "uniform_split"), ("harness", "biased_split")],
    "harness.renormalize": [("harness", "renormalize_splits")],
    "harness.grid": [("harness", "per_cell_errors"), ("harness", "aggregate_error_grids")],
    "modelio.load_dataset": [("modelio", "load_dataset")],
    "modelio.load_model": [("modelio", "load_model")],
    "modelio.save_model": [("modelio", "save_model")],
    "modelio.write_dataset": [("modelio", "write_dataset")],
    "cli": [("cli", "main")],
}

LAYERS = ("core", "cpd", "neural", "optim", "metrics", "harness", "modelio", "cli")
MODULES = ("tenfit",) + tuple(f"tenfit.{m}" for m in LAYERS)

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = {
    "optim.fit.calls": "count",
    "optim.fit.ms_p50": "ms",
    "optim.fit.ms_p90": "ms",
    "optim.fit.self_ms": "ms",
    "optim.adam_step.calls": "count",
    "optim.adam_step.us": "us",
    "optim.epochs_run_frac": "ratio",
    "cpd.masked_mse.us": "us",
    "cpd.grad_masked_loss.us": "us",
    "cpd.smoothness_penalty.us": "us",
    "cpd.epoch.us": "us",
    "cpd.predict.us_per_cell": "us",
    "neural.costco_fit.us_per_epoch": "us",
    "neural.neural_loss.us": "us",
    "neural.predict.us_per_cell": "us",
    "harness.split.ms": "ms",
    "harness.renormalize.ms": "ms",
    "harness.grid.ms": "ms",
    "harness.self_ms": "ms",
    "core.obs_ops.ms": "ms",
    "metrics.regression_metrics.us": "us",
    "metrics.fms.ms": "ms",
    "metrics.export.ms": "ms",
    "modelio.load_dataset.ms": "ms",
    "modelio.load_model.ms": "ms",
    "modelio.save_model.ms": "ms",
    "modelio.bytes_read": "B",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def _path_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size


def _meta(key, args, kwargs):
    """Call facts a metric needs that the span's timing does not give."""
    if key == "optim.fit":
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        kind = args[3] if len(args) > 3 else kwargs["model_kind"]
        return {"kind": kind, "budget": cfg.epochs * cfg.restarts}
    if key in ("cpd.predict", "neural.predict"):
        return {"cells": int(np.atleast_2d(np.asarray(args[1])).shape[0])}
    if key in ("modelio.load_dataset", "modelio.load_model"):
        return {"bytes": _path_bytes(args[0])}
    return None


class Tracer:
    """Records spans while installed; `phase` tags spans as set-up or timed."""

    def __init__(self):
        self.spans = []  # [key, start, end, parent, fit, phase, meta]
        self.phase = "setup"
        self._stack = []
        self._fit_stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, key, func):
        spans, stack, fit_stack = self.spans, self._stack, self._fit_stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            meta = _meta(key, args, kwargs)
            index = len(spans)
            record = [key, clock(), 0.0, stack[-1] if stack else None,
                      fit_stack[-1] if fit_stack else None, self.phase, meta]
            spans.append(record)
            stack.append(index)
            if key == "optim.fit":
                fit_stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if key == "optim.fit":
                    fit_stack.pop()

        return traced

    def install(self):
        if self._patches:
            return
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for key, targets in TRACED.items():
            for module_name, attr in targets:
                module = sys.modules[f"tenfit.{module_name}"]
                if "." in attr:  # a method: patch the class
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patches.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(key, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_jsonl(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (key, start, end, parent, fit, phase, meta) in enumerate(self.spans):
                row = {"id": i, "name": key, "layer": key.split(".")[0],
                       "start": start, "end": end, "parent": parent, "fit": fit,
                       "phase": phase}
                if meta:
                    row.update(meta)
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def per_layer_metrics(spans, timed_ops, timed_wall_s, untraced_wall_s, traced_wall_s):
    """Per-layer metrics from recorded spans.

    Per-call figures use every span, set-up included, so set-up-only calls
    such as save_model are measured. Per-op figures (calls, bytes, harness
    self time) and coverage use the timed section only.
    """
    own = self_times(spans)
    by_key = {}
    for i, s in enumerate(spans):
        by_key.setdefault(s[0], []).append(i)

    def outermost(key):
        """Spans of `key` not nested inside another span of the same key."""
        out = []
        for i in by_key.get(key, []):
            parent = spans[i][3]
            while parent is not None and spans[parent][0] != key:
                parent = spans[parent][3]
            if parent is None:
                out.append(i)
        return out

    def mean_s(key):
        ids = outermost(key)
        return float(np.mean([spans[i][2] - spans[i][1] for i in ids])) if ids else 0.0

    def self_per_call_s(key):
        ids = outermost(key)
        if not ids:
            return 0.0
        return sum(own[i] for i in by_key[key]) / len(ids)

    def timed(key):
        return [i for i in by_key.get(key, []) if spans[i][5] == "timed"]

    def per_cell_us(key):
        ids = by_key.get(key, [])
        cells = sum(spans[i][6]["cells"] for i in ids)
        return 1e6 * sum(spans[i][2] - spans[i][1] for i in ids) / cells if cells else 0.0

    fits = by_key.get("optim.fit", [])
    steps_by_fit = {}
    for i in by_key.get("optim.adam_step", []):
        steps_by_fit[spans[i][4]] = steps_by_fit.get(spans[i][4], 0) + 1
    fit_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in fits]
    cpd_fits = [i for i in fits if spans[i][6]["kind"] in ("cpd", "cpd_s")]
    cpd_steps = sum(steps_by_fit.get(i, 0) for i in cpd_fits)
    costco = by_key.get("neural.costco_fit", [])
    costco_steps = sum(steps_by_fit.get(spans[i][4], 0) for i in costco)
    budget = sum(spans[i][6]["budget"] for i in fits)
    ops = max(timed_ops, 1)
    timed_self = sum(own[i] for i, s in enumerate(spans) if s[5] == "timed")

    def ms(x):
        return 1e3 * x

    def us(x):
        return 1e6 * x

    values = {
        "optim.fit.calls": len(timed("optim.fit")) / ops,
        "optim.fit.ms_p50": float(np.percentile(fit_ms, 50)) if fit_ms else 0.0,
        "optim.fit.ms_p90": float(np.percentile(fit_ms, 90)) if fit_ms else 0.0,
        "optim.fit.self_ms": ms(self_per_call_s("optim.fit")),
        "optim.adam_step.calls": len(timed("optim.adam_step")) / ops,
        "optim.adam_step.us": us(mean_s("optim.adam_step")),
        "optim.epochs_run_frac": sum(steps_by_fit.values()) / budget if budget else 0.0,
        "cpd.masked_mse.us": us(mean_s("cpd.masked_mse")),
        "cpd.grad_masked_loss.us": us(mean_s("cpd.grad_masked_loss")),
        "cpd.smoothness_penalty.us": us(mean_s("cpd.smoothness_penalty")),
        "cpd.epoch.us": (us(sum(spans[i][2] - spans[i][1] for i in cpd_fits)) / cpd_steps
                         if cpd_steps else 0.0),
        "cpd.predict.us_per_cell": per_cell_us("cpd.predict"),
        "neural.costco_fit.us_per_epoch": (
            us(sum(spans[i][2] - spans[i][1] for i in costco)) / costco_steps
            if costco_steps else 0.0),
        "neural.neural_loss.us": us(mean_s("neural.neural_loss")),
        "neural.predict.us_per_cell": per_cell_us("neural.predict"),
        "harness.split.ms": ms(mean_s("harness.split")),
        "harness.renormalize.ms": ms(mean_s("harness.renormalize")),
        "harness.grid.ms": ms(mean_s("harness.grid")),
        "harness.self_ms": ms(sum(own[i] for i in timed("harness"))) / ops,
        "core.obs_ops.ms": ms(mean_s("core.obs_ops")),
        "metrics.regression_metrics.us": us(mean_s("metrics.regression_metrics")),
        "metrics.fms.ms": ms(mean_s("metrics.fms")),
        "metrics.export.ms": ms(mean_s("metrics.export")),
        "modelio.load_dataset.ms": ms(mean_s("modelio.load_dataset")),
        "modelio.load_model.ms": ms(mean_s("modelio.load_model")),
        "modelio.save_model.ms": ms(mean_s("modelio.save_model")),
        "modelio.bytes_read": sum(
            spans[i][6]["bytes"]
            for key in ("modelio.load_dataset", "modelio.load_model")
            for i in timed(key)
        ) / ops,
        "cli.self_ms": ms(self_per_call_s("cli")),
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "trace.coverage": timed_self / timed_wall_s,
    }
    layer_self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if s[5] == "timed":
            layer_self_s[s[0].split(".")[0]] += own[i]
    return values, layer_self_s
