"""Command-line interface.

Subcommands cover the full pipeline: ingest a CSV into a tensor dataset,
fit/predict/evaluate single models, export factor analyses, compare
decompositions, and run multi-iteration experiments and OOD sweeps from
config files. Failures exit nonzero with a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import CATEGORICAL, ORDINAL, build_design_space, encode_observations
from .errors import ContractError, SchemaError, TenfitError
from .harness import _FIT_KEYS, _flag, model_spec_from_config, run_experiment, run_sweep
from .metrics import component_expression_export, fms, regression_metrics
from .modelio import as_float, load_dataset, load_model, read_csv_rows, read_index_csv
from .modelio import save_model, write_atomic, write_dataset, write_index_csv
from .optim import MODEL_KINDS, fit


def _read_csv_records(path) -> tuple[list[dict], list[str]]:
    """Header -> cell records of a CSV's non-blank rows, and the header."""
    header, rows = read_csv_rows(path)
    if not header:
        raise SchemaError(f"{path}: missing CSV header")
    for row, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise SchemaError(f"{path}: row {row} has {len(cells)} cells, the header {len(header)}")
    return [dict(zip(header, cells)) for cells in rows], header


def _is_numeric_column(records, name) -> bool:
    for record in records:
        try:
            float(record[name])
        except (TypeError, ValueError):
            return False
    return True


def _split_csv_list(text) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()] if text else []


def cmd_ingest(args) -> dict:
    records, fieldnames = _read_csv_records(args.data)
    if args.outcome not in fieldnames:
        raise SchemaError(f"outcome column {args.outcome!r} not in CSV header")
    axis_names = [n for n in fieldnames if n != args.outcome]
    ordinal = set(_split_csv_list(args.ordinal))
    categorical = set(_split_csv_list(args.categorical))
    for name in ordinal | categorical:
        if name not in axis_names:
            raise SchemaError(f"declared axis {name!r} not in CSV header")
    if ordinal & categorical:
        raise SchemaError(f"axes listed as both kinds: {sorted(ordinal & categorical)}")

    kinds = {name: ORDINAL if name in ordinal else CATEGORICAL for name in axis_names}
    for name in set(axis_names) - ordinal - categorical:  # undeclared: ordinal if all numeric
        kinds[name] = ORDINAL if _is_numeric_column(records, name) else CATEGORICAL

    space = build_design_space(records, axis_names, args.outcome, kinds)
    obs = encode_observations(records, space, duplicates=args.duplicates)
    manifest = write_dataset(obs, args.out)
    manifest.update(
        {
            "n_observations": obs.n,
            "shape": list(space.shape()),
            "n_cells": space.n_cells(),
        }
    )
    return manifest


def cmd_fit(args) -> dict:
    space, obs = load_dataset(args.obs)
    options = {key: value for key, value in vars(args).items() if key in _FIT_KEYS}
    spec = model_spec_from_config(options, space, "the fit options", flags=True)
    model, report = fit(space.shape(), obs, spec.cfg, spec.kind)
    save_model(model, args.out)
    report_path = Path(args.out).with_suffix(".report.json")
    write_atomic(report_path, json.dumps(report.to_json()))
    return {
        "model": str(args.out),
        "report": str(report_path),
        "final_loss": report.final_loss,
        "restart": report.restart,
        "epochs_run": report.epochs_run,
    }


def cmd_predict(args) -> dict:
    model = load_model(args.model)
    indices, _ = read_index_csv(args.indices, model.space)
    preds = model.predict(indices)
    if args.denormalize:
        if model.normalizer is None:
            raise ContractError("model carries no normalizer; cannot denormalize")
        preds = model.normalizer.denormalize(preds)
    write_index_csv(args.out, model.space, indices, preds, "prediction")
    return {"predictions": str(args.out), "n": int(indices.shape[0])}


def _check_same_axes(test, model) -> None:
    """A ContractError naming the first axis (name, kind or values) where
    a test space of the model's shape differs from the model's: its
    indices would score the wrong cells."""
    for m, (a, b) in enumerate(zip(test.axes, model.axes)):
        if a != b:
            raise ContractError(f"test-space axis {m} ({b.name!r}) is not the model's: {a} != {b}")


def _in_model_units(obs, normalizer):
    """The outcomes of a test set in a model's normalized units. A test set
    ingested on its own is min-max normalized over its own range; its
    values go back to original units and through the model's normalizer.
    They are returned untouched when the two normalizers are equal (the
    round trip would change bits) or the model has none. A test set of one
    distinct outcome has all its original values at its y_min."""
    own = obs.normalizer
    if normalizer is None or normalizer == own:
        return obs.values
    original = own.denormalize(obs.values) if own.span > 0 else np.full(obs.n, own.y_min)
    return normalizer.normalize(original)


def cmd_evaluate(args) -> dict:
    model = load_model(args.model)
    space, obs = load_dataset(args.test)
    if space.shape() != model.shape:
        raise ContractError(
            f"test-space shape {space.shape()} != model shape {model.shape}"
        )
    _check_same_axes(space, model.space)
    preds = model.predict(obs.indices)
    report = regression_metrics(_in_model_units(obs, model.normalizer), preds).to_json()
    write_atomic(args.out, json.dumps(report, indent=2))
    return report


def cmd_factors(args) -> dict:
    model = load_model(args.model)
    if not hasattr(model, "factors"):
        raise ContractError("factor export needs a linear model (cpd or cpd_s)")
    return component_expression_export(
        model.factors,
        model.space,
        args.out,
        quantile=args.quantile,
        normalized=args.normalized,
    )


def cmd_fms(args) -> dict:
    model_a = load_model(args.a)
    model_b = load_model(args.b)
    for label, model in (("--a", model_a), ("--b", model_b)):
        if not hasattr(model, "factors"):
            raise ContractError(f"{label} must be a linear model (cpd or cpd_s)")
    comparison = fms(model_a.factors, model_b.factors).to_json()
    write_atomic(args.out, json.dumps(comparison, indent=2))
    return comparison


def cmd_experiment(args) -> dict:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    summary = run_experiment(config, args.out)
    return {"out": str(args.out), "failures": len(summary["failures"])}


def cmd_sweep(args) -> dict:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    run_sweep(config, args.out)
    return {"out": str(args.out)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tenfit",
        description="Tensor-completion surrogate modeling for discrete design spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a dataset CSV into a tensor dataset directory")
    p.add_argument("--data", required=True, help="input CSV with axis columns and one outcome")
    p.add_argument("--outcome", required=True, help="outcome column name")
    p.add_argument("--ordinal", default="", help="comma-separated ordinal columns")
    p.add_argument("--categorical", default="", help="comma-separated categorical columns")
    p.add_argument("--duplicates", choices=("mean", "error"), default="mean")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_ingest)

    # an option left out is absent, so TrainConfig's own default applies
    p = sub.add_parser(
        "fit", help="train one model on a dataset directory", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--obs", required=True, help="dataset directory from ingest")
    p.add_argument("--model", dest="kind", required=True, choices=MODEL_KINDS)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--smooth-modes", dest="smooth_modes", type=lambda text: _split_csv_list(text)
                   if text else None, help="cpd_s only: axis names (default: ordinal axes)")
    heads = {"lambda_smooth": "smoothness weight", "groups": "initialization groups",
             "channels": "conv channels", "hidden": "dense width"}
    for key, (cast, _, *kinds) in _FIT_KEYS.items():  # one flag per other key of the options
        if key not in ("kind", "name", "rank", "smooth_modes"):
            text = f"{kinds[0]} only: {heads[key]}" if kinds else None
            p.add_argument(_flag(key), dest=key, help=text,
                           type=float if cast is as_float else int)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict at index tuples listed in a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True, help="CSV with one 0-based index column per axis")
    p.add_argument("--denormalize", action="store_true", help="emit original outcome units")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against a test dataset directory")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True, help="dataset directory holding the test rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("factors", help="export per-mode component magnitudes")
    p.add_argument("--model", required=True)
    p.add_argument("--normalized", action="store_true", help="l2-normalize columns first")
    p.add_argument("--quantile", type=float, default=0.75)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("fms", help="factor match score between two linear models")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fms)

    p = sub.add_parser("experiment", help="run a multi-iteration experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="run an OOD sample-count sweep config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(json.dumps(args.func(args), indent=2))
        return 0
    except (TenfitError, OSError, RecursionError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
