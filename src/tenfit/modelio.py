"""JSON/CSV persistence for schemas, observations, and fitted models.

Floats are emitted through Python's shortest-round-trip repr, so every load
is bit-exact against the arrays that were saved.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import Axis, DesignSpace, Normalizer, ObservationSet
from .cpd import CPDModel, FactorSet, SmoothnessConfig
from .errors import ContractError, SchemaError
from .neural import ConvHead, EmbeddingBank, NeuralModel
from .optim import MODEL_KINDS

SCHEMA_FILENAME = "schema.json"
OBSERVATIONS_FILENAME = "obs.csv"
NORMALIZER_FILENAME = "normalizer.json"
FORMAT_VERSION = 1  # of model files
_HEAD_FIELDS = tuple(f.name for f in fields(ConvHead))


def schema_to_json(space: DesignSpace) -> dict:
    return {
        "axes": [
            {"name": a.name, "kind": a.kind, "values": list(a.values)} for a in space.axes
        ],
        "outcome": space.outcome_name,
    }


def schema_from_json(payload: dict) -> DesignSpace:
    try:
        axes = tuple(
            Axis(name=a["name"], kind=a["kind"], values=tuple(a["values"]))
            for a in payload["axes"]
        )
        return DesignSpace(axes=axes, outcome_name=payload["outcome"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema JSON: {exc}") from exc


def write_schema(space: DesignSpace, path) -> None:
    Path(path).write_text(json.dumps(schema_to_json(space), indent=2), encoding="utf-8")


def read_schema(path) -> DesignSpace:
    return schema_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def write_normalizer(normalizer: Normalizer, path) -> None:
    payload = {"y_min": normalizer.y_min, "y_max": normalizer.y_max}
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def read_normalizer(path) -> Normalizer:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return Normalizer(y_min=float(payload["y_min"]), y_max=float(payload["y_max"]))


def write_observations_csv(obs: ObservationSet, path) -> None:
    """0-based index columns (named after the axes) plus a value column."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in obs.space.axes] + ["value"])
        for row, value in zip(obs.indices, obs.values):
            writer.writerow([int(i) for i in row] + [repr(float(value))])


def cell_error(path, row: int, record: dict, parsers: dict) -> SchemaError:
    """The SchemaError for the first cell of a CSV record that its parser
    (column -> int or float) rejects, naming the file, the 1-based data row
    and the column."""
    for column, parse in parsers.items():
        try:
            parse(record[column])
        except (TypeError, ValueError):
            return SchemaError(
                f"{path}: row {row}, column {column!r}: "
                f"cannot read {record[column]!r} as {parse.__name__}"
            )
    return SchemaError(f"{path}: row {row} is malformed")


def read_observations_csv(path, space: DesignSpace, normalizer: Normalizer) -> ObservationSet:
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        names = [a.name for a in space.axes]
        missing = [n for n in (*names, "value") if n not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"observations CSV is missing columns {missing}")
        indices, values = [], []
        for row, record in enumerate(reader, start=1):
            try:
                indices.append([int(record[n]) for n in names])
                values.append(float(record["value"]))
            except (TypeError, ValueError):
                parsers = {**dict.fromkeys(names, int), "value": float}
                raise cell_error(path, row, record, parsers) from None
    return ObservationSet(
        space=space,
        indices=np.asarray(indices, dtype=np.int64).reshape(len(values), space.ndim),
        values=np.asarray(values, dtype=float),
        normalizer=normalizer,
    )


def write_dataset(obs: ObservationSet, out_dir) -> dict:
    """Persist an ingested dataset as schema.json + obs.csv + normalizer.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_schema(obs.space, out / SCHEMA_FILENAME)
    write_observations_csv(obs, out / OBSERVATIONS_FILENAME)
    write_normalizer(obs.normalizer, out / NORMALIZER_FILENAME)
    return {
        "schema": str(out / SCHEMA_FILENAME),
        "observations": str(out / OBSERVATIONS_FILENAME),
        "normalizer": str(out / NORMALIZER_FILENAME),
    }


def load_dataset(path):
    """Read (space, observations) from an ingest directory."""
    root = Path(path)
    if not root.is_dir():
        raise SchemaError(f"dataset path {root} is not an ingest directory")
    space = read_schema(root / SCHEMA_FILENAME)
    normalizer = read_normalizer(root / NORMALIZER_FILENAME)
    obs = read_observations_csv(root / OBSERVATIONS_FILENAME, space, normalizer)
    return space, obs


def _array_to_json(array: np.ndarray) -> dict:
    array = np.asarray(array, dtype=float)
    return {"shape": list(array.shape), "data": array.ravel().tolist()}


def _array_from_json(payload: dict, shape, path, what: str) -> np.ndarray:
    """A stored array, checked against the shape the model needs."""
    try:
        stored = [int(s) for s in payload["shape"]]
        data = np.asarray(payload["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {what} is not a stored array ({exc})") from None
    shape = tuple(shape)
    if stored != list(shape) or data.shape != (math.prod(shape),):
        raise SchemaError(
            f"{path}: {what} has shape {stored} and {data.size} values, expected shape {shape}"
        )
    return data.reshape(shape)


def save_model(model, path) -> None:
    """Write a fitted model (linear or neural) as a single JSON file."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "rank": model.rank,
        "shape": list(model.shape),
        "schema": schema_to_json(model.space),
        "normalizer": (
            {"y_min": model.normalizer.y_min, "y_max": model.normalizer.y_max}
            if model.normalizer is not None
            else None
        ),
    }
    if isinstance(model, CPDModel):
        payload["smoothness"] = {
            "weight": model.smoothness.weight,
            "modes": list(model.smoothness.modes),
        }
        payload["params"] = {"factors": [_array_to_json(f) for f in model.factors.factors]}
    elif isinstance(model, NeuralModel):
        head = model.head
        payload["config"] = {
            "n_init_groups": model.bank.n_groups,
            "conv_channels": head.channels,
            "hidden_units": head.hidden_units,
        }
        payload["params"] = {
            "embeddings": [
                [_array_to_json(e) for e in group] for group in model.bank.groups
            ],
            **{name: _array_to_json(getattr(head, name)) for name in _HEAD_FIELDS},
        }
    else:
        raise ContractError(f"cannot serialize model type {type(model).__name__}")
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path):
    """Read a model file written by save_model. The file is checked before
    use: its format version, and every stored array against the shape the
    schema, the rank and the head sizes call for; a file that fails raises a
    SchemaError naming it."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: a model file holds one JSON object, not {payload!r}")
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {kind!r} in {path}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"{path}: format_version {payload.get('format_version')!r} is not {FORMAT_VERSION}"
        )
    try:
        space = schema_from_json(payload["schema"])
        rank = int(payload["rank"])
        params = payload["params"]
        norm = payload.get("normalizer")
        normalizer = Normalizer(float(norm["y_min"]), float(norm["y_max"])) if norm else None
        if kind == "costco":
            config = payload["config"]
            groups, channels, hidden = (
                int(config[k]) for k in ("n_init_groups", "conv_channels", "hidden_units")
            )
            stored_groups = [list(group) for group in params["embeddings"]]
            head_payload = {name: params[name] for name in _HEAD_FIELDS}
        else:
            smooth = payload.get("smoothness", {})
            smoothness = SmoothnessConfig(
                weight=float(smooth.get("weight", 0.0)),
                modes=tuple(smooth.get("modes", ())),
            )
            stored_factors = list(params["factors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    shape = space.shape()
    if rank < 1 or payload.get("shape") != list(shape):
        raise SchemaError(
            f"{path}: rank {rank} and shape {payload.get('shape')} do not fit the schema "
            f"shape {list(shape)}"
        )

    if kind in ("cpd", "cpd_s"):
        if len(stored_factors) != len(shape):
            raise SchemaError(f"{path}: {len(stored_factors)} factors for {len(shape)} modes")
        factors = FactorSet(
            [
                _array_from_json(f, (size, rank), path, f"factor {m}")
                for m, (f, size) in enumerate(zip(stored_factors, shape))
            ]
        )
        return CPDModel(
            kind=kind, factors=factors, space=space, normalizer=normalizer, smoothness=smoothness
        )

    if len(stored_groups) != groups or any(len(g) != len(shape) for g in stored_groups):
        raise SchemaError(
            f"{path}: embeddings are not {groups} groups of {len(shape)} mode matrices"
        )
    bank = EmbeddingBank(
        [
            [
                _array_from_json(e, (size, rank), path, f"embedding {s}/{m}")
                for m, (e, size) in enumerate(zip(group, shape))
            ]
            for s, group in enumerate(stored_groups)
        ]
    )
    head_shapes = {
        "mode_kernels": (channels, groups, len(shape)),
        "mode_bias": (channels,),
        "rank_kernels": (channels, channels, rank),
        "rank_bias": (channels,),
        "dense_w": (hidden, channels),
        "dense_b": (hidden,),
        "out_w": (hidden,),
        "out_b": (),
    }
    head = ConvHead(
        **{
            name: _array_from_json(head_payload[name], head_shapes[name], path, name)
            for name in _HEAD_FIELDS
        }
    )
    return NeuralModel(bank=bank, head=head, space=space, normalizer=normalizer)
