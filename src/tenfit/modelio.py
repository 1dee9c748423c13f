"""JSON/CSV persistence for schemas, observations, and fitted models.

Floats are emitted through Python's shortest-round-trip repr, so every load
is bit-exact against the arrays that were saved.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import Axis, DesignSpace, Normalizer, ObservationSet
from .errors import ContractError, SchemaError
from .optim import MODEL_KINDS, TrainConfig

SCHEMA_FILENAME = "schema.json"
OBSERVATIONS_FILENAME = "obs.csv"
NORMALIZER_FILENAME = "normalizer.json"
FORMAT_VERSION = 1  # of model files


def schema_to_json(space: DesignSpace) -> dict:
    return {
        "axes": [
            {"name": a.name, "kind": a.kind, "values": list(a.values)} for a in space.axes
        ],
        "outcome": space.outcome_name,
    }


def schema_from_json(payload: dict, path) -> DesignSpace:
    """The design space of a stored schema; a malformed one raises a
    SchemaError naming `path`, the file it was read from."""
    try:
        axes = tuple(
            Axis(name=a["name"], kind=a["kind"], values=tuple(a["values"]))
            for a in payload["axes"]
        )
        return DesignSpace(axes=axes, outcome_name=payload["outcome"])
    except (KeyError, TypeError, SchemaError) as exc:
        raise SchemaError(f"{path}: malformed schema ({type(exc).__name__}: {exc})") from None


def _normalizer_from_json(payload, path) -> Normalizer:
    """A stored normalizer: two numbers whose range Normalizer accepts."""
    try:
        return Normalizer(y_min=float(payload["y_min"]), y_max=float(payload["y_max"]))
    except (KeyError, TypeError, ValueError, ContractError) as exc:
        raise SchemaError(f"{path}: normalizer needs y_min <= y_max, both finite ({exc})") from None


def as_int(value) -> int:
    """An integer setting of a config or a model file: not a bool, a
    string, nor a number with a fraction."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def as_float(value) -> float:
    """A float setting of a config or a model file: a number, not a bool or
    a string."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def write_atomic(path, text: str) -> None:
    """Write `text` as UTF-8, newlines as given, to a temp file beside `path`,
    then move it over `path` with os.replace: `path` keeps its old bytes or
    gets all the new ones, never a part. A failed write removes the temp
    file, and an OSError names `path`, not the temp file. Every output file
    of the package is written through here."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def write_index_csv(path, space: DesignSpace, indices, values, value: str = "value") -> None:
    """0-based index columns (named after the axes) plus one float column
    `value`: the header as csv.writer quotes it, then one CRLF-ended line
    per row of integers and shortest-round-trip float reprs, joined column
    by column rather than written row by row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([a.name for a in space.axes] + [value])
    columns = np.asarray(indices, dtype=np.int64).reshape(-1, space.ndim).T.tolist()
    cells = [map(str, column) for column in columns]
    cells.append(map(repr, np.asarray(values, dtype=float).ravel().tolist()))
    body = "\r\n".join(map(",".join, zip(*cells)))
    buffer.write(f"{body}\r\n" if body else "")
    write_atomic(path, buffer.getvalue())


def _cell_error(path, row: int, record: dict, parsers: dict) -> SchemaError:
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


def _bounds_error(path, row: int, column: str, index: int, size: int) -> SchemaError:
    """The SchemaError for an index outside its axis of `size` values."""
    return SchemaError(f"{path}: row {row}, column {column!r}: index {index} not in 0..{size - 1}")


def _scan_rows(path, header: list, rows: list, parsers: dict, names: list, value, shape):
    """The error of the first bad row of a file that failed column-wise
    reading, found row by row as csv.DictReader records (a short row's
    missing cells are None): a cell its parser rejects, else the first
    index outside its axis."""
    parsed = []
    for row, cells in enumerate(rows, start=1):
        record = {**dict(zip(header, cells)), **dict.fromkeys(header[len(cells):])}
        try:
            parsed.append([int(record[n]) for n in names])
            if value:
                float(record[value])
        except (TypeError, ValueError):
            return _cell_error(path, row, record, parsers)
    for row, cells in enumerate(parsed, start=1):
        for name, index, size in zip(names, cells, shape):
            if not 0 <= index < size:
                return _bounds_error(path, row, name, index, size)
    return SchemaError(f"{path}: malformed index CSV")


def read_index_csv(path, space: DesignSpace, value: str | None = None):
    """The rows of a CSV with one 0-based index column per axis of `space`
    and, when `value` names it, a float column: (indices, values), an (n, M)
    int64 array with every index checked against its axis size and an (n,)
    float array (None without a value column). Blank lines are skipped,
    other columns are ignored, a repeated column name takes its last
    column, and cells are read by Python's int() and float(). A missing
    column or a bad cell is a SchemaError naming the file, and for a cell
    its 1-based data row and its column.

    Each column is converted at once; only a file that fails that (a short
    row, a cell int() or float() rejects, an index beyond int64) is scanned
    again row by row for its first bad cell."""
    names = [a.name for a in space.axes]
    parsers = {**dict.fromkeys(names, int), **({value: float} if value else {})}
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [n for n in parsers if n not in header]
        if missing:
            raise SchemaError(f"{path}: CSV is missing columns {missing}")
        rows = [cells for cells in reader if cells]
    position = {column: p for p, column in enumerate(header)}  # a repeated name: its last
    columns = list(zip(*rows)) or [()] * len(header)  # as many as the shortest row has
    shape, n = space.shape(), len(rows)
    try:
        indices = np.stack(
            [np.fromiter(map(int, columns[position[name]]), np.int64, n) for name in names], axis=1
        )
        values = np.fromiter(map(float, columns[position[value]]), float, n) if value else None
    except (IndexError, TypeError, ValueError, OverflowError):
        raise _scan_rows(path, header, rows, parsers, names, value, shape) from None
    bad = np.argwhere((indices < 0) | (indices >= np.asarray(shape)))
    if len(bad):
        r, m = bad[0]
        raise _bounds_error(path, r + 1, names[m], indices[r, m], shape[m])
    return indices, values


def write_dataset(obs: ObservationSet, out_dir) -> dict:
    """Persist an ingested dataset as schema.json + obs.csv + normalizer.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / SCHEMA_FILENAME, json.dumps(schema_to_json(obs.space), indent=2))
    write_index_csv(out / OBSERVATIONS_FILENAME, obs.space, obs.indices, obs.values)
    write_atomic(out / NORMALIZER_FILENAME, json.dumps(asdict(obs.normalizer), indent=2))
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
    path = root / SCHEMA_FILENAME
    space = schema_from_json(json.loads(path.read_text(encoding="utf-8")), path)
    path = root / NORMALIZER_FILENAME
    normalizer = _normalizer_from_json(json.loads(path.read_text(encoding="utf-8")), path)
    indices, values = read_index_csv(root / OBSERVATIONS_FILENAME, space, "value")
    return space, ObservationSet(space=space, indices=indices, values=values, normalizer=normalizer)


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
    if not np.all(np.isfinite(data)):
        raise SchemaError(f"{path}: {what} holds a non-finite value")
    return data.reshape(shape)


def _nest(arrays: dict) -> dict:
    """Named arrays as nested JSON: the array named "a/0/1" is stored at
    ["a"][0][1] (a level whose keys are all numbers is a list)."""
    root: dict = {}
    for name, array in arrays.items():
        *parents, leaf = name.split("/")
        node = root
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = {"shape": list(array.shape), "data": array.ravel().tolist()}

    def listed(node):
        if "data" in node:
            return node
        children = {key: listed(child) for key, child in node.items()}
        return list(children.values()) if all(key.isdigit() for key in node) else children

    return listed(root)


def _flatten(node, name: str = "") -> dict:
    """The inverse of _nest: the stored arrays of nested JSON by name (a
    stored array is a dict holding "data", or anything not a container)."""
    if isinstance(node, dict) and "data" not in node:
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return {name[:-1]: node}
    return {k: v for key, child in children for k, v in _flatten(child, f"{name}{key}/").items()}


def _label(name: str) -> str:
    """How errors name a layout array: "factor 0" for factors/0."""
    group, _, rest = name.partition("/")
    return f"{group[:-1]} {rest}" if rest else name


def save_model(model, path) -> None:
    """Write a fitted model (linear or neural) as a single JSON file: its
    kind's settings, and its arrays nested by layout name under "params"."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "rank": model.rank,
        "shape": list(model.shape),
        "schema": schema_to_json(model.space),
        "normalizer": asdict(model.normalizer) if model.normalizer is not None else None,
        **model.settings(),
        "params": _nest(model.params),
    }
    write_atomic(path, json.dumps(payload))


def load_model(path):
    """Read a model file written by save_model. The file is checked before
    use: its format version, and its arrays against its kind's layout for
    its shape, rank and settings (the same names, each shape, finite
    values); a file that fails raises a SchemaError naming it."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: a model file holds one JSON object, not {payload!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {kind!r} in {path}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"{path}: format_version {payload.get('format_version')!r} is not {FORMAT_VERSION}"
        )
    try:
        space = schema_from_json(payload["schema"], path)
        norm = payload.get("normalizer")
        normalizer = _normalizer_from_json(norm, path) if norm is not None else None
        smooth = payload.get("smoothness", {})
        cfg = TrainConfig(
            rank=as_int(payload["rank"]),
            smooth_weight=as_float(smooth.get("weight", 0.0)),
            smooth_modes=tuple(map(as_int, smooth.get("modes", ()))),
            **{key: as_int(value) for key, value in payload.get("config", {}).items()},
        )
        stored = _flatten(payload["params"])
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError, ContractError) as exc:
        raise SchemaError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    shape = space.shape()
    if payload.get("shape") != list(shape):
        raise SchemaError(
            f"{path}: rank {cfg.rank} and shape {payload.get('shape')} do not fit the schema "
            f"shape {list(shape)}"
        )
    trainable = MODEL_KINDS[kind](shape, cfg)
    layout = dict(trainable.layout)
    if set(stored) != set(layout):
        raise SchemaError(f"{path}: params holds {sorted(stored, key=str)}, not {list(layout)}")
    params = [_array_from_json(stored[n], size, path, _label(n)) for n, size in layout.items()]
    return trainable.model(params, space, normalizer)
