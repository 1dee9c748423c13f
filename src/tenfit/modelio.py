"""JSON/CSV persistence for schemas, observations, and fitted models.

Floats are emitted through Python's shortest-round-trip repr, so every load
is bit-exact against the arrays that were saved.
"""

from __future__ import annotations

import csv
import io
import itertools
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
    by column rather than written row by row.

    An index cell is looked up in its axis's table of `str(i)` for
    i in 0..size-1, so it costs no int-to-text conversion of its own; the
    indices are first checked against `space.shape()`, and one outside its
    axis is a ContractError (a negative one would pick a wrong label)."""
    shape = space.shape()
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, space.ndim)
    bad = np.argwhere((indices < 0) | (indices >= np.asarray(shape)))
    if len(bad):
        r, m = bad[0]
        raise ContractError(
            f"row {r} of the indices: {space.axes[m].name!r} index {indices[r, m]} "
            f"not in 0..{shape[m] - 1}"
        )
    buffer = io.StringIO()
    csv.writer(buffer).writerow([a.name for a in space.axes] + [value])
    cells = [
        map([str(i) for i in range(size)].__getitem__, column)
        for size, column in zip(shape, indices.T.tolist())
    ]
    cells.append(map(repr, np.asarray(values, dtype=float).ravel().tolist()))
    body = "\r\n".join(map(",".join, zip(*cells)))
    buffer.write(f"{body}\r\n" if body else "")
    write_atomic(path, buffer.getvalue())


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """A CSV file's header ([] for an empty file) and its non-blank rows; a
    UTF-8 byte order mark, as spreadsheets write, is not part of the header."""
    with Path(path).open("r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        return next(reader, []), [cells for cells in reader if cells]


def _read_column(cells, size=None) -> np.ndarray:
    """One column read at once: floats when `size` is None, else the int64
    indices of an axis of `size` values, looked up in its `{str(i): i}`
    table or, when a cell is not there (" 3", "+3", "03", an index outside
    the axis), all read by int(), with an index outside the axis a
    ValueError."""
    if size is None:
        return np.fromiter(map(float, cells), float, len(cells))
    table = {str(i): i for i in range(size)}
    try:
        return np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))
    except KeyError:
        column = np.fromiter(map(int, cells), np.int64, len(cells))
    if ((column < 0) | (column >= size)).any():
        raise ValueError("an index outside its axis")
    return column


def _first_fault(cells, size=None):
    """The first bad cell of a column `_read_column` rejects, as (index
    fault?, 1-based row, what is wrong): a cell that int() (float() when
    `size` is None) rejects, else an index outside its axis."""
    parse, parsed = float if size is None else int, []
    for row, cell in enumerate(cells, start=1):
        try:
            parsed.append(parse(cell))
        except (TypeError, ValueError):
            return False, row, f"cannot read {cell!r} as {parse.__name__}"
    row = next(row for row, index in enumerate(parsed, start=1) if not 0 <= index < size)
    return True, row, f"index {parsed[row - 1]} not in 0..{size - 1}"


def read_index_csv(path, space: DesignSpace, value: str | None = None):
    """The rows, as `read_csv_rows` reads them, of a CSV with one 0-based
    index column per axis of `space` and, when `value` names it, a float
    column: (indices, values), an (n, M) int64 array with every index
    checked against its axis size and an (n,) float array (None without a
    value column). Other columns are ignored, a repeated name takes its last
    column, a short row's missing cells are None, and cells are read by
    Python's int() and float(), a column at a time; only a column
    `_read_column` rejects is searched cell by cell. A missing
    column or a bad cell is a SchemaError naming the file, and for a cell
    its 1-based data row and its column: the least (row, column) of the
    cells int() or float() rejects, the value column last, else of the
    indices outside their axis."""
    names = [a.name for a in space.axes] + ([value] if value else [])
    header, rows = read_csv_rows(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise SchemaError(f"{path}: CSV is missing columns {missing}")
    columns = list(itertools.zip_longest(*rows))
    columns += [(None,) * len(rows)] * (len(header) - len(columns))
    position = {column: p for p, column in enumerate(header)}  # a repeated name: its last
    arrays, faults = [], []  # faults: (index fault?, row, column order, column, what)
    for m, (name, size) in enumerate(zip(names, (*space.shape(), None))):
        cells = columns[position[name]]
        try:
            arrays.append(_read_column(cells, size))
        except (TypeError, ValueError, OverflowError):
            bounds, row, what = _first_fault(cells, size)
            faults.append((bounds, row, m, name, what))
    if faults:
        _, row, _, name, what = min(faults)
        raise SchemaError(f"{path}: row {row}, column {name!r}: {what}")
    return np.stack(arrays[: space.ndim], axis=1), arrays[-1] if value else None


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


def _observation_fault(path, indices, values) -> SchemaError | None:
    """The SchemaError for the first row of an observations file that an
    ObservationSet rejects: a non-finite value or an earlier row's cell."""
    first_row = {}
    for row, (cells, y) in enumerate(zip(map(tuple, indices.tolist()), values.tolist()), 1):
        if not math.isfinite(y):
            return SchemaError(f"{path}: row {row}, column 'value': {y!r} is not a finite number")
        if cells in first_row:
            return SchemaError(f"{path}: row {row} repeats the cell of row {first_row[cells]}")
        first_row[cells] = row


def load_dataset(path):
    """Read (space, observations) from an ingest directory; a non-finite
    value or a repeated cell in obs.csv is a SchemaError naming its row."""
    root = Path(path)
    if not root.is_dir():
        raise SchemaError(f"dataset path {root} is not an ingest directory")
    path = root / SCHEMA_FILENAME
    space = schema_from_json(json.loads(path.read_text(encoding="utf-8")), path)
    path = root / NORMALIZER_FILENAME
    normalizer = _normalizer_from_json(json.loads(path.read_text(encoding="utf-8")), path)
    path = root / OBSERVATIONS_FILENAME
    indices, values = read_index_csv(path, space, "value")
    try:
        obs = ObservationSet(space=space, indices=indices, values=values, normalizer=normalizer)
    except ContractError as exc:
        raise _observation_fault(path, indices, values) or exc from None
    return space, obs


def _array_from_json(payload, path, name: str) -> np.ndarray:
    """A stored array, read in its stored shape."""
    try:
        shape, data = [as_int(s) for s in payload["shape"]], payload["data"]
        if len(data) != math.prod(shape) or min(shape, default=0) < 0:
            raise ValueError(f"shape {shape} and {len(data)} values")
        return np.array(data, dtype=float).reshape(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {name} is not a stored array ({exc})") from None


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
    """Read a model file written by save_model. Its format version is
    checked and each array read in its stored shape; the model's
    constructor then checks the arrays against its kind's layout for the
    file's shape, rank and settings (the same names, each shape, finite
    values). A file that fails raises a SchemaError naming it."""
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
    params = {name: _array_from_json(array, path, name) for name, array in stored.items()}
    try:
        return MODEL_KINDS[kind](shape, cfg).model(params, space, normalizer)
    except ContractError as exc:
        raise SchemaError(f"{path}: {exc}") from None
