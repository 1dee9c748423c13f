"""Design-space schema, sparse observations, and dense tensors.

A design space is an ordered list of axes (one per design parameter), each
with an enumerated value list; its Cartesian product defines the tensor
shape. Observations are stored in COO form with outcomes min-max normalized
to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ContractError,
    DegenerateDataError,
    SchemaError,
)

ORDINAL = "ordinal"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Axis:
    """One design parameter: a name, a kind, and its ordered value list.

    Ordinal values are numeric and strictly increasing; categorical values
    keep their declared order.
    """

    name: str
    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in (ORDINAL, CATEGORICAL):
            raise SchemaError(f"axis {self.name!r}: unknown kind {self.kind!r}")
        if not self.values:
            raise SchemaError(f"axis {self.name!r}: empty value list")
        if len(set(self.values)) != len(self.values):
            raise SchemaError(f"axis {self.name!r}: duplicate values")
        if self.kind == ORDINAL:
            vals = list(self.values)
            if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in vals):
                raise TypeError(f"axis {self.name!r}: ordinal values must be numeric")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise SchemaError(f"axis {self.name!r}: ordinal values must increase strictly")
        object.__setattr__(self, "_lookup", {v: i for i, v in enumerate(self.values)})

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        key = _canonical_value(self.kind, value)
        try:
            return self._lookup[key]
        except KeyError:
            raise SchemaError(
                f"axis {self.name!r}: unknown value {value!r}"
            ) from None


def _canonical_value(kind: str, value):
    """Map a raw record value onto the form stored in Axis.values."""
    if kind == ORDINAL:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise TypeError(f"non-numeric value {value!r} on an ordinal axis") from None
    return str(value)


@dataclass(frozen=True)
class DesignSpace:
    """Ordered axes plus the outcome label; defines the tensor shape."""

    axes: tuple[Axis, ...]
    outcome_name: str

    def __post_init__(self):
        if not self.axes:
            raise SchemaError("design space needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate axis names")

    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def n_cells(self) -> int:
        return math.prod(self.shape())

    def axis_position(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise SchemaError(f"unknown axis {name!r}")

    def ordinal_modes(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.axes) if a.kind == ORDINAL)

    @classmethod
    def from_shape(cls, shape: Sequence[int], outcome_name: str = "y") -> "DesignSpace":
        """Anonymous all-ordinal space with values 0..I-1 per mode; handy for
        synthetic tasks."""
        axes = tuple(
            Axis(name=f"p{m}", kind=ORDINAL, values=tuple(float(v) for v in range(size)))
            for m, size in enumerate(shape)
        )
        return cls(axes=axes, outcome_name=outcome_name)


@dataclass(frozen=True)
class Normalizer:
    """Min-max record of the original outcome units."""

    y_min: float
    y_max: float

    @classmethod
    def fit(cls, values: Iterable[float]) -> "Normalizer":
        vals = [float(v) for v in values]
        if not vals:
            raise DegenerateDataError("cannot fit a normalizer on no values")
        return cls(y_min=min(vals), y_max=max(vals))

    @property
    def span(self) -> float:
        return self.y_max - self.y_min

    def normalize(self, y):
        y = np.asarray(y, dtype=float)
        if self.span > 0:
            out = (y - self.y_min) / self.span
        else:
            if np.any(y != self.y_min):
                raise DegenerateDataError(
                    f"normalizer range is degenerate (y_min == y_max == {self.y_min})"
                )
            out = np.zeros_like(y)
        return float(out) if out.ndim == 0 else out

    def denormalize(self, v):
        if self.span <= 0:
            raise DegenerateDataError("cannot invert a degenerate normalizer")
        v = np.asarray(v, dtype=float)
        out = v * self.span + self.y_min
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ObservationSet:
    """Sparse COO observations over a design space.

    `indices` is (n, M) int64, `values` is (n,) float64 in normalized units.
    Index tuples are unique; both arrays are frozen after construction.
    """

    space: DesignSpace
    indices: np.ndarray
    values: np.ndarray
    normalizer: Normalizer

    def __post_init__(self):
        idx = np.atleast_2d(np.asarray(self.indices, dtype=np.int64))
        vals = np.asarray(self.values, dtype=float).ravel()
        shape = self.space.shape()
        if idx.ndim != 2 or idx.shape[1] != len(shape):
            raise ContractError(
                f"indices must be (n, {len(shape)}), got {idx.shape}"
            )
        if idx.shape[0] != vals.shape[0]:
            raise ContractError("indices and values disagree on length")
        if idx.size and (idx.min() < 0 or np.any(idx >= np.asarray(shape))):
            raise ContractError("observation index out of range for the design space")
        ordered = idx[np.lexsort(idx.T)]  # equal tuples end up adjacent
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ContractError("duplicate observation index tuples")
        if not np.all(np.isfinite(vals)):
            raise ContractError("observation values must be finite")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def canonical_order(self) -> "ObservationSet":
        """Rows sorted lexicographically by index tuple; makes downstream
        sampling independent of ingestion order."""
        order = np.lexsort(self.indices.T[::-1])
        return self.take(order)

    def take(self, positions) -> "ObservationSet":
        positions = np.asarray(positions, dtype=np.int64)
        return ObservationSet(
            space=self.space,
            indices=self.indices[positions],
            values=self.values[positions],
            normalizer=self.normalizer,
        )

    def renormalized(self, new_normalizer: Normalizer) -> "ObservationSet":
        """Re-express values under another normalizer (values may leave [0, 1])."""
        original = self.normalizer.denormalize(self.values)
        return ObservationSet(
            space=self.space,
            indices=self.indices,
            values=new_normalizer.normalize(original),
            normalizer=new_normalizer,
        )


@dataclass(frozen=True)
class DenseTensor:
    """Row-major flat storage of a fully materialized tensor."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        data = np.asarray(self.data, dtype=float).ravel()
        if data.shape[0] != math.prod(shape):
            raise ContractError(
                f"flat data length {data.shape[0]} != prod(shape)={math.prod(shape)}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "DenseTensor":
        array = np.asarray(array, dtype=float)
        return cls(shape=array.shape, data=np.ascontiguousarray(array).ravel())

    @property
    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


def build_design_space(
    records: Sequence[Mapping],
    axis_names: Sequence[str],
    outcome_name: str,
    kinds: Mapping[str, str],
    declared_orders: Mapping[str, Sequence] | None = None,
) -> DesignSpace:
    """Derive the design-space schema from tabular records.

    Each axis's values are the distinct values observed across records:
    numeric ascending for ordinal axes, a declared order (or lexicographic)
    for categorical ones. The resulting shape spans the full combinatorial
    space implied by those values.
    """
    if not records:
        raise SchemaError("need at least one record")
    declared_orders = declared_orders or {}
    for pos, record in enumerate(records):
        for name in (*axis_names, outcome_name):
            if name not in record:
                raise SchemaError(f"record {pos} is missing field {name!r}")

    axes = []
    for name in axis_names:
        kind = kinds.get(name)
        if kind not in (ORDINAL, CATEGORICAL):
            raise SchemaError(f"axis {name!r}: kind must be ordinal or categorical")
        observed = {_canonical_value(kind, r[name]) for r in records}
        if kind == ORDINAL:
            values = tuple(sorted(observed))
        elif name in declared_orders:
            declared = [_canonical_value(kind, v) for v in declared_orders[name]]
            extra = observed - set(declared)
            if extra:
                raise SchemaError(
                    f"axis {name!r}: values {sorted(extra)} missing from declared order"
                )
            values = tuple(v for v in declared if v in observed)
        else:
            # Lexicographic keeps the schema independent of record order.
            values = tuple(sorted(observed))
        axes.append(Axis(name=name, kind=kind, values=values))
    return DesignSpace(axes=tuple(axes), outcome_name=outcome_name)


def encode_observations(
    records: Sequence[Mapping],
    space: DesignSpace,
    duplicates: str = "mean",
    normalizer: Normalizer | None = None,
) -> ObservationSet:
    """Map records to COO entries with min-max normalized outcomes.

    The normalizer is fit on the provided records unless one is passed in.
    Duplicate index tuples are averaged by default; `duplicates="error"`
    rejects them instead.
    """
    if not records:
        raise SchemaError("need at least one record")
    if duplicates not in ("mean", "error"):
        raise ContractError(f"unknown duplicate policy {duplicates!r}")

    index_rows = []
    outcomes = []
    for pos, record in enumerate(records):
        row = []
        for axis in space.axes:
            if axis.name not in record:
                raise SchemaError(f"record {pos} is missing field {axis.name!r}")
            row.append(axis.index_of(record[axis.name]))
        if space.outcome_name not in record:
            raise SchemaError(f"record {pos} is missing field {space.outcome_name!r}")
        try:
            y = float(record[space.outcome_name])
        except (TypeError, ValueError):
            raise TypeError(
                f"record {pos}: outcome {record[space.outcome_name]!r} is not numeric"
            ) from None
        index_rows.append(tuple(row))
        outcomes.append(y)

    if normalizer is None:
        normalizer = Normalizer.fit(outcomes)

    grouped: dict[tuple[int, ...], list[float]] = {}
    for row, y in zip(index_rows, outcomes):
        grouped.setdefault(row, []).append(y)
    if duplicates == "error" and any(len(v) > 1 for v in grouped.values()):
        dupe = next(k for k, v in grouped.items() if len(v) > 1)
        raise ContractError(f"duplicate records for index {dupe}")

    keys = sorted(grouped)
    indices = np.array(keys, dtype=np.int64).reshape(len(keys), space.ndim)
    values = np.array(
        [normalizer.normalize(float(np.mean(grouped[k]))) for k in keys], dtype=float
    )
    return ObservationSet(space=space, indices=indices, values=values, normalizer=normalizer)


def check_dense_capacity(shape: Sequence[int], cell_cap: int = 10_000_000) -> None:
    cells = math.prod(int(s) for s in shape)
    if cells > cell_cap:
        raise CapacityError(
            f"dense tensor of {cells} cells exceeds the cap of {cell_cap}"
        )


def check_indices(indices, shape: Sequence[int]) -> np.ndarray:
    """Query cells as an (n, M) int64 array for a space of `shape`. Empty
    input gives a (0, M) array; a wrong arity or an index outside its axis
    raises IndexError."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return indices.reshape(0, len(shape))
    indices = np.atleast_2d(indices)
    if indices.ndim != 2 or indices.shape[1] != len(shape):
        raise IndexError(f"index arity {indices.shape[-1]} != mode count {len(shape)}")
    if indices.min() < 0 or np.any(indices >= np.asarray(shape)):
        raise IndexError("index out of range")
    return indices
