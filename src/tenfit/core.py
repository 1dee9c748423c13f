"""Design-space schema, sparse observations, the uniform split, the
training engine's view of a model kind and its flat parameter buffer,
fitted models, and dense tensors.

A design space is an ordered list of axes (one per design parameter), each
with an enumerated value list; its Cartesian product defines the tensor
shape. Observations are stored in COO form with outcomes min-max normalized
to [0, 1].

The flat parameter buffer of B fits is described here and nowhere else,
by `block_starts`, `block_views`, `pack`, `unpack`, `slot_owners` and
`gather_keys`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DegenerateDataError, SchemaError, SplitError

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
                raise SchemaError(f"axis {self.name!r}: ordinal values must be numeric")
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
            raise SchemaError(f"non-numeric value {value!r} on an ordinal axis") from None
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
    """Min-max record of the original outcome units. Its range y_max - y_min
    must be a finite float >= 0, else construction is a ContractError."""

    y_min: float
    y_max: float

    def __post_init__(self):
        if not 0 <= self.span < math.inf:
            raise ContractError(f"y_min {self.y_min} and y_max {self.y_max} are not a finite range")

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


def uniform_split(obs: ObservationSet, fraction: float, seed: int):
    """Disjoint exhaustive partition with |train| = round(fraction * n);
    deterministic per seed and independent of the input row order."""
    if not 0 < fraction < 1:
        raise ContractError("train fraction must lie in (0, 1)")
    if obs.n < 2:
        raise SplitError("need at least two observations to split")
    n_train = int(np.floor(fraction * obs.n + 0.5))
    if n_train < 1 or n_train >= obs.n:
        raise SplitError(f"fraction {fraction} leaves an empty side for n={obs.n}")
    canon = obs.canonical_order()
    perm = np.random.default_rng(seed).permutation(obs.n)
    train_pos = np.sort(perm[:n_train])
    test_pos = np.sort(perm[n_train:])
    return canon.take(train_pos), canon.take(test_pos)


@dataclass
class Trainable:
    """What the training engine (`optim`) needs to train one model kind.

    `layout` names the kind's parameter arrays and gives their shapes, as
    `[(name, shape), ...]`; `init(seed)` gives one fit's arrays in that
    order. B fits train in one flat buffer laid out parameter-major: the
    k-th array of every fit forms one contiguous (B, *shape_k) block, in
    layout order. This module's buffer helpers are the format's one home.
    `objective(data_sets)` builds the batched training objective over B
    data sets: `objective(flat, grad=True)` takes that buffer and returns
    `(losses, g)`, losses of shape (B,) and g one fresh flat gradient in the
    same layout, or the losses alone when `grad` is false; a buffer of the
    wrong length is a ContractError. An objective owns work arrays that
    every call writes into, so a large fit does not allocate (and
    page-fault) them each epoch; it is therefore not re-entrant, and what
    it returns never aliases them. `val_objective(data_sets)` builds the
    batched validation loss the same way. `model(params, space, normalizer)`
    builds the fitted model from one fit's arrays by layout name.
    `max_rows` bounds the training rows of one batch, and `same_size` says
    whether one batch needs data sets of one size. `row_epoch_us` is the
    kind's measured cost of one training row for one epoch, in us; the
    engine estimates a batch's work from it to order and place batches.
    """

    layout: list
    init: Callable
    objective: Callable
    val_objective: Callable
    model: Callable
    max_rows: int
    row_epoch_us: float
    same_size: bool = False


def block_starts(shapes, n_fits: int) -> list:
    """Each (B, *shape) block's start in a flat buffer of B fits, then its length."""
    starts = [0]
    for shape in shapes:
        starts.append(starts[-1] + n_fits * math.prod(shape))
    return starts


def block_views(flat: np.ndarray, shapes, n_fits: int) -> list:
    """The (B, *shape) blocks of a flat buffer of B fits, as views."""
    starts = block_starts(shapes, n_fits)
    return [flat[start:end].reshape((n_fits, *shape))
            for start, end, shape in zip(starts, starts[1:], shapes)]


def pack(fits) -> np.ndarray:
    """The flat buffer of B fits, each a list of arrays in layout order."""
    return np.concatenate([np.stack(arrays) for arrays in zip(*fits)], axis=None, dtype=float)


def unpack(flat: np.ndarray, shapes) -> list:
    """One fit's arrays, as views, from its own flat buffer: `pack([arrays])` undone."""
    return [view[0] for view in block_views(flat, shapes, 1)]


def slot_owners(shapes, n_fits: int) -> np.ndarray:
    """Each element's fit, by its batch slot, in a flat buffer of B fits."""
    slots = np.arange(n_fits)
    return np.concatenate([np.repeat(slots, math.prod(shape)) for shape in shapes])


def gather_keys(start, shape, fit, row) -> np.ndarray:
    """Flat positions of the R entries of row `row` of fit `fit` in the
    (B, I, R) block at `start`, `shape` being (I, R): `start`, I, `fit` and
    `row` broadcast, R last, as C-contiguous int64 (strided keys slow a `take`)."""
    size, rank = shape
    first = start + (fit * size + row) * rank
    return np.ascontiguousarray(np.add.outer(first, np.arange(rank, dtype=np.int64)))


@dataclass
class FittedModel:
    """A fitted model: its kind, its arrays by the names of the kind's
    `layout(shape, cfg)`, its design space, its training outcomes'
    normalizer (or None) and the TrainConfig that gives the layout and the
    kind's `settings()`. Each kind is a subclass with `layout`, `settings()`
    and `predict(indices)`. Construction is the one check of a model: the
    layout's names, each array's shape, finite values and settings that fit
    the space; a fault is a ContractError."""

    kind: str
    params: dict
    space: DesignSpace
    normalizer: Normalizer | None
    cfg: object

    def __post_init__(self):
        layout = dict(self.layout(self.shape, self.cfg))
        if set(self.params) != set(layout):
            raise ContractError(f"params holds {sorted(self.params, key=str)}, not {list(layout)}")
        self.params = {name: np.asarray(self.params[name], dtype=float) for name in layout}
        for name, array in self.params.items():
            if array.shape != layout[name]:
                raise ContractError(f"{name} has shape {list(array.shape)} and {array.size} "
                                    f"values, expected shape {layout[name]}")
            if not np.isfinite(array).all():
                raise ContractError(f"{name} holds a non-finite value")
        self.settings()

    @property
    def rank(self) -> int:
        return self.cfg.rank

    @property
    def shape(self) -> tuple[int, ...]:
        return self.space.shape()


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


def _columns(records: Sequence[Mapping], names: Sequence[str]) -> list[list]:
    """Each named field's values in record order, one list per name; the
    first record that lacks a field is a SchemaError naming both."""
    try:
        return [[record[name] for record in records] for name in names]
    except KeyError:
        for pos, name in ((p, f) for p, r in enumerate(records) for f in names if f not in r):
            raise SchemaError(f"record {pos} is missing field {name!r}") from None
        raise


def build_design_space(
    records: Sequence[Mapping],
    axis_names: Sequence[str],
    outcome_name: str,
    kinds: Mapping[str, str],
) -> DesignSpace:
    """Derive the design-space schema from tabular records.

    Each axis's values are the distinct values observed across records,
    sorted: numeric ascending for ordinal axes, lexicographic for
    categorical ones, so the schema does not depend on record order. The
    resulting shape spans the full combinatorial space implied by those
    values.
    """
    if not records:
        raise SchemaError("need at least one record")
    axes = []
    for name, column in zip(axis_names, _columns(records, [*axis_names, outcome_name])):
        kind = kinds.get(name)
        if kind not in (ORDINAL, CATEGORICAL):
            raise SchemaError(f"axis {name!r}: kind must be ordinal or categorical")
        values = tuple(sorted({_canonical_value(kind, v) for v in column}))
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
    Cells come out in index-tuple order, a cell's records averaged in
    record order; `duplicates="error"` rejects repeated cells instead,
    naming the first in record order.
    """
    if not records:
        raise SchemaError("need at least one record")
    if duplicates not in ("mean", "error"):
        raise ContractError(f"unknown duplicate policy {duplicates!r}")

    name, n = space.outcome_name, len(records)
    *columns, raw_outcomes = _columns(records, [*(a.name for a in space.axes), name])
    columns = [np.fromiter(map(a.index_of, c), np.int64, n) for a, c in zip(space.axes, columns)]
    outcomes = []
    for pos, raw in enumerate(raw_outcomes):
        try:
            y = float(raw)
        except (TypeError, ValueError):
            raise SchemaError(f"record {pos}: outcome {raw!r} is not numeric") from None
        if not math.isfinite(y):
            raise ContractError(f"record {pos}: outcome {name!r} is {y!r}, not a finite number")
        outcomes.append(y)
    if normalizer is None:
        normalizer = Normalizer.fit(outcomes)
    # index columns sorted by cell, stably, so a cell's records keep record
    # order; one array per axis spares (n, M) temporaries and their page faults
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    changed = np.logical_or.reduce([c[1:] != c[:-1] for c in columns])
    bounds = np.flatnonzero(np.r_[True, changed, True])  # each cell's first row, then n
    repeated = np.flatnonzero(np.diff(bounds) > 1)
    if duplicates == "error" and len(repeated):
        first = bounds[repeated][np.argmin(order[bounds[repeated]])]
        raise ContractError(f"duplicate records for index {tuple(int(c[first]) for c in columns)}")
    # A single record's mean is itself, plus 0.0 as np.mean's sum adds it
    # (so -0.0 becomes 0.0); a mean that rounding or overflow took outside its
    # records' [min, max] is clamped back. One call normalizes every cell.
    ys = np.array(outcomes)[order]
    means = ys[bounds[:-1]] + 0.0
    with np.errstate(over="ignore"):
        for g in repeated:
            group = ys[bounds[g]:bounds[g + 1]].tolist()
            means[g] = min(max(np.mean(group), min(group)), max(group))
    return ObservationSet(space=space, indices=np.stack([c[bounds[:-1]] for c in columns], axis=1),
                          values=normalizer.normalize(means), normalizer=normalizer)


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
