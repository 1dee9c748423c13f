"""Reference kernels kept as independent oracles for the fused training
objectives, and the per-cell CPD prediction the vectorized one is checked
against.

These are the straightforward forms of the masked-CP gradient (prefix and
suffix products with an `np.add.at` scatter) and of the CoSTCo forward and
backward passes (one `np.einsum` per contraction, one `np.add.at` per
embedding matrix). They favour clarity over speed; the package computes the
same quantities with reshaped matmuls and a single `np.bincount` scatter.

`exhaustive_fms` is the reference for the factor match score's component
pairing: it tries every permutation, where the package solves a linear
assignment.

`read_index_csv` and `write_index_csv` are the row-by-row index-CSV codec
the package's column-wise one replaced: one `csv.DictReader` record per row
read, one `csv.writer.writerow` call per row written. The package must
write the same bytes and read the same arrays, or raise the same
SchemaError.

`encode_observations` is the record-by-record ingest the package's
column-wise one replaced: one index tuple per record, outcomes grouped in a
dict of lists whose sorted keys give the cells. The package must give the
same indices, value bits and normalizer, or raise the same error, on every
record set with at most one fault.

`AdamState` and `adam_step` are the list-based, bias-corrected Adam update
the engine's in-place `optim.adam_step` on flat buffers must match bit for
bit.

`neural_grad` is not an oracle: it reads the package's own CoSTCo gradient
for one model, which the finite-difference checks compare.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tenfit.core import Normalizer, ObservationSet, pack, unpack
from tenfit.errors import ContractError, DegenerateDataError, SchemaError
from tenfit.metrics import _congruence_products
from tenfit.modelio import write_atomic
from tenfit.neural import _masked_objective


def _check_index(index, shape) -> tuple[int, ...]:
    index = tuple(int(i) for i in index)
    if len(index) != len(shape):
        raise IndexError(f"index {index} has wrong arity for shape {shape}")
    for i, size in zip(index, shape):
        if not 0 <= i < size:
            raise IndexError(f"index {index} out of range for shape {shape}")
    return index


def predict_entry(factors, index) -> float:
    """Predicted value at one cell of a FactorSet: sum over components of
    the product of the selected factor rows."""
    index = _check_index(index, factors.shape)
    rows = np.stack([f[i] for f, i in zip(factors.factors, index)])
    return float(rows.prod(axis=0).sum())


def cpd_loss_and_grad(factors, indices, values, smooth_weight=0.0, smooth_modes=()):
    """Masked MSE plus first-difference penalty, and its gradient, for a list
    of I_m x R factor matrices."""
    n, ndim = indices.shape
    rank = factors[0].shape[1]
    rows = [f[indices[:, m]] for m, f in enumerate(factors)]

    prefix = [np.ones((n, rank))]
    for m in range(ndim):
        prefix.append(prefix[-1] * rows[m])
    suffix = [np.ones((n, rank))]
    for m in range(ndim - 1, -1, -1):
        suffix.append(suffix[-1] * rows[m])
    suffix = suffix[::-1]

    residuals = prefix[ndim].sum(axis=1) - values
    coef = (2.0 / n) * residuals
    loss = float(np.mean(residuals**2))

    grads = []
    for m, f in enumerate(factors):
        g = np.zeros_like(f)
        np.add.at(g, indices[:, m], coef[:, None] * (prefix[m] * suffix[m + 1]))
        grads.append(g)

    if smooth_weight > 0:
        for m in smooth_modes:
            diffs = np.diff(factors[m], axis=0)
            loss += smooth_weight * float(np.sum(diffs**2))
            grads[m][:-1] -= 2.0 * smooth_weight * diffs
            grads[m][1:] += 2.0 * smooth_weight * diffs
    return loss, grads


def costco_forward(params, indices):
    """Predictions and the (x, z1, a1, z2, a2, z3, a3) cache of CoSTCo
    arrays given by layout name, with x as (n, S, R, M) and z1, a1 as
    (n, C, R)."""
    n = indices.shape[0]
    _, n_groups, n_modes = params["mode_kernels"].shape
    rank = params["rank_kernels"].shape[2]
    x = np.empty((n, n_groups, rank, n_modes))
    for s in range(n_groups):
        for m in range(n_modes):
            x[:, s, :, m] = params[f"embeddings/{s}/{m}"][indices[:, m]]
    z1 = np.einsum("nsrm,csm->ncr", x, params["mode_kernels"]) + params["mode_bias"][None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = np.einsum("ncr,dcr->nd", a1, params["rank_kernels"]) + params["rank_bias"]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ params["dense_w"].T + params["dense_b"]
    a3 = np.maximum(z3, 0.0)
    preds = a3 @ params["out_w"] + params["out_b"]
    return preds, (x, z1, a1, z2, a2, z3, a3)


def costco_backward(params, indices, cache, dpreds):
    """Gradients of sum(dpreds * preds), embeddings group-major then the
    eight head arrays (the layout order)."""
    x, z1, a1, z2, a2, z3, a3 = cache
    _, n_groups, n_modes = params["mode_kernels"].shape
    g_out_b = np.asarray(dpreds.sum())
    g_out_w = a3.T @ dpreds
    dz3 = np.outer(dpreds, params["out_w"]) * (z3 > 0)
    g_dense_w = dz3.T @ a2
    g_dense_b = dz3.sum(axis=0)
    dz2 = (dz3 @ params["dense_w"]) * (z2 > 0)
    g_rank_k = np.einsum("nd,ncr->dcr", dz2, a1)
    g_rank_b = dz2.sum(axis=0)
    dz1 = np.einsum("nd,dcr->ncr", dz2, params["rank_kernels"]) * (z1 > 0)
    g_mode_k = np.einsum("ncr,nsrm->csm", dz1, x)
    g_mode_b = dz1.sum(axis=(0, 2))
    dx = np.einsum("ncr,csm->nsrm", dz1, params["mode_kernels"])

    flat = []
    for s in range(n_groups):
        for m in range(n_modes):
            g = np.zeros_like(params[f"embeddings/{s}/{m}"])
            np.add.at(g, indices[:, m], dx[:, s, :, m])
            flat.append(g)
    flat += [g_mode_k, g_mode_b, g_rank_k, g_rank_b, g_dense_w, g_dense_b, g_out_w, g_out_b]
    return flat


def costco_loss_and_grad(params, indices, values):
    """Masked MSE of the CoSTCo prediction and its gradient in layout order."""
    preds, cache = costco_forward(params, indices)
    residuals = preds - values
    dpreds = (2.0 / len(values)) * residuals
    return float(np.mean(residuals**2)), costco_backward(params, indices, cache, dpreds)


def neural_grad(model, obs) -> list:
    """The package's exact masked-MSE gradient of every array of a
    NeuralModel, in layout order: one call of the training objective."""
    if obs.n == 0:
        raise DegenerateDataError("gradient is undefined on an empty observation set")
    arrays = list(model.params.values())
    _, g = _masked_objective([obs], model.cfg)(pack([arrays]))
    return unpack(g, [a.shape for a in arrays])


def exhaustive_fms(a, b):
    """(score, permutation) of the factor match score by exhaustive search
    over the R! component permutations of b, on the package's congruence
    products: the first permutation in lexicographic order with the largest
    total, and the mean of its per-component products."""
    products = _congruence_products(a, b)
    rows = np.arange(a.rank)
    best_perm, best_total = None, -np.inf
    for perm in itertools.permutations(range(a.rank)):
        total = products[rows, perm].sum()
        if total > best_total:
            best_total, best_perm = total, perm
    return float(products[rows, best_perm].mean()), best_perm


@dataclass
class AdamState:
    """First/second moment accumulators, step counter, and hyperparameters."""

    m: list
    v: list
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params, lr):
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params],
                   t=0, lr=lr)


def adam_step(params, grads, state):
    """One bias-corrected Adam update; returns (new params, new state)."""
    t = state.t + 1
    new_m = [state.beta1 * m + (1 - state.beta1) * g for m, g in zip(state.m, grads)]
    new_v = [state.beta2 * v + (1 - state.beta2) * g * g for v, g in zip(state.v, grads)]
    bc1 = 1 - state.beta1**t
    bc2 = 1 - state.beta2**t
    new_params = [
        p - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        for p, m, v in zip(params, new_m, new_v)
    ]
    return new_params, replace(state, m=new_m, v=new_v, t=t)


def write_index_csv(path, space, indices, values, value="value"):
    """Index columns plus one float column, one writerow call per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([a.name for a in space.axes] + [value])
    for row, y in zip(indices, values):
        writer.writerow([int(i) for i in row] + [repr(float(y))])
    write_atomic(path, buffer.getvalue())


def _cell_error(path, row, record, parsers):
    """The SchemaError for the first cell of a record its parser rejects."""
    for column, parse in parsers.items():
        try:
            parse(record[column])
        except (TypeError, ValueError):
            return SchemaError(
                f"{path}: row {row}, column {column!r}: "
                f"cannot read {record[column]!r} as {parse.__name__}"
            )


def read_index_csv(path, space, value=None):
    """(indices, values) of an index CSV, one DictReader record per row."""
    names = [a.name for a in space.axes]
    parsers = {**dict.fromkeys(names, int), **({value: float} if value else {})}
    with Path(path).open("r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        missing = [n for n in parsers if n not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: CSV is missing columns {missing}")
        rows, values = [], []
        for row, record in enumerate(reader, start=1):
            try:
                rows.append([int(record[n]) for n in names])
                if value:
                    values.append(float(record[value]))
            except (TypeError, ValueError):
                raise _cell_error(path, row, record, parsers) from None
    shape = space.shape()
    try:
        indices = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(names))
        bad = np.argwhere((indices < 0) | (indices >= np.asarray(shape)))
    except OverflowError:  # beyond int64, so outside its axis too
        bad = [(r, m) for r, cells in enumerate(rows) for m, i in enumerate(cells)
               if not 0 <= i < shape[m]]
    if len(bad):
        r, m = bad[0]
        raise SchemaError(
            f"{path}: row {r + 1}, column {names[m]!r}: index {rows[r][m]} not in 0..{shape[m] - 1}"
        )
    return indices, np.asarray(values, dtype=float) if value else None


def encode_observations(records, space, duplicates="mean", normalizer=None):
    """ObservationSet of records, one index tuple per record, a cell's
    outcomes grouped in a dict of lists and averaged cell by cell."""
    if not records:
        raise SchemaError("need at least one record")
    if duplicates not in ("mean", "error"):
        raise ContractError(f"unknown duplicate policy {duplicates!r}")
    index_rows, outcomes = [], []
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
            raise SchemaError(
                f"record {pos}: outcome {record[space.outcome_name]!r} is not numeric"
            ) from None
        if not math.isfinite(y):
            raise ContractError(
                f"record {pos}: outcome {space.outcome_name!r} is {y!r}, not a finite number"
            )
        index_rows.append(tuple(row))
        outcomes.append(y)
    if normalizer is None:
        normalizer = Normalizer.fit(outcomes)
    grouped = {}
    for row, y in zip(index_rows, outcomes):
        grouped.setdefault(row, []).append(y)
    if duplicates == "error" and any(len(v) > 1 for v in grouped.values()):
        dupe = next(k for k, v in grouped.items() if len(v) > 1)
        raise ContractError(f"duplicate records for index {dupe}")
    keys = sorted(grouped)
    indices = np.array(keys, dtype=np.int64).reshape(len(keys), space.ndim)
    with np.errstate(over="ignore"):
        means = [ys[0] + 0.0 if len(ys) == 1 else min(max(np.mean(ys), min(ys)), max(ys))
                 for ys in map(grouped.__getitem__, keys)]
    values = normalizer.normalize(np.array(means, dtype=float))
    return ObservationSet(space=space, indices=indices, values=values, normalizer=normalizer)
