"""Regression metrics, factor match scoring, and component exports.

The factor match score compares two decompositions of equal rank: for each
candidate component pairing it multiplies the cosine similarity of the
paired columns across all modes, then averages the per-component products
under the pairing that maximizes the total. That pairing is found by
`_max_assignment`, a port of the shortest augmenting path solver behind
SciPy's `linear_sum_assignment`, so tenfit needs only numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DesignSpace
from .cpd import FactorSet
from .errors import ContractError, DegenerateDataError
from .modelio import record_json, write_atomic

MAPE_ZERO_TOLERANCE = 1e-8


@dataclass(frozen=True)
class MetricsReport:
    r2: float
    mae: float
    rmse: float
    mape: float
    n: int
    mape_excluded: int

    to_json = record_json


def regression_metrics(y, yhat) -> MetricsReport:
    """R^2, MAE, RMSE, MAPE, with near-zero targets excluded from MAPE.

    RMSE is the root of the mean squared residual. MAPE skips targets with
    |y| below 1e-8 and reports how many were skipped (zero targets are
    routine after min-max normalization).
    """
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape or y.size == 0:
        raise ContractError("y and yhat must be equal-length and non-empty")
    residuals = y - yhat
    variance = np.sum((y - y.mean()) ** 2)
    if variance == 0:
        raise DegenerateDataError("R^2 is undefined when all targets are identical")
    r2 = 1.0 - float(np.sum(residuals**2)) / float(variance)
    mae = float(np.mean(np.abs(residuals)))
    rmse = float(np.sqrt(np.mean(residuals**2)))
    keep = np.abs(y) >= MAPE_ZERO_TOLERANCE
    excluded = int(np.sum(~keep))
    mape = float(np.mean(np.abs(residuals[keep] / y[keep]))) if keep.any() else 0.0
    return MetricsReport(
        r2=r2, mae=mae, rmse=rmse, mape=mape, n=int(y.size), mape_excluded=excluded
    )


@dataclass(frozen=True)
class FactorComparison:
    fms: float
    permutation: tuple[int, ...]
    per_component: tuple[float, ...]

    to_json = record_json


def _unit_columns(matrix: np.ndarray) -> np.ndarray:
    """The matrix with every column scaled to unit l2 norm.

    A column whose plain norm overflows to inf or underflows to 0 while it
    holds a nonzero entry is first divided by its largest absolute entry,
    then by the norm of the result, so its true norm never has to be a
    float; every other column keeps the plain norm's bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=0)
    if not (norms.all() and np.isfinite(norms).all()):
        peaks = np.max(np.abs(matrix), axis=0)
        off = ((norms == 0) | np.isinf(norms)) & (peaks > 0)
        matrix = matrix / np.where(off, peaks, 1.0)
        norms[off] = np.linalg.norm(matrix[:, off], axis=0)
        if not norms.all():
            raise DegenerateDataError("zero-norm factor column")
    return matrix / norms


def _congruence_products(a: FactorSet, b: FactorSet) -> np.ndarray:
    """(R, R) matrix of products over modes of column cosine similarities."""
    products = np.ones((a.rank, b.rank))
    for fa, fb in zip(a.factors, b.factors):
        products *= _unit_columns(fa).T @ _unit_columns(fb)
    return products


def _max_assignment(scores: np.ndarray) -> list[int]:
    """The column paired with each row of the square matrix `scores` by the
    pairing with the largest total.

    This is the shortest augmenting path method of Crouse, "On implementing
    2D rectangular assignment algorithms" (IEEE TAES, 2016), ported step
    for step from SciPy's `rectangular_lsap.cpp`, so that it returns the
    permutation of SciPy's `linear_sum_assignment(scores, maximize=True)`,
    ties included: it minimizes the negated matrix, scans the remaining
    columns in SciPy's order (first reversed, the chosen one replaced by
    the last), prefers an unassigned column at equal path cost, and sums
    the reduced costs in SciPy's order on Python floats. A path cost that
    stays infinite, which finite scores never give, is a `ContractError`.
    """
    cost = (-scores).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        rows_seen, cols_seen = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            rows_seen[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ContractError("no finite pairing of factor components")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in range(n):
            if rows_seen[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n):
            if cols_seen[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def fms(a: FactorSet, b: FactorSet) -> FactorComparison:
    """Factor match score with the optimal component permutation of b,
    found by linear assignment (`_max_assignment`) at every rank. Cosine
    signs are kept, so a component flipped in an odd number of modes
    contributes negatively.
    """
    if a.ndim != b.ndim or a.shape != b.shape:
        raise ContractError(f"factor shapes differ: {a.shape} vs {b.shape}")
    if a.rank != b.rank:
        raise ContractError(f"ranks differ: {a.rank} vs {b.rank}")
    products = _congruence_products(a, b)
    perm = _max_assignment(products)
    per_component = products[np.arange(a.rank), perm]
    return FactorComparison(
        fms=float(per_component.mean()),
        permutation=tuple(perm),
        per_component=tuple(float(c) for c in per_component),
    )


def normalized_components(factors: FactorSet, mode: int) -> np.ndarray:
    """Column magnitudes of one mode's factor matrix after l2 column
    normalization."""
    if not 0 <= mode < factors.ndim:
        raise ContractError(f"mode {mode} invalid for {factors.ndim} modes")
    return np.abs(_unit_columns(factors.factors[mode]))


def _safe_name(label: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z_-]+", "_", str(label)).strip("_")
    return cleaned or "axis"


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def component_expression_export(
    factors: FactorSet,
    space: DesignSpace,
    out_dir,
    quantile: float = 0.75,
    normalized: bool = True,
) -> dict:
    """Write one CSV of component magnitudes per mode plus a JSON of
    high-expression axis values.

    A value is highlighted for a component when its magnitude strictly
    exceeds that column's `quantile` quantile. Returns the manifest of
    written paths.
    """
    if factors.shape != space.shape():
        raise ContractError(
            f"factor shape {factors.shape} != design-space shape {space.shape()}"
        )
    if not 0 <= quantile <= 1:
        raise ContractError("quantile must lie in [0, 1]")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["value_label"] + [f"comp_{r + 1}" for r in range(factors.rank)]
    csv_paths = []
    highlights = []
    for m, axis in enumerate(space.axes):
        matrix = (
            normalized_components(factors, m) if normalized else np.abs(factors.factors[m])
        )
        path = out_dir / f"mode_{m}_{_safe_name(axis.name)}.csv"
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        for i, value in enumerate(axis.values):
            writer.writerow([_format_value(value)] + [repr(x) for x in matrix[i]])
        write_atomic(path, buffer.getvalue())
        csv_paths.append(str(path))
        for r in range(factors.rank):
            column = matrix[:, r]
            cut = float(np.quantile(column, quantile))
            values = [
                _format_value(axis.values[i]) for i in range(axis.size) if column[i] > cut
            ]
            highlights.append(
                {"component": r + 1, "axis": axis.name, "values": values}
            )

    highlight_path = out_dir / "highlights.json"
    payload = {"threshold_quantile": quantile, "highlights": highlights}
    write_atomic(highlight_path, json.dumps(payload, indent=2))
    return {"csv": csv_paths, "highlights": str(highlight_path)}
