"""Regression metrics, factor match scoring, and component exports.

The factor match score compares two decompositions of equal rank: for each
candidate component pairing it multiplies the cosine similarity of the
paired columns across all modes, then averages the per-component products
under the pairing that maximizes the total.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import DesignSpace
from .cpd import FactorSet
from .errors import ContractError, DegenerateDataError
from .modelio import write_atomic

MAPE_ZERO_TOLERANCE = 1e-8


@dataclass(frozen=True)
class MetricsReport:
    r2: float
    mae: float
    rmse: float
    mape: float
    n: int
    mape_excluded: int

    def to_json(self) -> dict:
        return {
            "r2": self.r2,
            "mae": self.mae,
            "rmse": self.rmse,
            "mape": self.mape,
            "n": self.n,
            "mape_excluded": self.mape_excluded,
        }


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

    def to_json(self) -> dict:
        return {
            "fms": self.fms,
            "permutation": list(self.permutation),
            "per_component": list(self.per_component),
        }


def _congruence_products(a: FactorSet, b: FactorSet) -> np.ndarray:
    """(R, R) matrix of products over modes of column cosine similarities."""
    products = np.ones((a.rank, b.rank))
    for fa, fb in zip(a.factors, b.factors):
        na = np.linalg.norm(fa, axis=0)
        nb = np.linalg.norm(fb, axis=0)
        if np.any(na == 0) or np.any(nb == 0):
            raise DegenerateDataError("zero-norm factor column")
        products *= (fa / na).T @ (fb / nb)
    return products


def fms(a: FactorSet, b: FactorSet) -> FactorComparison:
    """Factor match score with the optimal component permutation of b,
    found by linear assignment (the Hungarian method) at every rank. Cosine
    signs are kept, so a component flipped in an odd number of modes
    contributes negatively.
    """
    if a.ndim != b.ndim or a.shape != b.shape:
        raise ContractError(f"factor shapes differ: {a.shape} vs {b.shape}")
    if a.rank != b.rank:
        raise ContractError(f"ranks differ: {a.rank} vs {b.rank}")
    products = _congruence_products(a, b)
    _, perm = linear_sum_assignment(products, maximize=True)  # rows come back as 0..R-1
    per_component = products[np.arange(a.rank), perm]
    return FactorComparison(
        fms=float(per_component.mean()),
        permutation=tuple(int(p) for p in perm),
        per_component=tuple(float(c) for c in per_component),
    )


def normalized_components(factors: FactorSet, mode: int) -> np.ndarray:
    """Column magnitudes of one mode's factor matrix after l2 column
    normalization."""
    if not 0 <= mode < factors.ndim:
        raise ContractError(f"mode {mode} invalid for {factors.ndim} modes")
    matrix = factors.factors[mode]
    norms = np.linalg.norm(matrix, axis=0)
    if np.any(norms == 0):
        raise DegenerateDataError("zero-norm factor column")
    return np.abs(matrix / norms)


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
