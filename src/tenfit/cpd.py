"""Rank-R factor models: entry prediction, reconstruction, masked loss,
smoothness penalty, and their analytic gradients.

A factor set holds one I_m x R matrix per tensor mode; a predicted entry is
the sum over components of the product of one factor row per mode.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .core import DenseTensor, DesignSpace, Normalizer, ObservationSet, check_dense_capacity
from .errors import ContractError, DegenerateDataError


@dataclass
class FactorSet:
    """One factor matrix per mode; rows index axis values, columns components."""

    factors: list[np.ndarray]

    def __post_init__(self):
        if not self.factors:
            raise ContractError("factor set needs at least one mode")
        self.factors = [np.asarray(f, dtype=float) for f in self.factors]
        ranks = {f.shape[1] for f in self.factors}
        if any(f.ndim != 2 for f in self.factors) or len(ranks) != 1:
            raise ContractError("all factor matrices must be 2-D with a shared column count")
        if next(iter(ranks)) < 1:
            raise ContractError("rank must be >= 1")
        if not all(np.all(np.isfinite(f)) for f in self.factors):
            raise ContractError("factor entries must be finite")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    def copy(self) -> "FactorSet":
        return FactorSet([f.copy() for f in self.factors])

    def permute_components(self, permutation) -> "FactorSet":
        perm = np.asarray(permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.rank)):
            raise ContractError("permutation must be a bijection on components")
        return FactorSet([f[:, perm] for f in self.factors])


@dataclass(frozen=True)
class SmoothnessConfig:
    """First-difference penalty weight and the modes it applies to."""

    weight: float = 0.0
    modes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.weight < 0:
            raise ContractError("smoothness weight must be non-negative")
        object.__setattr__(self, "modes", tuple(sorted(set(int(m) for m in self.modes))))

    def validate_for(self, ndim: int) -> None:
        if any(m < 0 or m >= ndim for m in self.modes):
            raise ContractError(f"smoothness modes {self.modes} invalid for {ndim} modes")


def init_factors(shape, rank: int, seed: int) -> FactorSet:
    """Seeded Gaussian(0, 0.5) initialization; bit-reproducible per
    (shape, rank, seed)."""
    if rank < 1:
        raise ContractError("rank must be >= 1")
    if any(int(s) < 1 for s in shape):
        raise ContractError("all mode sizes must be >= 1")
    rng = np.random.default_rng(seed)
    return FactorSet([rng.normal(0.0, 0.5, size=(int(s), rank)) for s in shape])


def _check_index(index, shape) -> tuple[int, ...]:
    index = tuple(int(i) for i in index)
    if len(index) != len(shape):
        raise IndexError(f"index {index} has wrong arity for shape {shape}")
    for i, size in zip(index, shape):
        if not 0 <= i < size:
            raise IndexError(f"index {index} out of range for shape {shape}")
    return index


def predict_entry(factors: FactorSet, index) -> float:
    """Predicted value at one cell: sum over components of the product of the
    selected factor rows."""
    index = _check_index(index, factors.shape)
    rows = np.stack([f[i] for f, i in zip(factors.factors, index)])
    return float(rows.prod(axis=0).sum())


def predict_indices(factors: FactorSet, indices: np.ndarray) -> np.ndarray:
    """Vectorized predict_entry over an (n, M) index array."""
    indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
    if indices.size == 0:
        return np.zeros(0)
    if indices.shape[1] != factors.ndim:
        raise IndexError(f"index arity {indices.shape[1]} != mode count {factors.ndim}")
    shape = np.asarray(factors.shape)
    if indices.min() < 0 or np.any(indices >= shape):
        raise IndexError("index out of range")
    rows = [f.take(indices[:, m], axis=0) for m, f in enumerate(factors.factors)]
    return _prefix_products(rows)[-1] @ np.ones(factors.rank)


def _prefix_products(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Running products of gathered factor rows; the last is the full
    per-entry product, whose row sums are the predictions."""
    prefix = [rows[0]]
    for r in rows[1:]:
        prefix.append(prefix[-1] * r)
    return prefix


def reconstruct_full(factors: FactorSet, cell_cap: int = 10_000_000) -> DenseTensor:
    """Materialize the full tensor implied by the factors (capped cell count)."""
    check_dense_capacity(factors.shape, cell_cap)
    letters = string.ascii_lowercase
    if factors.ndim > len(letters):
        raise ContractError("too many modes for dense reconstruction")
    subscripts = ",".join(f"{letters[m]}z" for m in range(factors.ndim))
    subscripts += "->" + letters[: factors.ndim]
    array = np.einsum(subscripts, *factors.factors)
    return DenseTensor.from_array(array)


def masked_mse(factors: FactorSet, obs: ObservationSet) -> float:
    """Mean squared error over the observed entries only."""
    if obs.n == 0:
        raise DegenerateDataError("masked MSE is undefined on an empty observation set")
    if obs.space.shape() != factors.shape:
        raise ContractError(
            f"observation shape {obs.space.shape()} != factor shape {factors.shape}"
        )
    residuals = predict_indices(factors, obs.indices) - obs.values
    return float(np.mean(residuals**2))


def smoothness_penalty(factors: FactorSet, cfg: SmoothnessConfig) -> float:
    """weight * sum over penalized modes of squared first differences between
    adjacent factor rows."""
    cfg.validate_for(factors.ndim)
    if cfg.weight == 0 or not cfg.modes:
        return 0.0
    total = 0.0
    for m in cfg.modes:
        diffs = np.diff(factors.factors[m], axis=0)
        total += float(np.sum(diffs**2))
    return cfg.weight * total


def masked_objective(obs_sets, rank: int, cfg: SmoothnessConfig | None = None):
    """Fused masked_mse + smoothness_penalty and its gradient for B fits at
    once (the masked-CP gradient of CP-WOPT).

    `obs_sets` are B observation sets over one space; their sizes may
    differ. Returns `objective(factors, grad=True)` for a list of
    (B, I_m, R) factor stacks, fit b's factors at `[b]`: `(losses, grads)`
    with losses of shape (B,) and grads parallel to the factors, or the
    losses alone when `grad` is false. The rows of all sets are concatenated
    and each gathers from its own fit's block of the (B*I_m, R) view of a
    stack, so one forward pass (prefix products) and one backward pass over a
    running suffix product serve the batch. Per-fit losses are a bincount
    over a fit id, each row's gradient is scaled by 2/n of its own fit, and
    the scatter is one `np.bincount` per mode over keys built here once. A
    row's prediction sums its components left to right, so every fit gets
    the same bits whatever its position in the batch. Rows untouched by any
    observation receive gradient only from the smoothness term. Factor
    shapes are not checked per call; `grad_masked_loss` checks them.
    """
    cfg = cfg or SmoothnessConfig()
    shape = obs_sets[0].space.shape()
    cfg.validate_for(len(shape))
    if any(obs.n == 0 for obs in obs_sets):
        raise DegenerateDataError("masked loss is undefined on an empty observation set")
    if any(obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their shape")
    n_fits = len(obs_sets)
    counts = np.array([obs.n for obs in obs_sets])
    fit_id = np.repeat(np.arange(n_fits), counts)
    indices = np.concatenate([obs.indices for obs in obs_sets])
    values = np.concatenate([obs.values for obs in obs_sets])
    cols = [fit_id * size + indices[:, m] for m, size in enumerate(shape)]
    keys = [(c[:, None] * rank + np.arange(rank)).ravel() for c in cols]
    twos = np.repeat((2.0 / counts)[fit_id][:, None], rank, axis=1)
    smooth_modes = cfg.modes if cfg.weight > 0 else ()

    def scatter(m, weights):
        flat = np.bincount(keys[m], weights=weights.ravel(), minlength=n_fits * shape[m] * rank)
        return flat.reshape(n_fits, shape[m], rank)

    def objective(factors, grad=True):
        rows = [f.reshape(-1, rank).take(c, axis=0) for f, c in zip(factors, cols)]
        prefix = _prefix_products(rows)
        residuals = _component_sum(prefix[-1]) - values
        losses = np.bincount(fit_id, weights=residuals * residuals, minlength=n_fits) / counts
        diffs = [(m, factors[m][:, 1:] - factors[m][:, :-1]) for m in smooth_modes]
        if diffs:
            penalty = sum(np.einsum("bij,bij->b", d, d) for _, d in diffs)
            losses = losses + cfg.weight * penalty
        if not grad:
            return losses

        grads = [None] * len(factors)
        suffix = residuals[:, None] * twos  # d loss / d prediction, per component
        for m in range(len(factors) - 1, 0, -1):
            grads[m] = scatter(m, prefix[m - 1] * suffix)
            suffix = suffix * rows[m]
        grads[0] = scatter(0, suffix)
        for m, d in diffs:
            step = (2.0 * cfg.weight) * d
            grads[m][:, :-1] -= step
            grads[m][:, 1:] += step
        return losses, grads

    return objective


def _component_sum(products: np.ndarray) -> np.ndarray:
    """Row sums of an (n, R) array, added column by column from the left."""
    total = products[:, 0].copy()
    for r in range(1, products.shape[1]):
        total += products[:, r]
    return total


def grad_masked_loss(
    factors: FactorSet, obs: ObservationSet, cfg: SmoothnessConfig | None = None
) -> list[np.ndarray]:
    """Exact gradient of masked_mse + smoothness_penalty w.r.t. every factor
    entry."""
    if obs.space.shape() != factors.shape:
        raise ContractError(
            f"observation shape {obs.space.shape()} != factor shape {factors.shape}"
        )
    _, grads = masked_objective([obs], factors.rank, cfg)([f[None] for f in factors.factors])
    return [g[0] for g in grads]


@dataclass
class CPDModel:
    """A fitted factor model plus the context needed to use it standalone."""

    kind: str  # "cpd" | "cpd_s"
    factors: FactorSet
    space: DesignSpace
    normalizer: Normalizer | None = None
    smoothness: SmoothnessConfig = field(default_factory=SmoothnessConfig)

    @property
    def rank(self) -> int:
        return self.factors.rank

    @property
    def shape(self) -> tuple[int, ...]:
        return self.factors.shape

    def predict(self, indices) -> np.ndarray:
        return predict_indices(self.factors, np.asarray(indices, dtype=np.int64))
