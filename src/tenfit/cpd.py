"""Rank-R factor models: entry prediction, reconstruction, masked loss,
smoothness penalty, and their analytic gradients.

A factor set holds one I_m x R matrix per tensor mode; a predicted entry is
the sum over components of the product of one factor row per mode. The
training objective is `masked_objective`.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DenseTensor, FittedModel, ObservationSet, Trainable, block_starts,
                   check_indices, gather_keys, pack, unpack)
from .errors import CapacityError, ContractError, DegenerateDataError

DENSE_CELL_CAP = 10_000_000  # cells reconstruct_full materializes at most


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


def init_factors(shape, rank: int, seed: int) -> FactorSet:
    """Seeded Gaussian(0, 0.5) initialization; bit-reproducible per
    (shape, rank, seed)."""
    if rank < 1:
        raise ContractError("rank must be >= 1")
    if any(int(s) < 1 for s in shape):
        raise ContractError("all mode sizes must be >= 1")
    rng = np.random.default_rng(seed)
    return FactorSet([rng.normal(0.0, 0.5, size=(int(s), rank)) for s in shape])


def predict_indices(factors: FactorSet, indices: np.ndarray) -> np.ndarray:
    """Predicted values at the cells of an (n, M) index array: per cell, the
    sum over components of the product of the selected factor rows."""
    indices = check_indices(indices, factors.shape)
    product = factors.factors[0].take(indices[:, 0], axis=0)
    for m, f in enumerate(factors.factors[1:], start=1):
        product *= f.take(indices[:, m], axis=0)
    return _component_sum(product)


def reconstruct_full(factors: FactorSet) -> DenseTensor:
    """Materialize the full tensor implied by the factors; a shape of more
    than DENSE_CELL_CAP cells raises CapacityError."""
    cells = math.prod(factors.shape)
    if cells > DENSE_CELL_CAP:
        raise CapacityError(f"dense tensor of {cells} cells exceeds the cap of {DENSE_CELL_CAP}")
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


def smoothness_penalty(factors: FactorSet, weight: float, modes) -> float:
    """weight * sum over the penalized modes of squared first differences
    between adjacent factor rows."""
    if weight == 0 or not modes:
        return 0.0
    total = 0.0
    for m in modes:
        diffs = np.diff(factors.factors[m], axis=0)
        total += float(np.sum(diffs**2))
    return weight * total


def masked_objective(obs_sets, rank: int, weight: float = 0.0, modes=()):
    """Fused masked_mse + smoothness_penalty (weight on modes, as `smoothing`
    gives them) and its gradient for B fits at once (the masked-CP gradient
    of CP-WOPT): the objective of `core.Trainable` over B observation sets
    of one space, whose sizes may differ, on the flat buffer of B fits'
    factors (a (B, I_m, R) block per mode).

    The rows of all sets are concatenated and key `[k, i, r]`
    (`core.gather_keys`) is the flat position of mode M-1-k's factor entry
    for row i and component r, in its own fit's block, so one `take`
    gathers every mode's rows. One forward pass (prefix products) and one
    backward pass over a running suffix product serve the batch, and one
    `np.bincount` over the same keys scatters every mode's gradient
    together with each fit's sum of squared errors. Each row's gradient is
    scaled by 2/n of its own fit. A row's prediction sums its components
    left to right, so every fit gets the same bits whatever its position in
    the batch. Rows untouched by any observation receive gradient only from
    the smoothness term. The closure's work arrays are (M, n, R) and (n,).
    """
    shape = obs_sets[0].space.shape()
    if any(obs.n == 0 for obs in obs_sets):
        raise DegenerateDataError("masked loss is undefined on an empty observation set")
    if any(obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their shape")
    n_fits, n_modes = len(obs_sets), len(shape)
    counts = np.array([obs.n for obs in obs_sets])
    fit_id = np.repeat(np.arange(n_fits), counts)
    indices = np.concatenate([obs.indices for obs in obs_sets])
    values = np.concatenate([obs.values for obs in obs_sets])
    blocks = [(size, rank) for size in shape]
    starts = block_starts(blocks, n_fits)
    total = starts[-1]
    # row-major over (row, component): consecutive keys fall in R different
    # bins, so the scatter's adds do not wait on one another (component-major
    # keys made it 1.5 times slower)
    keys = np.stack([gather_keys(starts[m], blocks[m], fit_id, indices[:, m])
                     for m in reversed(range(n_modes))])
    scatter_keys = np.concatenate([keys.ravel(), total + fit_id])
    twos = (2.0 / counts)[fit_id]
    # each smoothed mode's block as block_views cuts it, once, not on every call
    smooth = [(slice(starts[m], starts[m + 1]), (n_fits, *blocks[m]))
              for m in (modes if weight > 0 else ())]

    n = len(values)
    rows = np.empty((n_modes, n, rank))  # gathered factor rows, mode M-1 first
    prefix = [rows[-1], *np.empty((n_modes - 1, n, rank))]
    # the backward chain d, d*r_{M-1}, ..., each then times its prefix, and
    # the squared errors: the weights of the one scatter
    weights = np.empty(n_modes * n * rank + n)
    chain, squares = weights[:-n].reshape(n_modes, n, rank), weights[-n:]
    residuals = np.empty(n)

    def objective(flat, grad=True):
        if np.shape(flat) != (total,):
            raise ContractError(f"the flat factor buffer must hold {total} entries "
                                f"({n_fits} fits of shape {shape} at rank {rank}), "
                                f"not shape {np.shape(flat)}")
        # the length was checked, so every key is in range and "clip"
        # (which writes straight into `rows`) never clips
        flat.take(keys, out=rows, mode="clip")
        for m in range(1, n_modes):
            np.multiply(prefix[m - 1], rows[-1 - m], out=prefix[m])
        _component_sum(prefix[-1], out=residuals)
        np.subtract(residuals, values, out=residuals)
        np.multiply(residuals, residuals, out=squares)
        if grad:
            # d loss / d prediction, into each of the R lanes (faster than a broadcast)
            np.multiply(residuals, twos, out=residuals)
            for r in range(rank):
                chain[0][:, r] = residuals
            for k in range(1, n_modes):
                np.multiply(chain[k - 1], rows[k - 1], out=chain[k])
            for k in range(n_modes - 1):
                chain[k] *= prefix[n_modes - 2 - k]
            sums = np.bincount(scatter_keys, weights=weights, minlength=total + n_fits)
            g, sums = sums[:total], sums[total:]
        else:
            sums = np.bincount(fit_id, weights=squares, minlength=n_fits)
        losses = sums / counts
        factors = [flat[block].reshape(stack) for block, stack in smooth]
        diffs = [f[:, 1:] - f[:, :-1] for f in factors]
        if diffs:
            penalty = sum(np.einsum("bij,bij->b", d, d) for d in diffs)
            losses = losses + weight * penalty
        if not grad:
            return losses
        for (block, stack), d in zip(smooth, diffs):
            step = (2.0 * weight) * d
            grads = g[block].reshape(stack)
            grads[:, :-1] -= step
            grads[:, 1:] += step
        return losses, g

    return objective


def _component_sum(products: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of an (n, R) array, added column by column from the left
    (into `out` when given)."""
    if out is None:
        out = np.empty(products.shape[0])
    second = products[:, 1] if products.shape[1] > 1 else -0.0  # x + -0.0 is x, bit for bit
    np.add(products[:, 0], second, out=out)
    for r in range(2, products.shape[1]):
        out += products[:, r]
    return out


def grad_masked_loss(factors: FactorSet, obs: ObservationSet, weight: float = 0.0,
                     modes=()) -> list[np.ndarray]:
    """Exact gradient of masked_mse + smoothness_penalty w.r.t. every factor
    entry, one array per mode, split from the objective's flat gradient;
    factors that disagree with the observation shape raise ContractError."""
    if factors.shape != obs.space.shape():
        raise ContractError(f"factor shape {factors.shape} != observation shape "
                            f"{obs.space.shape()}")
    _, g = masked_objective([obs], factors.rank, weight, modes)(pack([factors.factors]))
    return unpack(g, [f.shape for f in factors.factors])


def cpd_layout(shape, cfg) -> list:
    """CPD's named parameter shapes: one (I_m, R) factor matrix per mode,
    named factors/m."""
    return [(f"factors/{m}", (int(size), cfg.rank)) for m, size in enumerate(shape)]


def smoothing(kind: str, space, cfg) -> tuple[float, tuple[int, ...]]:
    """The smoothness penalty of a CPD (kind "cpd", none) or CPD-S ("cpd_s")
    model on `space`, as (weight, modes): cfg.smooth_weight on the modes of
    cfg.smooth_modes, sorted and each once, or on the space's ordinal axes
    when it names none. A mode outside the space is a ContractError."""
    if kind != "cpd_s":
        return 0.0, ()
    named = cfg.smooth_modes
    modes = space.ordinal_modes() if named is None else tuple(sorted(set(map(int, named))))
    if any(m < 0 or m >= space.ndim for m in modes):
        raise ContractError(f"smoothness modes {modes} invalid for {space.ndim} modes")
    return cfg.smooth_weight, modes


class CPDModel(FittedModel):
    """A fitted CPD or CPD-S model: a factor matrix factors/m per mode, and
    CPD-S's smoothing taken from cfg."""

    layout = staticmethod(cpd_layout)

    @cached_property
    def factors(self) -> FactorSet:
        """The factor matrices in mode order, built once per model (over the
        arrays of `params`, not copies)."""
        return FactorSet(list(self.params.values()))

    def settings(self) -> dict:
        """The model file's block of CPD-S settings."""
        weight, modes = smoothing(self.kind, self.space, self.cfg)
        return {"smoothness": {"weight": weight, "modes": modes}}

    def predict(self, indices) -> np.ndarray:
        return predict_indices(self.factors, indices)


CPD_MAX_BATCH_ROWS = 4_000
"""Most observed training rows one batched CPD or CPD-S objective call covers
(CoSTCo sets its own, see `neural.COSTCO_MAX_BATCH_ROWS`). The runs of a
batch are split to stay at or under it; a run larger than it trains alone.
Batching removes per-call overhead until a fit-epoch stops getting
cheaper, between about 2,000 and 4,000 rows; past that the cost is flat up
to 6,912 rows. From `bench/kernels.py`'s `batch` table at R=3
(`BENCH_4.json`), in us per fit-epoch: 216-row fits 67.5 alone and
23.7-26.6 from 1,944 to 6,696 rows, 768-row fits 111 alone and 78.8-84.5
from 2,304 to 6,912, 1,000-row fits 128 alone and 103-112 from 2,000 to
6,000. Two fits of 3,456 rows train apart: B=2 was no cheaper per
fit-epoch (365 against 363).
"""

CPD_ROW_EPOCH_US = 0.09
"""CPD's training cost per observed row and epoch, in us (CPD-S and CoSTCo
set their own, see `CPD_S_ROW_EPOCH_US` and
`neural.COSTCO_ROW_EPOCH_US`). The engine estimates a batch's work as its
training rows x epochs x this cost, to start the longest batches first and
to train serially when a call's work would not pay for worker processes.
From `bench/kernels.py`'s `batch` table at R=3 in batches of 1,944 to
6,912 rows (`BENCH_10.json`): 0.083-0.095 for 216-, 768- and 1,000-row
fits. Smaller batches cost more per row.
"""

CPD_S_ROW_EPOCH_US = 0.12
"""CPD-S's training cost per observed row and epoch, in us, as
`CPD_ROW_EPOCH_US` is CPD's: the smoothness penalty's gradient adds work
per fit, which per row came to 1.18-1.38 times CPD's cost in
`bench/kernels.py`'s `batch` table (216-row fits on the 270-cell shape,
B=9-20, `BENCH_11.json`)."""


def cpd_trainable(shape, cfg, kind: str):
    """The optim engine's view of CPD (kind "cpd") or CPD-S ("cpd_s"):
    seeded factors trained on the masked MSE plus CPD-S's `smoothing`, with
    early stopping on the plain masked MSE."""
    return Trainable(
        layout=cpd_layout(shape, cfg),
        init=lambda seed: init_factors(shape, cfg.rank, seed).factors,
        objective=lambda sets: masked_objective(sets, cfg.rank,
                                                *smoothing(kind, sets[0].space, cfg)),
        val_objective=lambda sets: masked_objective(sets, cfg.rank),
        model=lambda params, space, norm: CPDModel(kind, params, space, norm, cfg),
        max_rows=CPD_MAX_BATCH_ROWS,
        row_epoch_us=CPD_S_ROW_EPOCH_US if kind == "cpd_s" else CPD_ROW_EPOCH_US,
    )
