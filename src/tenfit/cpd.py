"""Rank-R factor models: entry prediction, reconstruction, masked loss,
smoothness penalty, and their analytic gradients.

A factor set holds one I_m x R matrix per tensor mode; a predicted entry is
the sum over components of the product of one factor row per mode. The
training objective (`masked_objective`) works on the engine's flat buffer
of B fits' factors and returns one flat gradient in its layout.
"""

from __future__ import annotations

import math
import string
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .core import DenseTensor, FittedModel, ObservationSet, Trainable, block_views, check_indices
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
    differ. Returns `objective(flat, grad=True)` for the engine's flat
    buffer of B fits' factors, parameter-major: mode m's (B, I_m, R) stack,
    fit b's factors at `[b]`, one block after another in mode order. It
    gives `(losses, g)` with losses of shape (B,) and g the flat gradient in
    the same layout, or the losses alone when `grad` is false. The rows of
    all sets are concatenated and key `[k, i, r]` is the flat position of
    mode M-1-k's factor entry for row i and component r, in its own fit's
    block, so one `take` gathers every mode's rows. One forward pass
    (prefix products) and one backward pass over a running suffix product
    serve the batch, and one `np.bincount` over the same keys scatters
    every mode's gradient together with each fit's sum of squared errors.
    Each row's gradient is scaled by 2/n of its own fit. A row's prediction
    sums its components left to right, so every fit gets the same bits
    whatever its position in the batch. Rows untouched by any observation
    receive gradient only from the smoothness term. A buffer of the wrong
    length raises ContractError.

    The closure owns its (M, n, R) and (n,) work arrays and every call
    writes into them, so a large fit does not allocate (and page-fault)
    them anew each epoch. A closure is therefore not re-entrant: do not
    call one from two threads at once. The returned losses and gradient are
    fresh arrays that never alias the work arrays.
    """
    cfg = cfg or SmoothnessConfig()
    shape = obs_sets[0].space.shape()
    cfg.validate_for(len(shape))
    if any(obs.n == 0 for obs in obs_sets):
        raise DegenerateDataError("masked loss is undefined on an empty observation set")
    if any(obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their shape")
    n_fits, n_modes = len(obs_sets), len(shape)
    counts = np.array([obs.n for obs in obs_sets])
    fit_id = np.repeat(np.arange(n_fits), counts)
    indices = np.concatenate([obs.indices for obs in obs_sets])
    values = np.concatenate([obs.values for obs in obs_sets])
    starts = np.cumsum([0] + [n_fits * size * rank for size in shape])
    total = int(starts[-1])
    # row-major over (row, component): consecutive keys fall in R different
    # bins, so the scatter's adds do not wait on one another (component-major
    # keys made it 1.5 times slower)
    keys = np.stack([
        (starts[m] + (fit_id * shape[m] + indices[:, m]) * rank)[:, None] + np.arange(rank)
        for m in reversed(range(n_modes))
    ])
    scatter_keys = np.concatenate([keys.ravel(), total + fit_id])
    twos = np.repeat((2.0 / counts)[fit_id][:, None], rank, axis=1)
    # each smoothed mode's block of the flat buffer and its stack shape
    smooth = [(slice(starts[m], starts[m + 1]), (n_fits, shape[m], rank))
              for m in (cfg.modes if cfg.weight > 0 else ())]

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
            np.multiply(residuals[:, None], twos, out=chain[0])  # d loss / d prediction
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
            losses = losses + cfg.weight * penalty
        if not grad:
            return losses
        for (block, stack), d in zip(smooth, diffs):
            step = (2.0 * cfg.weight) * d
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
    out[:] = products[:, 0]
    for r in range(1, products.shape[1]):
        out += products[:, r]
    return out


def grad_masked_loss(
    factors: FactorSet, obs: ObservationSet, cfg: SmoothnessConfig | None = None
) -> list[np.ndarray]:
    """Exact gradient of masked_mse + smoothness_penalty w.r.t. every factor
    entry, one array per mode, split from the objective's flat gradient;
    factors that disagree with the observation shape raise ContractError."""
    if factors.shape != obs.space.shape():
        raise ContractError(f"factor shape {factors.shape} != observation shape "
                            f"{obs.space.shape()}")
    flat = np.concatenate(factors.factors, axis=None)
    _, g = masked_objective([obs], factors.rank, cfg)(flat)
    return [view[0] for view in block_views(g, [f.shape for f in factors.factors], 1)]


def cpd_layout(shape, cfg) -> list:
    """CPD's named parameter shapes: one (I_m, R) factor matrix per mode,
    named factors/m."""
    return [(f"factors/{m}", (int(size), cfg.rank)) for m, size in enumerate(shape)]


def smoothing(kind: str, shape, cfg) -> SmoothnessConfig:
    """The smoothness penalty of a CPD (kind "cpd", none) or CPD-S ("cpd_s")
    model of `shape`: cfg's weight on cfg.smooth_modes, or on every mode when
    it names none. A mode outside the shape is a ContractError."""
    if kind != "cpd_s":
        return SmoothnessConfig()
    modes = cfg.smooth_modes if cfg.smooth_modes is not None else range(len(shape))
    smoothness = SmoothnessConfig(weight=cfg.smooth_weight, modes=tuple(modes))
    smoothness.validate_for(len(shape))
    return smoothness


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
        return {"smoothness": asdict(smoothing(self.kind, self.shape, self.cfg))}

    def predict(self, indices) -> np.ndarray:
        return predict_indices(self.factors, indices)


CPD_MAX_BATCH_ROWS = 4_000
"""Most observed training rows one batched CPD or CPD-S objective call covers
(CoSTCo sets its own, see `neural.COSTCO_MAX_BATCH_ROWS`). The runs of a
batch are split to stay at or under it; a run larger than it trains alone.
Batching removes per-call overhead until a fit-epoch stops getting
cheaper, which happens between about 2,000 and 4,000 rows; past that the
cost is flat up to 6,912 rows (the objective reuses its work buffers, so
there is no cliff). Measured with `bench/kernels.py`'s `batch` table at
R=3, best of 16 rounds, in us per fit-epoch (numpy 2.4, OpenBLAS on one
thread, 2-vCPU KVM guest): at n=216, 67.5 alone, 26.0 at B=9 (1,944 rows)
and 23.7-26.6 from 2,592 to 6,696 rows; at n=768 on a 4,800-cell shape,
111 alone and 78.8-84.5 from 2,304 to 6,912 rows (a separate 16-round
sweep read 97.7 at 2,304 and 76.6 at 3,840); at n=1,000, 128 alone and
103-112 from 2,000 to 6,000 rows. Two fits of 3,456 rows train apart: B=2
was no cheaper per fit-epoch (365 against 363).
"""

CPD_ROW_EPOCH_US = 0.09
"""CPD's training cost per observed row and epoch, in us (CPD-S and CoSTCo
set their own, see `CPD_S_ROW_EPOCH_US` and
`neural.COSTCO_ROW_EPOCH_US`). The engine estimates a batch's work as its
training rows x epochs x this cost, to start the longest batches first and
to train serially when a call's work would not pay for worker processes.
From `bench/kernels.py`'s `batch` table at R=3 in batches of 1,944 to
6,912 rows (`BENCH_10.json`): 0.084-0.092 for 216-row fits on the
270-cell shape, 0.083-0.095 for 768- and 0.085-0.091 for 1,000-row fits
on the 4,800-cell shape. Smaller batches cost more per row. `BENCH_24.json`,
with the objective's one gather and one scatter, reads 0.092-0.100,
0.090-0.093 and 0.089-0.091 for the same fits.
"""

CPD_S_ROW_EPOCH_US = 0.12
"""CPD-S's training cost per observed row and epoch, in us, as
`CPD_ROW_EPOCH_US` is CPD's: the smoothness penalty's gradient adds work
per fit, which per row came to 1.18-1.38 times CPD's cost in
`bench/kernels.py`'s `batch` table (216-row fits on the 270-cell shape,
B=9-20, `BENCH_11.json`), and to 1.21-1.29 times in `BENCH_24.json`
(0.113-0.125)."""


def cpd_trainable(shape, cfg, kind: str):
    """The optim engine's view of CPD (kind "cpd") or CPD-S ("cpd_s"):
    seeded factors trained on the masked MSE plus CPD-S's `smoothing`, with
    early stopping on the plain masked MSE."""
    return Trainable(
        layout=cpd_layout(shape, cfg),
        init=lambda seed: init_factors(shape, cfg.rank, seed).factors,
        objective=lambda sets: masked_objective(sets, cfg.rank, smoothing(kind, shape, cfg)),
        val_objective=lambda sets: masked_objective(sets, cfg.rank),
        model=lambda params, space, norm: CPDModel(kind, params, space, norm, cfg),
        max_rows=CPD_MAX_BATCH_ROWS,
        row_epoch_us=CPD_S_ROW_EPOCH_US if kind == "cpd_s" else CPD_ROW_EPOCH_US,
    )
