"""Neural tensor completion: multi-init embeddings aggregated by a small
convolutional head.

For an index tuple, each initialization group contributes an R x M matrix
(one embedding row per mode, stacked as columns). The S groups form the
input channels of a two-stage convolution (first across modes, then across
components) followed by a dense layer and a scalar output, with rectifiers
between hidden layers. Forward and backward passes are written out
explicitly so training stays deterministic and the gradients are exact.
They write into work arrays that the training objective (`_masked_objective`)
allocates once and reuses.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import (FittedModel, ObservationSet, Trainable, block_starts, block_views,
                   check_indices, gather_keys)
from .errors import ContractError, DegenerateDataError


def costco_layout(shape, cfg) -> list:
    """CoSTCo's named parameter shapes for a space of `shape` and the rank
    and head sizes of a TrainConfig: the embeddings embeddings/s/m (I_m, R),
    group-major, then the head. mode_kernels (C, S, M) collapse the mode
    axis of the (S, R, M) stack, rank_kernels (C, C, R) the component axis,
    then a dense layer (H, C) and an output vector (H,) give the scalar."""
    c, h, s, r = cfg.conv_channels, cfg.hidden_units, cfg.n_init_groups, cfg.rank
    embeddings = [
        (f"embeddings/{g}/{m}", (int(size), r)) for g in range(s) for m, size in enumerate(shape)
    ]
    return embeddings + [
        ("mode_kernels", (c, s, len(shape))),
        ("mode_bias", (c,)),
        ("rank_kernels", (c, c, r)),
        ("rank_bias", (c,)),
        ("dense_w", (h, c)),
        ("dense_b", (h,)),
        ("out_w", (h,)),
        ("out_b", ()),
    ]


def _embeddings_and_head(items: list, shape, cfg) -> tuple[list, list]:
    """Items in costco_layout order (its entries, their shapes or a fit's
    arrays) split into the S*M embeddings, group-major, and the head."""
    n_emb = cfg.n_init_groups * len(shape)
    return items[:n_emb], items[n_emb:]


def costco_init(shape, cfg, seed: int) -> list:
    """Seeded arrays in layout order: Gaussian(0, 0.5) embeddings drawn
    group by group from `seed`, He-scaled Gaussian kernels drawn from
    `seed + 1`, and small positive biases (they keep the rectifiers
    initially active) with a zero output bias."""
    embeddings, head = _embeddings_and_head(costco_layout(shape, cfg), shape, cfg)
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 0.5, size=size) for _, size in embeddings]
    rng = np.random.default_rng(seed + 1)
    for name, size in head:
        if name.endswith(("kernels", "_w")):  # fan-in: the axes after the first
            arrays.append(rng.normal(0.0, np.sqrt(2.0 / math.prod(size[1:] or size)), size=size))
        else:
            arrays.append(np.full(size, 0.0 if name == "out_b" else 0.01))
    return arrays


def _t(a: np.ndarray) -> np.ndarray:
    """Each matrix of a (B, p, q) stack transposed."""
    return a.transpose(0, 2, 1)


def _sum_rows(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums over axis 1 of a C-contiguous (B, n, C) array, into the
    (B, C) `out`. Where C >= 2 this is `np.einsum("bnc->bc")`, which adds
    the rows in order as `a.sum(axis=1)` does, to the same bits, in fewer
    steps; at C = 1 `a.sum(axis=1)` sums pairwise, which einsum does not, so
    it is used there."""
    if a.shape[2] > 1:
        return np.einsum("bnc->bc", a, out=out)
    return a.sum(axis=1, out=out)


def _forward_arrays(n_fits: int, n: int, rank: int, channels: int, hidden: int,
                    backward: bool = True) -> list:
    """Empty outputs of `_forward` for B fits over n rows: z1 and a1
    (B, n*R, C), the rank matrix (B, C, R*C), z2 and a2 (B, n, C), z3 and a3
    (B, n, H) and the predictions (B, n). Without `backward`, which reads
    each layer's input and output, a1, a2 and a3 are z1, z2 and z3 (each
    rectifier overwrites its input), so a prediction touches less memory."""
    z1, z2, z3 = (np.empty((n_fits, rows, width))
                  for rows, width in ((n * rank, channels), (n, channels), (n, hidden)))
    a1, a2, a3 = (np.empty_like(z) for z in (z1, z2, z3)) if backward else (z1, z2, z3)
    rank_matrix = np.empty((n_fits, channels, rank * channels))
    return [z1, a1, rank_matrix, z2, a2, z3, a3, np.empty((n_fits, n))]


def _forward(x: np.ndarray, head: list, arrays: list) -> np.ndarray:
    """Forward pass of B fits at once from their gathered inputs x, a
    C-contiguous (B, n, R, S, M) array (fit b's embedding rows of each
    cell, component by group by mode), and their stacked head arrays (each
    with a leading B axis), into `_forward_arrays`' arrays; returns the
    (B, n) predictions, the last of them. Both convolutions are linear maps,
    over S*M and over R*C, so each is one stacked matmul; the rank matrix
    holds the rank kernels as (B, C, R*C) matrices over the rank-major
    flattening of the mode-conv output."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    z1, a1, rank_matrix, z2, a2, z3, a3, preds = arrays
    n_fits, n, rank = x.shape[:3]
    channels = mode_k.shape[1]
    np.matmul(x.reshape(n_fits, n * rank, -1), _t(mode_k.reshape(n_fits, channels, -1)), out=z1)
    z1 += mode_b[:, None]
    np.maximum(z1, 0.0, out=a1)
    np.copyto(rank_matrix.reshape(n_fits, channels, rank, channels), rank_k.transpose(0, 1, 3, 2))
    np.matmul(a1.reshape(n_fits, n, -1), _t(rank_matrix), out=z2)
    z2 += rank_b[:, None]
    np.maximum(z2, 0.0, out=a2)
    np.matmul(a2, _t(dense_w), out=z3)
    z3 += dense_b[:, None]
    np.maximum(z3, 0.0, out=a3)
    np.matmul(a3, out_w[:, :, None], out=preds.reshape(n_fits, n, 1))
    preds += out_b[:, None]
    return preds


def _backward_arrays(n_fits: int, n: int, rank: int, width: int, channels: int,
                     hidden: int) -> list:
    """Empty work arrays of `_backward` for B fits over n rows and inputs
    `width` = S*M wide: dz3 and its boolean rectifier mask (B, n, H), dz2
    and its mask (B, n, C), dz1 and its mask (B, n*R, C), the rank-kernel
    gradient as (B, C, R*C) and dx (B, n*R, S*M)."""
    shapes = [(n_fits, n, hidden), (n_fits, n, channels), (n_fits, n * rank, channels)]
    arrays = [np.empty(shape, dtype) for shape in shapes for dtype in (float, bool)]
    return arrays + [np.empty((n_fits, channels, rank * channels)),
                     np.empty((n_fits, n * rank, width))]


def _backward(x, head: list, forward: list, dpreds, arrays: list, g_head: list) -> np.ndarray:
    """Gradients of sum(dpreds * preds) for B fits, from the inputs x and
    the arrays of their `_forward`, with `_backward_arrays`' arrays as work
    space: the eight stacked head gradients are written into `g_head`, and
    the gradient of x, (B, n*R, S*M) in the element order of x, is returned
    for the caller to scatter."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    z1, a1, rank_matrix, z2, a2, z3, a3, _ = forward
    dz3, on3, dz2, on2, dz1, on1, g_rank, dx = arrays
    g_mode_k, g_mode_b, g_rank_k, g_rank_b, g_dense_w, g_dense_b, g_out_w, g_out_b = g_head
    n_fits, n, rank = x.shape[:3]
    channels = mode_k.shape[1]

    dpreds.sum(axis=1, out=g_out_b)
    np.matmul(_t(a3), dpreds[:, :, None], out=g_out_w.reshape(n_fits, -1, 1))
    np.multiply(dpreds[:, :, None], out_w[:, None, :], out=dz3)
    dz3 *= np.greater(z3, 0, out=on3)
    np.matmul(_t(dz3), a2, out=g_dense_w)
    _sum_rows(dz3, out=g_dense_b)
    np.matmul(dz3, dense_w, out=dz2)
    dz2 *= np.greater(z2, 0, out=on2)

    np.matmul(_t(dz2), a1.reshape(n_fits, n, -1), out=g_rank)
    g_rank_k[...] = g_rank.reshape(n_fits, channels, rank, channels).transpose(0, 1, 3, 2)
    _sum_rows(dz2, out=g_rank_b)
    np.matmul(dz2, rank_matrix, out=dz1.reshape(n_fits, n, -1))
    dz1 *= np.greater(z1, 0, out=on1)

    x_flat = x.reshape(n_fits, n * rank, -1)  # (B, n*R, S*M)
    np.matmul(_t(dz1), x_flat, out=g_mode_k.reshape(n_fits, channels, -1))
    _sum_rows(dz1, out=g_mode_b)
    return np.matmul(dz1, mode_k.reshape(n_fits, channels, -1), out=dx)


def _masked_objective(obs_sets, cfg):
    """Masked-MSE objective over B observation sets of one size, for the
    head sizes of a TrainConfig: the objective of `core.Trainable` on the
    flat buffer of B fits' arrays in costco_layout order.

    The gather/scatter keys (`core.gather_keys`) are built here once and
    index the embedding blocks at the head of the buffer, so each fit reads
    and writes only its own embeddings; one `np.bincount` over them gives
    the embedding gradient, and the head gradients go into the tail of its
    output. The head arrays are views of the buffer, rebuilt only when a
    call passes another buffer than the last, with no model built per call.
    The closure allocates its work arrays on its first call (the backward
    pass's on its first call with `grad`)."""
    shape = obs_sets[0].space.shape()
    n = obs_sets[0].n
    if any(obs.n != n or obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their size and shape")
    n_fits, rank, n_groups, n_modes = len(obs_sets), cfg.rank, cfg.n_init_groups, len(shape)
    channels, hidden = cfg.conv_channels, cfg.hidden_units
    shapes = [size for _, size in costco_layout(shape, cfg)]
    embedding_shapes, head_shapes = _embeddings_and_head(shapes, shape, cfg)
    starts = block_starts(shapes, n_fits)
    n_emb, total = starts[len(embedding_shapes)], starts[-1]  # embedding entries come first
    # every embedding block's keys at once, (B, n, S, M, R), then laid out as x
    grid = np.reshape(starts[:len(embedding_shapes)], (n_groups, n_modes))  # group-major
    rows, fits = np.stack([obs.indices for obs in obs_sets])[:, :, None], np.arange(n_fits)
    keys = gather_keys(grid, (np.array(shape), rank), fits[:, None, None, None], rows)
    keys = np.ascontiguousarray(keys.transpose(0, 1, 4, 2, 3))  # (B, n, R, S, M)
    values = np.stack([obs.values for obs in obs_sets])
    # work arrays, allocated when first needed; g_head holds the head
    # gradients, and g_views its (B, *shape) blocks
    x = forward = backward = g_head = g_views = None
    last = (None, None)  # the last buffer passed and its head views

    def objective(flat, grad=True):
        nonlocal x, forward, backward, g_head, g_views, last
        if np.shape(flat) != (total,):
            raise ContractError(f"the flat CoSTCo buffer must hold {total} entries "
                                f"({n_fits} fits of shape {shape}), not shape {np.shape(flat)}")
        if flat is not last[0]:
            last = flat, block_views(flat[n_emb:], head_shapes, n_fits)
        head = last[1]
        if x is None:
            x = np.empty(keys.shape)  # (B, n, R, S, M)
            forward = _forward_arrays(n_fits, n, rank, channels, hidden)
        # the length was checked, so every key is in range and "clip"
        # (which writes straight into x) never clips
        flat.take(keys, out=x, mode="clip")
        residuals = _forward(x, head, forward) - values
        losses = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0] / n
        if not grad:
            return losses
        if backward is None:
            backward = _backward_arrays(n_fits, n, rank, n_groups * n_modes, channels, hidden)
            g_head = np.empty(total - n_emb)
            g_views = block_views(g_head, head_shapes, n_fits)
        dx = _backward(x, head, forward, (2.0 / n) * residuals, backward, g_views)
        g = np.bincount(keys.ravel(), weights=dx.ravel(), minlength=total)
        g[n_emb:] = g_head
        return losses, g

    return objective


def neural_loss(model: "NeuralModel", obs: ObservationSet) -> float:
    """Masked MSE of the neural prediction over the observed entries."""
    if obs.n == 0:
        raise DegenerateDataError("masked MSE is undefined on an empty observation set")
    preds = model.predict(obs.indices)
    return float(np.mean((preds - obs.values) ** 2))


class NeuralModel(FittedModel):
    """A trained CoSTCo model: its arrays by costco_layout name, whose rank
    and head sizes come from cfg."""

    layout = staticmethod(costco_layout)

    def settings(self) -> dict:
        """The model file's block of head sizes."""
        names = ("n_init_groups", "conv_channels", "hidden_units")
        return {"config": {name: getattr(self.cfg, name) for name in names}}

    def predict(self, indices) -> np.ndarray:
        """Predictions at the cells of an (n, M) index array, in one forward
        pass. A cell's prediction can differ in its last bits with the
        other cells of the call: BLAS blocks the head's stacked matmuls by
        their row count, which changes the order of the sums. The same
        query always gives the same bits; CPD's do not depend on it. The
        embedding rows are gathered straight into the (1, n, R, S, M) input
        x, with the values training's gather keys give it."""
        indices = check_indices(indices, self.shape)
        if indices.size == 0:
            return np.zeros(0)
        embeddings, head = _embeddings_and_head(list(self.params.values()), self.shape, self.cfg)
        n_modes = len(self.shape)
        x = np.empty((1, len(indices), self.rank, self.cfg.n_init_groups, n_modes))
        for k, embedding in enumerate(embeddings):  # group-major, as the layout
            x[0, :, :, k // n_modes, k % n_modes] = embedding[indices[:, k % n_modes]]
        work = _forward_arrays(1, len(indices), self.rank, self.cfg.conv_channels,
                               self.cfg.hidden_units, backward=False)
        return _forward(x, [a[None] for a in head], work)[0]


COSTCO_MAX_BATCH_ROWS = 1_000
"""Most observed training rows one batched CoSTCo objective call covers.
A CoSTCo row carries about 15 times the per-call work arrays of a CPD row
(its conv inputs and their gradients are R*S*M wide, the hidden layer R*C),
so its batching gain ends far earlier than CPD's. From `bench/kernels.py`'s
`batch` table on the 270-cell shape at R=3 (`BENCH_24.json`), in us per
fit-epoch: 154-row fits 154 alone, 101 at 462 rows and 95-97 from 770 to
1,848; 74-row fits 122 alone, 54 at 444 rows and 50-53 from 592 to 1,776;
40-row fits 103 alone, 33.5 at 480 rows and 32-33 from 600 to 1,600. So a
fit-epoch gets 5-7% cheaper from about 450 to 800-900 rows and no cheaper
past that.
"""

COSTCO_ROW_EPOCH_US = 0.8
"""CoSTCo's training cost per observed row and epoch, in us, as
`cpd.CPD_ROW_EPOCH_US` is CPD's: from `bench/kernels.py`'s `batch` table on
the 270-cell shape at R=3 (`BENCH_10.json`), 0.71-0.87 at n=154 in
batches of 308 to 924 rows, 0.73-0.91 at n=74 (296-888 rows) and
0.89-0.99 at n=40 (320-800 rows). It stays above `BENCH_24.json`'s
0.62-0.89: the batches' start order and `optim.POOL_MIN_WORK_US` are
calibrated in its units, and a lower value was not measured against the
benchmark workloads."""


def costco_trainable(shape, cfg):
    """The optim engine's view of CoSTCo with the head sizes of a
    TrainConfig: seeded embeddings and head trained jointly on the masked
    MSE, with batches of one training-set size and at most
    COSTCO_MAX_BATCH_ROWS rows."""
    objective = partial(_masked_objective, cfg=cfg)
    return Trainable(
        layout=costco_layout(shape, cfg),
        init=partial(costco_init, shape, cfg),
        objective=objective,
        val_objective=objective,
        model=lambda params, space, norm: NeuralModel("costco", params, space, norm, cfg),
        same_size=True,
        max_rows=COSTCO_MAX_BATCH_ROWS,
        row_epoch_us=COSTCO_ROW_EPOCH_US,
    )


def costco_fit(obs_train: ObservationSet, cfg):
    """Train embeddings and head jointly on one training set, with the head
    sizes of the TrainConfig; returns (model, TrainReport)."""
    # at call time, as optim imports this module; perfbench's TRACED names this wrapper
    from .optim import fit

    return fit(obs_train.space.shape(), obs_train, cfg, "costco")
