"""Neural tensor completion: multi-init embeddings aggregated by a small
convolutional head.

For an index tuple, each initialization group contributes an R x M matrix
(one embedding row per mode, stacked as columns). The S groups form the
input channels of a two-stage convolution (first across modes, then across
components) followed by a dense layer and a scalar output, with rectifiers
between hidden layers. Forward and backward passes are written out
explicitly so training stays deterministic and the gradients are exact.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import FittedModel, ObservationSet, Trainable, check_indices
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


def costco_init(shape, cfg, seed: int) -> list:
    """Seeded arrays in layout order: Gaussian(0, 0.5) embeddings drawn
    group by group from `seed`, He-scaled Gaussian kernels drawn from
    `seed + 1`, and small positive biases (they keep the rectifiers
    initially active) with a zero output bias."""
    layout = costco_layout(shape, cfg)
    n_emb = len(layout) - 8
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 0.5, size=size) for _, size in layout[:n_emb]]
    rng = np.random.default_rng(seed + 1)
    for name, size in layout[n_emb:]:
        if name.endswith(("kernels", "_w")):  # fan-in: the axes after the first
            arrays.append(rng.normal(0.0, np.sqrt(2.0 / math.prod(size[1:] or size)), size=size))
        else:
            arrays.append(np.full(size, 0.0 if name == "out_b" else 0.01))
    return arrays


def _embedding_keys(
    indices: np.ndarray, shape, n_groups: int, rank: int, n_fits: int = 1, fit: int = 0
) -> np.ndarray:
    """(n, R, S, M) positions of fit `fit`'s gathered embedding entries in
    the concatenation, in layout order, of the (n_fits, I_m, R) stacks of
    every embedding matrix: the order of the training engine's flat buffer,
    and for one fit the concatenation of its matrices. The gather and the
    gradient scatter share them."""
    sizes = np.asarray(shape, dtype=np.int64) * rank
    starts = np.arange(n_groups)[:, None] * sizes.sum() + (np.cumsum(sizes) - sizes)
    starts = n_fits * starts + fit * sizes
    return (
        starts[None, None]
        + indices[:, None, None, :] * rank
        + np.arange(rank)[None, :, None, None]
    )


def _rank_matrix(rank_kernels: np.ndarray) -> np.ndarray:
    """(B, D, C, R) rank kernels as (B, D, R*C) matrices over the rank-major
    flattening of the mode-conv output."""
    n_fits, d = rank_kernels.shape[:2]
    return rank_kernels.transpose(0, 1, 3, 2).reshape(n_fits, d, -1)


def _t(a: np.ndarray) -> np.ndarray:
    """Each matrix of a (B, p, q) stack transposed."""
    return a.transpose(0, 2, 1)


def _forward(x: np.ndarray, head: list):
    """Forward pass of B fits at once from their gathered inputs x, a
    C-contiguous (B, n, R, S, M) array (fit b's embedding rows of each
    cell, component by group by mode), and their stacked head arrays (each
    with a leading B axis). Both convolutions are linear maps, over S*M and
    over R*C, so each is one stacked matmul. The cache holds x as
    (B, n, S, R, M) and z1, a1 as (B, n, C, R), as transposed views of the
    layouts the matmuls use."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    n_fits, n, rank = x.shape[:3]
    channels = mode_k.shape[1]
    z1 = x.reshape(n_fits, n * rank, -1) @ _t(mode_k.reshape(n_fits, channels, -1))
    z1 += mode_b[:, None]  # (B, n*R, C)
    a1 = np.maximum(z1, 0.0)
    z2 = a1.reshape(n_fits, n, -1) @ _t(_rank_matrix(rank_k)) + rank_b[:, None]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ _t(dense_w) + dense_b[:, None]
    a3 = np.maximum(z3, 0.0)
    preds = (a3 @ out_w[:, :, None])[..., 0] + out_b[:, None]

    def by_channel(z):
        return z.reshape(n_fits, n, rank, channels).transpose(0, 1, 3, 2)

    x = x.transpose(0, 1, 3, 2, 4)
    return preds, (x, by_channel(z1), by_channel(a1), z2, a2, z3, a3)


def _backward_keys(head: list, keys: np.ndarray, cache, dpreds, n_embedding: int):
    """Gradients of sum(dpreds * preds) for B fits: the embedding gradient,
    in the flat order of `keys` (scattered with one bincount over them), and
    the eight stacked head gradients."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    x, z1, a1, z2, a2, z3, a3 = cache
    n_fits, n, rank = keys.shape[:3]
    channels = mode_k.shape[1]

    g_out_b = dpreds.sum(axis=1)
    g_out_w = (_t(a3) @ dpreds[:, :, None])[..., 0]
    dz3 = dpreds[:, :, None] * out_w[:, None, :] * (z3 > 0)
    g_dense_w = _t(dz3) @ a2
    g_dense_b = dz3.sum(axis=1)
    dz2 = (dz3 @ dense_w) * (z2 > 0)

    a1_flat = a1.transpose(0, 1, 3, 2).reshape(n_fits, n, -1)  # (B, n, R*C)
    g_rank_k = (_t(dz2) @ a1_flat).reshape(rank_k.shape[:2] + (rank, channels))
    g_rank_k = g_rank_k.transpose(0, 1, 3, 2)
    g_rank_b = dz2.sum(axis=1)
    dz1 = (dz2 @ _rank_matrix(rank_k)).reshape(n_fits, n * rank, channels)
    dz1 *= z1.transpose(0, 1, 3, 2).reshape(n_fits, n * rank, channels) > 0

    x_flat = x.transpose(0, 1, 3, 2, 4).reshape(n_fits, n * rank, -1)  # (B, n*R, S*M)
    g_mode_k = (_t(dz1) @ x_flat).reshape(mode_k.shape)
    g_mode_b = dz1.sum(axis=1)
    dx = dz1 @ mode_k.reshape(n_fits, channels, -1)  # same element order as keys
    g_emb = np.bincount(keys.ravel(), weights=dx.ravel(), minlength=n_fits * n_embedding)
    g_head = [g_mode_k, g_mode_b, g_rank_k, g_rank_b, g_dense_w, g_dense_b, g_out_w, g_out_b]
    return g_emb, g_head


def _masked_objective(obs_sets, n_groups: int, rank: int):
    """Masked-MSE objective over B observation sets of one size, for
    parameter lists stacked in costco_layout order.

    Returns `objective(params, grad=True)` for a list whose arrays carry fit
    b's arrays at `[b]`: `(losses, grads)` with losses of shape
    (B,) and grads parallel to params, or the losses alone when `grad` is
    false. The gather/scatter keys are built here once and index the
    embedding stacks concatenated flat, in layout order, so each fit reads
    and writes only its own embeddings and each matrix's gradient is one
    contiguous slice of the scatter; the parameter list is sliced directly,
    with no model built per call."""
    shape = obs_sets[0].space.shape()
    n = obs_sets[0].n
    if any(obs.n != n or obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their size and shape")
    n_fits, n_emb = len(obs_sets), n_groups * len(shape)
    size = n_groups * sum(shape) * rank  # embedding entries per fit
    keys = np.stack([
        _embedding_keys(obs.indices, shape, n_groups, rank, n_fits, b)
        for b, obs in enumerate(obs_sets)
    ])
    values = np.stack([obs.values for obs in obs_sets])
    bounds = n_fits * rank * np.cumsum([0] + list(shape) * n_groups)
    emb_shapes = [(n_fits, i, rank) for i in shape] * n_groups

    def objective(params, grad=True):
        embeddings = np.concatenate(params[:n_emb], axis=None)
        head = params[n_emb:]
        preds, cache = _forward(embeddings.take(keys), head)  # x: (B, n, R, S, M)
        residuals = preds - values
        losses = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0] / n
        if not grad:
            return losses
        g_emb, g_head = _backward_keys(head, keys, cache, (2.0 / n) * residuals, size)
        g_embs = [g_emb[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], emb_shapes)]
        return losses, g_embs + g_head

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
        arrays = list(self.params.values())
        n_groups, n_modes = self.cfg.n_init_groups, len(self.shape)
        n_emb = n_groups * n_modes
        x = np.empty((1, len(indices), self.rank, n_groups, n_modes))
        for k, embedding in enumerate(arrays[:n_emb]):  # group-major, as the layout
            x[0, :, :, k // n_modes, k % n_modes] = embedding[indices[:, k % n_modes]]
        preds, _ = _forward(x, [a[None] for a in arrays[n_emb:]])
        return preds[0]


COSTCO_MAX_BATCH_ROWS = 500
"""Most observed training rows one batched CoSTCo objective call covers.
A CoSTCo row carries about 15 times the per-call temporaries of a CPD row
(its conv inputs and their gradients are R*S*M wide, the hidden layer R*C),
so its batching gain peaks far earlier than CPD's. Measured with
`bench/kernels.py`'s `batch` table on the 270-cell shape at R=3, best of 16
rounds, in us per fit-epoch: at n=154, 250 alone, 146 at B=3 (462 rows),
148-159 at B=4-5 and 217 at B=6 (924 rows); at n=74, 184 alone, 82-86 at
B=4-6 (296-444 rows) and 90-110 at B=8-12 (592-888 rows); at n=40, 241
alone and 55-63 from 320 to 800 rows.
"""

COSTCO_ROW_EPOCH_US = 0.8
"""CoSTCo's training cost per observed row and epoch, in us, as
`cpd.CPD_ROW_EPOCH_US` is CPD's: from `bench/kernels.py`'s `batch` table on
the 270-cell shape at R=3 (`BENCH_10.json`), 0.71-0.87 at n=154 in
batches of 308 to 924 rows, 0.73-0.91 at n=74 (296-888 rows) and
0.89-0.99 at n=40 (320-800 rows): about nine times CPD's."""


def costco_trainable(shape, cfg):
    """The optim engine's view of CoSTCo with the head sizes of a
    TrainConfig: seeded embeddings and head trained jointly on the masked
    MSE, with batches of one training-set size and at most
    COSTCO_MAX_BATCH_ROWS rows."""
    objective = partial(_masked_objective, n_groups=cfg.n_init_groups, rank=cfg.rank)
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
