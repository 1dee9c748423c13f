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

from dataclasses import dataclass, fields

import numpy as np

from .core import DesignSpace, Normalizer, ObservationSet
from .errors import ContractError, DegenerateDataError


@dataclass
class EmbeddingBank:
    """S initialization groups, each holding one I_m x R matrix per mode."""

    groups: list  # list[list[np.ndarray]]

    def __post_init__(self):
        if not self.groups or not all(self.groups):
            raise ContractError("embedding bank needs at least one group with one mode")
        self.groups = [[np.asarray(e, dtype=float) for e in group] for group in self.groups]
        ranks = {e.shape[1] for group in self.groups for e in group}
        if len(ranks) != 1:
            raise ContractError("all embeddings must share one column count")
        mode_counts = {len(group) for group in self.groups}
        if len(mode_counts) != 1:
            raise ContractError("all groups must cover the same modes")
        shapes = {tuple(e.shape[0] for e in group) for group in self.groups}
        if len(shapes) != 1:
            raise ContractError("all groups must share the mode sizes")
        if not all(np.all(np.isfinite(e)) for group in self.groups for e in group):
            raise ContractError("embedding entries must be finite")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_modes(self) -> int:
        return len(self.groups[0])

    @property
    def rank(self) -> int:
        return self.groups[0][0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(e.shape[0] for e in self.groups[0])


@dataclass
class ConvHead:
    """Aggregation head: mode-axis conv, rank-axis conv, dense, scalar out.

    mode_kernels (C, S, M) collapse the mode axis of the (S, R, M) stack,
    rank_kernels (C, C, R) collapse the component axis, then a dense layer
    (H, C) and an output vector (H,) produce the scalar.
    """

    mode_kernels: np.ndarray
    mode_bias: np.ndarray
    rank_kernels: np.ndarray
    rank_bias: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def __post_init__(self):
        arrays = [
            np.asarray(getattr(self, name), dtype=float)
            for name in (
                "mode_kernels",
                "mode_bias",
                "rank_kernels",
                "rank_bias",
                "dense_w",
                "dense_b",
                "out_w",
                "out_b",
            )
        ]
        (
            self.mode_kernels,
            self.mode_bias,
            self.rank_kernels,
            self.rank_bias,
            self.dense_w,
            self.dense_b,
            self.out_w,
            self.out_b,
        ) = arrays
        c = self.mode_kernels.shape[0]
        if self.mode_bias.shape != (c,):
            raise ContractError("mode bias width must match mode kernel count")
        if self.rank_kernels.ndim != 3 or self.rank_kernels.shape[1] != c:
            raise ContractError("rank kernels must consume the mode-conv channels")
        c2 = self.rank_kernels.shape[0]
        if self.rank_bias.shape != (c2,):
            raise ContractError("rank bias width must match rank kernel count")
        if self.dense_w.ndim != 2 or self.dense_w.shape[1] != c2:
            raise ContractError("dense layer must consume the rank-conv channels")
        h = self.dense_w.shape[0]
        if self.dense_b.shape != (h,) or self.out_w.shape != (h,):
            raise ContractError("dense bias and output weights must match the hidden width")
        if self.out_b.shape != ():
            raise ContractError("output bias must be a scalar")

    @property
    def channels(self) -> int:
        return self.mode_kernels.shape[0]

    @property
    def hidden_units(self) -> int:
        return self.dense_w.shape[0]

    @property
    def n_groups(self) -> int:
        return self.mode_kernels.shape[1]

    @property
    def n_modes(self) -> int:
        return self.mode_kernels.shape[2]

    @property
    def rank(self) -> int:
        return self.rank_kernels.shape[2]


def init_embedding_bank(shape, rank: int, n_groups: int, seed: int) -> EmbeddingBank:
    """Seeded Gaussian(0, 0.5) embeddings, one independent draw per group."""
    if n_groups < 1:
        raise ContractError("need at least one initialization group")
    rng = np.random.default_rng(seed)
    groups = [
        [rng.normal(0.0, 0.5, size=(int(s), rank)) for s in shape] for _ in range(n_groups)
    ]
    return EmbeddingBank(groups)


def init_conv_head(
    rank: int, n_modes: int, n_groups: int, channels: int, hidden_units: int, seed: int
) -> ConvHead:
    """He-scaled Gaussian kernels with small positive biases (keeps the
    rectifiers initially active)."""
    rng = np.random.default_rng(seed)

    def draw(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    return ConvHead(
        mode_kernels=draw((channels, n_groups, n_modes), n_groups * n_modes),
        mode_bias=np.full(channels, 0.01),
        rank_kernels=draw((channels, channels, rank), channels * rank),
        rank_bias=np.full(channels, 0.01),
        dense_w=draw((hidden_units, channels), channels),
        dense_b=np.full(hidden_units, 0.01),
        out_w=draw((hidden_units,), hidden_units),
        out_b=np.zeros(()),
    )


def summing_head(n_groups: int, rank: int, n_modes: int) -> ConvHead:
    """Head whose output is the plain sum of all stack entries (exact on
    non-negative pre-activations); the reference configuration for shape and
    reduction checks."""
    return ConvHead(
        mode_kernels=np.ones((1, n_groups, n_modes)),
        mode_bias=np.zeros(1),
        rank_kernels=np.ones((1, 1, rank)),
        rank_bias=np.zeros(1),
        dense_w=np.ones((1, 1)),
        dense_b=np.zeros(1),
        out_w=np.ones(1),
        out_b=np.zeros(()),
    )


def _check_compatible(bank: EmbeddingBank, head: ConvHead) -> None:
    if bank.n_groups != head.n_groups or bank.n_modes != head.n_modes:
        raise ContractError("bank and head disagree on groups or modes")
    if bank.rank != head.rank:
        raise ContractError("bank and head disagree on rank")


def _validate_indices(indices, shape) -> np.ndarray:
    indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
    if indices.shape[1] != len(shape):
        raise IndexError(f"index arity {indices.shape[1]} != mode count {len(shape)}")
    if indices.size and (indices.min() < 0 or np.any(indices >= np.asarray(shape))):
        raise IndexError("index out of range")
    return indices


def _embedding_keys(indices: np.ndarray, shape, n_groups: int, rank: int) -> np.ndarray:
    """(n, R, S, M) positions of the gathered embedding entries in the
    concatenation of all embedding matrices in pack_params order. The gather
    and the gradient scatter share them."""
    sizes = np.asarray(shape, dtype=np.int64) * rank
    starts = np.arange(n_groups)[:, None] * sizes.sum() + (np.cumsum(sizes) - sizes)
    return (
        starts[None, None]
        + indices[:, None, None, :] * rank
        + np.arange(rank)[None, :, None, None]
    )


def _split_embeddings(flat: np.ndarray, shape, n_groups: int, rank: int) -> list:
    """Per-matrix (B, I_m, R) views of B stacked concatenations of embedding
    matrices, given as a (B, size) array."""
    sizes = [int(s) * rank for s in shape] * n_groups
    parts = np.split(flat, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(len(flat), -1, rank) for part in parts]


def _head_arrays(head: ConvHead) -> list:
    """The eight head arrays in field (and pack_params) order."""
    return [getattr(head, f.name) for f in fields(head)]


def _rank_matrix(rank_kernels: np.ndarray) -> np.ndarray:
    """(B, D, C, R) rank kernels as (B, D, R*C) matrices over the rank-major
    flattening of the mode-conv output."""
    n_fits, d = rank_kernels.shape[:2]
    return rank_kernels.transpose(0, 1, 3, 2).reshape(n_fits, d, -1)


def _t(a: np.ndarray) -> np.ndarray:
    """Each matrix of a (B, p, q) stack transposed."""
    return a.transpose(0, 2, 1)


def _forward_keys(embeddings: np.ndarray, head: list, keys: np.ndarray):
    """Forward pass of B fits at once over their stacked embeddings (B, size),
    their stacked head arrays (each with a leading B axis) and their gather
    keys (B, n, R, S, M), already offset into the flattened embeddings. Both
    convolutions are linear maps, over S*M and over R*C, so each is one
    stacked matmul. The cache holds x as (B, n, S, R, M) and z1, a1 as
    (B, n, C, R), as transposed views of the layouts the matmuls use."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    n_fits, n, rank = keys.shape[:3]
    channels = mode_k.shape[1]
    x = embeddings.take(keys)  # (B, n, R, S, M)
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
    """Gradients of sum(dpreds * preds) for B fits: the (B, size) embedding
    gradient (scattered with one bincount over `keys`) and the eight stacked
    head gradients."""
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
    return g_emb.reshape(n_fits, n_embedding), g_head


def _forward(bank: EmbeddingBank, head: ConvHead, indices: np.ndarray):
    """Forward pass of one model; returns predictions plus the cache backward
    needs, without the batch axis."""
    embeddings = np.concatenate([e for group in bank.groups for e in group], axis=None)
    keys = _embedding_keys(indices, bank.shape, bank.n_groups, bank.rank)
    head_arrays = [a[None] for a in _head_arrays(head)]
    preds, cache = _forward_keys(embeddings[None], head_arrays, keys[None])
    return preds[0], tuple(c[0] for c in cache)


def neural_forward(bank: EmbeddingBank, head: ConvHead, index) -> float:
    """Scalar prediction for one index tuple."""
    _check_compatible(bank, head)
    indices = _validate_indices([tuple(index)], bank.shape)
    preds, _ = _forward(bank, head, indices)
    return float(preds[0])


def predict_batch(bank: EmbeddingBank, head: ConvHead, indices) -> np.ndarray:
    _check_compatible(bank, head)
    indices = _validate_indices(indices, bank.shape)
    if indices.size == 0:
        return np.zeros(0)
    preds, _ = _forward(bank, head, indices)
    return preds


def _masked_objective(obs_sets, n_groups: int, rank: int):
    """Masked-MSE objective over B observation sets of one size, for stacked
    pack_params lists.

    Returns `objective(params, grad=True)` for a list whose arrays carry fit
    b's pack_params arrays at `[b]`: `(losses, grads)` with losses of shape
    (B,) and grads parallel to params, or the losses alone when `grad` is
    false. The gather/scatter keys are built here once, offset so that each
    fit reads and writes only its own embeddings; the parameter list is
    sliced directly, with no bank or head built per call."""
    shape = obs_sets[0].space.shape()
    n = obs_sets[0].n
    if any(obs.n != n or obs.space.shape() != shape for obs in obs_sets):
        raise ContractError("observation sets of one batch must share their size and shape")
    n_fits, n_emb = len(obs_sets), n_groups * len(shape)
    size = n_groups * sum(shape) * rank  # embedding entries per fit
    keys = np.stack([_embedding_keys(obs.indices, shape, n_groups, rank) for obs in obs_sets])
    keys += (np.arange(n_fits) * size)[:, None, None, None, None]
    values = np.stack([obs.values for obs in obs_sets])

    def objective(params, grad=True):
        embeddings = np.concatenate([p.reshape(n_fits, -1) for p in params[:n_emb]], axis=1)
        head = params[n_emb:]
        preds, cache = _forward_keys(embeddings, head, keys)
        residuals = preds - values
        losses = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0] / n
        if not grad:
            return losses
        g_emb, g_head = _backward_keys(head, keys, cache, (2.0 / n) * residuals, size)
        return losses, _split_embeddings(g_emb, shape, n_groups, rank) + g_head

    return objective


def pack_params(bank: EmbeddingBank, head: ConvHead) -> list:
    """Canonical flat parameter list: embeddings group-major, then head."""
    return [e for group in bank.groups for e in group] + _head_arrays(head)


def unpack_params(params: list, n_groups: int, n_modes: int):
    """Inverse of pack_params."""
    n_emb = n_groups * n_modes
    if len(params) != n_emb + 8:
        raise ContractError("parameter list has unexpected arity")
    groups = [
        [params[s * n_modes + m] for m in range(n_modes)] for s in range(n_groups)
    ]
    bank = EmbeddingBank(groups)
    head = ConvHead(*params[n_emb:])
    return bank, head


def neural_loss(bank: EmbeddingBank, head: ConvHead, obs: ObservationSet) -> float:
    """Masked MSE of the neural prediction over the observed entries."""
    if obs.n == 0:
        raise DegenerateDataError("masked MSE is undefined on an empty observation set")
    preds = predict_batch(bank, head, obs.indices)
    return float(np.mean((preds - obs.values) ** 2))


def neural_grad(bank: EmbeddingBank, head: ConvHead, obs: ObservationSet) -> list:
    """Exact masked-MSE gradient for every bank and head parameter, in
    pack_params order."""
    _check_compatible(bank, head)
    if obs.n == 0:
        raise DegenerateDataError("gradient is undefined on an empty observation set")
    _validate_indices(obs.indices, bank.shape)
    params = [p[None] for p in pack_params(bank, head)]
    _, grads = _masked_objective([obs], bank.n_groups, bank.rank)(params)
    return [g[0] for g in grads]


@dataclass
class NeuralModel:
    """A trained neural completion model plus its usage context."""

    bank: EmbeddingBank
    head: ConvHead
    space: DesignSpace
    normalizer: Normalizer | None = None
    kind: str = "costco"

    @property
    def rank(self) -> int:
        return self.bank.rank

    @property
    def shape(self) -> tuple[int, ...]:
        return self.bank.shape

    def predict(self, indices) -> np.ndarray:
        return predict_batch(self.bank, self.head, indices)


def costco_trainable(shape, cfg, n_init_groups: int, conv_channels: int, hidden_units: int):
    """The optim engine's view of CoSTCo: seeded embeddings and head trained
    jointly on the masked MSE, with batches of one training-set size."""
    from .optim import Trainable  # local import avoids a module cycle

    if n_init_groups < 1:
        raise ContractError("need at least one initialization group")
    n_modes = len(shape)

    def init(seed):
        bank = init_embedding_bank(shape, cfg.rank, n_init_groups, seed)
        head = init_conv_head(
            cfg.rank, n_modes, n_init_groups, conv_channels, hidden_units, seed + 1
        )
        return pack_params(bank, head)

    return Trainable(
        init=init,
        objective=lambda sets: _masked_objective(sets, n_init_groups, cfg.rank),
        val_objective=lambda sets: _masked_objective(sets, n_init_groups, cfg.rank),
        same_size=True,
    )


def costco_model(params: list, obs_train: ObservationSet, n_init_groups: int) -> NeuralModel:
    """A trained parameter list as a standalone model of its training set."""
    bank, head = unpack_params(params, n_init_groups, obs_train.space.ndim)
    return NeuralModel(bank=bank, head=head, space=obs_train.space, normalizer=obs_train.normalizer)


def costco_fit(
    obs_train: ObservationSet,
    cfg,
    n_init_groups: int = 3,
    conv_channels: int = 8,
    hidden_units: int = 16,
):
    """Train embeddings and head jointly on one training set; returns
    (model, TrainReport)."""
    from .optim import fit  # local import avoids a module cycle

    return fit(
        obs_train.space.shape(),
        obs_train,
        cfg,
        "costco",
        n_init_groups=n_init_groups,
        conv_channels=conv_channels,
        hidden_units=hidden_units,
    )
