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
    """Per-matrix views of a concatenation of embedding matrices."""
    sizes = [int(s) * rank for s in shape] * n_groups
    return [part.reshape(-1, rank) for part in np.split(flat, np.cumsum(sizes)[:-1])]


def _head_arrays(head: ConvHead) -> list:
    """The eight head arrays in field (and pack_params) order."""
    return [getattr(head, f.name) for f in fields(head)]


def _rank_matrix(rank_kernels: np.ndarray) -> np.ndarray:
    """(D, C, R) rank kernels as a (D, R*C) matrix over the rank-major
    flattening of the mode-conv output."""
    return rank_kernels.transpose(0, 2, 1).reshape(rank_kernels.shape[0], -1)


def _forward_keys(embeddings: np.ndarray, head: list, keys: np.ndarray):
    """Batched forward pass over concatenated embeddings and the eight head
    arrays. Both convolutions are linear maps, over S*M and over R*C, so each
    is one matmul. The cache holds x as (n, S, R, M) and z1, a1 as (n, C, R),
    as transposed views of the layouts the matmuls use."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    n, rank = keys.shape[:2]
    channels = mode_k.shape[0]
    x = embeddings.take(keys)  # (n, R, S, M)
    z1 = x.reshape(n * rank, -1) @ mode_k.reshape(channels, -1).T + mode_b  # (n*R, C)
    a1 = np.maximum(z1, 0.0)
    z2 = a1.reshape(n, -1) @ _rank_matrix(rank_k).T + rank_b
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ dense_w.T + dense_b
    a3 = np.maximum(z3, 0.0)
    preds = a3 @ out_w + out_b

    def by_channel(z):
        return z.reshape(n, rank, channels).transpose(0, 2, 1)

    return preds, (x.transpose(0, 2, 1, 3), by_channel(z1), by_channel(a1), z2, a2, z3, a3)


def _backward_keys(head: list, keys: np.ndarray, cache, dpreds, n_embedding: int):
    """Gradients of sum(dpreds * preds): the flat embedding gradient
    (scattered with one bincount over `keys`) and the eight head gradients."""
    mode_k, mode_b, rank_k, rank_b, dense_w, dense_b, out_w, out_b = head
    x, z1, a1, z2, a2, z3, a3 = cache
    n, rank = keys.shape[:2]
    channels = mode_k.shape[0]

    g_out_b = np.asarray(dpreds.sum())
    g_out_w = a3.T @ dpreds
    dz3 = np.outer(dpreds, out_w) * (z3 > 0)
    g_dense_w = dz3.T @ a2
    g_dense_b = dz3.sum(axis=0)
    dz2 = (dz3 @ dense_w) * (z2 > 0)

    a1_flat = a1.transpose(0, 2, 1).reshape(n, -1)  # (n, R*C)
    g_rank_k = (dz2.T @ a1_flat).reshape(-1, rank, channels).transpose(0, 2, 1)
    g_rank_b = dz2.sum(axis=0)
    dz1 = (dz2 @ _rank_matrix(rank_k)).reshape(n * rank, channels)
    dz1 *= z1.transpose(0, 2, 1).reshape(n * rank, channels) > 0

    x_flat = x.transpose(0, 2, 1, 3).reshape(n * rank, -1)  # (n*R, S*M)
    g_mode_k = (dz1.T @ x_flat).reshape(mode_k.shape)
    g_mode_b = dz1.sum(axis=0)
    dx = dz1 @ mode_k.reshape(channels, -1)  # same element order as keys
    g_emb = np.bincount(keys.ravel(), weights=dx.ravel(), minlength=n_embedding)
    return g_emb, [g_mode_k, g_mode_b, g_rank_k, g_rank_b, g_dense_w, g_dense_b, g_out_w, g_out_b]


def _forward(bank: EmbeddingBank, head: ConvHead, indices: np.ndarray):
    """Batched forward pass; returns predictions plus the cache backward needs."""
    embeddings = np.concatenate([e for group in bank.groups for e in group], axis=None)
    keys = _embedding_keys(indices, bank.shape, bank.n_groups, bank.rank)
    return _forward_keys(embeddings, _head_arrays(head), keys)


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


def _masked_objective(obs: ObservationSet, n_groups: int, rank: int):
    """Masked-MSE objective over one observation set for a pack_params list.

    Returns `objective(params, grad=True)`: `(loss, grads)` in pack_params
    order, or the loss alone when `grad` is false. The gather/scatter keys
    are built here once; the parameter list is sliced directly, with no
    bank or head built per call."""
    shape = obs.space.shape()
    n_emb = n_groups * len(shape)
    keys = _embedding_keys(obs.indices, shape, n_groups, rank)
    n, values = obs.n, obs.values

    def objective(params, grad=True):
        embeddings = np.concatenate(params[:n_emb], axis=None)
        head = params[n_emb:]
        preds, cache = _forward_keys(embeddings, head, keys)
        residuals = preds - values
        loss = float(residuals @ residuals) / n
        if not grad:
            return loss
        g_emb, g_head = _backward_keys(head, keys, cache, (2.0 / n) * residuals, embeddings.size)
        return loss, _split_embeddings(g_emb, shape, n_groups, rank) + g_head

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
    return _masked_objective(obs, bank.n_groups, bank.rank)(pack_params(bank, head))[1]


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


def costco_fit(
    obs_train: ObservationSet,
    cfg,
    n_init_groups: int = 3,
    conv_channels: int = 8,
    hidden_units: int = 16,
):
    """Train embeddings and head jointly with the shared Adam engine."""
    from .optim import Trainable, _carve_validation, run_restarts

    if n_init_groups < 1:
        raise ContractError("need at least one initialization group")
    if obs_train.n == 0:
        raise DegenerateDataError("cannot fit on an empty observation set")
    shape = obs_train.space.shape()
    n_modes = len(shape)

    fit_obs, val_obs = _carve_validation(obs_train, cfg)

    def init(seed):
        bank = init_embedding_bank(shape, cfg.rank, n_init_groups, seed)
        head = init_conv_head(
            cfg.rank, n_modes, n_init_groups, conv_channels, hidden_units, seed + 1
        )
        return pack_params(bank, head)

    objective = _masked_objective(fit_obs, n_init_groups, cfg.rank)
    val_objective = (
        _masked_objective(val_obs, n_init_groups, cfg.rank) if val_obs is not None else None
    )

    trainable = Trainable(
        init=init,
        loss_and_grad=objective,
        loss=lambda params: objective(params, grad=False),
        val_loss=(lambda params: val_objective(params, grad=False)) if val_objective else None,
    )
    params, report = run_restarts(trainable, cfg)
    bank, head = unpack_params(params, n_init_groups, n_modes)
    model = NeuralModel(
        bank=bank,
        head=head,
        space=obs_train.space,
        normalizer=obs_train.normalizer,
    )
    return model, report
