"""Adam training loop with multi-restart selection.

The engine is model-agnostic: anything that can produce a seeded parameter
list and a (loss, gradients) evaluation can be trained. Restarts are seeded
as seed + restart_index and the one with the lowest final training loss
wins; a restart that diverges is recorded and skipped, and the fit fails
only when every restart diverges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import ObservationSet
from .cpd import CPDModel, FactorSet, SmoothnessConfig, init_factors, masked_objective
from .errors import ContractError, DegenerateDataError, DivergenceError

ParamList = list  # list[np.ndarray]


@dataclass
class AdamState:
    """First/second moment accumulators, step counter, and hyperparameters."""

    m: ParamList
    v: ParamList
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(
        cls,
        params: ParamList,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params: ParamList, grads: ParamList, state: AdamState):
    """One bias-corrected Adam update; returns (new params, new state)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError("params, grads, and state must have matching arity")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ContractError(f"shape mismatch: {p.shape} vs {g.shape}")
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


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for a full-batch Adam fit."""

    rank: int
    epochs: int = 3000
    lr: float = 0.01
    smooth_weight: float = 0.1
    smooth_modes: tuple[int, ...] | None = None
    seed: int = 0
    restarts: int = 1
    patience: int | None = None
    val_fraction: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ContractError("rank must be >= 1")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.lr <= 0:
            raise ContractError("learning rate must be positive")
        if self.restarts < 1:
            raise ContractError("restarts must be >= 1")
        if not 0 <= self.val_fraction < 1:
            raise ContractError("validation fraction must be in [0, 1)")
        if self.patience is not None and (self.patience < 1 or self.val_fraction == 0):
            raise ContractError("patience requires a positive validation fraction")
        if self.smooth_weight < 0:
            raise ContractError("smoothness weight must be non-negative")


@dataclass
class TrainReport:
    """Loss trajectory and restart bookkeeping for one fit."""

    losses: list
    final_loss: float
    restart: int
    epochs_run: int
    seconds: float
    restart_final_losses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "losses": [float(x) for x in self.losses],
            "final_loss": float(self.final_loss),
            "restart": int(self.restart),
            "epochs_run": int(self.epochs_run),
            "seconds": float(self.seconds),
            # null marks a restart that diverged
            "restart_final_losses": [
                float(x) if math.isfinite(x) else None for x in self.restart_final_losses
            ],
        }


@dataclass
class Trainable:
    """Closures the restart engine needs: seeded init, training objective,
    loss-only evaluation, and (optionally) a validation loss. Each closure
    takes the parameter list; `loss_and_grad` returns gradients parallel to
    it."""

    init: Callable
    loss_and_grad: Callable
    loss: Callable
    val_loss: Callable | None = None


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive reshaped views of a flat buffer, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _train_single(trainable: Trainable, cfg: TrainConfig, restart: int):
    """Train one seeded restart. Its parameters live in one contiguous
    buffer that the returned per-array parameters are views of, so each
    epoch is a single Adam step over that buffer."""
    init = trainable.init(cfg.seed + restart)
    flat = np.concatenate(init, axis=None, dtype=float)
    params = _views(flat, [np.shape(p) for p in init])
    state = AdamState.fresh([flat], cfg.lr)
    losses = []

    early = cfg.patience is not None and trainable.val_loss is not None
    best_flat = None
    best_val = math.inf
    stale = 0
    if early:
        best_val = trainable.val_loss(params)
        best_flat = flat.copy()

    for epoch in range(cfg.epochs):
        loss, grads = trainable.loss_and_grad(params)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch} of restart {restart}")
        losses.append(float(loss))
        (stepped,), state = adam_step([flat], [np.concatenate(grads, axis=None)], state)
        flat[...] = stepped
        if early:
            val = trainable.val_loss(params)
            if not math.isfinite(val):
                raise DivergenceError(
                    f"non-finite validation loss at epoch {epoch} of restart {restart}"
                )
            if val < best_val:
                best_val = val
                best_flat = flat.copy()
                stale = 0
            else:
                stale += 1
                if stale > cfg.patience:
                    break

    if early:
        flat[...] = best_flat
    final = float(trainable.loss(params))
    if not math.isfinite(final):
        raise DivergenceError(f"non-finite final loss in restart {restart}")
    return params, losses, final


def run_restarts(trainable: Trainable, cfg: TrainConfig):
    """Train cfg.restarts seeded initializations and keep the best by final
    training loss. A diverged restart counts as an infinite final loss; the
    first divergence is raised only when no restart survives."""
    start = time.perf_counter()
    results, errors = [], []
    for r in range(cfg.restarts):
        try:
            results.append(_train_single(trainable, cfg, r))
        except DivergenceError as exc:
            results.append(None)
            errors.append(exc)
    if len(errors) == cfg.restarts:
        raise errors[0]
    finals = [res[2] if res is not None else math.inf for res in results]
    best = int(np.argmin(finals))
    params, losses, final = results[best]
    report = TrainReport(
        losses=losses,
        final_loss=final,
        restart=best,
        epochs_run=len(losses),
        seconds=time.perf_counter() - start,
        restart_final_losses=finals,
    )
    return params, report


def _carve_validation(obs: ObservationSet, cfg: TrainConfig):
    if cfg.patience is None or cfg.val_fraction == 0:
        return obs, None
    from .harness import uniform_split  # local import avoids a module cycle

    return uniform_split(obs, 1.0 - cfg.val_fraction, seed=cfg.seed)


def fit(
    shape,
    obs_train: ObservationSet,
    cfg: TrainConfig,
    model_kind: str,
    n_init_groups: int = 3,
    conv_channels: int = 8,
    hidden_units: int = 16,
):
    """Fit one model kind to the training observations.

    Returns (model, TrainReport). The model carries the design space and the
    normalizer of the training set so it can be used standalone.
    """
    if model_kind not in ("cpd", "cpd_s", "costco"):
        raise ContractError(f"unknown model kind {model_kind!r}")
    if obs_train.n == 0:
        raise DegenerateDataError("cannot fit on an empty observation set")
    shape = tuple(int(s) for s in shape)
    if shape != obs_train.space.shape():
        raise ContractError(
            f"shape {shape} disagrees with observation space {obs_train.space.shape()}"
        )

    if model_kind == "costco":
        from .neural import costco_fit  # local import avoids a module cycle

        return costco_fit(
            obs_train,
            cfg,
            n_init_groups=n_init_groups,
            conv_channels=conv_channels,
            hidden_units=hidden_units,
        )

    if model_kind == "cpd_s":
        modes = cfg.smooth_modes if cfg.smooth_modes is not None else tuple(range(len(shape)))
        smoothness = SmoothnessConfig(weight=cfg.smooth_weight, modes=tuple(modes))
    else:
        smoothness = SmoothnessConfig()

    fit_obs, val_obs = _carve_validation(obs_train, cfg)
    objective = masked_objective(fit_obs, cfg.rank, smoothness)
    val_objective = masked_objective(val_obs, cfg.rank) if val_obs is not None else None

    trainable = Trainable(
        init=lambda seed: init_factors(shape, cfg.rank, seed).factors,
        loss_and_grad=objective,
        loss=lambda params: objective(params, grad=False),
        val_loss=(lambda params: val_objective(params, grad=False)) if val_objective else None,
    )
    params, report = run_restarts(trainable, cfg)
    model = CPDModel(
        kind=model_kind,
        factors=FactorSet(params),
        space=obs_train.space,
        normalizer=obs_train.normalizer,
        smoothness=smoothness,
    )
    return model, report


def predict_set(model, indices) -> np.ndarray:
    """Entry-wise predictions for a list of index tuples."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.zeros(0)
    return np.asarray(model.predict(indices), dtype=float)
