"""Adam training of batches of fits, with multi-restart selection and
early stopping.

The engine is model-agnostic: anything that can produce a seeded parameter
list and, for B data sets at once, a batched (losses, gradients) evaluation
can be trained. Every fit is one member of a batch, and a single fit is the
batch of one. The members live in one flat buffer laid out parameter-major:
the k-th parameter array of every member forms one contiguous (B, *shape_k)
block (for CPD, each mode's (B*I_m, R) block), so one objective call and one
Adam step per epoch serve the whole batch, and a member gets the same bits
as when trained alone.

Restarts are seeded as seed + restart_index. Under early stopping each
member keeps its own patience counter and best-validation checkpoint: the
checkpoint is chosen by validation loss, and the winning restart is the one
with the lowest final training loss at its checkpoint. A member whose loss
turns non-finite is recorded as diverged and dropped from its batch; a fit
fails only when every restart of it diverges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import ObservationSet
from .cpd import CPDModel, FactorSet, SmoothnessConfig, init_factors, masked_objective
from .errors import ContractError, DegenerateDataError, DivergenceError, TenfitError

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


MODEL_KINDS = ("cpd", "cpd_s", "costco")

MAX_BATCH_ROWS = 2_600
"""Most observed training rows one batched objective call covers. The runs
of a batch are split to stay at or under it; a run larger than it trains
alone. Batching removes per-call overhead, but a call's (rows, R)
temporaries grow with the batch, and past about 2,600 rows a fit-epoch
costs more again. Measured with `train_batch` at R=3, in us per fit-epoch
(numpy 2.4, OpenBLAS on one thread, 2-vCPU KVM guest): CPD at n=216 ran
63.5 alone, 24.3 at B=9 (1,944 rows), 23.0 at B=12 (2,592 rows) and 38.8
at B=14 (3,024 rows); at n=1,000 on a 4,800-cell shape, 123 alone, 91.7 at
B=3 and 165 at B=4 (4,000 rows).
"""


@dataclass
class Trainable:
    """What the engine needs to train one model kind.

    `init(seed)` gives one fit's parameter list. `objective(data_sets)`
    builds the batched training objective over B data sets:
    `objective(params, grad=True)` takes the parameter arrays with a leading
    batch axis and returns `(losses, grads)`, losses of shape (B,) and grads
    parallel to params, or the losses alone when `grad` is false.
    `val_objective(data_sets)` builds the batched validation loss the same
    way. `same_size` says whether one batch needs data sets of one size.
    """

    init: Callable
    objective: Callable
    val_objective: Callable | None = None
    same_size: bool = False


@dataclass
class Run:
    """One seeded restart of one fit: its training data and, under early
    stopping, its validation data."""

    fit: int
    restart: int
    seed: int
    data: ObservationSet
    val: ObservationSet | None = None


@dataclass
class RunResult:
    """A trained run: its parameters and final training loss, or the
    DivergenceError that ended it, and its loss series."""

    params: list | None
    final_loss: float
    losses: list
    error: DivergenceError | None = None


def _views(flat: np.ndarray, shapes, n_fits: int) -> list:
    """Consecutive (B, *shape) views of a flat buffer, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = n_fits * math.prod(shape)
        views.append(flat[start : start + size].reshape((n_fits, *shape)))
        start += size
    return views


def _owners(shapes, n_fits: int) -> np.ndarray:
    """The batch slot of every element of a flat buffer."""
    slots = np.arange(n_fits)
    return np.concatenate([np.repeat(slots, math.prod(shape)) for shape in shapes])


def train_batch(trainable: Trainable, runs: list, cfg: TrainConfig) -> list:
    """Train the runs together in one stacked Adam loop; returns one
    RunResult per run.

    Each epoch makes one objective call and one `adam_step` call for all
    live members. A member leaves the batch when its training or validation
    loss turns non-finite (it diverged) or, under early stopping, when its
    validation loss has not improved for more than `cfg.patience` epochs.
    The others go on in a compacted buffer, so their bits do not change.
    The final training loss is taken at the kept parameters: the
    best-validation checkpoint under early stopping, else the last step.
    """
    n_runs = len(runs)
    inits = [trainable.init(run.seed) for run in runs]
    shapes = [np.shape(p) for p in inits[0]]
    blocks = [np.stack([init[k] for init in inits]) for k in range(len(shapes))]
    flat = np.concatenate(blocks, axis=None, dtype=float)
    state = AdamState.fresh([flat], cfg.lr)
    early = cfg.patience is not None and runs[0].val is not None
    history = np.zeros((n_runs, cfg.epochs))
    epochs_run = np.zeros(n_runs, dtype=np.int64)
    kept: list = [None] * n_runs  # final parameters, or the DivergenceError
    live = np.arange(n_runs)  # the run in each batch slot

    def build():
        members = [runs[i] for i in live]
        objective = trainable.objective([run.data for run in members])
        val_objective = trainable.val_objective([run.val for run in members]) if early else None
        return _views(flat, shapes, live.size), _owners(shapes, live.size), objective, val_objective

    def keep(slots, source, epochs):
        views = _views(source, shapes, live.size)
        for slot in np.flatnonzero(slots):
            kept[live[slot]] = [view[slot].copy() for view in views]
            epochs_run[live[slot]] = epochs

    def diverge(slots, what, epoch, epochs):
        for slot in np.flatnonzero(slots):
            restart = runs[live[slot]].restart
            kept[live[slot]] = DivergenceError(
                f"non-finite {what}loss at epoch {epoch} of restart {restart}"
            )
            epochs_run[live[slot]] = epochs

    params, owners, objective, val_objective = build()
    if early:
        best = flat.copy()
        best_val = val_objective(params, grad=False)
        stale = np.zeros(n_runs, dtype=np.int64)

    for epoch in range(cfg.epochs):
        losses, grads = objective(params)
        history[live, epoch] = losses
        leaving = ~np.isfinite(losses)
        if leaving.any():
            diverge(leaving, "", epoch, epoch)
        (stepped,), state = adam_step([flat], [np.concatenate(grads, axis=None)], state)
        flat[...] = stepped
        if early:
            val = val_objective(params, grad=False)
            bad_val = ~np.isfinite(val) & ~leaving
            if bad_val.any():
                diverge(bad_val, "validation ", epoch, epoch + 1)
                leaving |= bad_val
            improved = val < best_val
            best_val = np.where(improved, val, best_val)
            np.copyto(best, flat, where=improved[owners])
            stale = np.where(improved, 0, stale + 1)
            stopped = (stale > cfg.patience) & ~leaving
            if stopped.any():
                keep(stopped, best, epoch + 1)
                leaving |= stopped
        if leaving.any():
            staying = ~leaving
            live = live[staying]
            if not live.size:
                break
            elements = staying[owners]
            flat = flat[elements]
            state = replace(state, m=[state.m[0][elements]], v=[state.v[0][elements]])
            if early:
                best, best_val, stale = best[elements], best_val[staying], stale[staying]
            params, owners, objective, val_objective = build()
    else:
        keep(np.ones(live.size, dtype=bool), best if early else flat, cfg.epochs)

    finals = np.full(n_runs, math.inf)
    survivors = [i for i in range(n_runs) if not isinstance(kept[i], DivergenceError)]
    if survivors:
        stacked = [np.stack([kept[i][k] for i in survivors]) for k in range(len(shapes))]
        objective = trainable.objective([runs[i].data for i in survivors])
        finals[survivors] = objective(stacked, grad=False)
    results = []
    for i, run in enumerate(runs):
        losses = history[i, : epochs_run[i]].tolist()
        error = kept[i] if isinstance(kept[i], DivergenceError) else None
        if error is None and not math.isfinite(finals[i]):
            error = DivergenceError(f"non-finite final loss in restart {run.restart}")
        if error is not None:
            results.append(RunResult(None, math.inf, losses, error))
        else:
            results.append(RunResult(kept[i], float(finals[i]), losses))
    return results


def _batches(runs: list, same_size: bool) -> list:
    """Consecutive runs grouped into batches of at most MAX_BATCH_ROWS
    training rows (a larger run alone); with `same_size`, a batch holds runs
    of one size only."""
    batches, rows = [], 0
    for run in runs:
        n = run.data.n
        fits = batches and rows + n <= MAX_BATCH_ROWS
        if fits and (not same_size or batches[-1][0].data.n == n):
            batches[-1].append(run)
            rows += n
        else:
            batches.append([run])
            rows = n
    return batches


def _carve_validation(obs: ObservationSet, cfg: TrainConfig, seed: int):
    if cfg.patience is None or cfg.val_fraction == 0:
        return obs, None
    from .harness import uniform_split  # local import avoids a module cycle

    return uniform_split(obs, 1.0 - cfg.val_fraction, seed=seed)


def train_fits(trainable: Trainable, train_sets: list, seeds: list, cfg: TrainConfig) -> list:
    """Fit every training set with cfg.restarts seeded restarts (seed + r).

    Under early stopping each set first gives up a validation share, drawn
    with its seed. All restarts of all sets are trained in batches of
    `train_batch`, and each set keeps the restart with the lowest final
    training loss; a diverged restart counts as an infinite final loss.
    Returns, per set, `(params, TrainReport)` or the TenfitError that ended
    its fit: the first restart's divergence when no restart survives.
    `seconds` in a report is the wall time of this whole call.
    """
    start = time.perf_counter()
    outcomes: list = [None] * len(train_sets)
    runs = []
    for i, (obs, seed) in enumerate(zip(train_sets, seeds)):
        try:
            fit_obs, val_obs = _carve_validation(obs, cfg, seed)
        except TenfitError as exc:
            outcomes[i] = exc
            continue
        runs += [Run(i, r, seed + r, fit_obs, val_obs) for r in range(cfg.restarts)]
    results = []
    for batch in _batches(runs, trainable.same_size):
        results += train_batch(trainable, batch, cfg)
    seconds = time.perf_counter() - start

    by_fit: dict = {}
    for run, result in zip(runs, results):
        by_fit.setdefault(run.fit, []).append(result)
    for i, restarts in by_fit.items():
        finals = [r.final_loss for r in restarts]
        best = int(np.argmin(finals))
        if restarts[best].error is not None:  # every restart diverged
            outcomes[i] = restarts[0].error
            continue
        winner = restarts[best]
        outcomes[i] = (
            winner.params,
            TrainReport(
                losses=winner.losses,
                final_loss=winner.final_loss,
                restart=best,
                epochs_run=len(winner.losses),
                seconds=seconds,
                restart_final_losses=finals,
            ),
        )
    return outcomes


def _train_set_error(obs: ObservationSet, shape) -> TenfitError | None:
    if obs.n == 0:
        return DegenerateDataError("cannot fit on an empty observation set")
    if shape != obs.space.shape():
        return ContractError(f"shape {shape} disagrees with observation space {obs.space.shape()}")
    return None


def fit_batch(
    shape,
    train_sets,
    cfg: TrainConfig,
    model_kind: str,
    seeds=None,
    n_init_groups: int = 3,
    conv_channels: int = 8,
    hidden_units: int = 16,
) -> list:
    """Fit one model kind to each of several training sets, all of them
    (and all their restarts) trained in shared batches.

    `seeds` gives each set's seed (default: `cfg.seed` for every set).
    Returns, per set, `(model, TrainReport)` or the TenfitError that ended
    that fit; a bad model kind or head size raises at once. Each model
    carries the design space and the normalizer of its training set so it
    can be used standalone.
    """
    if model_kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {model_kind!r}")
    shape = tuple(int(s) for s in shape)
    seeds = [cfg.seed] * len(train_sets) if seeds is None else [int(s) for s in seeds]

    if model_kind == "costco":
        from .neural import costco_model, costco_trainable  # local import avoids a module cycle

        trainable = costco_trainable(shape, cfg, n_init_groups, conv_channels, hidden_units)

        def build(params, obs):
            return costco_model(params, obs, n_init_groups)

    else:
        if model_kind == "cpd_s":
            modes = cfg.smooth_modes if cfg.smooth_modes is not None else range(len(shape))
            smoothness = SmoothnessConfig(weight=cfg.smooth_weight, modes=tuple(modes))
        else:
            smoothness = SmoothnessConfig()
        trainable = Trainable(
            init=lambda seed: init_factors(shape, cfg.rank, seed).factors,
            objective=lambda sets: masked_objective(sets, cfg.rank, smoothness),
            val_objective=lambda sets: masked_objective(sets, cfg.rank),
        )

        def build(params, obs):
            return CPDModel(
                kind=model_kind,
                factors=FactorSet(params),
                space=obs.space,
                normalizer=obs.normalizer,
                smoothness=smoothness,
            )

    outcomes = [_train_set_error(obs, shape) for obs in train_sets]
    todo = [i for i, error in enumerate(outcomes) if error is None]
    trained = train_fits(trainable, [train_sets[i] for i in todo], [seeds[i] for i in todo], cfg)
    for i, outcome in zip(todo, trained):
        if isinstance(outcome, TenfitError):
            outcomes[i] = outcome
        else:
            params, report = outcome
            outcomes[i] = (build(params, train_sets[i]), report)
    return outcomes


def fit(
    shape,
    obs_train: ObservationSet,
    cfg: TrainConfig,
    model_kind: str,
    n_init_groups: int = 3,
    conv_channels: int = 8,
    hidden_units: int = 16,
):
    """Fit one model kind to the training observations: `fit_batch` with a
    batch of one. Returns (model, TrainReport) or raises the fit's error."""
    (outcome,) = fit_batch(
        shape,
        [obs_train],
        cfg,
        model_kind,
        n_init_groups=n_init_groups,
        conv_channels=conv_channels,
        hidden_units=hidden_units,
    )
    if isinstance(outcome, TenfitError):
        raise outcome
    return outcome


def predict_set(model, indices) -> np.ndarray:
    """Entry-wise predictions for a list of index tuples."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.zeros(0)
    return np.asarray(model.predict(indices), dtype=float)
