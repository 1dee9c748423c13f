"""Adam training of batches of fits, with multi-restart selection and
early stopping.

The engine is model-agnostic: anything that can produce a seeded parameter
list and, for B data sets at once, a batched (losses, gradients) evaluation
can be trained. Every fit is one member of a batch, and a single fit is the
batch of one. The members live in one flat buffer laid out parameter-major:
the k-th parameter array of every member forms one contiguous (B, *shape_k)
block (for CPD, each mode's (B*I_m, R) block), so one objective call and one
Adam step per epoch serve the whole batch, and a member gets the same bits
as when trained alone. The step updates the flat buffer in place, with
moment, gradient and scratch buffers allocated once per batch; it makes the
same IEEE operations in the same order as `adam_step`, which stays the
reference it matches bit for bit.

Restarts are seeded as seed + restart_index. Under early stopping each
member keeps its own patience counter and best-validation checkpoint: the
checkpoint is chosen by validation loss, and the winning restart is the one
with the lowest final training loss at its checkpoint. A member whose loss
turns non-finite is recorded as diverged and dropped from its batch; a fit
fails only when every restart of it diverges.

The batches of one `train_fits` call are independent; when it can, it
trains them in forked worker processes, with the same bits as serially.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .core import ObservationSet
from .cpd import cpd_layout, cpd_model, cpd_trainable
from .errors import (
    ContractError,
    DegenerateDataError,
    DivergenceError,
    TenfitError,
    WorkerError,
)
from .neural import costco_layout, costco_model, costco_trainable

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
    def fresh(cls, params: ParamList, lr: float) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
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
    """Knobs for a full-batch Adam fit. The smoothness fields apply to CPD-S
    only and the three head sizes to CoSTCo only. `smooth_modes=None`
    smooths every mode; configs and `tenfit fit` pass the ordinal axes'
    modes when they name none."""

    rank: int
    epochs: int = 3000
    lr: float = 0.01
    smooth_weight: float = 0.1
    smooth_modes: tuple[int, ...] | None = None
    seed: int = 0
    restarts: int = 1
    patience: int | None = None
    val_fraction: float = 0.0
    n_init_groups: int = 3
    conv_channels: int = 8
    hidden_units: int = 16

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
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        if min(self.n_init_groups, self.conv_channels, self.hidden_units) < 1:
            raise ContractError("CoSTCo head sizes must be >= 1")


@dataclass
class TrainReport:
    """Loss trajectory and restart bookkeeping for one fit. `seconds` is
    the wall time of the `train_fits` call that trained it, which covers
    every fit trained with it: in an experiment or a sweep, one model's
    fits of every plan."""

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


MAX_BATCH_ROWS = 4_000
"""Most observed training rows one batched CPD objective call covers (the
engine's default bound; CoSTCo sets its own, see
`neural.COSTCO_MAX_BATCH_ROWS`). The runs of a batch are split to stay at
or under it; a run larger than it trains alone. Batching removes per-call
overhead until a fit-epoch stops getting cheaper, which happens between
about 2,000 and 4,000 rows; past that the cost is flat up to 6,912 rows
(the objective reuses its work buffers, so there is no cliff). Measured
with `bench/kernels.py`'s `batch` table at R=3, best of 16 rounds, in us
per fit-epoch (numpy 2.4, OpenBLAS on one thread, 2-vCPU KVM guest): at
n=216, 67.5 alone, 26.0 at B=9 (1,944 rows) and 23.7-26.6 from 2,592 to
6,696 rows; at n=768 on a 4,800-cell shape, 111 alone and 78.8-84.5 from
2,304 to 6,912 rows (a separate 16-round sweep read 97.7 at 2,304 and 76.6
at 3,840); at n=1,000, 128 alone and 103-112 from 2,000 to 6,000 rows.
Two fits of 3,456 rows train apart: B=2 was no cheaper per fit-epoch
(365 against 363).
"""


@dataclass
class Trainable:
    """What the engine needs to train one model kind.

    `layout` names the kind's parameter arrays and gives their shapes, as
    `[(name, shape), ...]`; `init(seed)` gives one fit's arrays in that
    order. `objective(data_sets)` builds the batched training objective
    over B data sets:
    `objective(params, grad=True)` takes the parameter arrays with a leading
    batch axis and returns `(losses, grads)`, losses of shape (B,) and grads
    parallel to params, or the losses alone when `grad` is false.
    `val_objective(data_sets)` builds the batched validation loss the same
    way. `same_size` says whether one batch needs data sets of one size;
    `max_rows` bounds the training rows of one batch.
    """

    layout: list
    init: Callable
    objective: Callable
    val_objective: Callable | None = None
    same_size: bool = False
    max_rows: int = MAX_BATCH_ROWS


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
    """A trained run: its parameters and final training loss, or the error
    that ended it (a DivergenceError, or a WorkerError when the process
    training it died), and its loss series."""

    params: list | None
    final_loss: float
    losses: list
    error: TenfitError | None = None


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


def _adam_update(p, g, m, v, scratch, t: int, lr: float) -> None:
    """Step t of `adam_step` on one flat buffer, in place: p, m and v are
    updated, and g and scratch are used as work space. Each element goes
    through the same IEEE operations in the same order, so the bits equal
    adam_step's."""
    beta1, beta2, eps = AdamState.beta1, AdamState.beta2, AdamState.eps
    m *= beta1
    m += np.multiply(g, 1 - beta1, out=scratch)
    v *= beta2
    np.multiply(g, 1 - beta2, out=scratch)
    v += np.multiply(scratch, g, out=scratch)
    np.divide(m, 1 - beta1**t, out=g)
    g *= lr
    np.divide(v, 1 - beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    g /= scratch
    p -= g


def train_batch(trainable: Trainable, runs: list, cfg: TrainConfig) -> list:
    """Train the runs together in one stacked Adam loop; returns one
    RunResult per run.

    Each epoch makes one objective call and one in-place Adam step for all
    live members. A member leaves the batch when its training or validation
    loss turns non-finite (it diverged) or, under early stopping, when its
    validation loss has not improved for more than `cfg.patience` epochs.
    The others go on in a compacted buffer, so their bits do not change.
    The final training loss is taken at the kept parameters: the
    best-validation checkpoint under early stopping, else the last step.
    """
    n_runs = len(runs)
    inits = [trainable.init(run.seed) for run in runs]
    shapes = [shape for _, shape in trainable.layout]
    blocks = [np.stack([init[k] for init in inits]) for k in range(len(shapes))]
    flat = np.concatenate(blocks, axis=None, dtype=float)
    # Adam moments, the gradient and one scratch array, each as long as flat
    m, v, g, scratch = (np.zeros_like(flat) for _ in range(4))
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
        np.concatenate(grads, axis=None, out=g)
        _adam_update(flat, g, m, v, scratch, epoch + 1, cfg.lr)
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
            flat, m, v = flat[elements], m[elements], v[elements]
            g, scratch = g[: flat.size], scratch[: flat.size]
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


def _batches(runs: list, trainable: Trainable) -> list:
    """Consecutive runs grouped into batches of at most `trainable.max_rows`
    training rows (a larger run alone); with `trainable.same_size`, a batch
    holds runs of one size only."""
    batches, rows = [], 0
    for run in runs:
        n = run.data.n
        fits = batches and rows + n <= trainable.max_rows
        if fits and (not trainable.same_size or batches[-1][0].data.n == n):
            batches[-1].append(run)
            rows += n
        else:
            batches.append([run])
            rows = n
    return batches


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _train_in_worker(send, trainable: Trainable, batch: list, cfg: TrainConfig) -> None:
    """A forked worker's body: train one batch and send back its results,
    or the exception that ended it."""
    try:
        payload = train_batch(trainable, batch, cfg)
    except Exception as exc:  # the parent raises it, as the serial loop would
        payload = exc
    send.send(payload)


def _train_in_workers(trainable: Trainable, batches: list, cfg: TrainConfig, workers: int) -> list:
    """Train each batch in a forked process, at most `workers` at a time and
    the largest (in training rows) first; returns the RunResults in batch
    order, as the serial loop does. Fork hands a worker its inputs without
    pickling them (trainables hold closures).

    A worker that ends without sending its results fails its own batch
    only: each of its runs gets a WorkerError naming the batch and the exit
    status. An exception raised in a worker is raised here, the first in
    batch order.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    outcomes: list = [None] * len(batches)
    todo = sorted(range(len(batches)), key=lambda i: -sum(run.data.n for run in batches[i]))
    running: dict = {}  # receiving end of a worker's pipe -> (batch, process)
    try:
        while todo or running:
            while todo and len(running) < workers:
                i = todo.pop(0)
                receive, send = context.Pipe(duplex=False)
                process = context.Process(
                    target=_train_in_worker, args=(send, trainable, batches[i], cfg)
                )
                process.start()
                send.close()  # the worker then holds the only writing end
                running[receive] = (i, process)
            for receive in wait(list(running)):
                i, process = running.pop(receive)
                try:
                    outcomes[i] = receive.recv()
                except (EOFError, OSError):  # the worker ended before sending
                    pass
                receive.close()
                process.join()
                if outcomes[i] is None:
                    error = WorkerError(
                        f"the worker process training batch {i} of {len(batches)} exited "
                        f"with status {process.exitcode} before returning its results"
                    )
                    outcomes[i] = [RunResult(None, math.inf, [], error) for _ in batches[i]]
    finally:  # on an interrupt, leave no worker behind
        for receive, (_, process) in running.items():
            process.kill()
            process.join()
            receive.close()
    results = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        results += outcome
    return results


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
    its fit: the first restart's error when no restart survives.

    With more than one batch and more than one usable CPU (the process's
    CPU affinity), the batches train in `min(batches, usable CPUs)` forked
    worker processes and their results are gathered in batch order, so the
    outputs are bit for bit those of the serial loop whatever the worker
    count. Where fork is unavailable or other threads are running (a child
    could inherit a lock one of them holds), the batches train one after
    another in this process. A worker that dies fails its batch's runs with
    a WorkerError; a fit with a restart that survives in another batch
    keeps that restart. `seconds` in a report is the wall time of this
    whole call, workers included.
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
    batches = _batches(runs, trainable)
    workers = min(len(batches), _usable_cpus())
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        results = _train_in_workers(trainable, batches, cfg, workers)
    else:
        results = []
        for batch in batches:
            results += train_batch(trainable, batch, cfg)
    seconds = time.perf_counter() - start

    by_fit: dict = {}
    for run, result in zip(runs, results):
        by_fit.setdefault(run.fit, []).append(result)
    for i, restarts in by_fit.items():
        finals = [r.final_loss for r in restarts]
        best = int(np.argmin(finals))
        if restarts[best].error is not None:  # every restart failed
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


MODEL_KINDS = {
    kind: (cpd_layout, partial(cpd_trainable, kind=kind), partial(cpd_model, kind=kind))
    for kind in ("cpd", "cpd_s")
}
MODEL_KINDS["costco"] = (costco_layout, costco_trainable, costco_model)
"""Every model kind, mapped to its parameter layout, `layout(shape, cfg) ->
[(name, shape), ...]`, whose names are also the model file's array paths;
to the engine's view of it, `trainable(shape, cfg)`; and to its model
builder, `model(params, space, normalizer, cfg)`, for arrays in layout
order."""


def fit_batch(shape, train_sets, cfg: TrainConfig, model_kind: str, seeds=None) -> list:
    """Fit one model kind to each of several training sets, all of them
    (and all their restarts) trained in shared batches.

    `seeds` gives each set's seed (default: `cfg.seed` for every set).
    Returns, per set, `(model, TrainReport)` or the TenfitError that ended
    that fit; a bad model kind raises at once. Each model carries the design
    space and the normalizer of its training set so it can be used
    standalone.
    """
    if model_kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {model_kind!r}")
    shape = tuple(int(s) for s in shape)
    seeds = [cfg.seed] * len(train_sets) if seeds is None else [int(s) for s in seeds]
    _, make_trainable, make_model = MODEL_KINDS[model_kind]
    trainable = make_trainable(shape, cfg)

    outcomes = [_train_set_error(obs, shape) for obs in train_sets]
    todo = [i for i, error in enumerate(outcomes) if error is None]
    trained = train_fits(trainable, [train_sets[i] for i in todo], [seeds[i] for i in todo], cfg)
    for i, outcome in zip(todo, trained):
        if isinstance(outcome, TenfitError):
            outcomes[i] = outcome
        else:
            params, report = outcome
            obs = train_sets[i]
            outcomes[i] = (make_model(params, obs.space, obs.normalizer, cfg), report)
    return outcomes


def fit(shape, obs_train: ObservationSet, cfg: TrainConfig, model_kind: str):
    """Fit one model kind to the training observations: `fit_batch` with a
    batch of one. Returns (model, TrainReport) or raises the fit's error."""
    (outcome,) = fit_batch(shape, [obs_train], cfg, model_kind)
    if isinstance(outcome, TenfitError):
        raise outcome
    return outcome
