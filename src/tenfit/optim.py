"""Adam training of batches of fits, with multi-restart selection and
early stopping.

The engine is model-agnostic: anything that can produce a seeded parameter
list and, for B data sets at once, a batched (losses, gradient) evaluation
can be trained (see `core.Trainable`). Every fit is one member of a batch,
and a single fit is the batch of one. The members live in one flat buffer
in `core`'s format, so one objective call and one Adam step per epoch
serve the whole batch, and a member gets the same bits as when trained
alone. `adam_step` updates the flat buffer in place with the objective's
flat gradient, with moment and scratch buffers allocated once per batch
and the gradient as work space; it makes the same IEEE operations in the
same order as the list-based reference in `tests/oracles.py`, which it
matches bit for bit.

Restarts are seeded as seed + restart_index. Under early stopping each
member keeps its own patience counter and best-validation checkpoint: the
checkpoint is chosen by validation loss, and the winning restart is the one
with the lowest final training loss at its checkpoint. A member whose loss
turns non-finite is recorded as diverged and dropped from its batch; a fit
fails only when every restart of it diverges.

The batches of one `fit_batch` call, of every model it trains, are
independent; when their estimated work pays for it, they train in forked
worker processes, one per usable CPU, that live for the call and take the
batches in turn, with the same bits as serially.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import ObservationSet, Trainable, block_views, pack, slot_owners, uniform_split
from .cpd import cpd_trainable
from .errors import (
    ContractError,
    DegenerateDataError,
    DivergenceError,
    TenfitError,
    WorkerError,
)
from .neural import costco_trainable


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for a full-batch Adam fit. The smoothness fields apply to CPD-S
    only and the three head sizes to CoSTCo only. `smooth_modes=None`
    smooths the ordinal axes (see `cpd.smoothing`). Early stopping takes
    `patience` and a positive `val_fraction` together; either alone is a
    ContractError. Each check's message ends `<field> is <value>`, naming
    the value at fault, which harness turns into the config key."""

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
        early, weight = self.patience is not None, self.smooth_weight
        for check, name, ok in (
            ("rank must be >= 1", "rank", self.rank >= 1),
            ("epochs must be >= 1", "epochs", self.epochs >= 1),
            ("learning rate must be finite", "lr", math.isfinite(self.lr)),
            ("learning rate must be positive", "lr", self.lr > 0),
            ("restarts must be >= 1", "restarts", self.restarts >= 1),
            ("validation fraction must be in [0, 1)", "val_fraction", 0 <= self.val_fraction < 1),
            ("patience must be >= 1", "patience", not early or self.patience >= 1),
            ("patience requires a positive validation fraction", "val_fraction",
             not early or self.val_fraction > 0),
            ("a validation fraction requires patience", "patience", early or not self.val_fraction),
            ("smoothness weight must be finite", "smooth_weight", math.isfinite(weight)),
            ("smoothness weight must be non-negative", "smooth_weight", weight >= 0),
            ("seed must be >= 0", "seed", self.seed >= 0),
            *(("CoSTCo head sizes must be >= 1", name, getattr(self, name) >= 1)
              for name in ("n_init_groups", "conv_channels", "hidden_units")),
        ):
            if not ok:
                raise ContractError(f"{check}: {name} is {getattr(self, name)!r}")


@dataclass
class TrainReport:
    """Loss trajectory and restart bookkeeping for one fit. `seconds` is
    the wall time of the `fit_batch` call that trained it, which covers
    every fit trained with it: in an experiment or a sweep, every model's
    fits of every plan."""

    losses: list
    final_loss: float
    restart: int
    epochs_run: int
    seconds: float
    restart_final_losses: list = field(default_factory=list)

    def to_json(self) -> dict:
        """The fields, with null for a restart that diverged; `vars`, not
        `asdict`, which deep-copies every loss (23 times as long)."""
        finals = [x if math.isfinite(x) else None for x in self.restart_final_losses]
        return {**vars(self), "restart_final_losses": finals}


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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(p, g, m, v, scratch, t: int, lr: float) -> None:
    """Step t of bias-corrected Adam on one flat buffer, in place: p, m and
    v are updated, g and scratch are work space. Each element takes the IEEE
    operations of the textbook update on separate arrays, in their order."""
    m *= ADAM_BETA1
    m += np.multiply(g, 1 - ADAM_BETA1, out=scratch)
    v *= ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=scratch)
    v += np.multiply(scratch, g, out=scratch)
    np.divide(m, 1 - ADAM_BETA1**t, out=g)
    g *= lr
    np.divide(v, 1 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    g /= scratch
    p -= g


def train_batch(trainable: Trainable, runs: list, cfg: TrainConfig) -> list:
    """Train the runs together in one stacked Adam loop; returns one
    RunResult per run.

    Each epoch makes one objective call on the flat buffer and one in-place
    Adam step with the flat gradient it returns, for all live members. A
    member leaves the batch through `leave` when its training or validation
    loss turns non-finite (it diverged), when under early stopping its
    validation loss has not improved for more than `cfg.patience` epochs,
    or when its epochs run out. The others go on in a compacted buffer, so
    their bits do not change. The final training loss is taken at the kept
    parameters: the best-validation checkpoint under early stopping, else
    the last step.
    """
    n_runs = len(runs)
    shapes = [shape for _, shape in trainable.layout]
    flat = pack(trainable.init(run.seed) for run in runs)
    # Adam moments and one scratch array, each as long as flat
    m, v, scratch = (np.zeros_like(flat) for _ in range(3))
    early = cfg.patience is not None
    history = np.zeros((n_runs, cfg.epochs))
    ended: list = [None] * n_runs  # (parameters or DivergenceError, epochs run) per run
    live = np.arange(n_runs)  # the run in each batch slot

    def build():
        members = [runs[i] for i in live]
        objective = trainable.objective([run.data for run in members])
        val_objective = trainable.val_objective([run.val for run in members]) if early else None
        return slot_owners(shapes, live.size), objective, val_objective

    def leave(slots, source, epochs, diverged=None):
        # the runs in `slots` end after `epochs` epochs, kept from `source`
        # or, when `diverged` names their non-finite loss, with that error
        views = block_views(source, shapes, live.size)
        for slot in np.flatnonzero(slots):
            if diverged is None:
                outcome = [view[slot].copy() for view in views]
            else:
                restart = runs[live[slot]].restart
                outcome = DivergenceError(f"non-finite {diverged} of restart {restart}")
            ended[live[slot]] = (outcome, epochs)

    owners, objective, val_objective = build()
    if early:
        best = flat.copy()
        best_val = val_objective(flat, grad=False)
        stale = np.zeros(n_runs, dtype=np.int64)

    for epoch in range(cfg.epochs):
        losses, g = objective(flat)
        history[live, epoch] = losses
        leaving = ~np.isfinite(losses)
        if leaving.any():
            leave(leaving, flat, epoch, f"loss at epoch {epoch}")
        adam_step(flat, g, m, v, scratch, epoch + 1, cfg.lr)
        if early:
            val = val_objective(flat, grad=False)
            bad_val = ~np.isfinite(val) & ~leaving
            if bad_val.any():
                leave(bad_val, flat, epoch + 1, f"validation loss at epoch {epoch}")
                leaving |= bad_val
            improved = val < best_val
            best_val = np.where(improved, val, best_val)
            np.copyto(best, flat, where=improved[owners])
            stale = np.where(improved, 0, stale + 1)
            stopped = (stale > cfg.patience) & ~leaving
            if stopped.any():
                leave(stopped, best, epoch + 1)
                leaving |= stopped
        if leaving.any():
            staying = ~leaving
            live = live[staying]
            if not live.size:
                break
            elements = staying[owners]
            flat, m, v = flat[elements], m[elements], v[elements]
            scratch = scratch[: flat.size]
            if early:
                best, best_val, stale = best[elements], best_val[staying], stale[staying]
            owners, objective, val_objective = build()
    leave(np.ones(live.size, dtype=bool), best if early else flat, cfg.epochs)
    del objective, val_objective  # and their work arrays, before the final pass builds its own

    finals = np.full(n_runs, math.inf)
    kept = [i for i, (outcome, _) in enumerate(ended) if isinstance(outcome, list)]
    if kept:
        final = trainable.objective([runs[i].data for i in kept])
        finals[kept] = final(pack([ended[i][0] for i in kept]), grad=False)
    results = []
    for i, (run, (outcome, epochs)) in enumerate(zip(runs, ended)):
        losses = history[i, :epochs].tolist()
        if isinstance(outcome, list) and not math.isfinite(finals[i]):
            outcome = DivergenceError(f"non-finite final loss in restart {run.restart}")
        if isinstance(outcome, DivergenceError):
            results.append(RunResult(None, math.inf, losses, outcome))
        else:
            results.append(RunResult(outcome, float(finals[i]), losses))
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


POOL_MIN_WORK_US = 4 * 7_500
"""The least estimated work, in us, for which a call trains its batches in
worker processes; below it they train serially. A worker costs 5-8 ms to
fork, fault in its first writes, send back its results, exit and be
reaped (`bench/kernels.py`'s `parallel` table, `startup` entry:
`BENCH_17.json`), paid once per call, which forks at most one worker per
usable CPU; 7,500 us is `BENCH_11.json`'s cost per worker. The
multiple of 4 comes from the same table's `break_even` entries, two
CoSTCo batches at 10 to 80 epochs trained serially and in two workers, as
a call with two batches forks them: in `BENCH_11.json` the workers lost at
8.6 ms of estimated work (27.9 against 20.5 ms) and won from 17 ms on
(34.4 against 37.9 ms). Near the threshold either path costs within a few
ms of the other. The threshold is in `_work`'s estimated units, which
leave out the per-call cost."""


def _work(job) -> float:
    """A batch job's estimated training time in us: its training rows x
    epochs x its kind's cost per row-epoch. It has no per-call term, so
    small batches take 1.5-2.4 times it (`BENCH_11.json`'s `parallel`
    table, `serial_ms` against `est_work_ms`); the pool's start order and
    POOL_MIN_WORK_US are calibrated in these estimated units."""
    trainable, runs, cfg = job
    return sum(run.data.n for run in runs) * cfg.epochs * trainable.row_epoch_us


def _train_in_workers(jobs: list, workers: int) -> list:
    """Train the batch jobs, `(trainable, runs, cfg)` triples, in at most
    `workers` forked processes that live for this call, the longest
    estimated work first, each job to the next free worker; returns one
    RunResult list per job, in job order, as the serial loop does. Fork
    hands the workers their inputs without pickling them (trainables hold
    closures). A worker that dies fails only the batch it was training: its
    runs get a WorkerError naming the batch and the exit status, and a new
    worker takes the jobs left. An exception raised in a worker is raised
    here, the first in job order. An interrupt kills the busy workers; a
    worker whose parent dies ends at its next send or receive."""
    from multiprocessing import connection, get_context

    def serve(conn):  # a worker's body: train each job the parent sends until it sends None
        for parent_end in pool:  # its own included, so that a dead parent reads as EOF
            parent_end.close()
        with contextlib.suppress(EOFError, OSError):  # the parent died: end quietly
            for i in iter(conn.recv, None):
                try:
                    conn.send(train_batch(*jobs[i]))
                except Exception as exc:  # the parent raises it, as the serial loop would
                    conn.send(exc)

    context = get_context("fork")
    outcomes: list = [None] * len(jobs)
    todo = sorted(range(len(jobs)), key=lambda i: -_work(jobs[i]))
    pool: dict = {}  # the parent's end of each live worker's pipe -> its process
    running: dict = {}  # the parent's end of a busy worker's pipe -> its job
    try:
        while todo or running:
            while todo and len(running) < workers:
                conn = next((conn for conn in pool if conn not in running), None)
                if conn is None:  # fork a worker; it holds the only other end of its pipe
                    conn, end = context.Pipe()
                    pool[conn] = context.Process(target=serve, args=(end,))
                    pool[conn].start()
                    end.close()
                running[conn] = todo.pop(0)
                with contextlib.suppress(OSError):  # a dead worker fails the job below
                    conn.send(running[conn])
            for conn in connection.wait(list(running)):
                i = running.pop(conn)
                try:
                    outcomes[i] = conn.recv()
                except (EOFError, OSError):  # the worker ended before sending
                    process = pool.pop(conn)
                    process.join()
                    conn.close()
                    error = WorkerError(f"the worker process training batch {i} of {len(jobs)} "
                                        f"exited with status {process.exitcode} before returning "
                                        "its results")
                    outcomes[i] = [RunResult(None, math.inf, [], error) for _ in jobs[i][1]]
    finally:  # stop every worker, and then reap them, so that they exit together
        for conn, process in pool.items():
            if conn in running:  # an interrupt: kill the busy ones
                process.kill()
            with contextlib.suppress(OSError):  # a dead worker reads nothing
                conn.send(None)
        for conn, process in pool.items():
            conn.close()  # a worker stopped while sending its results then fails its send
            process.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _train_set_error(obs: ObservationSet, shape) -> TenfitError | None:
    if obs.n == 0:
        return DegenerateDataError("cannot fit on an empty observation set")
    if shape != obs.space.shape():
        return ContractError(f"shape {shape} disagrees with observation space {obs.space.shape()}")
    return None


def _carve_validation(obs: ObservationSet, share: float, seed: int):
    if share == 0:
        return obs, None
    return uniform_split(obs, 1.0 - share, seed=seed)


MODEL_KINDS = {
    "cpd": partial(cpd_trainable, kind="cpd"),
    "cpd_s": partial(cpd_trainable, kind="cpd_s"),
    "costco": costco_trainable,
}
"""Every model kind, mapped to its `trainable(shape, cfg)`: the engine's
view of the kind, whose `layout` names also the model file's array paths
and whose `model` builds the fitted model."""


def fit_batch(shape, models, train_sets, seeds) -> list:
    """Fit each model, a `(model_kind, cfg)` pair, to each of several
    training sets, set i seeded with seeds[i], with cfg.restarts seeded
    restarts (seed + r) each.

    Under early stopping each set first gives up a validation share, drawn
    with its seed; models that fit one set with one share carve it once.
    A model's restarts of all its sets are cut into batches of
    `train_batch` by its trainable, and each set keeps the restart with the
    lowest final training loss; a diverged restart counts as an infinite
    final loss. Returns, per model, per set `(model, TrainReport)` or the
    TenfitError that ended that fit: the first restart's error when no
    restart survives. A bad model kind raises at once. Each model carries
    the design space and the normalizer of its training set so it can be
    used standalone.

    The batches of every model train together. With more than one batch,
    more than one usable CPU (the process's CPU affinity) and an estimated
    work of at least POOL_MIN_WORK_US, the call forks `min(batches, usable
    CPUs)` worker processes, which take the batches in turn, the longest
    estimated work first, and end with the call; the results are gathered in
    (model, batch) order, so the outputs are bit for bit those of the serial
    loop whatever the worker count. Where fork is unavailable or other
    threads are running (a child could inherit a lock one of them holds),
    the batches train one after another in this process. A worker that dies
    fails the runs of the batch it was training with a WorkerError, and a
    new worker takes the batches left; a fit with a restart that survives in
    another batch keeps that restart. `seconds` in a report is the wall time
    of this whole call, workers included, so it covers every model: in an
    experiment or a sweep, every model of the scoring loop.
    """
    start = time.perf_counter()
    for model_kind, _ in models:
        if model_kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {model_kind!r}")
    shape = tuple(int(s) for s in shape)
    trainables = [MODEL_KINDS[kind](shape, cfg) for kind, cfg in models]
    errors = [_train_set_error(obs, shape) for obs in train_sets]
    outcomes = [list(errors) for _ in models]
    runs, jobs = [], []  # (model, Run) pairs and batch jobs, in (model, batch) order
    carved = {}  # (set position, validation share) -> (training, validation) sets
    for j, ((_, cfg), trainable) in enumerate(zip(models, trainables)):
        model_runs = []
        share = cfg.val_fraction
        for i, (obs, seed) in enumerate(zip(train_sets, map(int, seeds))):
            if errors[i] is not None:
                continue
            try:
                if (i, share) not in carved:
                    carved[i, share] = _carve_validation(obs, share, seed)
                fit_obs, val_obs = carved[i, share]
            except TenfitError as exc:
                outcomes[j][i] = exc
                continue
            model_runs += [Run(i, r, seed + r, fit_obs, val_obs) for r in range(cfg.restarts)]
        runs += [(j, run) for run in model_runs]
        jobs += [(trainable, batch, cfg) for batch in _batches(model_runs, trainable)]
    workers = min(len(jobs), _usable_cpus())
    pays = sum(map(_work, jobs)) >= POOL_MIN_WORK_US
    if workers > 1 and pays and hasattr(os, "fork") and threading.active_count() == 1:
        trained = _train_in_workers(jobs, workers)
    else:
        trained = [train_batch(*job) for job in jobs]
    results = [result for job_results in trained for result in job_results]
    seconds = time.perf_counter() - start

    by_fit: dict = {}
    for (j, run), result in zip(runs, results):
        by_fit.setdefault((j, run.fit), []).append(result)
    for (j, i), restarts in by_fit.items():
        finals = [r.final_loss for r in restarts]
        best = int(np.argmin(finals))
        if restarts[best].error is not None:  # every restart failed
            outcomes[j][i] = restarts[0].error
            continue
        winner, obs = restarts[best], train_sets[i]
        report = TrainReport(
            losses=winner.losses,
            final_loss=winner.final_loss,
            restart=best,
            epochs_run=len(winner.losses),
            seconds=seconds,
            restart_final_losses=finals,
        )
        params = {name: array for (name, _), array in zip(trainables[j].layout, winner.params)}
        outcomes[j][i] = (trainables[j].model(params, obs.space, obs.normalizer), report)
    return outcomes


def fit(shape, obs_train: ObservationSet, cfg: TrainConfig, model_kind: str):
    """Fit one model kind to the training observations: `fit_batch` with one
    model and one set, seeded with cfg.seed. Returns (model, TrainReport)
    or raises the fit's error."""
    ((outcome,),) = fit_batch(shape, [(model_kind, cfg)], [obs_train], [cfg.seed])
    if isinstance(outcome, TenfitError):
        raise outcome
    return outcome
