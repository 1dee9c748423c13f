"""The batched training path gives every fit the result it gets alone.

Fits trained together share one flat Adam buffer and one objective call per
epoch; each must still come out with the parameters it gets when trained
alone, whatever its batch mates do, including stopping early or diverging.
"""

import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import full_grid_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit import optim
from tenfit.errors import ContractError, DivergenceError, WorkerError
from tenfit.cpd import CPD_MAX_BATCH_ROWS
from tenfit.optim import TrainConfig, fit, fit_batch

HEAD = {"n_init_groups": 2, "conv_channels": 3, "hidden_units": 4}  # TrainConfig fields


def observations(shape, n, rng, scale=1.0):
    grid = full_grid_indices(shape)
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=grid[np.sort(rng.choice(len(grid), size=n, replace=False))],
        values=scale * rng.uniform(-1, 1, size=n),
        normalizer=Normalizer(0.0, 1.0),
    )


def arrays(model):
    return list(model.params.values())


def assert_matches_solo(shape, train, seed, cfg, kind, outcome):
    model, report = outcome
    solo_model, solo_report = fit(shape, train, replace(cfg, seed=seed), kind)
    pairs = list(zip(arrays(model), arrays(solo_model)))
    assert pairs and all(np.array_equal(a, b) for a, b in pairs)
    assert report.epochs_run == solo_report.epochs_run
    assert report.restart == solo_report.restart
    np.testing.assert_allclose(report.losses, solo_report.losses, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        report.restart_final_losses, solo_report.restart_final_losses, rtol=1e-12, atol=0
    )


@st.composite
def batches(draw):
    kind = draw(st.sampled_from(["cpd", "cpd_s", "costco"]))
    ndim = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(2, 4)) for _ in range(ndim))
    cells = int(np.prod(shape))
    n_fits = draw(st.integers(2, 4))
    if kind == "costco":  # one CoSTCo batch shares its size
        sizes = [draw(st.integers(4, cells))] * n_fits
    else:
        sizes = [draw(st.integers(4, cells)) for _ in range(n_fits)]
    smooth_modes = None
    if kind == "cpd_s":
        smooth_modes = tuple(sorted(draw(st.sets(st.integers(0, ndim - 1), min_size=1))))
    patience = draw(st.sampled_from([None, 2]))
    cfg = TrainConfig(
        rank=draw(st.integers(1, 4)),
        epochs=30,
        lr=0.05,
        smooth_weight=0.1,
        smooth_modes=smooth_modes,
        restarts=2,
        patience=patience,
        val_fraction=0.3 if patience else 0.0,
        **HEAD,
    )
    return kind, shape, sizes, cfg, draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(batches())
def test_batched_fits_match_solo_fits(case):
    kind, shape, sizes, cfg, seed = case
    rng = np.random.default_rng(seed)
    trains = [observations(shape, n, rng) for n in sizes]
    assert sum(sizes) * cfg.restarts <= CPD_MAX_BATCH_ROWS  # one batch
    seeds = [seed + 10 * b for b in range(len(trains))]
    (outcomes,) = fit_batch(shape, [(kind, cfg)], trains, seeds)
    for train, fit_seed, outcome in zip(trains, seeds, outcomes):
        assert_matches_solo(shape, train, fit_seed, cfg, kind, outcome)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", ["cpd", "costco"])
def test_diverging_fit_leaves_batch_mates_untouched(kind):
    shape = (4, 3, 3)
    rng = np.random.default_rng(5)
    trains = [observations(shape, 20, rng), observations(shape, 20, rng, scale=1e200),
              observations(shape, 20, rng)]
    cfg = TrainConfig(rank=2, epochs=40, lr=0.05, restarts=2, **HEAD)
    seeds = [11, 12, 13]
    (outcomes,) = fit_batch(shape, [(kind, cfg)], trains, seeds)
    assert isinstance(outcomes[1], DivergenceError)
    assert "non-finite loss at epoch 0 of restart 0" in str(outcomes[1])
    for b in (0, 2):
        assert_matches_solo(shape, trains[b], seeds[b], cfg, kind, outcomes[b])


def test_batch_split_at_the_row_bound_changes_nothing(monkeypatch):
    shape = (4, 3, 3)
    cfg = TrainConfig(
        rank=2, epochs=40, lr=0.05, restarts=3, patience=3, val_fraction=0.2, **HEAD
    )
    for kind, sizes in (("cpd", (30, 25, 33)), ("costco", (30, 30, 30))):
        rng = np.random.default_rng(8)
        trains = [observations(shape, n, rng) for n in sizes]
        (whole,) = fit_batch(shape, [(kind, cfg)], trains, [1, 2, 3])
        with monkeypatch.context() as patch:  # about two runs a batch
            patch.setattr("tenfit.cpd.CPD_MAX_BATCH_ROWS", 50)
            patch.setattr("tenfit.neural.COSTCO_MAX_BATCH_ROWS", 50)
            (split,) = fit_batch(shape, [(kind, cfg)], trains, [1, 2, 3])
        for (model_a, report_a), (model_b, report_b) in zip(whole, split):
            assert all(np.array_equal(a, b) for a, b in zip(arrays(model_a), arrays(model_b)))
            assert report_a.losses == report_b.losses
            assert report_a.restart_final_losses == report_b.restart_final_losses


# Worker processes: a call's batches train in forked workers when there is
# more than one batch, more than one usable CPU and enough estimated work.
# `run_with_cpus` sets `_usable_cpus` to 2 for the pooled side and to 1 for
# the serial side, so both paths run on any machine, and sets the work
# threshold to 0, so that the small calls of these tests use the pool.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def run_with_cpus(monkeypatch, cpus, shape, models, trains, seeds):
    """`fit_batch` with `cpus` usable CPUs and no work threshold."""
    with monkeypatch.context() as patch:
        patch.setattr(optim, "_usable_cpus", lambda: cpus)
        patch.setattr(optim, "POOL_MIN_WORK_US", 0)
        return fit_batch(shape, models, trains, seeds)


def assert_same_outcomes(outcomes, expected):
    assert len(outcomes) == len(expected)
    for outcome, reference in zip(outcomes, expected):
        (model, report), (ref_model, ref_report) = outcome, reference
        pairs = list(zip(arrays(model), arrays(ref_model)))
        assert pairs and all(np.array_equal(a, b) for a, b in pairs)
        assert report.losses == ref_report.losses
        assert report.restart == ref_report.restart
        assert report.restart_final_losses == ref_report.restart_final_losses
        assert report.epochs_run == ref_report.epochs_run


def pooled_calls(monkeypatch):
    """Count the batch jobs of every call that trains in worker processes."""
    calls = []
    pooled = optim._train_in_workers

    def counting(jobs, workers):
        calls.append(len(jobs))
        return pooled(jobs, workers)

    monkeypatch.setattr(optim, "_train_in_workers", counting)
    return calls


def early_stopped_cpd_case(monkeypatch):
    """Three early-stopped CPD fits of 2 restarts, one batch per fit."""
    monkeypatch.setattr("tenfit.cpd.CPD_MAX_BATCH_ROWS", 50)
    shape = (4, 3, 3)
    rng = np.random.default_rng(8)
    trains = [observations(shape, n, rng) for n in (30, 25, 33)]
    cfg = TrainConfig(rank=2, epochs=40, lr=0.05, restarts=2, patience=3, val_fraction=0.2)
    return shape, trains, cfg, [1, 2, 3]


def mixed_kinds_case(monkeypatch):
    """cpd and cpd_s, both early-stopped with one validation share, and
    costco fitted to the same three sets in one call: 2 cpd batches, 2
    cpd_s batches and 3 costco batches."""
    monkeypatch.setattr("tenfit.cpd.CPD_MAX_BATCH_ROWS", 90)
    monkeypatch.setattr("tenfit.neural.COSTCO_MAX_BATCH_ROWS", 40)
    shape = (4, 3, 3)
    rng = np.random.default_rng(9)
    trains = [observations(shape, 30, rng) for _ in range(3)]
    models = [
        ("cpd", TrainConfig(rank=2, epochs=30, lr=0.05, restarts=2, patience=3,
                            val_fraction=0.2)),
        ("cpd_s", TrainConfig(rank=2, epochs=40, lr=0.05, smooth_weight=0.1, restarts=2,
                              patience=3, val_fraction=0.2)),
        ("costco", TrainConfig(rank=2, epochs=20, lr=0.05, **HEAD)),
    ]
    return shape, models, trains, [4, 5, 6]


@needs_fork
@pytest.mark.parametrize("case", ["costco_sweep", "cpd_early_stop"])
def test_pooled_batches_equal_serial_bit_for_bit(monkeypatch, case):
    if case == "costco_sweep":  # the OOD sweep's shape: 3 sizes, 2 fits each
        shape = (5, 2, 3, 3, 3)
        rng = np.random.default_rng(4)
        trains = [observations(shape, n, rng) for n in (74, 74, 114, 114, 154, 154)]
        cfg = TrainConfig(rank=3, epochs=25, lr=0.01, **HEAD)
        kind, seeds, n_batches = "costco", [0, 1, 0, 1, 0, 1], 3
    else:  # two fits, one batch each, that stop early
        shape, trains, cfg, seeds = early_stopped_cpd_case(monkeypatch)
        trains, seeds = trains[:2], seeds[:2]
        kind, n_batches = "cpd", 2
    calls = pooled_calls(monkeypatch)
    (pooled,) = run_with_cpus(monkeypatch, 2, shape, [(kind, cfg)], trains, seeds)
    (serial,) = run_with_cpus(monkeypatch, 1, shape, [(kind, cfg)], trains, seeds)
    assert calls == [n_batches]  # only the first call trained in workers
    if cfg.patience:
        assert all(report.epochs_run < cfg.epochs for _, report in serial)
    assert_same_outcomes(pooled, serial)


@needs_fork
def test_mixed_kinds_pooled_equal_serial_bit_for_bit(monkeypatch):
    shape, models, trains, seeds = mixed_kinds_case(monkeypatch)
    calls = pooled_calls(monkeypatch)
    pooled = run_with_cpus(monkeypatch, 2, shape, models, trains, seeds)
    serial = run_with_cpus(monkeypatch, 1, shape, models, trains, seeds)
    assert calls == [2 + 2 + 3]  # one pool for every model's batches
    assert all(report.epochs_run < 40 for _, report in serial[1])  # cpd_s stopped early
    for model_pooled, model_serial, model in zip(pooled, serial, models):
        assert_same_outcomes(model_pooled, model_serial)
        (alone,) = run_with_cpus(monkeypatch, 1, shape, [model], trains, seeds)
        assert_same_outcomes(model_serial, alone)


def test_models_sharing_a_validation_share_carve_it_once(monkeypatch):
    """Models that fit one set with one validation share train on one carve
    of it; a model with another share on the same set gets its own carve
    and the fit it gets alone."""
    shape = (4, 3, 3)
    rng = np.random.default_rng(10)
    trains = [observations(shape, 30, rng) for _ in range(2)]
    seeds = [4, 5]
    early = TrainConfig(rank=2, epochs=30, lr=0.05, patience=3, val_fraction=0.2)
    models = [
        ("cpd", early),
        ("cpd_s", replace(early, smooth_weight=0.1)),
        ("cpd", replace(early, val_fraction=0.4)),
        ("cpd", TrainConfig(rank=2, epochs=30, lr=0.05)),
    ]
    carves = []
    carve = optim._carve_validation

    def counted(obs, share, seed):
        carves.append((obs, share, seed))
        return carve(obs, share, seed)

    monkeypatch.setattr(optim, "_carve_validation", counted)
    outcomes = fit_batch(shape, models, trains, seeds)
    position = {id(train): i for i, train in enumerate(trains)}
    # one carve per set and share: 0.2 for the first two models, 0.4, none
    assert sorted((position[id(obs)], share, seed) for obs, share, seed in carves) == [
        (i, share, seeds[i]) for i in range(2) for share in (0.0, 0.2, 0.4)
    ]
    for (kind, cfg), model_outcomes in zip(models, outcomes):
        for train, seed, outcome in zip(trains, seeds, model_outcomes):
            assert_matches_solo(shape, train, seed, cfg, kind, outcome)


@needs_fork
def test_pool_starts_the_longest_estimated_work_first(monkeypatch, tmp_path):
    shape = (5, 2, 3, 3, 3)
    rng = np.random.default_rng(6)
    log = tmp_path / "started"

    def job(kind, sizes, cfg):
        engine = optim.MODEL_KINDS[kind](shape, cfg)
        runs = [optim.Run(b, 0, b, observations(shape, n, rng)) for b, n in enumerate(sizes)]
        return engine, runs, cfg

    cfg = TrainConfig(rank=2, epochs=2, lr=0.01, **HEAD)
    jobs = [job("cpd", [228] * 3, cfg), job("costco", [154] * 2, cfg), job("cpd", [40], cfg)]
    # by rows the cpd batch of 684 would start first; a CoSTCo row costs more
    assert [sum(run.data.n for run in runs) for _, runs, _ in jobs] == [684, 308, 40]
    train_batch = optim.train_batch

    def logged(trainable, batch, cfg):  # forked workers inherit this patch
        with log.open("a") as fh:
            fh.write(f"{sum(run.data.n for run in batch)}\n")
        return train_batch(trainable, batch, cfg)

    monkeypatch.setattr(optim, "train_batch", logged)
    results = optim._train_in_workers(jobs, workers=1)
    assert log.read_text().split() == ["308", "684", "40"]
    assert [len(job_results) for job_results in results] == [3, 2, 1]  # in job order


@needs_fork
def test_dead_worker_is_a_recorded_failure(monkeypatch):
    shape, trains, cfg, seeds = early_stopped_cpd_case(monkeypatch)
    monkeypatch.setattr("tenfit.cpd.CPD_MAX_BATCH_ROWS", 30)  # one batch per restart
    (serial,) = run_with_cpus(monkeypatch, 1, shape, [("cpd", cfg)], trains, seeds)
    train_batch = optim.train_batch

    def dying(trainable, batch, cfg):  # forked workers inherit this patch
        if any(run.fit == 1 or (run.fit == 2 and run.restart == 1) for run in batch):
            os._exit(3)
        return train_batch(trainable, batch, cfg)

    monkeypatch.setattr(optim, "train_batch", dying)
    (outcomes,) = run_with_cpus(monkeypatch, 2, shape, [("cpd", cfg)], trains, seeds)
    assert isinstance(outcomes[1], WorkerError)
    assert "exited with status 3" in str(outcomes[1])
    assert "batch 2 of 6" in str(outcomes[1])
    assert_same_outcomes(outcomes[:1], serial[:1])
    # fit 2 keeps the restart that survived in another batch
    _, report = outcomes[2]
    assert report.restart == 0
    assert report.restart_final_losses == [serial[2][1].restart_final_losses[0], math.inf]


@needs_fork
def test_dead_worker_fails_only_its_kinds_batch(monkeypatch):
    shape, models, trains, seeds = mixed_kinds_case(monkeypatch)
    serial = run_with_cpus(monkeypatch, 1, shape, models, trains, seeds)
    train_batch = optim.train_batch

    def dying(trainable, batch, cfg):  # kill the worker of CoSTCo's fit 1
        if trainable.same_size and batch[0].fit == 1:
            os._exit(4)
        return train_batch(trainable, batch, cfg)

    monkeypatch.setattr(optim, "train_batch", dying)
    cpd, cpd_s, costco = run_with_cpus(monkeypatch, 2, shape, models, trains, seeds)
    assert isinstance(costco[1], WorkerError)
    assert "batch 5 of 7" in str(costco[1]) and "exited with status 4" in str(costco[1])
    assert_same_outcomes([costco[0], costco[2]], [serial[2][0], serial[2][2]])
    assert_same_outcomes(cpd, serial[0])
    assert_same_outcomes(cpd_s, serial[1])


@needs_fork
def test_worker_exception_is_raised_as_serially(monkeypatch):
    shape, trains, cfg, seeds = early_stopped_cpd_case(monkeypatch)
    monkeypatch.setattr("tenfit.cpd.CPD_MAX_BATCH_ROWS", 30)  # one batch per restart
    train_batch = optim.train_batch

    def failing(trainable, batch, cfg):  # fit 2's batches are the largest: they fail first
        if batch[0].fit > 0:
            raise ContractError(f"bad batch of fit {batch[0].fit}")
        return train_batch(trainable, batch, cfg)

    monkeypatch.setattr(optim, "train_batch", failing)
    for cpus in (1, 2):
        with pytest.raises(ContractError, match="^bad batch of fit 1$"):
            run_with_cpus(monkeypatch, cpus, shape, [("cpd", cfg)], trains, seeds)


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)


def test_serial_cases_start_no_process(monkeypatch):
    shape, trains, cfg, seeds = early_stopped_cpd_case(monkeypatch)
    forbid_fork(monkeypatch)
    models = [("cpd", cfg)]
    # one batch, however many CPUs
    ((outcome,),) = run_with_cpus(
        monkeypatch, 2, shape, [("cpd", replace(cfg, restarts=1))], trains[:1], seeds[:1]
    )
    assert not isinstance(outcome, Exception)
    # several batches on one usable CPU
    (outcomes,) = run_with_cpus(monkeypatch, 1, shape, models, trains, seeds)
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    # several batches while another thread runs
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        (outcomes,) = run_with_cpus(monkeypatch, 2, shape, models, trains, seeds)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)


def test_tiny_two_spec_call_starts_no_process(monkeypatch):
    shape, models, trains, seeds = mixed_kinds_case(monkeypatch)
    models = models[::2]  # cpd and costco: 5 batches
    jobs = []
    batches = optim._batches

    def counted(runs, trainable):
        made = batches(runs, trainable)
        jobs.extend(made)
        return made

    monkeypatch.setattr(optim, "_batches", counted)
    monkeypatch.setattr(optim, "_usable_cpus", lambda: 2)
    forbid_fork(monkeypatch)
    outcomes = fit_batch(shape, models, trains, seeds)
    assert len(jobs) == 5
    assert not any(isinstance(outcome, Exception) for model in outcomes for outcome in model)
