"""The batched training path gives every fit the result it gets alone.

Fits trained together share one flat Adam buffer and one objective call per
epoch; each must still come out with the parameters it gets when trained
alone, whatever its batch mates do, including stopping early or diverging.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import full_grid_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.errors import DivergenceError
from tenfit.neural import pack_params
from tenfit.optim import MAX_BATCH_ROWS, TrainConfig, fit, fit_batch

HEAD = {"n_init_groups": 2, "conv_channels": 3, "hidden_units": 4}


def observations(shape, n, rng, scale=1.0):
    grid = full_grid_indices(shape)
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=grid[np.sort(rng.choice(len(grid), size=n, replace=False))],
        values=scale * rng.uniform(-1, 1, size=n),
        normalizer=Normalizer(0.0, 1.0),
    )


def arrays(model):
    if model.kind == "costco":
        return pack_params(model.bank, model.head)
    return model.factors.factors


def assert_matches_solo(shape, train, seed, cfg, kind, outcome):
    model, report = outcome
    solo_model, solo_report = fit(shape, train, replace(cfg, seed=seed), kind, **HEAD)
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
    )
    return kind, shape, sizes, cfg, draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(batches())
def test_batched_fits_match_solo_fits(case):
    kind, shape, sizes, cfg, seed = case
    rng = np.random.default_rng(seed)
    trains = [observations(shape, n, rng) for n in sizes]
    assert sum(sizes) * cfg.restarts <= MAX_BATCH_ROWS  # one batch
    seeds = [seed + 10 * b for b in range(len(trains))]
    outcomes = fit_batch(shape, trains, cfg, kind, seeds=seeds, **HEAD)
    for train, fit_seed, outcome in zip(trains, seeds, outcomes):
        assert_matches_solo(shape, train, fit_seed, cfg, kind, outcome)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", ["cpd", "costco"])
def test_diverging_fit_leaves_batch_mates_untouched(kind):
    shape = (4, 3, 3)
    rng = np.random.default_rng(5)
    trains = [observations(shape, 20, rng), observations(shape, 20, rng, scale=1e200),
              observations(shape, 20, rng)]
    cfg = TrainConfig(rank=2, epochs=40, lr=0.05, restarts=2)
    seeds = [11, 12, 13]
    outcomes = fit_batch(shape, trains, cfg, kind, seeds=seeds, **HEAD)
    assert isinstance(outcomes[1], DivergenceError)
    assert "non-finite loss at epoch 0 of restart 0" in str(outcomes[1])
    for b in (0, 2):
        assert_matches_solo(shape, trains[b], seeds[b], cfg, kind, outcomes[b])


def test_batch_split_at_the_row_bound_changes_nothing(monkeypatch):
    shape = (4, 3, 3)
    rng = np.random.default_rng(8)
    trains = [observations(shape, n, rng) for n in (30, 25, 33)]
    cfg = TrainConfig(rank=2, epochs=40, lr=0.05, restarts=3, patience=3, val_fraction=0.2)
    whole = fit_batch(shape, trains, cfg, "cpd", seeds=[1, 2, 3])
    monkeypatch.setattr("tenfit.optim.MAX_BATCH_ROWS", 50)  # about two runs a batch
    split = fit_batch(shape, trains, cfg, "cpd", seeds=[1, 2, 3])
    for (model_a, report_a), (model_b, report_b) in zip(whole, split):
        assert all(np.array_equal(a, b) for a, b in zip(arrays(model_a), arrays(model_b)))
        assert report_a.losses == report_b.losses
        assert report_a.restart_final_losses == report_b.restart_final_losses
