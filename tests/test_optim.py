import math

import numpy as np
import oracles
import pytest
from conftest import full_grid_indices, low_rank_values, obs_from_values

from tenfit.core import block_views
from tenfit.cpd import reconstruct_full
from tenfit.errors import ContractError, DivergenceError, SplitError
from tenfit.metrics import regression_metrics
from tenfit import optim
from tenfit.optim import (
    MODEL_KINDS,
    Run,
    TrainConfig,
    Trainable,
    adam_step,
    fit,
    fit_batch,
    train_batch,
)

# Placeholder data for engine tests whose objectives ignore their data.
UNUSED_DATA = obs_from_values((2,), [0.0, 1.0])


def synthetic_split(shape, rank, seed, observed_fraction=0.7):
    values = low_rank_values(shape, rank, seed)
    obs = obs_from_values(shape, values)
    from tenfit.harness import uniform_split

    return uniform_split(obs, observed_fraction, seed=seed)


def adam_steps(p, grad, steps: int, lr: float):
    """p and its second moments after `steps` in-place adam_step calls on
    the flat buffer p, the gradient at each step given by grad(p)."""
    m, v, scratch = (np.zeros_like(p) for _ in range(3))
    for t in range(1, steps + 1):
        adam_step(p, np.array(grad(p), dtype=float), m, v, scratch, t, lr)
    return p, v


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0])
        stepped, _ = adam_steps(params.copy(), np.zeros_like, 1, lr=0.1)
        assert np.array_equal(stepped, params)

    @pytest.mark.parametrize("g", [1e-3, 1.0, 1e3])
    def test_first_step_magnitude_closed_form(self, g):
        lr = 0.05
        stepped, _ = adam_steps(np.full(4, 7.0), lambda p: np.full(4, g), 1, lr)
        magnitude = np.abs(stepped - 7.0)
        expected = lr * abs(g) / (abs(g) + optim.ADAM_EPS)
        assert np.all(np.abs(magnitude - expected) <= 1e-6 * lr)
        assert np.all(np.abs(magnitude - lr) <= 1e-4 * lr)

    def test_quadratic_convergence(self):
        x, _ = adam_steps(np.array([1.0]), lambda p: 2.0 * p, 500, lr=0.1)
        assert abs(x[0]) < 1e-3

    def test_second_moments_nonnegative(self):
        rng = np.random.default_rng(0)
        _, v = adam_steps(rng.normal(size=5), lambda p: rng.normal(size=5), 50, lr=0.01)
        assert np.all(v >= 0)

    def test_train_batch_takes_one_step_per_epoch(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[5])  # the step number t
            return adam_step(*args)

        monkeypatch.setattr(optim, "adam_step", counting)
        shape = (4, 3, 2)
        train, _ = synthetic_split(shape, rank=2, seed=5)
        cfg = TrainConfig(rank=2, epochs=7, lr=0.03)
        runs = [Run(0, r, r, train) for r in range(2)]
        train_batch(MODEL_KINDS["cpd"](shape, cfg), runs, cfg)
        assert calls == list(range(1, 8))

    @pytest.mark.parametrize("kind", ["cpd", "costco"])
    def test_train_batch_steps_like_adam_step(self, kind):
        """train_batch's in-place update on its flat buffer gives the bits
        of the objective plus the list-based reference Adam, epoch by epoch."""
        shape, epochs = (4, 3, 2), 25
        train, _ = synthetic_split(shape, rank=2, seed=5)
        cfg = TrainConfig(rank=2, epochs=epochs, lr=0.03, n_init_groups=2, conv_channels=3)
        trainable = MODEL_KINDS[kind](shape, cfg)
        (result,) = train_batch(trainable, [Run(0, 0, 9, train)], cfg)

        objective = trainable.objective([train])
        params = [p[None] for p in trainable.init(9)]
        shapes = [p.shape[1:] for p in params]
        state, losses = oracles.AdamState.fresh(params, cfg.lr), []
        for _ in range(epochs):
            (loss,), g = objective(np.concatenate(params, axis=None))
            losses.append(loss)
            params, state = oracles.adam_step(params, block_views(g, shapes, 1), state)
        assert result.losses == losses
        assert len(result.params) == len(params)
        assert all(np.array_equal(a, b[0]) for a, b in zip(result.params, params))


class TestFit:
    def test_synthetic_rank2_recovery(self):
        shape = (5, 4, 3)
        train, test = synthetic_split(shape, rank=2, seed=99)
        cfg = TrainConfig(rank=2, epochs=2000, lr=0.05, restarts=3, seed=5)
        model, report = fit(shape, train, cfg, "cpd")
        rep = regression_metrics(test.values, model.predict(test.indices))
        assert rep.r2 >= 0.99
        assert report.epochs_run == 2000

    def test_constant_tensor_is_rank_one(self):
        shape = (3, 3, 2)
        obs = obs_from_values(shape, np.full(18, 0.7))
        cfg = TrainConfig(rank=1, epochs=2000, lr=0.05, seed=1)
        _, report = fit(shape, obs, cfg, "cpd")
        assert report.final_loss <= 1e-6

    def test_restart_selection_takes_minimum(self):
        shape = (4, 3, 2)
        train, _ = synthetic_split(shape, rank=2, seed=7)
        cfg = TrainConfig(rank=2, epochs=300, lr=0.03, restarts=5, seed=3)
        _, report = fit(shape, train, cfg, "cpd")
        assert len(report.restart_final_losses) == 5
        assert report.final_loss == min(report.restart_final_losses)
        assert report.restart == int(np.argmin(report.restart_final_losses))

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("cpd", {}),
            ("cpd_s", {"smooth_weight": 0.2}),
            ("costco", {}),
            ("cpd", {"epochs": 2000, "patience": 5, "val_fraction": 0.3}),
        ],
        ids=["cpd", "cpd_s", "costco", "cpd_early_stop"],
    )
    def test_bit_identical_loss_series(self, kind, extra):
        shape = (4, 3, 2)
        train, _ = synthetic_split(shape, rank=2, seed=7)
        settings = {"rank": 2, "epochs": 200, "lr": 0.03, "restarts": 2, "seed": 3, **extra}
        cfg = TrainConfig(**settings, n_init_groups=2, conv_channels=4)
        model_a, report_a = fit(shape, train, cfg, kind)
        model_b, report_b = fit(shape, train, cfg, kind)
        assert report_a.losses == report_b.losses
        assert report_a.final_loss == report_b.final_loss
        if "patience" in extra:
            assert report_a.epochs_run < cfg.epochs  # the early stop was exercised

        pairs = list(zip(model_a.params.values(), model_b.params.values()))
        assert pairs and all(np.array_equal(a, b) for a, b in pairs)

    def test_monotone_trend(self):
        shape = (5, 4, 3)
        train, _ = synthetic_split(shape, rank=2, seed=99)
        cfg = TrainConfig(rank=2, epochs=2000, lr=0.05, seed=5)
        _, report = fit(shape, train, cfg, "cpd")
        assert report.losses[1999] < report.losses[9]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises_with_location(self):
        shape = (3, 3)
        train = obs_from_values(shape, np.linspace(0, 1, 9))
        cfg = TrainConfig(rank=2, epochs=50, lr=1e160, seed=0)
        with pytest.raises(DivergenceError, match=r"epoch \d+ of restart 0"):
            fit(shape, train, cfg, "cpd")

    def test_diverged_restart_is_skipped(self, monkeypatch):
        # restart 1 (seed 0 + 1) starts far out and diverges at its first
        # epoch; restarts 0 and 2 converge and the best of them wins.
        def objective(data_sets):
            def batch(flat, grad=True):  # one entry per fit
                losses = np.where(np.abs(flat) > 100, math.inf, flat * flat)
                return (losses, 2.0 * flat) if grad else losses

            return batch

        trainable = Trainable(
            layout=[("x", (1,))],
            init=lambda seed: [np.array([1000.0 if seed == 1 else 1.0 + seed])],
            objective=objective,
            val_objective=objective,
            model=lambda params, space, normalizer: params,
            max_rows=100,
            row_epoch_us=1.0,
        )
        monkeypatch.setitem(optim.MODEL_KINDS, "toy", lambda shape, cfg: trainable)
        cfg = TrainConfig(rank=1, epochs=50, lr=0.1, restarts=3, seed=0)
        (((params, report),),) = fit_batch((2,), [("toy", cfg)], [UNUSED_DATA], [cfg.seed])
        assert report.restart_final_losses[1] == math.inf
        assert all(math.isfinite(report.restart_final_losses[r]) for r in (0, 2))
        assert report.restart in (0, 2)
        assert report.final_loss == min(report.restart_final_losses)
        assert report.to_json()["restart_final_losses"][1] is None

    def test_cpd_s_penalizes_roughness(self):
        shape = (6, 4)
        rng = np.random.default_rng(10)
        values = rng.uniform(0, 1, size=24)
        obs = obs_from_values(shape, values)
        cfg = TrainConfig(rank=2, epochs=800, lr=0.03, seed=2, smooth_weight=0.5)
        model, _ = fit(shape, obs, cfg, "cpd_s")
        rough_cfg = TrainConfig(rank=2, epochs=800, lr=0.03, seed=2, smooth_weight=0.0)
        rough, _ = fit(shape, obs, rough_cfg, "cpd")
        def roughness(fs):
            return sum(float(np.sum(np.diff(f, axis=0) ** 2)) for f in fs.factors)
        assert roughness(model.factors) < roughness(rough.factors)

    def test_model_kind_validation(self):
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ContractError):
            fit(shape, obs, TrainConfig(rank=1), "tucker")

    def test_shape_mismatch_rejected(self):
        obs = obs_from_values((2, 2), [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ContractError):
            fit((3, 2), obs, TrainConfig(rank=1), "cpd")


class TestEarlyStopping:
    def test_returns_best_validation_checkpoint(self):
        # train loss always improves while validation worsens from the start:
        # the kept checkpoint must be the best (initial) one.
        calls = {"n": 0}

        def objective(data_sets):
            def batch(flat, grad=True):  # one entry per fit
                losses = flat**2
                return (losses, 2.0 * flat) if grad else losses

            return batch

        def val_objective(data_sets):
            def batch(flat, grad=False):
                calls["n"] += 1
                return (flat - 1.0) ** 2  # best at x=1, start x=0.9

            return batch

        trainable = Trainable(
            layout=[("x", (1,))],
            init=lambda seed: [np.array([0.9])],
            objective=objective,
            val_objective=val_objective,
            model=lambda params, space, normalizer: params,
            max_rows=100,
            row_epoch_us=1.0,
        )
        cfg = TrainConfig(rank=1, epochs=500, lr=0.05, patience=4, val_fraction=0.5)
        run = Run(fit=0, restart=0, seed=0, data=UNUSED_DATA, val=UNUSED_DATA)
        (result,) = train_batch(trainable, [run], cfg)
        params, losses = result.params, result.losses
        assert len(losses) < 500  # stopped early
        assert params[0][0] == pytest.approx(0.9)  # initial checkpoint kept

    def test_early_stop_through_fit(self):
        shape = (4, 4, 3)
        rng = np.random.default_rng(3)
        values = low_rank_values(shape, 1, seed=5) + rng.normal(0, 0.3, size=48)
        obs = obs_from_values(shape, values)
        cfg = TrainConfig(
            rank=3, epochs=4000, lr=0.05, seed=1, patience=20, val_fraction=0.25
        )
        model, report = fit(shape, obs, cfg, "cpd")
        assert report.epochs_run < 4000

    def test_patience_requires_val_fraction(self):
        with pytest.raises(ContractError, match="requires a positive validation fraction: "
                                                "val_fraction is 0.0$"):
            TrainConfig(rank=1, patience=5, val_fraction=0.0)

    def test_val_fraction_requires_patience(self):
        # without patience the share would be carved from nothing: a fit
        # would silently train on every row and never stop early
        with pytest.raises(ContractError, match="requires patience: patience is None$"):
            TrainConfig(rank=1, val_fraction=0.5)


@pytest.mark.parametrize(
    "settings, message",
    [({"lr": math.nan}, "learning rate must be finite: lr is nan"),
     ({"lr": math.inf}, "learning rate must be finite: lr is inf"),
     ({"lr": -1.0}, "learning rate must be positive: lr is -1.0"),
     ({"smooth_weight": math.inf}, "smoothness weight must be finite: smooth_weight is inf"),
     ({"smooth_weight": math.nan}, "smoothness weight must be finite: smooth_weight is nan"),
     ({"patience": 0, "val_fraction": 0.2}, "patience must be >= 1: patience is 0"),
     ({"val_fraction": 1.0}, "validation fraction must be in [0, 1): val_fraction is 1.0"),
     ({"n_init_groups": 0}, "CoSTCo head sizes must be >= 1: n_init_groups is 0"),
     ({"conv_channels": 0}, "CoSTCo head sizes must be >= 1: conv_channels is 0"),
     ({"hidden_units": -2}, "CoSTCo head sizes must be >= 1: hidden_units is -2"),
     ({"epochs": 0}, "epochs must be >= 1: epochs is 0"),
     ({"seed": -1}, "seed must be >= 0: seed is -1")],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
)
def test_train_config_check_ends_with_its_field(settings, message):
    # harness turns the "<field> is <value>" ending into the config key
    with pytest.raises(ContractError) as caught:
        TrainConfig(rank=1, **settings)
    assert str(caught.value) == message


class TestPredictSet:
    def test_empty_indices(self):
        # every model kind answers an empty query, as a list or an (0, M) array
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        for kind in ("cpd", "costco"):
            model, _ = fit(shape, obs, TrainConfig(rank=1, epochs=5), kind)
            for query in ([], np.zeros((0, 2), dtype=np.int64)):
                assert model.predict(query).shape == (0,)

    def test_full_grid_matches_reconstruction(self):
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        model, _ = fit(shape, obs, TrainConfig(rank=1, epochs=50), "cpd")
        grid = full_grid_indices(shape)
        preds = model.predict(grid)
        dense = reconstruct_full(model.factors).array
        assert preds == pytest.approx(dense.ravel(), rel=1e-12)

    def test_duplicate_queries_identical(self):
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        model, _ = fit(shape, obs, TrainConfig(rank=1, epochs=50), "cpd")
        preds = model.predict([(1, 1), (1, 1)])
        assert preds[0] == preds[1]

    def test_bounds_error(self):
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        model, _ = fit(shape, obs, TrainConfig(rank=1, epochs=5), "cpd")
        with pytest.raises(IndexError):
            model.predict([(0, 5)])


class TestTrainReportJson:
    def test_exact_keys(self):
        shape = (2, 2)
        obs = obs_from_values(shape, [0.1, 0.2, 0.3, 0.4])
        _, report = fit(shape, obs, TrainConfig(rank=1, epochs=10), "cpd")
        payload = report.to_json()
        assert set(payload) == {
            "losses",
            "final_loss",
            "restart",
            "epochs_run",
            "seconds",
            "restart_final_losses",
        }
        assert len(payload["losses"]) == payload["epochs_run"] == 10
        assert payload["restart_final_losses"] == [payload["final_loss"]]


class TestMemberExits:
    """Ways a batch member or a fit ends that no other test reaches."""

    def test_validation_divergence_names_its_epoch(self):
        # restart 0's validation loss turns non-finite at epoch 3; restart 1
        # trains on in the same batch to the last epoch
        diverging = obs_from_values((2,), [0.0, 1.0])
        calls = {"n": 0}

        def objective(data_sets):
            def batch(flat, grad=True):  # one entry per fit
                losses = flat**2
                return (losses, 2.0 * flat) if grad else losses

            return batch

        def val_objective(data_sets):
            def batch(flat, grad=False):
                calls["n"] += 1  # call 1 scores the initial parameters, call e + 2 epoch e
                bad = [calls["n"] >= 5 and data is diverging for data in data_sets]
                return np.where(bad, math.inf, flat**2)

            return batch

        trainable = Trainable(
            layout=[("x", (1,))],
            init=lambda seed: [np.array([1.0 + seed])],
            objective=objective,
            val_objective=val_objective,
            model=lambda params, space, normalizer: params,
            max_rows=100,
            row_epoch_us=1.0,
        )
        cfg = TrainConfig(rank=1, epochs=10, lr=0.1, restarts=2, patience=5, val_fraction=0.5)
        runs = [Run(0, 0, 0, UNUSED_DATA, diverging), Run(0, 1, 1, UNUSED_DATA, UNUSED_DATA)]
        failed, kept = train_batch(trainable, runs, cfg)
        assert isinstance(failed.error, DivergenceError)
        assert str(failed.error) == "non-finite validation loss at epoch 3 of restart 0"
        assert len(failed.losses) == 4  # epochs_run is the epoch + 1
        assert failed.params is None and failed.final_loss == math.inf
        assert kept.error is None and len(kept.losses) == 10
        assert math.isfinite(kept.final_loss)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_final_loss_fails_the_fit(self):
        # the one training loss is taken before the step that overflows, so
        # only the final loss at the kept parameters turns non-finite
        shape = (3, 3)
        train = obs_from_values(shape, np.linspace(0, 1, 9))
        cfg = TrainConfig(rank=2, epochs=1, lr=1e160, seed=0)
        with pytest.raises(DivergenceError, match="^non-finite final loss in restart 0$"):
            fit(shape, train, cfg, "cpd")

    def test_failed_validation_carve_fails_only_its_set(self):
        # one row cannot be split into training and validation rows
        obs = obs_from_values((2, 2), [0.1, 0.2, 0.3, 0.4])
        cfg = TrainConfig(rank=1, epochs=20, lr=0.05, patience=5, val_fraction=0.5)
        ((alone, whole),) = fit_batch((2, 2), [("cpd", cfg)], [obs.take([0]), obs], [0, 0])
        assert isinstance(alone, SplitError)
        model, report = whole
        assert report.epochs_run >= 1 and math.isfinite(report.final_loss)
