import numpy as np
import pytest
from conftest import fd_neural_gradient, full_grid_indices, obs_from_values, random_obs
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import costco_forward, neural_grad, predict_entry

from tenfit.core import DesignSpace, Normalizer, ObservationSet, block_starts, gather_keys, pack
from tenfit.cpd import FactorSet
from tenfit.errors import ContractError, DegenerateDataError
from tenfit.neural import (
    NeuralModel,
    _embeddings_and_head,
    _forward,
    _forward_arrays,
    costco_fit,
    costco_init,
    costco_layout,
    neural_loss,
)
from tenfit.optim import TrainConfig


def head_cfg(rank, n_groups, channels, hidden):
    return TrainConfig(
        rank=rank, n_init_groups=n_groups, conv_channels=channels, hidden_units=hidden
    )


def model_of(shape, cfg, arrays) -> NeuralModel:
    """A model of `shape` from arrays in layout order."""
    names = [name for name, _ in costco_layout(shape, cfg)]
    space = DesignSpace.from_shape(shape)
    return NeuralModel("costco", dict(zip(names, arrays)), space, None, cfg)


def init_model(shape, rank, n_groups, channels, hidden, seed) -> NeuralModel:
    cfg = head_cfg(rank, n_groups, channels, hidden)
    return model_of(shape, cfg, costco_init(shape, cfg, seed))


def zero_model(shape, rank, n_groups, channels=2, hidden=3) -> NeuralModel:
    cfg = head_cfg(rank, n_groups, channels, hidden)
    return model_of(shape, cfg, [np.zeros(size) for _, size in costco_layout(shape, cfg)])


def summing_model(shape, rank, embeddings) -> NeuralModel:
    """One group of embeddings under a head whose output is the plain sum of
    all stack entries (exact on non-negative pre-activations)."""
    cfg = head_cfg(rank, 1, 1, 1)
    head = [np.ones(size) if name.endswith(("kernels", "_w")) else np.zeros(size)
            for name, size in costco_layout(shape, cfg)[len(shape):]]
    return model_of(shape, cfg, list(embeddings) + head)


def forward(model, indices):
    """The package's forward pass for one model, on training's gather (the
    model's one-fit buffer taken at the embeddings' gather keys):
    predictions, the gathered input x and the arrays backward reads,
    without the batch axis."""
    cfg, arrays = model.cfg, list(model.params.values())
    embeddings, head = _embeddings_and_head(arrays, model.shape, cfg)
    starts, n_modes = block_starts([a.shape for a in arrays], 1), len(model.shape)
    keys = np.empty((len(indices), model.rank, cfg.n_init_groups, n_modes), dtype=np.int64)
    for k, embedding in enumerate(embeddings):  # group-major, as the layout
        keys[..., k // n_modes, k % n_modes] = gather_keys(starts[k], embedding.shape, 0,
                                                           indices[:, k % n_modes])
    x = pack([arrays]).take(keys)[None]
    work = _forward_arrays(1, len(indices), model.rank, cfg.conv_channels, cfg.hidden_units)
    preds = _forward(x, [a[None] for a in head], work)
    return preds[0], x[0], [w[0] for w in work]


def preactivation_margin(model, indices):
    """Smallest |pre-activation| across all rectifier inputs for the batch."""
    _, cache = costco_forward(model.params, np.asarray(indices, dtype=np.int64))
    _, z1, _, z2, _, z3, _ = cache
    return min(np.abs(z1).min(), np.abs(z2).min(), np.abs(z3).min())


class TestForward:
    def test_zero_network_outputs_zero(self):
        shape = (3, 4, 2)
        model = zero_model(shape, 2, 2)
        preds = model.predict(full_grid_indices(shape))
        assert np.all(preds == 0.0)

    def test_summing_head_hand_case(self):
        # S=1, R=2, M=3, all-ones embedding rows -> sum of the 2x3 stack = 6
        shape = (3, 3, 3)
        model = summing_model(shape, 2, [np.ones((3, 2)) for _ in range(3)])
        assert model.predict([(0, 1, 2)])[0] == 6.0

    def test_finite_outputs_over_random_sweep(self):
        shape = (6, 5, 4)
        model = init_model(shape, 3, 3, 8, 16, seed=1)
        rng = np.random.default_rng(3)
        indices = np.column_stack([rng.integers(0, s, size=10_000) for s in shape])
        preds = model.predict(indices)
        assert np.all(np.isfinite(preds))

    def test_forward_purity(self):
        shape = (3, 3, 3)
        model = init_model(shape, 2, 2, 4, 8, seed=4)
        a = model.predict([(1, 2, 0)])
        b = model.predict([(1, 2, 0)])
        assert a[0] == b[0]

    def test_bounds_error(self):
        shape = (3, 3, 3)
        model = init_model(shape, 2, 1, 4, 8, seed=0)
        with pytest.raises(IndexError):
            model.predict([(0, 3, 0)])

    def test_shape_chain(self):
        # conv over modes -> (C, R); conv over rank -> (C,); dense -> (H,); out -> scalar
        for rank, shape, groups, channels, hidden in (
            (1, (2, 2), 1, 1, 1),
            (3, (4, 3, 2), 2, 5, 7),
            (2, (3, 3, 3, 3), 4, 8, 16),
        ):
            model = init_model(shape, rank, groups, channels, hidden, seed=1)
            indices = full_grid_indices(shape)[:5]
            n = len(indices)
            preds, x, (z1, _, rank_matrix, z2, _, z3, _, _) = forward(model, indices)
            assert x.shape == (n, rank, groups, len(shape))
            assert z1.shape == (n * rank, channels)  # (R, C) per cell
            assert rank_matrix.shape == (channels, rank * channels)
            assert z2.shape == (n, channels)
            assert z3.shape == (n, hidden)
            assert preds.shape == (n,)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_predict_equals_the_keys_gather_bit_for_bit(self, data):
        # predict gathers each matrix's rows into x itself; training takes
        # the flat embeddings at their keys; the forward pass is shared
        shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        rank, groups, channels, hidden = (data.draw(st.integers(1, k)) for k in (6, 4, 6, 9))
        model = init_model(shape, rank, groups, channels, hidden, data.draw(st.integers(0, 99)))
        n = data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        indices = np.column_stack([rng.integers(0, s, size=n) for s in shape])
        got = model.predict(indices)
        assert got.tobytes() == forward(model, indices)[0].tobytes()

    def test_incompatible_bank_and_head(self):
        # arrays that disagree with the layout in names, shapes or finiteness
        shape = (3, 3)
        cfg = head_cfg(2, 2, 4, 8)
        damages = {
            "mode_kernels": np.zeros((4, 3, 2)),  # a head for 3 groups over the bank's 2
            "embeddings/1/0": np.zeros((2, 2)),
            "dense_w": np.full((8, 4), np.nan),
            "out_b": None,  # missing
        }
        for name, array in damages.items():
            params = dict(init_model(shape, 2, 2, 4, 8, seed=0).params)
            if array is None:
                del params[name]
            else:
                params[name] = array
            with pytest.raises(ContractError):
                NeuralModel("costco", params, DesignSpace.from_shape(shape), None, cfg)


class TestContainsLinearPredictor:
    def test_single_informative_mode_matches_cpd(self):
        # All-positive rank-3 factors that are constant in every mode but the
        # first are exactly representable under the frozen summing head.
        rng = np.random.default_rng(8)
        shape = (5, 4, 3)
        rank = 3
        informative = rng.uniform(0.1, 1.0, size=(5, rank))
        factors = FactorSet([informative, np.ones((4, rank)), np.ones((3, rank))])
        model = summing_model(
            shape, rank, [informative.copy(), np.zeros((4, rank)), np.zeros((3, rank))]
        )
        grid = full_grid_indices(shape)
        for index, pred in zip(grid, model.predict(grid)):
            assert pred == pytest.approx(predict_entry(factors, index), abs=1e-10)


class TestNeuralGrad:
    def test_zero_residual_gives_zero_gradient(self):
        shape = (3, 3, 3)
        model = init_model(shape, 2, 2, 4, 8, seed=4)
        indices = full_grid_indices(shape)[::3]
        preds = model.predict(indices)
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=indices,
            values=preds,
            normalizer=Normalizer(0, 1),
        )
        grads = neural_grad(model, obs)
        assert all(np.allclose(g, 0.0, atol=1e-14) for g in grads)

    def test_matches_finite_differences_away_from_kinks(self):
        shape = (3, 3, 3)
        obs = random_obs(shape, 8, seed=0)
        seed = 0
        while True:  # resample until pre-activations clear the kink margin
            model = init_model(shape, 2, 2, 4, 6, seed=seed)
            if preactivation_margin(model, obs.indices) > 1e-3:
                break
            seed += 1
        analytic = neural_grad(model, obs)
        numeric = fd_neural_gradient(model, obs)
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert np.max(np.abs(a - f) / denom) <= 1e-3

    def test_unreferenced_embedding_row_gradient_is_zero(self):
        shape = (4, 3, 2)
        model = init_model(shape, 2, 2, 4, 6, seed=9)
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=np.array([[0, 1, 1]]),
            values=np.array([0.4]),
            normalizer=Normalizer(0, 1),
        )
        grads = neural_grad(model, obs)
        for s in range(2):  # mode-0 rows 1..3 unused in every group
            assert np.allclose(grads[s * 3][1:], 0.0)

    def test_empty_observations_rejected(self):
        shape = (2, 2)
        model = init_model(shape, 1, 1, 2, 2, seed=0)
        empty = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=np.zeros((0, 2), dtype=np.int64),
            values=np.zeros(0),
            normalizer=Normalizer(0, 1),
        )
        with pytest.raises(DegenerateDataError):
            neural_grad(model, empty)
        with pytest.raises(DegenerateDataError):
            neural_loss(model, empty)


class TestCostcoFit:
    def test_overfits_small_random_tensor(self):
        shape = (4, 4, 4)
        obs = random_obs(shape, 50, seed=42)
        cfg = TrainConfig(
            rank=3, epochs=3000, lr=0.01, seed=7, n_init_groups=3, conv_channels=8, hidden_units=16
        )
        model, report = costco_fit(obs, cfg)
        assert report.final_loss <= 1e-3
        assert model.shape == shape

    def test_seed_determinism(self):
        shape = (3, 3, 3)
        obs = obs_from_values(shape, np.linspace(0, 1, 27))
        cfg = TrainConfig(
            rank=2, epochs=150, lr=0.01, seed=11, n_init_groups=2, conv_channels=4, hidden_units=8
        )
        _, report_a = costco_fit(obs, cfg)
        _, report_b = costco_fit(obs, cfg)
        assert report_a.losses == report_b.losses
        assert report_a.final_loss == report_b.final_loss

    def test_single_group_topology(self):
        shape = (3, 3, 3)
        obs = obs_from_values(shape, np.linspace(0, 1, 27))
        cfg = TrainConfig(
            rank=2, epochs=30, lr=0.01, seed=0, n_init_groups=1, conv_channels=4, hidden_units=8
        )
        model, _ = costco_fit(obs, cfg)
        assert model.cfg.n_init_groups == 1
        assert model.params["mode_kernels"].shape == (4, 1, 3)

    def test_restart_selection(self):
        shape = (3, 3, 3)
        obs = obs_from_values(shape, np.linspace(0, 1, 27))
        cfg = TrainConfig(
            rank=2, epochs=100, lr=0.01, seed=3, restarts=3,
            n_init_groups=2, conv_channels=4, hidden_units=8,
        )
        _, report = costco_fit(obs, cfg)
        assert report.final_loss == min(report.restart_final_losses)
