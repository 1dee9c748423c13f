import numpy as np
import pytest
from conftest import full_grid_indices, obs_from_values
from oracles import predict_entry

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import FactorSet
from tenfit.errors import ContractError, DegenerateDataError
from tenfit.neural import (
    ConvHead,
    EmbeddingBank,
    costco_fit,
    init_conv_head,
    init_embedding_bank,
    neural_grad,
    neural_loss,
    pack_params,
    predict_batch,
    unpack_params,
    _forward,
)
from tenfit.optim import TrainConfig


def zero_head(n_groups, rank, n_modes, channels=2, hidden=3):
    return ConvHead(
        mode_kernels=np.zeros((channels, n_groups, n_modes)),
        mode_bias=np.zeros(channels),
        rank_kernels=np.zeros((channels, channels, rank)),
        rank_bias=np.zeros(channels),
        dense_w=np.zeros((hidden, channels)),
        dense_b=np.zeros(hidden),
        out_w=np.zeros(hidden),
        out_b=np.zeros(()),
    )


def summing_head(n_groups, rank, n_modes):
    """Head whose output is the plain sum of all stack entries (exact on
    non-negative pre-activations)."""
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


def zero_bank(shape, rank, n_groups):
    return EmbeddingBank([[np.zeros((s, rank)) for s in shape] for _ in range(n_groups)])


def fd_neural_gradient(bank, head, obs, h=1e-6):
    params = pack_params(bank, head)
    n_groups, n_modes = bank.n_groups, bank.n_modes

    def loss_of(plist):
        b, hd = unpack_params(plist, n_groups, n_modes)
        return neural_loss(b, hd, obs)

    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        flat = g.ravel()
        for j in range(p.size):
            plus = [q.copy() for q in params]
            plus[k].ravel()[j] += h
            minus = [q.copy() for q in params]
            minus[k].ravel()[j] -= h
            flat[j] = (loss_of(plus) - loss_of(minus)) / (2 * h)
        grads.append(g)
    return grads


def preactivation_margin(bank, head, indices):
    """Smallest |pre-activation| across all rectifier inputs for the batch."""
    _, cache = _forward(bank, head, np.asarray(indices, dtype=np.int64))
    _, z1, _, z2, _, z3, _ = cache
    return min(np.abs(z1).min(), np.abs(z2).min(), np.abs(z3).min())


class TestForward:
    def test_zero_network_outputs_zero(self):
        shape = (3, 4, 2)
        bank = zero_bank(shape, 2, 2)
        head = zero_head(2, 2, 3)
        preds = predict_batch(bank, head, full_grid_indices(shape))
        assert np.all(preds == 0.0)

    def test_summing_head_hand_case(self):
        # S=1, R=2, M=3, all-ones embedding rows -> sum of the 2x3 stack = 6
        shape = (3, 3, 3)
        bank = EmbeddingBank([[np.ones((3, 2)) for _ in range(3)]])
        head = summing_head(1, 2, 3)
        assert predict_batch(bank, head, [(0, 1, 2)])[0] == 6.0

    def test_finite_outputs_over_random_sweep(self):
        shape = (6, 5, 4)
        bank = init_embedding_bank(shape, 3, 3, seed=1)
        head = init_conv_head(3, 3, 3, 8, 16, seed=2)
        rng = np.random.default_rng(3)
        indices = np.column_stack([rng.integers(0, s, size=10_000) for s in shape])
        preds = predict_batch(bank, head, indices)
        assert np.all(np.isfinite(preds))

    def test_forward_purity(self):
        shape = (3, 3, 3)
        bank = init_embedding_bank(shape, 2, 2, seed=4)
        head = init_conv_head(2, 3, 2, 4, 8, seed=5)
        a = predict_batch(bank, head, [(1, 2, 0)])
        b = predict_batch(bank, head, [(1, 2, 0)])
        assert a[0] == b[0]

    def test_bounds_error(self):
        shape = (3, 3, 3)
        bank = init_embedding_bank(shape, 2, 1, seed=0)
        head = init_conv_head(2, 3, 1, 4, 8, seed=0)
        with pytest.raises(IndexError):
            predict_batch(bank, head, [(0, 3, 0)])

    def test_shape_chain(self):
        # conv over modes -> (C, R); conv over rank -> (C,); dense -> (H,); out -> scalar
        for rank, shape, groups, channels, hidden in (
            (1, (2, 2), 1, 1, 1),
            (3, (4, 3, 2), 2, 5, 7),
            (2, (3, 3, 3, 3), 4, 8, 16),
        ):
            bank = init_embedding_bank(shape, rank, groups, seed=1)
            head = init_conv_head(rank, len(shape), groups, channels, hidden, seed=2)
            indices = full_grid_indices(shape)[:5]
            n = len(indices)
            preds, cache = _forward(bank, head, indices)
            x, z1, _, z2, _, z3, _ = cache
            assert x.shape == (n, groups, rank, len(shape))
            assert z1.shape == (n, channels, rank)
            assert z2.shape == (n, channels)
            assert z3.shape == (n, hidden)
            assert preds.shape == (n,)

    def test_incompatible_bank_and_head(self):
        bank = init_embedding_bank((3, 3), 2, 2, seed=0)
        head = init_conv_head(2, 2, 3, 4, 8, seed=0)  # 3 groups vs bank's 2
        with pytest.raises(ContractError):
            predict_batch(bank, head, [(0, 0)])


class TestContainsLinearPredictor:
    def test_single_informative_mode_matches_cpd(self):
        # All-positive rank-3 factors that are constant in every mode but the
        # first are exactly representable under the frozen summing head.
        rng = np.random.default_rng(8)
        shape = (5, 4, 3)
        rank = 3
        informative = rng.uniform(0.1, 1.0, size=(5, rank))
        factors = FactorSet([informative, np.ones((4, rank)), np.ones((3, rank))])
        bank = EmbeddingBank(
            [[informative.copy(), np.zeros((4, rank)), np.zeros((3, rank))]]
        )
        head = summing_head(1, rank, 3)
        grid = full_grid_indices(shape)
        for index, pred in zip(grid, predict_batch(bank, head, grid)):
            assert pred == pytest.approx(predict_entry(factors, index), abs=1e-10)


class TestNeuralGrad:
    def test_zero_residual_gives_zero_gradient(self):
        shape = (3, 3, 3)
        bank = init_embedding_bank(shape, 2, 2, seed=4)
        head = init_conv_head(2, 3, 2, 4, 8, seed=5)
        indices = full_grid_indices(shape)[::3]
        preds = predict_batch(bank, head, indices)
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=indices,
            values=preds,
            normalizer=Normalizer(0, 1),
        )
        grads = neural_grad(bank, head, obs)
        assert all(np.allclose(g, 0.0, atol=1e-14) for g in grads)

    def test_matches_finite_differences_away_from_kinks(self):
        shape = (3, 3, 3)
        rng = np.random.default_rng(0)
        indices = full_grid_indices(shape)
        picked = indices[rng.choice(len(indices), size=8, replace=False)]
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=picked,
            values=rng.uniform(0, 1, size=8),
            normalizer=Normalizer(0, 1),
        )
        seed = 0
        while True:  # resample until pre-activations clear the kink margin
            bank = init_embedding_bank(shape, 2, 2, seed=seed)
            head = init_conv_head(2, 3, 2, 4, 6, seed=seed + 100)
            if preactivation_margin(bank, head, picked) > 1e-3:
                break
            seed += 1
        analytic = neural_grad(bank, head, obs)
        numeric = fd_neural_gradient(bank, head, obs)
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert np.max(np.abs(a - f) / denom) <= 1e-3

    def test_unreferenced_embedding_row_gradient_is_zero(self):
        shape = (4, 3, 2)
        bank = init_embedding_bank(shape, 2, 2, seed=9)
        head = init_conv_head(2, 3, 2, 4, 6, seed=10)
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=np.array([[0, 1, 1]]),
            values=np.array([0.4]),
            normalizer=Normalizer(0, 1),
        )
        grads = neural_grad(bank, head, obs)
        for s in range(2):  # mode-0 rows 1..3 unused in every group
            assert np.allclose(grads[s * 3][1:], 0.0)

    def test_empty_observations_rejected(self):
        shape = (2, 2)
        bank = init_embedding_bank(shape, 1, 1, seed=0)
        head = init_conv_head(1, 2, 1, 2, 2, seed=0)
        empty = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=np.zeros((0, 2), dtype=np.int64),
            values=np.zeros(0),
            normalizer=Normalizer(0, 1),
        )
        with pytest.raises(DegenerateDataError):
            neural_grad(bank, head, empty)


class TestCostcoFit:
    def test_overfits_small_random_tensor(self):
        shape = (4, 4, 4)
        rng = np.random.default_rng(42)
        grid = full_grid_indices(shape)
        picked = grid[rng.choice(len(grid), size=50, replace=False)]
        obs = ObservationSet(
            space=DesignSpace.from_shape(shape),
            indices=picked,
            values=rng.uniform(0, 1, size=50),
            normalizer=Normalizer(0, 1),
        )
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
        assert model.bank.n_groups == 1
        assert model.head.mode_kernels.shape == (4, 1, 3)

    def test_restart_selection(self):
        shape = (3, 3, 3)
        obs = obs_from_values(shape, np.linspace(0, 1, 27))
        cfg = TrainConfig(
            rank=2, epochs=100, lr=0.01, seed=3, restarts=3,
            n_init_groups=2, conv_channels=4, hidden_units=8,
        )
        _, report = costco_fit(obs, cfg)
        assert report.final_loss == min(report.restart_final_losses)


class TestPackUnpack:
    def test_round_trip(self):
        bank = init_embedding_bank((3, 4), 2, 2, seed=1)
        head = init_conv_head(2, 2, 2, 3, 5, seed=2)
        params = pack_params(bank, head)
        bank2, head2 = unpack_params(params, 2, 2)
        assert all(
            np.array_equal(a, b)
            for ga, gb in zip(bank.groups, bank2.groups)
            for a, b in zip(ga, gb)
        )
        assert np.array_equal(head.dense_w, head2.dense_w)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ContractError):
            unpack_params([np.zeros((2, 2))] * 5, 2, 2)
