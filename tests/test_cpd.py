import itertools

import numpy as np
import pytest
from conftest import fd_cpd_gradient, full_grid_indices, obs_from_values, permute_components
from conftest import random_cpd_instance
from oracles import predict_entry

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import (
    CPDModel,
    FactorSet,
    SmoothnessConfig,
    grad_masked_loss,
    init_factors,
    masked_mse,
    predict_indices,
    reconstruct_full,
    smoothness_penalty,
)
from tenfit.errors import CapacityError, ContractError, DegenerateDataError
from tenfit.optim import TrainConfig


def outer_product_oracle(factors: FactorSet) -> np.ndarray:
    """Explicit sum of rank-one outer products; independent of einsum."""
    total = np.zeros(factors.shape)
    for r in range(factors.rank):
        component = factors.factors[0][:, r]
        for f in factors.factors[1:]:
            component = np.multiply.outer(component, f[:, r])
        total += component
    return total


class TestInitFactors:
    def test_seed_determinism(self):
        a = init_factors((2, 2), 1, seed=11)
        b = init_factors((2, 2), 1, seed=11)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)

    def test_lattice_shapes(self):
        factors = init_factors((5, 2, 3, 3, 3), 3, seed=0)
        assert [f.shape for f in factors.factors] == [(5, 3), (2, 3), (3, 3), (3, 3), (3, 3)]

    def test_distinct_seeds_differ(self):
        a = init_factors((4, 4), 2, seed=1)
        b = init_factors((4, 4), 2, seed=2)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a.factors, b.factors))

    def test_init_scale(self):
        factors = init_factors((2000, 2000), 8, seed=3)
        pooled = np.concatenate([f.ravel() for f in factors.factors])
        assert abs(pooled.std() - 0.5) < 0.01
        assert abs(pooled.mean()) < 0.01


class TestPredictEntry:
    def test_all_ones_rank1(self):
        factors = FactorSet([np.ones((3, 1)), np.ones((2, 1)), np.ones((4, 1))])
        assert predict_entry(factors, (2, 1, 3)) == 1.0

    def test_hand_rank2(self):
        factors = FactorSet([np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])])
        assert predict_entry(factors, (0, 0)) == 11.0

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(5)
        factors = FactorSet([rng.normal(size=(2, 1)), rng.normal(size=(2, 1)), rng.normal(size=(2, 1))])
        oracle = outer_product_oracle(factors)
        for index in itertools.product(range(2), repeat=3):
            assert abs(predict_entry(factors, index) - oracle[index]) <= 1e-12

    def test_bounds_error(self):
        factors = init_factors((2, 2), 1, seed=0)
        with pytest.raises(IndexError):
            predict_entry(factors, (0, 2))
        with pytest.raises(IndexError):
            predict_entry(factors, (0, -1))


class TestPredictIndices:
    def test_prediction_does_not_depend_on_the_query(self):
        # rank 8 is where a BLAS matvec's sum for a row depends on its
        # position in the matrix; each cell must predict the same bits
        # alone as inside a full-grid query
        shape = (5, 2, 3, 3, 3)
        factors = init_factors(shape, 8, seed=3)
        grid = full_grid_indices(shape)
        whole = predict_indices(factors, grid)
        alone = np.concatenate([predict_indices(factors, cell[None]) for cell in grid])
        assert np.array_equal(alone, whole)


class TestCPDModel:
    """Building a CPDModel checks its arrays against the layout of its space
    and rank, and its smoothed modes against the space."""

    SHAPE = (3, 2, 4)

    def params(self):
        return {f"factors/{m}": np.ones((size, 2)) for m, size in enumerate(self.SHAPE)}

    def build(self, params, kind="cpd", **settings):
        space = DesignSpace.from_shape(self.SHAPE)
        return CPDModel(kind, params, space, None, TrainConfig(rank=2, **settings))

    def test_fitting_arrays_build(self):
        model = self.build(self.params())
        assert model.rank == 2 and model.shape == self.SHAPE
        assert model.factors.shape == self.SHAPE

    @pytest.mark.parametrize(
        "damage, message",
        [("rows", r"factors/1 has shape \[3, 2\] and 6 values, expected shape \(2, 2\)"),
         ("rank", r"factors/0 has shape \[3, 1\] and 3 values, expected shape \(3, 2\)"),
         ("missing", r"params holds \['factors/0', 'factors/1'\], not \['factors/0', "),
         ("extra", r"params holds \['factors/0', 'factors/1', 'factors/2', 'factors/3'\]"),
         ("non_finite", "factors/2 holds a non-finite value")],
        ids=["rows", "rank", "missing", "extra", "non_finite"],
    )
    def test_arrays_off_the_layout_are_a_contract_error(self, damage, message):
        params = self.params()
        if damage == "rows":
            params["factors/1"] = np.ones((3, 2))
        elif damage == "rank":
            params["factors/0"] = np.ones((3, 1))
        elif damage == "missing":
            del params["factors/2"]
        elif damage == "extra":
            params["factors/3"] = np.ones((5, 2))
        else:
            params["factors/2"][3, 1] = np.inf
        with pytest.raises(ContractError, match=message):
            self.build(params)

    def test_factor_set_is_built_once_and_predicts_the_same_bits(self):
        rng = np.random.default_rng(6)
        params = {name: rng.normal(size=a.shape) for name, a in self.params().items()}
        model = self.build(params)
        assert model.factors is model.factors
        assert all(f is a for f, a in zip(model.factors.factors, model.params.values()))
        grid = full_grid_indices(self.SHAPE)
        fresh = predict_indices(FactorSet(list(params.values())), grid)
        assert model.predict(grid).tobytes() == fresh.tobytes()
        assert model.predict(grid[::-1]).tobytes() == fresh[::-1].tobytes()

    @pytest.mark.parametrize("mode", [3, -1])
    def test_a_smoothed_mode_outside_the_space_is_a_contract_error(self, mode):
        with pytest.raises(ContractError, match="smoothness modes"):
            self.build(self.params(), "cpd_s", smooth_modes=(mode,))
        self.build(self.params(), "cpd", smooth_modes=(mode,))  # CPD does not smooth


class TestReconstructFull:
    def test_hand_outer_product(self):
        factors = FactorSet([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
        assert reconstruct_full(factors).array.tolist() == [[3.0, 4.0], [6.0, 8.0]]

    def test_zero_factors(self):
        factors = FactorSet([np.zeros((2, 2)), np.zeros((3, 2))])
        assert not reconstruct_full(factors).array.any()

    def test_matches_entrywise_prediction(self):
        rng = np.random.default_rng(9)
        factors = FactorSet([rng.normal(size=(3, 2)) for _ in range(3)])
        tensor = reconstruct_full(factors)
        for index in itertools.product(range(3), repeat=3):
            assert abs(tensor.array[index] - predict_entry(factors, index)) <= 1e-14

    def test_capacity_cap(self):
        # 216^3 = 10,077,696 cells, just over the 1e7 cap
        factors = init_factors((216, 216, 216), 1, seed=0)
        with pytest.raises(CapacityError):
            reconstruct_full(factors)

    def test_largest_paper_scale_shape_fits_default_cap(self):
        # 35 x 23 x 22 x 22 x 3 = 1,168,860 cells, under the 1e7 default cap
        factors = init_factors((35, 23, 22, 22, 3), 1, seed=0)
        tensor = reconstruct_full(factors)
        assert tensor.data.shape[0] == 1_168_860


class TestMaskedMse:
    def test_perfect_fit(self):
        factors = init_factors((3, 3), 2, seed=4)
        obs = obs_from_values((3, 3), reconstruct_full(factors).array)
        assert masked_mse(factors, obs) == 0.0

    def test_unit_residual(self):
        factors = FactorSet([np.zeros((1, 1)), np.zeros((1, 1))])
        space = DesignSpace.from_shape((1, 1))
        obs = ObservationSet(
            space=space, indices=np.array([[0, 0]]), values=np.array([1.0]), normalizer=Normalizer(0, 1)
        )
        assert masked_mse(factors, obs) == 1.0

    def test_hand_arithmetic(self):
        # predictions 0 everywhere; residuals are the observed values
        factors = FactorSet([np.zeros((3, 1)), np.zeros((1, 1))])
        space = DesignSpace.from_shape((3, 1))
        obs = ObservationSet(
            space=space,
            indices=np.array([[0, 0], [1, 0], [2, 0]]),
            values=np.array([0.1, -0.2, 0.3]),
            normalizer=Normalizer(0, 1),
        )
        assert masked_mse(factors, obs) == pytest.approx(0.014 / 0.3, rel=1e-12)

    def test_full_observation_equals_dense_mse(self):
        rng = np.random.default_rng(21)
        factors = init_factors((3, 4, 2), 2, seed=8)
        target = rng.normal(size=(3, 4, 2))
        obs = obs_from_values((3, 4, 2), target)
        dense = reconstruct_full(factors).array
        assert masked_mse(factors, obs) == pytest.approx(np.mean((dense - target) ** 2), rel=1e-12)


class TestSmoothnessPenalty:
    def test_zero_weight(self):
        factors = init_factors((4, 3), 2, seed=0)
        assert smoothness_penalty(factors, SmoothnessConfig(weight=0.0, modes=(0, 1))) == 0.0

    def test_constant_rows(self):
        factors = FactorSet([np.ones((4, 2)), np.ones((3, 2))])
        assert smoothness_penalty(factors, SmoothnessConfig(weight=1.0, modes=(0, 1))) == 0.0

    def test_hand_case(self):
        factors = FactorSet([np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones((2, 2))])
        cfg = SmoothnessConfig(weight=1.0, modes=(0,))
        assert smoothness_penalty(factors, cfg) == 2.0

    def test_zero_iff_constant_rows(self):
        rng = np.random.default_rng(3)
        cfg = SmoothnessConfig(weight=0.5, modes=(0,))
        for _ in range(20):
            matrix = rng.normal(size=(4, 2))
            factors = FactorSet([matrix, rng.normal(size=(3, 2))])
            penalty = smoothness_penalty(factors, cfg)
            constant = np.allclose(matrix, matrix[0])
            assert (penalty == 0.0) == constant

    def test_single_row_mode_contributes_zero(self):
        factors = FactorSet([np.array([[5.0, -1.0]]), np.ones((3, 2))])
        assert smoothness_penalty(factors, SmoothnessConfig(weight=1.0, modes=(0,))) == 0.0


class TestGradMaskedLoss:
    def test_perfect_fit_zero_gradient(self):
        factors = init_factors((3, 3), 2, seed=4)
        obs = obs_from_values((3, 3), reconstruct_full(factors).array)
        grads = grad_masked_loss(factors, obs, SmoothnessConfig())
        assert all(np.allclose(g, 0.0, atol=1e-12) for g in grads)

    def test_hand_chain_rule(self):
        # single obs at (0,0), y=0, a0=1, b0=2: dL/da0 = 2*(2-0)*2 = 8
        factors = FactorSet([np.array([[1.0]]), np.array([[2.0]])])
        space = DesignSpace.from_shape((1, 1))
        obs = ObservationSet(
            space=space, indices=np.array([[0, 0]]), values=np.array([0.0]), normalizer=Normalizer(0, 1)
        )
        grads = grad_masked_loss(factors, obs, SmoothnessConfig())
        assert grads[0][0, 0] == pytest.approx(8.0, rel=1e-12)
        assert grads[1][0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_untouched_rows_only_get_smoothness_gradient(self):
        factors = init_factors((4, 3), 2, seed=2)
        space = DesignSpace.from_shape((4, 3))
        obs = ObservationSet(
            space=space, indices=np.array([[0, 0]]), values=np.array([0.5]), normalizer=Normalizer(0, 1)
        )
        grads_plain = grad_masked_loss(factors, obs, SmoothnessConfig())
        assert np.allclose(grads_plain[0][2:], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            factors, obs, cfg = random_cpd_instance(rng)
            analytic = grad_masked_loss(factors, obs, cfg)
            numeric = fd_cpd_gradient(factors, obs, cfg)
            for a, f in zip(analytic, numeric):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
                assert np.max(np.abs(a - f) / denom) <= 1e-4

    def test_empty_observations_rejected(self):
        factors = init_factors((2, 2), 1, seed=0)
        space = DesignSpace.from_shape((2, 2))
        empty = ObservationSet(
            space=space,
            indices=np.zeros((0, 2), dtype=np.int64),
            values=np.zeros(0),
            normalizer=Normalizer(0, 1),
        )
        with pytest.raises(DegenerateDataError):
            masked_mse(factors, empty)
        with pytest.raises(DegenerateDataError):
            grad_masked_loss(factors, empty, SmoothnessConfig())

    def test_shape_mismatch_rejected(self):
        obs = obs_from_values((2, 3), np.arange(6.0))
        with pytest.raises(ContractError):
            grad_masked_loss(init_factors((3, 2), 1, seed=0), obs)


class TestComponentPermutationInvariance:
    def test_common_column_permutation_preserves_predictions(self):
        rng = np.random.default_rng(12)
        factors = FactorSet([rng.normal(size=(s, 3)) for s in (3, 4, 2)])
        permuted = permute_components(factors, [2, 0, 1])
        for index in itertools.product(range(3), range(4), range(2)):
            assert predict_entry(factors, index) == pytest.approx(
                predict_entry(permuted, index), rel=1e-12, abs=1e-15
            )
