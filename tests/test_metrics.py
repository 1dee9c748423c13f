import csv
import json
import math
import warnings

import numpy as np
import pytest
from conftest import copy_factors, permute_components
from oracles import exhaustive_fms

from tenfit.core import Axis, DesignSpace
from tenfit.cpd import FactorSet, init_factors
from tenfit.errors import ContractError, DegenerateDataError
from tenfit.metrics import (
    _max_assignment,
    component_expression_export,
    fms,
    normalized_components,
    regression_metrics,
)


def brute_force_metrics(y, yhat):
    """Formula-by-formula re-evaluation, written independently of the
    implementation (plain Python loops)."""
    n = len(y)
    mean_y = sum(y) / n
    ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
    ss_tot = sum((a - mean_y) ** 2 for a in y)
    r2 = 1 - ss_res / ss_tot
    mae = sum(abs(a - b) for a, b in zip(y, yhat)) / n
    rmse = math.sqrt(ss_res / n)
    kept = [(a, b) for a, b in zip(y, yhat) if abs(a) >= 1e-8]
    mape = sum(abs((a - b) / a) for a, b in kept) / len(kept) if kept else 0.0
    return r2, mae, rmse, mape


def random_factor_pair(rng, shape=(6, 5, 4), rank=3):
    a = FactorSet([rng.normal(size=(s, rank)) for s in shape])
    b = FactorSet([rng.normal(size=(s, rank)) for s in shape])
    return a, b


def orthogonal_factors(rng, shape=(8, 7, 6), rank=3):
    """Per-mode orthonormal columns: cross-component congruences vanish, so
    sign-flip algebra is exact."""
    return FactorSet([np.linalg.qr(rng.normal(size=(s, rank)))[0] for s in shape])


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        rep = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (rep.r2, rep.mae, rep.rmse, rep.mape) == (1.0, 0.0, 0.0, 0.0)

    def test_mean_predictor_gives_zero_r2(self):
        y = [1.0, 2.0, 3.0, 6.0]
        mean = sum(y) / len(y)
        rep = regression_metrics(y, [mean] * 4)
        assert rep.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_exact(self):
        rep = regression_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert rep.r2 == 0.0
        assert rep.mae == 2.0 / 3.0
        assert rep.rmse == math.sqrt(2.0 / 3.0)
        assert rep.mape == 4.0 / 9.0
        assert rep.n == 3
        assert rep.mape_excluded == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = rng.normal(0, 3, size=n)
            y[0] += 1.0  # keep variance nonzero
            yhat = rng.normal(0, 3, size=n)
            rep = regression_metrics(y, yhat)
            r2, mae, rmse, mape = brute_force_metrics(y.tolist(), yhat.tolist())
            assert rep.r2 == pytest.approx(r2, rel=1e-12, abs=1e-12)
            assert rep.mae == pytest.approx(mae, rel=1e-12, abs=1e-12)
            assert rep.rmse == pytest.approx(rmse, rel=1e-12, abs=1e-12)
            assert rep.mape == pytest.approx(mape, rel=1e-12, abs=1e-12)

    def test_zero_targets_excluded_from_mape(self):
        rep = regression_metrics([0.0, 1.0, 2.0], [0.5, 1.0, 2.0])
        assert rep.mape == 0.0
        assert rep.mape_excluded == 1

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            regression_metrics([1.0, 2.0], [1.0])

    def test_constant_targets_undefined_r2(self):
        with pytest.raises(DegenerateDataError):
            regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_json_keys(self):
        payload = regression_metrics([1.0, 2.0], [1.5, 1.5]).to_json()
        assert set(payload) == {"r2", "mae", "rmse", "mape", "n", "mape_excluded"}


class TestFms:
    def test_self_match(self):
        rng = np.random.default_rng(1)
        a, _ = random_factor_pair(rng)
        assert fms(a, a).fms == pytest.approx(1.0, abs=1e-9)

    def test_recovers_column_permutation(self):
        rng = np.random.default_rng(2)
        a, _ = random_factor_pair(rng, rank=4)
        sigma = [2, 0, 3, 1]
        b = permute_components(a, sigma)
        result = fms(a, b)
        assert result.fms == pytest.approx(1.0, abs=1e-12)
        assert [sigma[r] for r in range(4)] == [result.permutation.index(r) for r in range(4)]

    def test_two_mode_sign_flip_is_invisible(self):
        rng = np.random.default_rng(3)
        a, _ = random_factor_pair(rng, rank=3)
        b = copy_factors(a)
        b.factors[0][:, 1] *= -1.0
        b.factors[2][:, 1] *= -1.0
        assert fms(a, b).fms == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_sign_flip_costs_two_over_rank(self):
        from tenfit.metrics import _congruence_products

        rng = np.random.default_rng(4)
        for rank in (2, 3, 5):
            a = orthogonal_factors(rng, rank=rank)
            b = copy_factors(a)
            b.factors[1][:, 0] *= -1.0
            result = fms(a, b)
            assert result.fms == pytest.approx((rank - 2) / rank, abs=1e-9)
            # the flipped component's own congruence product is exactly -1
            assert _congruence_products(a, b)[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = random_factor_pair(rng)
        assert fms(a, b).fms == pytest.approx(fms(b, a).fms, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_factor_pair(rng, shape=(4, 3), rank=2)
            assert -1.0 - 1e-12 <= fms(a, b).fms <= 1.0 + 1e-12

    def test_column_scale_invariance(self):
        rng = np.random.default_rng(7)
        a, b = random_factor_pair(rng)
        base = fms(a, b).fms
        scaled = copy_factors(b)
        scaled.factors[0][:, 1] *= 7.0
        scaled.factors[2][:, 0] *= 0.003
        assert fms(a, scaled).fms == pytest.approx(base, abs=1e-12)

    def test_exhaustive_and_assignment_agree(self):
        # the same pairing and the same score bits as trying every permutation
        rng = np.random.default_rng(8)
        for _ in range(100):
            rank = int(rng.integers(1, 8))
            shape = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4))))
            a = FactorSet([rng.normal(size=(s, rank)) for s in shape])
            b = FactorSet([rng.normal(size=(s, rank)) for s in shape])
            score, permutation = exhaustive_fms(a, b)
            result = fms(a, b)
            assert result.permutation == permutation
            assert result.fms == score

    def test_recovers_rescaled_permutation_at_rank_8(self):
        rng = np.random.default_rng(13)
        a = FactorSet([rng.normal(size=(s, 8)) for s in (5, 2, 3, 3, 3)])
        sigma = [5, 2, 7, 0, 3, 6, 1, 4]
        b = permute_components(a, sigma)
        for matrix in b.factors:
            matrix *= rng.uniform(0.1, 10.0, size=8)
        result = fms(a, b)
        assert result.fms == pytest.approx(1.0, abs=1e-12)
        assert result.permutation == tuple(sigma.index(r) for r in range(8))

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_scale_invariance_where_column_norms_overflow_or_underflow(self, scale):
        # the plain norm of these columns is inf (1e160) or 0 (1e-170)
        rng = np.random.default_rng(14)
        a, _ = random_factor_pair(rng)
        b = FactorSet([f * scale for f in a.factors])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fms(a, b)
        assert result.fms == pytest.approx(1.0, abs=1e-12)
        assert result.permutation == (0, 1, 2)

    def test_assignment_matches_scipy_on_a_seeded_corpus(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(15)
        for k in range(6000):
            rank = int(rng.integers(1, 13))
            if k % 3 == 0:  # integer entries: full of ties
                scores = rng.integers(-2, 3, size=(rank, rank)).astype(float)
            elif k % 3 == 1:  # one decimal: some ties
                scores = rng.uniform(-1, 1, size=(rank, rank)).round(1)
            else:
                scores = rng.normal(size=(rank, rank))
            _, expected = optimize.linear_sum_assignment(scores, maximize=True)
            assert _max_assignment(scores) == expected.tolist(), scores

    def test_assignment_breaks_ties_as_scipy_does(self):
        # (1, 2, 0), (2, 0, 1) and (2, 1, 0) all total 2; scipy 1.17 picks (2, 0, 1)
        scores = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert _max_assignment(scores) == [2, 0, 1]

    def test_assignment_without_a_finite_pairing_rejected(self):
        with pytest.raises(ContractError):
            _max_assignment(np.array([[0.0, -np.inf], [0.0, -np.inf]]))

    def test_zero_norm_column_rejected(self):
        a = FactorSet([np.ones((3, 2)), np.ones((2, 2))])
        b = copy_factors(a)
        b.factors[0][:, 0] = 0.0
        with pytest.raises(DegenerateDataError):
            fms(a, b)

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        a = FactorSet([rng.normal(size=(3, 2)), rng.normal(size=(2, 2))])
        b = FactorSet([rng.normal(size=(3, 3)), rng.normal(size=(2, 3))])
        with pytest.raises(ContractError):
            fms(a, b)

    def test_json_keys(self):
        rng = np.random.default_rng(10)
        a, b = random_factor_pair(rng)
        payload = fms(a, b).to_json()
        assert set(payload) == {"fms", "permutation", "per_component"}


class TestNormalizedComponents:
    def test_three_four_five(self):
        factors = FactorSet([np.array([[3.0], [4.0]]), np.ones((2, 1))])
        assert normalized_components(factors, 0)[:, 0] == pytest.approx([0.6, 0.8])

    def test_unit_column_unchanged(self):
        column = np.array([[1.0], [0.0], [0.0]])
        factors = FactorSet([column, np.ones((2, 1))])
        assert np.allclose(normalized_components(factors, 0), column)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        factors = FactorSet([rng.normal(size=(4, 3)), rng.normal(size=(3, 3))])
        base = normalized_components(factors, 0)
        scaled = copy_factors(factors)
        scaled.factors[0][:, 2] *= 7.0
        assert np.allclose(normalized_components(scaled, 0), base, atol=1e-12)

    # 7e307 puts the column's true norm, 2.1e308, beyond the largest float
    @pytest.mark.parametrize("scale", [1e160, 1e-170, 7e307])
    def test_columns_whose_norm_overflows_or_underflows(self, scale):
        rng = np.random.default_rng(16)
        matrix = rng.normal(size=(4, 3))
        matrix[:, 0] = [1.0, -2.0, 2.0, 0.5]
        scaled = matrix.copy()
        scaled[:, 0] *= scale
        result = normalized_components(FactorSet([scaled, np.ones((2, 3))]), 0)
        expected = np.abs(matrix / np.linalg.norm(matrix, axis=0))
        assert np.allclose(result[:, 0], expected[:, 0], rtol=1e-14, atol=0)
        # the other columns keep the plain norm's bits
        assert np.array_equal(result[:, 1:], expected[:, 1:])

    def test_columns_unit_norm(self):
        rng = np.random.default_rng(12)
        factors = FactorSet([rng.normal(size=(5, 4)), rng.normal(size=(3, 4))])
        norms = np.linalg.norm(normalized_components(factors, 0), axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestComponentExport:
    def lattice_space(self):
        return DesignSpace(
            axes=(
                Axis("geometry", "categorical", ("a", "b", "c", "d", "e")),
                Axis("thickness", "ordinal", (0.4, 0.8)),
                Axis("ux", "ordinal", (1.0, 2.0, 3.0)),
                Axis("uy", "ordinal", (1.0, 2.0, 3.0)),
                Axis("uz", "ordinal", (1.0, 2.0, 3.0)),
            ),
            outcome_name="stiffness",
        )

    def test_lattice_rank3_exports(self, tmp_path):
        space = self.lattice_space()
        factors = init_factors(space.shape(), 3, seed=0)
        manifest = component_expression_export(factors, space, tmp_path / "out")
        assert len(manifest["csv"]) == 5
        with open(manifest["csv"][0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value_label", "comp_1", "comp_2", "comp_3"]
        assert len(rows) == 6  # header + 5 geometry values

    def test_threshold_one_gives_empty_highlights(self, tmp_path):
        space = self.lattice_space()
        factors = init_factors(space.shape(), 2, seed=1)
        manifest = component_expression_export(factors, space, tmp_path / "out", quantile=1.0)
        payload = json.loads(open(manifest["highlights"]).read())
        assert all(not h["values"] for h in payload["highlights"])

    def test_dominant_entry_highlighted(self, tmp_path):
        space = DesignSpace(
            axes=(Axis("a", "ordinal", (1.0, 2.0, 3.0, 4.0)), Axis("b", "ordinal", (1.0, 2.0))),
            outcome_name="y",
        )
        dominant = np.array([[0.01], [0.02], [0.015], [5.0]])
        factors = FactorSet([dominant, np.ones((2, 1))])
        manifest = component_expression_export(factors, space, tmp_path / "out", quantile=0.75)
        payload = json.loads(open(manifest["highlights"]).read())
        mode_a = next(h for h in payload["highlights"] if h["axis"] == "a")
        assert mode_a["values"] == ["4"]
