import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import as_row_set, low_rank_values, obs_from_values, random_obs, random_region
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit import harness
from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.errors import ContractError, DegenerateDataError, SplitError, StratumExhaustedError
from tenfit.harness import (
    RegionSpec,
    SamplingPlan,
    aggregate_error_grids,
    biased_split,
    ood_sweep,
    per_cell_errors,
    renormalize_splits,
    region_from_values,
    run_experiment,
    uniform_split,
)
from tenfit.metrics import regression_metrics
from tenfit.modelio import write_dataset
from tenfit.optim import MODEL_KINDS, TrainConfig, fit, fit_batch


class TestUniformSplit:
    def test_eighty_percent_of_600(self):
        obs = random_obs((10, 10, 10), 600, seed=0)
        train, test = uniform_split(obs, 0.8, seed=1)
        assert train.n == 480
        assert test.n == 120

    def test_deterministic(self):
        obs = random_obs((5, 4), 10, seed=2)
        a = uniform_split(obs, 0.5, seed=9)
        b = uniform_split(obs, 0.5, seed=9)
        assert as_row_set(a[0]) == as_row_set(b[0])
        assert as_row_set(a[1]) == as_row_set(b[1])

    def test_partition_laws(self):
        obs = random_obs((6, 6), 20, seed=3)
        train, test = uniform_split(obs, 0.7, seed=4)
        assert as_row_set(train) | as_row_set(test) == as_row_set(obs)
        assert not as_row_set(train) & as_row_set(test)

    def test_input_order_independent(self):
        obs = random_obs((6, 6), 20, seed=5)
        shuffled = obs.take(np.random.default_rng(0).permutation(obs.n))
        a = uniform_split(obs, 0.6, seed=11)
        b = uniform_split(shuffled, 0.6, seed=11)
        assert as_row_set(a[0]) == as_row_set(b[0])

    def test_degenerate_fraction_rejected(self):
        obs = random_obs((4, 4), 4, seed=6)
        with pytest.raises(ContractError):
            uniform_split(obs, 1.0, seed=0)
        with pytest.raises(SplitError):
            uniform_split(obs, 0.99, seed=0)  # round(3.96) = 4 -> empty test side


class TestBiasedSplit:
    def region(self):
        return RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 2), b_range=(0, 2))

    def test_counts_exact(self):
        obs = random_obs((6, 6, 4), 120, seed=7)
        region = self.region()
        train, test = biased_split(obs, region, n_in=30, n_out=10, seed=8)
        in_train = int(region.mask(train).sum())
        assert (in_train, train.n - in_train) == (30, 10)
        assert train.n + test.n == obs.n

    def test_n_out_zero_boundary(self):
        obs = random_obs((6, 6, 4), 120, seed=9)
        region = self.region()
        train, test = biased_split(obs, region, n_in=20, n_out=0, seed=10)
        assert not (~region.mask(train)).any()
        out_total = int((~region.mask(obs)).sum())
        assert int((~region.mask(test)).sum()) == out_total

    def test_whole_projection_region_degenerates_to_uniform(self):
        obs = random_obs((4, 4), 16, seed=11)
        region = RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 3), b_range=(0, 3))
        train, test = biased_split(obs, region, n_in=8, n_out=0, seed=12)
        assert train.n == 8 and test.n == 8

    def test_complement_membership_recount(self):
        obs = random_obs((4, 9, 11, 3), 600, seed=13)
        region = RegionSpec(axis_a="p1", axis_b="p2", a_range=(0, 4), b_range=(0, 5))
        train, test = biased_split(obs, region, n_in=150, n_out=30, seed=14)
        assert test.n == 420
        train_rows = as_row_set(train)
        test_rows = as_row_set(test)
        for row in as_row_set(obs):  # brute-force row-by-row filter
            assert (row in train_rows) != (row in test_rows)

    def test_stratum_exhausted_named(self):
        obs = random_obs((4, 4), 16, seed=15)
        region = RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 0), b_range=(0, 0))
        with pytest.raises(StratumExhaustedError, match="in-region"):
            biased_split(obs, region, n_in=10, n_out=0, seed=0)
        with pytest.raises(StratumExhaustedError, match="out-of-region"):
            biased_split(obs, region, n_in=0, n_out=100, seed=0)

    def test_deterministic(self):
        obs = random_obs((6, 6, 4), 100, seed=16)
        region = self.region()
        a = biased_split(obs, region, 20, 5, seed=17)
        b = biased_split(obs, region, 20, 5, seed=17)
        assert as_row_set(a[0]) == as_row_set(b[0])

    def test_many_random_plans_membership(self):
        rng = np.random.default_rng(18)
        obs = random_obs((6, 5, 4, 3), 300, seed=19)
        for _ in range(20):
            region = random_region(rng, (6, 5, 4, 3))
            available_in = int(region.mask(obs).sum())
            available_out = obs.n - available_in
            n_in = int(rng.integers(0, available_in + 1))
            n_out = int(rng.integers(0, available_out + 1))
            if n_in + n_out in (0, obs.n):
                continue
            train, test = biased_split(obs, region, n_in, n_out, seed=int(rng.integers(1 << 30)))
            assert int(region.mask(train).sum()) == n_in
            assert train.n == n_in + n_out
            assert train.n + test.n == obs.n
            assert not as_row_set(train) & as_row_set(test)


@st.composite
def observation_sets(draw):
    """2 to all cells of a 2- to 4-mode space, each with a value in [0, 1]."""
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=2, max_size=4)))
    cells = int(np.prod(shape))
    flat = draw(st.lists(st.integers(0, cells - 1), min_size=2, max_size=cells, unique=True))
    values = draw(st.lists(st.floats(0, 1), min_size=len(flat), max_size=len(flat)))
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=np.stack(np.unravel_index(flat, shape), axis=1),
        values=values,
        normalizer=Normalizer(0.0, 1.0),
    )


def assert_partition_of(obs, split, again):
    """`split` is a disjoint cover of obs's rows, and `again` (the same split
    of the rows in another order) has the same rows in the same order."""
    train, test = split
    assert not as_row_set(train) & as_row_set(test)
    assert as_row_set(train) | as_row_set(test) == as_row_set(obs)
    for side, other in zip(split, again):
        assert np.array_equal(side.indices, other.indices)
        assert np.array_equal(side.values, other.values)


SPLIT_PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SPLIT_PROPERTIES
@given(obs=observation_sets(), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_uniform_split_partition_properties(obs, fraction, seed, data):
    shuffled = obs.take(data.draw(st.permutations(range(obs.n))))
    n_train = int(np.floor(fraction * obs.n + 0.5))
    if not 1 <= n_train < obs.n:
        with pytest.raises(SplitError):
            uniform_split(obs, fraction, seed)
        return
    train, test = uniform_split(obs, fraction, seed)
    assert (train.n, test.n) == (n_train, obs.n - n_train)
    assert_partition_of(obs, (train, test), uniform_split(shuffled, fraction, seed))


@SPLIT_PROPERTIES
@given(obs=observation_sets(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_biased_split_partition_properties(obs, seed, data):
    shuffled = obs.take(data.draw(st.permutations(range(obs.n))))
    a_size, b_size = obs.space.shape()[:2]
    a_lo, b_lo = data.draw(st.integers(0, a_size - 1)), data.draw(st.integers(0, b_size - 1))
    region = RegionSpec(
        axis_a="p0",
        axis_b="p1",
        a_range=(a_lo, data.draw(st.integers(a_lo, a_size - 1))),
        b_range=(b_lo, data.draw(st.integers(b_lo, b_size - 1))),
    )
    available_in = int(region.mask(obs).sum())
    n_in = data.draw(st.integers(0, available_in))
    n_out = data.draw(st.integers(0, obs.n - available_in))
    if n_in + n_out in (0, obs.n):
        with pytest.raises(SplitError):
            biased_split(obs, region, n_in, n_out, seed)
        return
    train, test = biased_split(obs, region, n_in, n_out, seed)
    assert (train.n, test.n) == (n_in + n_out, obs.n - n_in - n_out)
    assert int(region.mask(train).sum()) == n_in
    assert_partition_of(obs, (train, test), biased_split(shuffled, region, n_in, n_out, seed))


class TestRegionSpec:
    def test_axes_must_differ(self):
        with pytest.raises(ContractError):
            RegionSpec(axis_a="p0", axis_b="p0", a_range=(0, 1), b_range=(0, 1))

    def test_interval_bounds_checked(self):
        space = DesignSpace.from_shape((3, 3))
        region = RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 5), b_range=(0, 1))
        with pytest.raises(ContractError):
            region.validate(space)

    def test_from_value_labels(self):
        space = DesignSpace.from_shape((4, 3))
        region = region_from_values(space, "p0", "p1", (1.0, 2.0), (0.0, 1.0))
        assert region.a_range == (1, 2)
        assert region.b_range == (0, 1)


class TestRenormalization:
    def test_train_scope_rescales_to_unit_interval(self):
        obs = random_obs((5, 5), 20, seed=20, low=2.0, high=10.0)
        # values stored in [0,1] of normalizer(2,10); simulate train rows
        train, test = uniform_split(obs, 0.5, seed=21)
        train2, test2 = renormalize_splits(train, test, "train")
        assert train2.values.min() == pytest.approx(0.0, abs=1e-12)
        assert train2.values.max() == pytest.approx(1.0, abs=1e-12)
        # round-trip consistency: original units preserved
        back = train2.normalizer.denormalize(train2.values)
        orig = train.normalizer.denormalize(train.values)
        assert back == pytest.approx(orig, rel=1e-12)

    def test_full_scope_is_identity(self):
        obs = random_obs((5, 5), 20, seed=22)
        train, test = uniform_split(obs, 0.5, seed=23)
        train2, test2 = renormalize_splits(train, test, "full")
        assert train2 is train and test2 is test


# the grid's axes are the region's; its ranges do not change the grid
P0_P1 = RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 0), b_range=(0, 0))


class TestPerCellErrors:
    def test_all_correct_gives_zero_grid(self):
        obs = random_obs((4, 3, 2), 20, seed=24)
        grid = per_cell_errors(obs.values, obs, P0_P1)
        observed = grid.count > 0
        assert np.all(grid.mean[observed] == 0.0)
        assert np.all(np.isnan(grid.mean[~observed]))

    def test_single_row_cell(self):
        space = DesignSpace.from_shape((3, 3))
        obs = ObservationSet(
            space=space,
            indices=np.array([[1, 2]]),
            values=np.array([0.7]),
            normalizer=Normalizer(0, 1),
        )
        grid = per_cell_errors(np.array([0.5]), obs, P0_P1)
        assert grid.mean[1, 2] == pytest.approx(0.2)
        assert grid.std[1, 2] == 0.0
        assert grid.count[1, 2] == 1
        assert grid.count.sum() == 1

    def test_sparse_coverage_leaves_absent_cells(self):
        obs = random_obs((6, 6, 3), 10, seed=25)
        grid = per_cell_errors(np.zeros(10), obs, P0_P1)
        assert np.isnan(grid.mean).any()
        assert (grid.count == 0).any()

    def test_alignment_contract(self):
        obs = random_obs((3, 3), 5, seed=26)
        with pytest.raises(ContractError):
            per_cell_errors(np.zeros(4), obs, P0_P1)

    def test_aggregation_of_identical_grids_has_zero_std(self):
        # dyadic errors make the cross-iteration mean exact, so std is exactly 0
        space = DesignSpace.from_shape((3, 3))
        obs = ObservationSet(
            space=space,
            indices=np.array([[0, 0], [1, 2], [2, 1]]),
            values=np.array([0.25, 0.5, 0.75]),
            normalizer=Normalizer(0, 1),
        )
        grid = per_cell_errors(np.zeros(3), obs, P0_P1)
        agg = aggregate_error_grids([grid, grid, grid])
        observed = agg.count > 0
        assert np.all(agg.std[observed] == 0.0)
        assert np.all(agg.mean[observed] == grid.mean[observed])
        assert np.array_equal(agg.count, grid.count * 3)

    def test_aggregation_of_identical_grids_float_tolerance(self):
        obs = random_obs((3, 3), 6, seed=27)
        grid = per_cell_errors(np.zeros(6), obs, P0_P1)
        agg = aggregate_error_grids([grid, grid, grid])
        observed = agg.count > 0
        assert np.all(agg.std[observed] <= 1e-15)


class TestOodSweep:
    def setup_obs(self):
        values = low_rank_values((4, 3, 3), 2, seed=30)
        return obs_from_values((4, 3, 3), values)

    def region(self):
        return RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 1), b_range=(0, 1))

    def test_requires_increasing_counts(self):
        cfg = TrainConfig(rank=2, epochs=5, lr=0.05)
        with pytest.raises(ContractError):
            ood_sweep(self.setup_obs(), self.region(), 5, [4, 4], cfg, ["cpd"], iterations=1)

    def test_requires_distinct_kinds(self):
        cfg = TrainConfig(rank=2, epochs=5, lr=0.05)
        with pytest.raises(ContractError):
            ood_sweep(self.setup_obs(), self.region(), 5, [4], cfg, ["cpd", "cpd"], iterations=1)

    def test_exhaustion_propagates(self):
        cfg = TrainConfig(rank=2, epochs=5, lr=0.05)
        with pytest.raises(StratumExhaustedError):
            ood_sweep(self.setup_obs(), self.region(), 5, [1000], cfg, ["cpd"], iterations=1)

    def test_metrics_restricted_to_ood_rows(self):
        obs = self.setup_obs()
        region = self.region()
        cfg = TrainConfig(rank=2, epochs=30, lr=0.05, seed=1)
        table = ood_sweep(obs, region, 6, [3], cfg, ["cpd"], iterations=2)
        row = table["models"]["cpd"][0]
        # independent recount of OOD test rows for iteration 0
        train, test = biased_split(obs, region, 6, 3, seed=cfg.seed + 0)
        train, test = renormalize_splits(train, test, "train")
        expected_n = int((~region.mask(test)).sum())
        assert row["per_iteration"][0]["n"] == expected_n

    @pytest.mark.parametrize("kind", ["cpd", "costco"])
    def test_matches_hand_rolled_protocol(self, kind):
        # split, renormalize, fit alone and score on the out-of-region test
        # rows, per (n_out, iteration): the sweep must give the same bits,
        # with the CoSTCo head sizes taken from the TrainConfig
        obs = self.setup_obs()
        region = self.region()
        cfg = TrainConfig(
            rank=2, epochs=25, lr=0.05, seed=4, restarts=2,
            n_init_groups=2, conv_channels=3, hidden_units=5,
        )
        table = ood_sweep(obs, region, 6, [2, 5], cfg, [kind], iterations=3)
        rows = table["models"][kind]
        assert [row["n_out"] for row in rows] == [2, 5]
        for row in rows:
            for it, metrics in enumerate(row["per_iteration"]):
                seed = cfg.seed + it
                train, test = biased_split(obs, region, 6, row["n_out"], seed=seed)
                train, test = renormalize_splits(train, test, "train")
                model, _ = fit(obs.space.shape(), train, replace(cfg, seed=seed), kind)
                if kind == "costco":
                    channels, groups, _ = model.params["mode_kernels"].shape
                    (hidden,) = model.params["out_w"].shape
                    assert (groups, channels, hidden) == (2, 3, 5)
                ood_test = test.take(np.flatnonzero(~region.mask(test)))
                preds = model.predict(ood_test.indices)
                assert metrics == regression_metrics(ood_test.values, preds).to_json()

    def test_sweep_deterministic(self):
        obs = self.setup_obs()
        cfg = TrainConfig(rank=2, epochs=20, lr=0.05, seed=2)
        a = ood_sweep(obs, self.region(), 6, [2, 4], cfg, ["cpd"], iterations=2)
        b = ood_sweep(obs, self.region(), 6, [2, 4], cfg, ["cpd"], iterations=2)
        assert a == b

    def test_one_training_call_for_every_kind(self, monkeypatch):
        calls = count_training_calls(monkeypatch)
        cfg = TrainConfig(rank=2, epochs=5, lr=0.05, n_init_groups=2, conv_channels=2)
        table = ood_sweep(self.setup_obs(), self.region(), 6, [2, 3, 4], cfg,
                          ["cpd", "costco"], iterations=2)
        assert [row["n_out"] for row in table["models"]["costco"]] == [2, 3, 4]
        assert calls == [(["cpd", "costco"], 6)]  # 3 counts x 2 iterations each

    def test_scoring_error_stops_the_sweep(self):
        # every out-of-region row holds one value, kept as stored, so the
        # scored rows have no variance and R^2 is undefined
        cfg = TrainConfig(rank=2, epochs=5, lr=0.05)
        with pytest.raises(DegenerateDataError, match="all targets are identical"):
            ood_sweep(flat_outside_obs(self.region()), self.region(), 6, [3], cfg, ["cpd"],
                      iterations=1, normalization="full")


def count_training_calls(monkeypatch) -> list:
    """Record every harness fit_batch call as (its model kinds, its
    training-set count)."""
    calls = []

    def counted_fit_batch(shape, models, train_sets, seeds):
        calls.append(([kind for kind, _ in models], len(train_sets)))
        return fit_batch(shape, models, train_sets, seeds)

    monkeypatch.setattr(harness, "fit_batch", counted_fit_batch)
    return calls


def flat_outside_obs(region):
    """The full (4, 3, 3) grid, low-rank inside `region` and 0.5 everywhere
    outside it."""
    obs = obs_from_values((4, 3, 3), low_rank_values((4, 3, 3), 2, seed=30))
    return obs_from_values((4, 3, 3), np.where(region.mask(obs), obs.values, 0.5))


class TestRunExperiment:
    def make_dataset(self, tmp_path):
        values = low_rank_values((4, 3, 3), 2, seed=40)
        values = (values - values.min()) / (values.max() - values.min())
        obs = obs_from_values((4, 3, 3), values, normalizer=Normalizer(0.0, 1.0))
        data_dir = tmp_path / "data"
        write_dataset(obs, data_dir)
        return data_dir

    def experiment_config(self, data_dir, with_failure=False):
        models = [
            {"kind": "cpd", "rank": 2, "epochs": 120, "lr": 0.05},
            {"kind": "cpd_s", "rank": 2, "epochs": 120, "lr": 0.05, "lambda_smooth": 0.1},
        ]
        if with_failure:
            models.append({"kind": "cpd", "name": "cpd_diverging", "rank": 2, "epochs": 30, "lr": 1e160})
        return {
            "dataset": str(data_dir),
            "iterations": 3,
            "seed": 7,
            "normalization": "train",
            "models": models,
            "plans": [
                {"kind": "uniform", "fraction": 0.8},
                {
                    "kind": "biased",
                    "region": {"axis_a": "p0", "axis_b": "p1", "a_range": [0, 1], "b_range": [0, 1]},
                    "n_in": 10,
                    "n_out": 6,
                },
            ],
        }

    def test_full_run_outputs(self, tmp_path):
        data_dir = self.make_dataset(tmp_path)
        out_dir = tmp_path / "out"
        summary = run_experiment(self.experiment_config(data_dir), out_dir)
        assert not summary["failures"]
        for plan in ("uniform", "biased"):
            for model in ("cpd", "cpd_s"):
                assert model in summary["aggregates"][plan]
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "fms_uniform_vs_biased.json").exists()
        assert (out_dir / "grids" / "biased__cpd.json").exists()
        assert (out_dir / "factors" / "uniform__cpd").is_dir()
        fms_payload = json.loads((out_dir / "fms_uniform_vs_biased.json").read_text())
        assert len(fms_payload["per_iteration"]) == 3
        assert -1.0 <= fms_payload["mean"] <= 1.0

    def test_aggregates_match_persisted_iterations(self, tmp_path):
        data_dir = self.make_dataset(tmp_path)
        out_dir = tmp_path / "out"
        summary = run_experiment(self.experiment_config(data_dir), out_dir)
        for plan in ("uniform", "biased"):
            for model in ("cpd", "cpd_s"):
                values = []
                for it in range(3):
                    payload = json.loads(
                        (out_dir / "per_iteration" / f"{plan}__{model}__{it:03d}.json").read_text()
                    )
                    values.append(payload["metrics"]["mae"])
                agg = summary["aggregates"][plan][model]["mae"]
                assert agg["mean"] == pytest.approx(float(np.mean(values)), abs=1e-12)
                assert agg["std"] == pytest.approx(float(np.std(values)), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_failures_recorded_not_fatal(self, tmp_path):
        data_dir = self.make_dataset(tmp_path)
        summary = run_experiment(
            self.experiment_config(data_dir, with_failure=True), tmp_path / "out"
        )
        # one DivergenceError per (plan, iteration) cell of the diverging model
        assert len(summary["failures"]) == 6
        assert all(f["model"] == "cpd_diverging" for f in summary["failures"])
        assert all(f["error"] == "DivergenceError" for f in summary["failures"])
        # healthy models unaffected
        assert "cpd" in summary["aggregates"]["uniform"]

    def test_records_say_how_each_fit_converged(self, tmp_path):
        config = self.experiment_config(self.make_dataset(tmp_path))
        config["models"] = [
            {"kind": "cpd", "rank": 2, "epochs": 2000, "lr": 0.05, "restarts": 2,
             "patience": 5, "val_fraction": 0.3},
        ]
        out_dir = tmp_path / "out"
        summary = run_experiment(config, out_dir)
        assert not summary["failures"]
        records = [json.loads(p.read_text()) for p in (out_dir / "per_iteration").glob("*.json")]
        assert len(records) == 6
        for record in records:
            assert 1 <= record["epochs_run"] < 2000  # the early stop was exercised
            assert len(record["restart_final_losses"]) == 2
            assert record["final_loss"] == min(record["restart_final_losses"])
        assert "seconds" not in json.dumps(summary)

    def test_fms_failure_is_recorded(self, tmp_path, monkeypatch):
        def zero_norm_column(a, b):
            raise DegenerateDataError("zero-norm column")

        monkeypatch.setattr(harness, "fms", zero_norm_column)
        out_dir = tmp_path / "out"
        summary = run_experiment(self.experiment_config(self.make_dataset(tmp_path)), out_dir)
        assert summary["fms"] is None
        assert [f["iteration"] for f in summary["failures"]] == [0, 1, 2]
        assert all(f["error"] == "DegenerateDataError" for f in summary["failures"])
        assert json.loads((out_dir / "summary.json").read_text()) == summary
        assert "cpd" in summary["aggregates"]["biased"]

    def test_export_failure_is_recorded(self, tmp_path, monkeypatch):
        def zero_norm_column(factors, space, out_dir):
            raise DegenerateDataError("zero-norm column")

        monkeypatch.setattr(harness, "component_expression_export", zero_norm_column)
        out_dir = tmp_path / "out"
        summary = run_experiment(self.experiment_config(self.make_dataset(tmp_path)), out_dir)
        failed = {(f["plan"], f["model"]) for f in summary["failures"]}
        assert failed == {(p, m) for p in ("uniform", "biased") for m in ("cpd", "cpd_s")}
        assert summary["fms"] is not None
        assert (out_dir / "summary.json").exists()

    def test_one_training_call_for_every_model(self, tmp_path, monkeypatch):
        calls = count_training_calls(monkeypatch)
        summary = run_experiment(self.experiment_config(self.make_dataset(tmp_path)),
                                 tmp_path / "out")
        assert not summary["failures"]
        assert calls == [(["cpd", "cpd_s"], 6)]  # 2 plans x 3 iterations each

    def test_two_plans_match_one_plan_runs(self, tmp_path):
        config = self.experiment_config(self.make_dataset(tmp_path))
        config["iterations"] = 2
        config["models"] = [
            {"kind": "cpd", "rank": 2, "epochs": 60, "lr": 0.05, "restarts": 2},
            {"kind": "costco", "rank": 2, "epochs": 40, "lr": 0.05, "groups": 2,
             "channels": 3, "hidden": 4},
        ]

        def records(plans, out):
            run_experiment({**config, "plans": plans}, tmp_path / out)
            folder = tmp_path / out / "per_iteration"
            return {path.name: path.read_bytes() for path in folder.glob("*.json")}

        together = records(config["plans"], "together")
        alone = {}
        for i, plan in enumerate(config["plans"]):
            alone.update(records([plan], f"alone{i}"))
        assert len(together) == 8 and together == alone

    def test_model_seed_rejected(self, tmp_path):
        config = self.experiment_config(self.make_dataset(tmp_path))
        config["models"][1]["seed"] = 3
        with pytest.raises(ContractError, match="'seed'"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_scoring_error_is_recorded(self, tmp_path):
        # the biased plan draws every in-region row, so it is scored on the
        # out-of-region rows alone, which all hold one value
        region = RegionSpec(axis_a="p0", axis_b="p1", a_range=(0, 1), b_range=(0, 1))
        data_dir = tmp_path / "data"
        write_dataset(flat_outside_obs(region), data_dir)
        config = self.experiment_config(data_dir)
        config.update(iterations=2, normalization="full", models=config["models"][:1])
        config["plans"][1].update(n_in=12, n_out=6)
        summary = run_experiment(config, tmp_path / "out")
        assert summary["failures"] == [
            dict(plan="biased", model="cpd", iteration=it, error="DegenerateDataError",
                 message="R^2 is undefined when all targets are identical")
            for it in range(2)
        ]
        assert list(summary["aggregates"]) == ["uniform"]

    def test_reruns_identical(self, tmp_path):
        data_dir = self.make_dataset(tmp_path)
        a = run_experiment(self.experiment_config(data_dir), tmp_path / "out_a")
        b = run_experiment(self.experiment_config(data_dir), tmp_path / "out_b")
        assert a["aggregates"] == b["aggregates"]


class TestMetricAggregation:
    def test_identical_values_give_exact_mean_and_zero_std(self):
        from tenfit.harness import _aggregate_metric_dicts

        row = {"r2": 0.75, "mae": 0.125, "rmse": 0.25, "mape": 0.5}
        agg = _aggregate_metric_dicts([dict(row)] * 4)
        for key, value in row.items():
            assert agg[key]["mean"] == value
            assert agg[key]["std"] == 0.0
        assert agg["n_iterations"] == 4


class TestSamplingPlanValidation:
    def test_uniform_needs_fraction(self):
        with pytest.raises(ContractError):
            SamplingPlan(kind="uniform")

    def test_biased_needs_region(self):
        with pytest.raises(ContractError):
            SamplingPlan(kind="biased", n_in=5, n_out=2)

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            SamplingPlan(kind="stratified", fraction=0.5)


class TestConfigFloats:
    """Float config values are numbers: a bool or a numeric string is a
    ContractError naming its key, as for integer keys."""

    @pytest.mark.parametrize(
        "key, value",
        [("lr", True), ("lr", "0.1"), ("lambda_smooth", "0.5"), ("val_fraction", False),
         ("val_fraction", None)],
    )
    def test_bool_or_string_names_its_key(self, key, value):
        entry = {"kind": "cpd_s", "rank": 2, key: value}
        with pytest.raises(ContractError, match=repr(key)):
            harness.model_spec_from_config(entry, DesignSpace.from_shape((3, 2)))

    def test_numbers_are_taken(self):
        cfg = harness.model_spec_from_config(
            {"kind": "cpd_s", "rank": 2, "lr": 0.1, "lambda_smooth": 1, "val_fraction": 0.25,
             "patience": 3},
            DesignSpace.from_shape((3, 2)),
        ).cfg
        assert (cfg.lr, cfg.smooth_weight, cfg.val_fraction) == (0.1, 1.0, 0.25)

    @pytest.mark.parametrize("fraction", [True, "0.5"])
    def test_plan_fraction(self, fraction):
        with pytest.raises(ContractError, match="'fraction'"):
            harness.plan_from_config({"kind": "uniform", "fraction": fraction},
                                     DesignSpace.from_shape((3, 2)))


def test_readme_lists_every_config_key():
    """README's "Config keys" lists hold each object's table, per kind and
    in the table's order."""
    def read_by(keys, kind):
        return [key for key, (_, _, *kinds) in keys.items() if not kinds or kind in kinds]

    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    listed = {name: re.findall(r"`(\w+)`", keys) for name, keys in
              re.findall(r"^- \*\*(.+?)\*\*: (.+?)(?=^\S|\Z)", section, re.M | re.S)}
    assert listed == {
        "experiment": list(harness._EXPERIMENT_KEYS),
        "sweep": list(harness._SWEEP_KEYS),
        **{f"model entry, {kind}": read_by(harness._MODEL_KEYS, kind) for kind in MODEL_KINDS},
        **{f"plan, {kind}": read_by(harness._PLAN_KEYS, kind) for kind in ("uniform", "biased")},
        **{f"region, by {by}": read_by(harness._REGION_KEYS, by) for by in ("ranges", "values")},
    }
