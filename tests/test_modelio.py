import json
from pathlib import Path

import numpy as np
import pytest
from conftest import full_grid_indices, obs_from_values
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit.core import Axis, DesignSpace, Normalizer
from tenfit.errors import ContractError, SchemaError
from tenfit.modelio import (
    load_dataset,
    load_model,
    read_index_csv,
    read_schema,
    save_model,
    schema_to_json,
    write_dataset,
    write_index_csv,
    write_schema,
)
from tenfit.optim import TrainConfig, fit


def sample_space():
    return DesignSpace(
        axes=(
            Axis("geometry", "categorical", ("bcc", "fcc")),
            Axis("thickness", "ordinal", (0.4, 0.8, 1.2)),
        ),
        outcome_name="stiffness",
    )


class TestSchemaJson:
    def test_exact_layout(self, tmp_path):
        path = tmp_path / "schema.json"
        write_schema(sample_space(), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"axes", "outcome"}
        assert payload["outcome"] == "stiffness"
        assert payload["axes"][0] == {
            "name": "geometry",
            "kind": "categorical",
            "values": ["bcc", "fcc"],
        }
        assert payload["axes"][1]["values"] == [0.4, 0.8, 1.2]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        space = sample_space()
        write_schema(space, path)
        assert read_schema(path) == space

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"axes": "nope"}')
        with pytest.raises(SchemaError):
            read_schema(path)


class TestObservationsCsv:
    def test_round_trip(self, tmp_path):
        obs = obs_from_values((2, 3), np.linspace(0, 1, 6), normalizer=Normalizer(2.0, 6.0))
        path = tmp_path / "obs.csv"
        write_index_csv(path, obs.space, obs.indices, obs.values)
        indices, values = read_index_csv(path, obs.space, "value")
        assert np.array_equal(indices, obs.indices)
        assert np.array_equal(values, obs.values)

    def test_header_is_axis_names_plus_value(self, tmp_path):
        obs = obs_from_values((2, 2), [0.0, 0.25, 0.5, 1.0])
        path = tmp_path / "obs.csv"
        write_index_csv(path, obs.space, obs.indices, obs.values)
        header = path.read_text().splitlines()[0]
        assert header == "p0,p1,value"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("p0,value\n0,0.5\n")
        with pytest.raises(SchemaError):
            read_index_csv(path, DesignSpace.from_shape((2, 2)), "value")

    @pytest.mark.parametrize("index", ["2", "-1", "99999999999999999999"])
    def test_index_outside_its_axis_names_the_cell(self, tmp_path, index):
        path = tmp_path / "obs.csv"
        path.write_text(f"p0,p1,value\n0,0,0.5\n1,{index},0.25\n")
        with pytest.raises(SchemaError, match=r"obs.csv: row 2, column 'p1'"):
            read_index_csv(path, DesignSpace.from_shape((2, 2)), "value")


class TestDatasetDir:
    def test_write_and_load(self, tmp_path):
        obs = obs_from_values((3, 2), np.linspace(0, 1, 6), normalizer=Normalizer(-1.0, 3.0))
        write_dataset(obs, tmp_path / "ds")
        space, loaded = load_dataset(tmp_path / "ds")
        assert space == obs.space
        assert np.array_equal(loaded.values, obs.values)
        assert loaded.normalizer == obs.normalizer

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_dataset(tmp_path / "missing")


class TestModelJson:
    def test_cpd_round_trip_bit_exact(self, tmp_path):
        shape = (3, 4, 2)
        obs = obs_from_values(shape, np.linspace(0, 1, 24), normalizer=Normalizer(1.0, 9.0))
        model, _ = fit(shape, obs, TrainConfig(rank=2, epochs=60, lr=0.05, seed=1), "cpd_s")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "cpd_s"
        assert loaded.space == model.space
        assert loaded.normalizer == model.normalizer
        assert loaded.smoothness == model.smoothness
        for a, b in zip(loaded.factors.factors, model.factors.factors):
            assert np.array_equal(a, b)
        grid = np.indices(shape).reshape(3, -1).T
        assert np.array_equal(loaded.predict(grid), model.predict(grid))

    def test_costco_round_trip_bit_exact(self, tmp_path):
        shape = (3, 3, 2)
        obs = obs_from_values(shape, np.linspace(0, 1, 18))
        model, _ = fit(
            shape,
            obs,
            TrainConfig(
                rank=2, epochs=40, lr=0.01, seed=2, n_init_groups=2, conv_channels=4, hidden_units=6
            ),
            "costco",
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "costco"
        for name in [f"embeddings/{s}/{m}" for s in range(2) for m in range(3)]:
            assert np.array_equal(loaded.params[name], model.params[name])
        assert np.array_equal(loaded.params["out_w"], model.params["out_w"])
        grid = np.indices(shape).reshape(3, -1).T
        assert np.array_equal(loaded.predict(grid), model.predict(grid))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {"kind": "tucker", "schema": schema_to_json(sample_space())}
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError):
            load_model(path)


DATA = Path(__file__).parent / "data"


class TestFormatOne:
    """Model files written by an earlier release of format 1 (a CPD-S model
    smoothing one mode, a CoSTCo model with non-default head sizes) still
    load, predict the same bits, and are written back byte for byte."""

    @pytest.mark.parametrize("kind", ["cpd_s", "costco"])
    def test_checked_in_model_file(self, tmp_path, kind):
        path = DATA / f"model_{kind}.json"
        model = load_model(path)
        assert model.kind == kind
        expected = json.loads((DATA / f"model_{kind}.predictions.json").read_text())
        assert np.array_equal(model.predict(full_grid_indices(model.shape)), expected)
        save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@st.composite
def fitted_models(draw):
    kind = draw(st.sampled_from(["cpd", "cpd_s", "costco"]))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n = int(np.prod(shape))
    values = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    cfg = TrainConfig(
        rank=draw(st.integers(1, 3)),
        epochs=draw(st.integers(1, 3)),
        lr=0.05,
        seed=draw(st.integers(0, 50)),
        restarts=draw(st.integers(1, 2)),
        smooth_modes=tuple(draw(st.sets(st.integers(0, len(shape) - 1)))),
        n_init_groups=draw(st.integers(1, 3)),
        conv_channels=draw(st.integers(1, 4)),
        hidden_units=draw(st.integers(1, 5)),
    )
    obs = obs_from_values(shape, values, normalizer=Normalizer(-2.0, 3.5))
    model, _ = fit(shape, obs, cfg, kind)
    return model


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model=fitted_models())
def test_save_load_save_is_byte_identical(tmp_path_factory, model):
    tmp = tmp_path_factory.mktemp("round_trip")
    save_model(model, tmp / "first.json")
    loaded = load_model(tmp / "first.json")
    save_model(loaded, tmp / "second.json")
    assert (tmp / "second.json").read_bytes() == (tmp / "first.json").read_bytes()
    grid = full_grid_indices(model.shape)
    assert np.array_equal(loaded.predict(grid), model.predict(grid))
