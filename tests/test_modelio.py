import json

import numpy as np
import pytest
from conftest import obs_from_values

from tenfit.core import Axis, DesignSpace, Normalizer
from tenfit.errors import ContractError, SchemaError
from tenfit.modelio import (
    load_dataset,
    load_model,
    read_observations_csv,
    read_schema,
    save_model,
    schema_to_json,
    write_dataset,
    write_observations_csv,
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
        write_observations_csv(obs, path)
        loaded = read_observations_csv(path, obs.space, obs.normalizer)
        assert np.array_equal(loaded.indices, obs.indices)
        assert np.array_equal(loaded.values, obs.values)

    def test_header_is_axis_names_plus_value(self, tmp_path):
        obs = obs_from_values((2, 2), [0.0, 0.25, 0.5, 1.0])
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        header = path.read_text().splitlines()[0]
        assert header == "p0,p1,value"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("p0,value\n0,0.5\n")
        with pytest.raises(SchemaError):
            read_observations_csv(path, DesignSpace.from_shape((2, 2)), Normalizer(0, 1))


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
        for ga, gb in zip(loaded.bank.groups, model.bank.groups):
            for a, b in zip(ga, gb):
                assert np.array_equal(a, b)
        assert np.array_equal(loaded.head.out_w, model.head.out_w)
        grid = np.indices(shape).reshape(3, -1).T
        assert np.array_equal(loaded.predict(grid), model.predict(grid))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {"kind": "tucker", "schema": schema_to_json(sample_space())}
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError):
            load_model(path)
