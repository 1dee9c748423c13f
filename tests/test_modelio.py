import json
import os
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import full_grid_indices, obs_from_values
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit.core import (
    Axis,
    DesignSpace,
    Normalizer,
    ObservationSet,
    build_design_space,
    encode_observations,
)
from tenfit.errors import ContractError, SchemaError
from tenfit.modelio import (
    load_dataset,
    load_model,
    read_index_csv,
    save_model,
    schema_to_json,
    write_atomic,
    write_dataset,
    write_index_csv,
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


def write_sample_dataset(out_dir, space=None):
    """A fully observed dataset over `space` (default sample_space()) in out_dir."""
    space = space or sample_space()
    indices = full_grid_indices(space.shape())
    values = np.linspace(0, 1, len(indices))
    write_dataset(ObservationSet(space, indices, values, Normalizer(0.0, 1.0)), out_dir)


class TestSchemaJson:
    def test_exact_layout(self, tmp_path):
        write_sample_dataset(tmp_path)
        payload = json.loads((tmp_path / "schema.json").read_text())
        assert set(payload) == {"axes", "outcome"}
        assert payload["outcome"] == "stiffness"
        assert payload["axes"][0] == {
            "name": "geometry",
            "kind": "categorical",
            "values": ["bcc", "fcc"],
        }
        assert payload["axes"][1]["values"] == [0.4, 0.8, 1.2]

    def test_round_trip(self, tmp_path):
        write_sample_dataset(tmp_path)
        space, _ = load_dataset(tmp_path)
        assert space == sample_space()

    def test_malformed_rejected(self, tmp_path):
        write_sample_dataset(tmp_path)
        (tmp_path / "schema.json").write_text('{"axes": "nope"}')
        with pytest.raises(SchemaError):
            load_dataset(tmp_path)


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


# name -> (CSV text, value column); read over DesignSpace.from_shape((3, 12))
INDEX_CSV_CORPUS = {
    "plain": ("p0,p1,value\r\n0,1,0.5\r\n2,11,-0.25\r\n", "value"),
    "blank_lines": ("p0,p1,value\n\n0,1,0.5\n\n\n1,2,0.25\n\n", "value"),
    "blank_first_line": ("\np0,p1,value\n0,1,0.5\n", "value"),
    "whitespace_row": ("p0,p1,value\n0,1,0.5\n \n", "value"),
    "short_row": ("p0,p1,value\n0,1,0.5\n1,2\n", "value"),
    "short_index_row": ("p0,p1,value\n0,1,0.5\n1\n", "value"),
    "extra_trailing_field": ("p0,p1,value\n0,1,0.5,9\n1,2,0.25,\n", "value"),
    "extra_columns": ("a,p0,b,p1,value,c\nx,0,y,1,0.5,z\n,2,,3,1e-3,\n", "value"),
    "reordered_columns": ("value,p1,p0\n0.5,2,1\n0.75,0,2\n", "value"),
    "repeated_name_last_wins": ("p0,p1,p1,value\n0,abc,2,0.5\n1,-7,3,0.5\n", "value"),
    "repeated_name_last_is_bad": ("p0,p1,value,p1\n0,1,0.5,x\n", "value"),
    "int_syntax": ("p0,p1,value\n 1 ,+2,0.5\n-0,1_0,0.25\n", "value"),
    "other_spellings": ("p0,p1,value\n 2, 3,0.5\n+2,+3,0.5\n02,03,0.5\n", "value"),
    "mixed_spellings": ("p0,p1,value\n0,0,0.5\n1, 3,0.5\n2,11,0.5\n0,03,0.5\n", "value"),
    "mixed_column_then_bad_cell": ("p0,p1,value\n0,+3,0.5\n1,3x,0.25\n", "value"),
    "nan_and_inf": ("p0,p1,value\n0,0,nan\n1,1,-inf\n2,2,Infinity\n0,3, 1.5 \n", "value"),
    "float_index": ("p0,p1,value\n0,1,0.5\n1,1.0,0.5\n", "value"),
    "word_index": ("p0,p1,value\n0,one,0.5\n", "value"),
    "empty_index": ("p0,p1,value\n,1,0.5\n", "value"),
    "word_value": ("p0,p1,value\n0,1,0.5\n1,1,abc\n", "value"),
    "empty_value": ("p0,p1,value\n0,1,\n", "value"),
    "negative_index": ("p0,p1,value\n0,0,0.5\n1,-1,0.25\n", "value"),
    "index_at_axis_size": ("p0,p1,value\n0,0,0.5\n3,1,0.25\n", "value"),
    "index_beyond_int64": ("p0,p1,value\n0,0,0.5\n1,99999999999999999999,0.25\n", "value"),
    "overflow_then_bad_cell": ("p0,p1,value\n99999999999999999999,0,0.5\n1,x,0.25\n", "value"),
    "bounds_then_bad_cell": ("p0,p1,value\n5,0,0.5\n1,1,x\n", "value"),
    "missing_column": ("p0,value\n0,0.5\n", "value"),
    "missing_value_column": ("p0,p1\n0,1\n", "value"),
    "empty_file": ("", "value"),
    "header_only": ("p0,p1,value\r\n", "value"),
    "indices_only": ("p0,p1\n0,1\n2,11\n", None),
    "indices_only_header": ("p0,p1\n", None),
    "indices_only_short_row": ("p0,p1,value\n0,1,0.5\n2\n", None),
    "indices_only_bad_value_ignored": ("p0,p1,value\n0,1,abc\n", None),
    "quoted_cells": ('"p0","p1","value"\n"0","1","0.5"\n', "value"),
    "byte_order_mark": ("\ufeffp0,p1,value\r\n0,1,0.5\r\n", "value"),
    "later_column_fails_earlier": ("p0,p1,value\n0,x,0.5\ny,1,0.5\n", "value"),
    "value_column_fails_first": ("p0,p1,value\n0,1,x\n1,y,0.5\n", "value"),
    "later_column_outside_earlier": ("p0,p1,value\n0,99,0.5\n9,0,0.5\n", "value"),
    "short_row_before_bad_cell": ("p0,p1,value\n0,1,0.5\n1\nx,2,0.5\n", "value"),
}


def read_outcome(read, path, space, value):
    """(indices, values) of a reader, or the text of its SchemaError."""
    try:
        return read(path, space, value)
    except SchemaError as exc:
        return str(exc)


class TestIndexCsvCodec:
    """The column-wise codec against the row-by-row one it replaced
    (`oracles.read_index_csv`, `oracles.write_index_csv`)."""

    @pytest.mark.parametrize("name", INDEX_CSV_CORPUS)
    def test_reader_matches_the_reference(self, tmp_path, name):
        text, value = INDEX_CSV_CORPUS[name]
        path = tmp_path / "index.csv"
        path.write_bytes(text.encode())
        space = DesignSpace.from_shape((3, 12))
        got = read_outcome(read_index_csv, path, space, value)
        want = read_outcome(oracles.read_index_csv, path, space, value)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for a, b in zip(got, want):
            if b is None:
                assert a is None
                continue
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)


NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, 1e16, float("nan"), float("inf")]),
)


@st.composite
def index_tables(draw):
    """(space, indices, values, value name): random axis names, including
    ones csv quotes, a random shape of up to 1,200 values per axis (so
    index labels run to four digits) and 0 to 12 rows."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    value = draw(NAMES.filter(lambda name: name not in names))
    shape = [draw(st.integers(1, 1200)) for _ in names]
    space = DesignSpace(
        axes=tuple(Axis(n, "ordinal", tuple(map(float, range(s)))) for n, s in zip(names, shape)),
        outcome_name="y",
    )
    n = draw(st.integers(0, 12))
    indices = np.array(
        [[draw(st.integers(0, s - 1)) for s in shape] for _ in range(n)], dtype=np.int64
    ).reshape(n, len(shape))
    values = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    return space, indices, values, value


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(table=index_tables())
def test_writer_matches_the_reference_and_reads_back(tmp_path_factory, table):
    space, indices, values, value = table
    tmp = tmp_path_factory.mktemp("codec")
    write_index_csv(tmp / "new.csv", space, indices, values, value)
    oracles.write_index_csv(tmp / "old.csv", space, indices, values, value)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    got_indices, got_values = read_index_csv(tmp / "new.csv", space, value)
    assert got_indices.dtype == np.int64 and np.array_equal(got_indices, indices)
    assert list(map(repr, got_values.tolist())) == list(map(repr, values.tolist()))


@pytest.mark.parametrize("cell, axis", [((0, -1), "p1"), ((2, 0), "p0"), ((1, 3), "p1")])
def test_writer_rejects_an_index_outside_its_axis(tmp_path, cell, axis):
    path = tmp_path / "out.csv"
    path.write_text("old")
    indices = np.array([[0, 0], cell])
    with pytest.raises(ContractError, match=f"row 1 of the indices: '{axis}' index"):
        write_index_csv(path, DesignSpace.from_shape((2, 3)), indices, [0.5, 0.25])
    assert path.read_text() == "old"


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

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_value_names_file_row_and_column(self, tmp_path, cell):
        write_dataset(obs_from_values((3, 2), np.linspace(0, 1, 6)), tmp_path / "ds")
        path = tmp_path / "ds" / "obs.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{cell}"
        path.write_text("\n".join(lines) + "\n")
        message = f"obs.csv: row 2, column 'value': {cell} is not a finite number"
        with pytest.raises(SchemaError, match=message):
            load_dataset(tmp_path / "ds")

    def test_repeated_cell_names_file_and_row(self, tmp_path):
        write_dataset(obs_from_values((3, 2), np.linspace(0, 1, 6)), tmp_path / "ds")
        path = tmp_path / "ds" / "obs.csv"
        lines = path.read_text().splitlines()
        lines[4] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="obs.csv: row 4 repeats the cell of row 1"):
            load_dataset(tmp_path / "ds")


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
        assert loaded.settings() == model.settings()
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


class TestAtomicOutput:
    """An output file is replaced whole or not at all, and a failed write
    leaves no temp file beside it."""

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError):
            write_index_csv(path, DesignSpace.from_shape((3,)), [[0], [1], [2]], [0.5, 0.25, "x"])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_keeps_the_old_model_file(self, tmp_path, monkeypatch):
        obs = obs_from_values((3, 2), np.linspace(0, 1, 6))
        models = [fit((3, 2), obs, TrainConfig(rank=1, epochs=5, seed=s), "cpd")[0] for s in (1, 2)]
        path = tmp_path / "model.json"
        save_model(models[0], path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_model(models[1], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("where", ["missing/out.json", "taken"])
    def test_failed_write_names_the_target(self, tmp_path, where):
        (tmp_path / "taken").mkdir()
        path = tmp_path / where
        with pytest.raises(OSError, match=f"'{path}'$"):
            write_atomic(path, "{}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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


@st.composite
def record_sets(draw):
    """Raw records over an ordinal float axis, a categorical string axis and
    an ordinal axis given as strings, with finite outcomes and, often,
    several records of one cell."""
    floats = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.text(max_size=5), min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.integers(-5, 40).map(str), min_size=1, max_size=2, unique=True))
    cell = st.fixed_dictionaries({
        "t": st.sampled_from(floats),
        "g": st.sampled_from(labels),
        "k": st.sampled_from(counts),
        "y": st.floats(allow_nan=False, allow_infinity=False),
    })
    records = draw(st.lists(cell, min_size=1, max_size=12))
    return records + draw(st.lists(st.sampled_from(records), max_size=4))  # duplicates


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def known_ingest_error(records):
    """The error encode_observations raises on records whose outcomes it
    cannot normalize, or None: an outcome range beyond the largest float is
    a ContractError of the Normalizer. (A cell's mean stays within its
    records' [min, max], so no other finite outcomes fail.)"""
    ys = [r["y"] for r in records]
    return None if max(ys) - min(ys) < float("inf") else ContractError


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(records=record_sets())
def test_ingest_round_trip(tmp_path_factory, records):
    """Records -> build_design_space -> encode_observations -> write_dataset
    -> load_dataset gives back the same axes, indices, value bits and
    normalizer, and a short cpd fit on the loaded set is bit-equal to a fit
    on the in-memory one. Records that ingest cannot normalize raise the
    error `known_ingest_error` names."""
    kinds = {"t": "ordinal", "g": "categorical", "k": "ordinal"}
    space = build_design_space(records, ["t", "g", "k"], "y", kinds)
    error = known_ingest_error(records)
    if error is not None:
        with pytest.raises(error, match="not a finite range"):
            encode_observations(records, space)
        return
    obs = encode_observations(records, space)
    out = tmp_path_factory.mktemp("ingest")
    write_dataset(obs, out)
    loaded_space, loaded = load_dataset(out)
    assert loaded_space == space
    assert [bits(a.values) for a in loaded_space.axes if a.kind == "ordinal"] == [
        bits(a.values) for a in space.axes if a.kind == "ordinal"
    ]
    assert loaded.indices.dtype == obs.indices.dtype
    assert np.array_equal(loaded.indices, obs.indices)
    assert bits(loaded.values) == bits(obs.values)
    assert bits([loaded.normalizer.y_min, loaded.normalizer.y_max]) == bits(
        [obs.normalizer.y_min, obs.normalizer.y_max]
    )
    cfg = TrainConfig(rank=2, epochs=15, lr=0.05, restarts=2, seed=3)
    model, report = fit(space.shape(), obs, cfg, "cpd")
    loaded_model, loaded_report = fit(loaded_space.shape(), loaded, cfg, "cpd")
    assert [bits(f) for f in loaded_model.factors.factors] == [bits(f) for f in model.factors.factors]
    assert bits(loaded_report.losses) == bits(report.losses)
