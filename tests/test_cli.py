import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import full_grid_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit import cli, harness
from tenfit.cli import main


def write_demo_csv(path, n_geometries=3, thicknesses=(0.4, 0.8), lengths=(1, 2, 3)):
    rows = []
    value = 0.0
    for g in range(n_geometries):
        for t in thicknesses:
            for x in lengths:
                value += 0.37
                rows.append({"geometry": f"g{g}", "thickness": t, "ux": x, "stiffness": value % 7.0})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["geometry", "thickness", "ux", "stiffness"])
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def ingest_demo(tmp_path):
    csv_path = tmp_path / "demo.csv"
    write_demo_csv(csv_path)
    out = tmp_path / "ds"
    code = main(
        [
            "ingest",
            "--data", str(csv_path),
            "--outcome", "stiffness",
            "--categorical", "geometry",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def dataset_dir(tmp_path):
    return ingest_demo(tmp_path)


REGION = {"axis_a": "geometry", "axis_b": "ux", "a_range": [0, 1], "b_range": [0, 1]}


def experiment_config(dataset_dir, epochs=80):
    return {
        "dataset": str(dataset_dir),
        "iterations": 2,
        "seed": 1,
        "models": [{"kind": "cpd", "rank": 2, "epochs": epochs, "lr": 0.05}],
        "plans": [
            {"kind": "uniform", "fraction": 0.8},
            {"kind": "biased", "region": dict(REGION), "n_in": 6, "n_out": 3},
        ],
    }


def sweep_config(dataset_dir, epochs=60):
    return {
        "dataset": str(dataset_dir),
        "region": dict(REGION),
        "n_in": 5,
        "n_out_list": [2, 4],
        "iterations": 2,
        "seed": 1,
        "rank": 2,
        "epochs": epochs,
        "lr": 0.05,
        "models": ["cpd"],
    }


def kind_reading(key):
    """A model kind whose entries read `key`: cpd, unless it ignores the key."""
    _, _, *readers = harness._MODEL_KEYS[key]
    return readers[0] if readers else "cpd"


def run_config(command, config, tmp_path):
    """Exit code and stderr of `tenfit <command>` on a config written to disk."""
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


def one_json_error(code, err) -> dict:
    assert code == 1
    assert err.count("\n") == 1
    return json.loads(err)


class TestIngest:
    def test_outputs_and_inference(self, dataset_dir, capsys):
        schema = json.loads((dataset_dir / "schema.json").read_text())
        kinds = {a["name"]: a["kind"] for a in schema["axes"]}
        assert kinds == {"geometry": "categorical", "thickness": "ordinal", "ux": "ordinal"}
        assert (dataset_dir / "obs.csv").exists()
        assert (dataset_dir / "normalizer.json").exists()

    def test_missing_outcome_errors(self, tmp_path, capsys):
        csv_path = tmp_path / "demo.csv"
        write_demo_csv(csv_path)
        code = main(["ingest", "--data", str(csv_path), "--outcome", "nope", "--out", str(tmp_path / "x")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"

    def test_byte_order_mark_is_not_part_of_the_first_axis(self, tmp_path):
        csv_path = tmp_path / "excel.csv"
        write_demo_csv(csv_path)
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        out = tmp_path / "ds"
        assert main(["ingest", "--data", str(csv_path), "--outcome", "stiffness",
                     "--categorical", "geometry", "--out", str(out)]) == 0
        schema = json.loads((out / "schema.json").read_text())
        assert [(a["name"], a["kind"]) for a in schema["axes"]][0] == ("geometry", "categorical")
        assert not (out / "obs.csv").read_bytes().startswith(b"\xef\xbb\xbf")

    @pytest.mark.parametrize("row, value", [(0, "nan"), (1, "nan"), (0, "inf"), (2, "-inf")])
    def test_non_finite_outcome_names_record_and_column(self, tmp_path, capsys, row, value):
        outcomes = ["1.5", "2.5", "3.5"]
        outcomes[row] = value
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,y\n" + "".join(f"{i},{y}\n" for i, y in enumerate(outcomes)))
        out = tmp_path / "ds"
        code = main(["ingest", "--data", str(csv_path), "--outcome", "y", "--out", str(out)])
        payload = one_json_error(code, capsys.readouterr().err)
        message = f"record {row}: outcome 'y' is {float(value)!r}, not a finite number"
        assert payload == {"error": "ContractError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("last_row, cells", [("3.0,2", 2), ("3.0,2,y,9", 4)],
                             ids=["short", "long"])
    def test_ragged_row_names_file_and_row(self, tmp_path, capsys, last_row, cells):
        # the blank line is skipped, so the ragged row is data row 2
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(f"y,a,b\n2.0,1,x\n\n{last_row}\n")
        out = tmp_path / "ds"
        code = main(["ingest", "--data", str(csv_path), "--outcome", "y", "--out", str(out)])
        payload = one_json_error(code, capsys.readouterr().err)
        message = f"{csv_path}: row 2 has {cells} cells, the header 3"
        assert payload == {"error": "SchemaError", "message": message}
        assert not out.exists()

    def test_undeclared_non_numeric_column_is_categorical(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b,y\n1,x,0.5\n2,3,1.5\n")  # b: one numeric value, one not
        out = tmp_path / "ds"
        assert main(["ingest", "--data", str(csv_path), "--outcome", "y", "--out", str(out)]) == 0
        schema = json.loads((out / "schema.json").read_text())
        assert [(a["name"], a["kind"], a["values"]) for a in schema["axes"]] == [
            ("a", "ordinal", [1.0, 2.0]), ("b", "categorical", ["3", "x"])
        ]


class TestFitPredictEvaluate:
    def fit_model(self, dataset_dir, tmp_path, kind="cpd", extra=()):
        model_path = tmp_path / f"{kind}.json"
        code = main(
            [
                "fit",
                "--obs", str(dataset_dir),
                "--model", kind,
                "--rank", "2",
                "--epochs", "300",
                "--lr", "0.05",
                "--seed", "3",
                *extra,
                "--out", str(model_path),
            ]
        )
        assert code == 0
        return model_path

    def test_fit_writes_model_and_report(self, dataset_dir, tmp_path):
        model_path = self.fit_model(dataset_dir, tmp_path)
        assert model_path.exists()
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert set(report) == {
            "losses",
            "final_loss",
            "restart",
            "epochs_run",
            "seconds",
            "restart_final_losses",
        }
        assert report["epochs_run"] == 300
        assert report["restart_final_losses"] == [report["final_loss"]]

    def test_fit_report_lists_every_restart(self, dataset_dir, tmp_path):
        model_path = self.fit_model(dataset_dir, tmp_path, extra=("--restarts", "3"))
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert len(report["restart_final_losses"]) == 3
        assert report["final_loss"] == min(report["restart_final_losses"])

    def test_predict_round_trip(self, dataset_dir, tmp_path):
        model_path = self.fit_model(dataset_dir, tmp_path)
        indices_path = tmp_path / "indices.csv"
        with open(indices_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["geometry", "thickness", "ux"])
            writer.writerow([0, 1, 2])
            writer.writerow([2, 0, 0])
        preds_path = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--indices", str(indices_path), "--out", str(preds_path)]) == 0
        with open(preds_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(np.isfinite(float(r["prediction"])) for r in rows)

    def test_parser_is_reused_after_an_argparse_error(self, dataset_dir, tmp_path, capsys):
        # main builds its parser once per process; an argparse error (exit 2)
        # must leave it able to parse the next call
        model_path = self.fit_model(dataset_dir, tmp_path)
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n0,1,2\n2,0,0\n")
        argv = ["predict", "--model", str(model_path), "--indices", str(indices_path)]
        assert main([*argv, "--out", str(tmp_path / "before.csv")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--rank", "2"])  # no --out, an unknown flag
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "after.csv")]) == 0
        printed = {"predictions": str(tmp_path / "after.csv"), "n": 2}
        assert capsys.readouterr() == (json.dumps(printed, indent=2) + "\n", "")
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    def test_predict_non_integer_cell_is_schema_error(self, dataset_dir, tmp_path, capsys):
        model_path = self.fit_model(dataset_dir, tmp_path)
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n0,1,2\n1,1.5,0\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert "indices.csv" in payload["message"]
        assert "row 2" in payload["message"] and "'thickness'" in payload["message"]

    @pytest.mark.parametrize("kind", ["cpd", "costco"])
    @pytest.mark.parametrize("cells, column", [("0,1,5", "'ux'"), ("-1,0,0", "'geometry'")])
    def test_predict_index_outside_its_axis_is_schema_error(
        self, dataset_dir, tmp_path, capsys, kind, cells, column
    ):
        # ux and geometry have 3 values each, so 5 and -1 name no cell
        model_path = self.fit_model(dataset_dir, tmp_path, kind)
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text(f"geometry,thickness,ux\n0,1,2\n{cells}\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert "indices.csv" in payload["message"]
        assert "row 2" in payload["message"] and column in payload["message"]

    def test_predict_denormalize(self, dataset_dir, tmp_path):
        model_path = self.fit_model(dataset_dir, tmp_path)
        indices_path = tmp_path / "indices.csv"
        with open(indices_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["geometry", "thickness", "ux"])
            writer.writerow([0, 0, 0])
        out_norm = tmp_path / "p1.csv"
        out_orig = tmp_path / "p2.csv"
        main(["predict", "--model", str(model_path), "--indices", str(indices_path), "--out", str(out_norm)])
        main(["predict", "--model", str(model_path), "--indices", str(indices_path), "--denormalize", "--out", str(out_orig)])
        normalizer = json.loads((dataset_dir / "normalizer.json").read_text())
        v = float(list(csv.DictReader(open(out_norm)))[0]["prediction"])
        y = float(list(csv.DictReader(open(out_orig)))[0]["prediction"])
        span = normalizer["y_max"] - normalizer["y_min"]
        assert y == pytest.approx(v * span + normalizer["y_min"], rel=1e-12)

    def test_evaluate_writes_metrics(self, dataset_dir, tmp_path, capsys):
        model_path = self.fit_model(dataset_dir, tmp_path)
        metrics_path = tmp_path / "metrics.json"
        code = main(["evaluate", "--model", str(model_path), "--test", str(dataset_dir), "--out", str(metrics_path)])
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert set(payload) == {"r2", "mae", "rmse", "mape", "n", "mape_excluded"}
        assert payload["n"] == 18

    def test_costco_fit_runs(self, dataset_dir, tmp_path):
        model_path = self.fit_model(
            dataset_dir, tmp_path, kind="costco",
            extra=("--groups", "2", "--channels", "4", "--hidden", "8"),
        )
        payload = json.loads(model_path.read_text())
        assert payload["kind"] == "costco"
        assert payload["config"] == {"n_init_groups": 2, "conv_channels": 4, "hidden_units": 8}


def ingest_rows(tmp_path, name, rows):
    """Ingest (geometry, thickness, ux, stiffness) rows on their own, as a
    test CSV is; returns the dataset directory."""
    csv_path = tmp_path / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geometry", "thickness", "ux", "stiffness"])
        writer.writerows(rows)
    out = tmp_path / name
    assert main(["ingest", "--data", str(csv_path), "--outcome", "stiffness",
                 "--categorical", "geometry", "--out", str(out)]) == 0
    return out


DEMO_ROWS = [(f"g{g}", t, x) for g in range(3) for t in (0.4, 0.8) for x in (1, 2, 3)]


class TestEvaluateSeparateTestSet:
    """`evaluate` on a test CSV ingested on its own, as README's
    walkthrough does it."""

    def fitted(self, tmp_path):
        # every 4th cell is held out; both sides cover every axis value
        train = [(*cell, 0.1 + 0.37 * k % 7.0) for k, cell in enumerate(DEMO_ROWS) if k % 4]
        model_path = TestFitPredictEvaluate().fit_model(
            ingest_rows(tmp_path, "train", train), tmp_path
        )
        return model_path, tmp_path / "train"

    def test_scored_in_the_model_units(self, tmp_path):
        from tenfit.metrics import regression_metrics
        from tenfit.modelio import load_dataset, load_model

        model_path, _ = self.fitted(tmp_path)
        test = [(*cell, 9.0 - k) for k, cell in enumerate(DEMO_ROWS) if k % 4 == 0]
        test_dir = ingest_rows(tmp_path, "test", test)
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--model", str(model_path), "--test", str(test_dir),
                     "--out", str(out)]) == 0
        model = load_model(model_path)
        _, obs = load_dataset(test_dir)
        assert obs.normalizer != model.normalizer
        original = [row[3] for row in test]  # written in cell order, the order ingest sorts to
        want = regression_metrics(model.normalizer.normalize(original), model.predict(obs.indices))
        got = json.loads(out.read_text())
        assert got["n"] == len(test)
        for key in ("mae", "rmse", "r2"):
            assert got[key] == pytest.approx(getattr(want, key), rel=1e-12, abs=1e-15)

    def test_one_distinct_outcome_reaches_scoring(self, tmp_path, capsys):
        # its values all map back to its y_min; R^2 then has no variance to
        # divide by, as on any test set of identical targets
        model_path, _ = self.fitted(tmp_path)
        test = [(*cell, 1.5) for k, cell in enumerate(DEMO_ROWS) if k % 4 == 0]
        test_dir = ingest_rows(tmp_path, "test", test)
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model_path), "--test", str(test_dir),
                     "--out", str(tmp_path / "metrics.json")])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "DegenerateDataError", "message": "R^2 is undefined when all targets are identical"
        }

    def test_a_test_set_in_the_model_units_keeps_its_bits(self, tmp_path):
        from tenfit.metrics import regression_metrics
        from tenfit.modelio import load_dataset, load_model

        model_path, train_dir = self.fitted(tmp_path)
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--model", str(model_path), "--test", str(train_dir),
                     "--out", str(out)]) == 0
        _, obs = load_dataset(train_dir)
        want = regression_metrics(obs.values, load_model(model_path).predict(obs.indices))
        assert out.read_text() == json.dumps(want.to_json(), indent=2)

    def test_other_axis_values_rejected(self, tmp_path, capsys):
        model_path, _ = self.fitted(tmp_path)
        test = [(g, t + 0.1, x, 1.0 + x) for g, t, x in DEMO_ROWS]  # same counts, other values
        test_dir = ingest_rows(tmp_path, "test", test)
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model_path), "--test", str(test_dir),
                     "--out", str(out)])
        message = one_json_error(code, capsys.readouterr().err)["message"]
        assert message.startswith("test-space axis 1 ('thickness') is not the model's: ")
        assert not out.exists()


class TestFactorsAndFms:
    def test_factor_export(self, dataset_dir, tmp_path):
        model_path = tmp_path / "m.json"
        main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
              "--epochs", "100", "--lr", "0.05", "--seed", "1", "--out", str(model_path)])
        out_dir = tmp_path / "factors"
        assert main(["factors", "--model", str(model_path), "--normalized", "--out", str(out_dir)]) == 0
        csvs = sorted(out_dir.glob("mode_*.csv"))
        assert len(csvs) == 3
        assert (out_dir / "highlights.json").exists()

    def test_factors_rejects_neural(self, dataset_dir, tmp_path, capsys):
        model_path = tmp_path / "n.json"
        main(["fit", "--obs", str(dataset_dir), "--model", "costco", "--rank", "2",
              "--epochs", "30", "--lr", "0.01", "--seed", "1", "--out", str(model_path)])
        code = main(["factors", "--model", str(model_path), "--out", str(tmp_path / "f")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ContractError"

    def test_fms_names_a_model_file_with_a_malformed_schema(self, dataset_dir, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
              "--epochs", "20", "--lr", "0.05", "--seed", "1", "--out", str(model_path)])
        payload = json.loads(model_path.read_text())
        del payload["schema"]["axes"][1]["kind"]
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["fms", "--a", str(damaged), "--b", str(model_path),
                     "--out", str(tmp_path / "fms.json")])
        error = one_json_error(code, capsys.readouterr().err)
        assert error["error"] == "SchemaError"
        assert str(damaged) in error["message"] and "'kind'" in error["message"]

    def test_fms_of_model_with_itself(self, dataset_dir, tmp_path):
        model_path = tmp_path / "m.json"
        main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
              "--epochs", "100", "--lr", "0.05", "--seed", "1", "--out", str(model_path)])
        out = tmp_path / "fms.json"
        assert main(["fms", "--a", str(model_path), "--b", str(model_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fms"] == pytest.approx(1.0, abs=1e-9)


class TestExperimentAndSweep:
    def test_experiment_config_run(self, dataset_dir, tmp_path):
        config = experiment_config(dataset_dir)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "exp_out"
        assert main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metadata"]["iterations"] == 2
        assert "uniform" in summary["aggregates"]

    def test_sweep_config_run(self, dataset_dir, tmp_path):
        config = sweep_config(dataset_dir)
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
        table = json.loads((out_dir / "sweep.json").read_text())
        assert [row["n_out"] for row in table["models"]["cpd"]] == [2, 4]

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_unknown_normalization_scope_exits_1(self, dataset_dir, tmp_path, command):
        build = experiment_config if command == "experiment" else sweep_config
        config = {**build(dataset_dir, epochs=5), "normalization": "bogus"}
        payload = one_json_error(*run_config(command, config, tmp_path))
        assert payload["error"] == "ContractError"
        assert "bogus" in payload["message"]
        assert not (tmp_path / "out" / "summary.json").exists()


MISSING = object()  # a replacement value that deletes the key


def replace_field(config, path, value):
    """`config` with the field at `path` set to `value`, in place; the empty
    path replaces the whole config."""
    if not path:
        return value
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


class TestConfigErrors:
    """A bad config value is a ContractError naming its key, reported as one
    line of JSON."""

    @pytest.mark.parametrize(
        "command, path, value",
        [("experiment", ("iterations",), "two"), ("experiment", ("models", 0, "rank"), "x"),
         ("experiment", ("plans", 1, "region", "a_range"), [0]),
         ("experiment", ("models", 0, "smooth_modes"), 5),
         ("experiment", ("models", 0, "kind"), [1]),
         ("experiment", ("models", 0, "smooth_modes"), "ux"),
         ("experiment", ("plans",), []), ("experiment", ("models",), []),
         ("sweep", ("models",), []), ("sweep", ("n_out_list",), []),
         ("sweep", ("models",), "cpd"),
         ("experiment", ("models", 0, "rank"), 2.7),
         ("experiment", ("models", 0, "epochs"), 5.9),
         ("experiment", ("models", 0, "restarts"), True),
         ("experiment", ("iterations",), 1.5),
         ("experiment", ("plans", 1, "n_in"), 4.5),
         ("experiment", ("plans", 1, "region", "b_range"), [0, 1.5]),
         ("sweep", ("n_out_list",), [2, 4.5]),
         ("sweep", ("seed",), False),
         ("experiment", ("models", 0, "lr"), True),
         ("experiment", ("models", 0, "lambda_smooth"), "0.5"),
         ("experiment", ("models", 0, "val_fraction"), False),
         ("experiment", ("plans", 0, "fraction"), "0.5"),
         ("sweep", ("lr",), "0.05"),
         ("sweep", ("region",), MISSING),
         ("experiment", ("plans", 1, "region"), MISSING),
         ("experiment", ("plans", 1, "region", "axis_a"), MISSING),
         ("sweep", ("region", "axis_b"), MISSING),
         ("experiment", (), "config"), ("sweep", (), 3), ("experiment", (), ["dataset"])],
        ids=["iterations", "rank", "a_range", "smooth_modes", "kind", "smooth_modes_string",
             "no_plans", "no_models", "sweep_no_models", "sweep_no_counts", "sweep_models_string",
             "rank_fraction", "epochs_fraction", "restarts_bool", "iterations_fraction",
             "n_in_fraction", "b_range_fraction", "sweep_count_fraction", "sweep_seed_bool",
             "lr_bool", "lambda_smooth_string", "val_fraction_bool", "fraction_string",
             "sweep_lr_string", "sweep_no_region", "biased_no_region", "region_no_axis_a",
             "region_no_axis_b", "config_string", "config_number", "config_list"],
    )
    def test_bad_value_names_its_key(self, dataset_dir, tmp_path, command, path, value):
        build = experiment_config if command == "experiment" else sweep_config
        config = build(dataset_dir, epochs=5)
        if path[:1] == ("models",) and len(path) == 3:
            config["models"][0]["kind"] = kind_reading(path[-1])
        config = replace_field(config, path, value)
        payload = one_json_error(*run_config(command, config, tmp_path))
        assert payload["error"] == "ContractError"
        named = repr(path[-1]) if path else "config must be a JSON object"
        assert named in payload["message"]
        assert not (tmp_path / "out").exists()  # rejected before any output is written

    def test_integral_float_values_are_integers(self, dataset_dir, tmp_path):
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0].update(rank=2.0, epochs=5.0)
        config["iterations"] = 2.0
        code, err = run_config("experiment", config, tmp_path)
        assert code == 0, err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metadata"]["iterations"] == 2

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_config_path_is_a_directory(self, tmp_path, capsys, command):
        code = main([command, "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "IsADirectoryError"


# Drawn replacement values. Numbers stay small: a large count of epochs,
# iterations or rank is a valid request for that much work and memory.
JSON_VALUES = st.one_of(
    st.integers(-3, 6),
    st.floats(-3, 6, allow_nan=False),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 6), st.text(max_size=3)), max_size=3),
    st.none(),
    st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.integers(-3, 6), st.dictionaries(st.text(max_size=2), st.none(), max_size=1)),
        max_size=2,
    ),
)


def field_paths(node, prefix=()):
    """Every key path of a JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def fuzz_configs(dataset_dir):
    experiment = experiment_config(dataset_dir, epochs=2)
    experiment["normalization"] = "train"
    experiment["models"] += [
        {"kind": "cpd_s", "name": "smooth", "rank": 2, "epochs": 2, "lambda_smooth": 0.1,
         "smooth_modes": ["ux"], "restarts": 2, "patience": 1, "val_fraction": 0.3},
        {"kind": "costco", "rank": 2, "epochs": 2, "groups": 2, "channels": 2, "hidden": 3},
    ]
    sweep = sweep_config(dataset_dir, epochs=2)
    sweep.update({"models": ["cpd", "costco"], "normalization": "full", "groups": 2})
    return {"experiment": experiment, "sweep": sweep}


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    return fuzz_configs(ingest_demo(tmp_path_factory.mktemp("fuzz")))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_fuzz_never_escapes(fuzz_base, data):
    command = data.draw(st.sampled_from(["experiment", "sweep"]))
    config = json.loads(json.dumps(fuzz_base[command]))
    path = data.draw(st.sampled_from(sorted(field_paths(config), key=repr)))
    replace_field(config, path, data.draw(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_config(command, config, Path(tmp))
    if code != 0:
        assert set(one_json_error(code, err)) == {"error", "message"}


# Whole files drawn as raw bytes, invalid UTF-8 included, or a valid file
# with a run of bytes spliced in.
def splice(valid: bytes, at: int, cut: int, insert: bytes) -> bytes:
    at %= len(valid) + 1
    return valid[:at] + insert + valid[at + cut :]


def damaged(valid: bytes):
    return st.one_of(
        st.binary(max_size=200),
        st.builds(splice, st.just(valid), st.integers(0, 10**6), st.integers(0, 8),
                  st.one_of(st.binary(max_size=12), st.text(max_size=6).map(str.encode))),
    )


@pytest.fixture(scope="module")
def byte_fuzz_base(tmp_path_factory):
    dataset = ingest_demo(tmp_path_factory.mktemp("bytes"))
    config = experiment_config(dataset, epochs=2)
    config["iterations"] = 1
    files = {name: (dataset / name).read_bytes() for name in ("obs.csv", "schema.json")}
    return dataset, config, files


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_byte_fuzz_never_escapes(byte_fuzz_base, data):
    """An experiment config, or a dataset's obs.csv or schema.json, of
    arbitrary bytes: main exits 0, or 1 with one line of JSON on stderr."""
    dataset, config, files = byte_fuzz_base
    target = data.draw(st.sampled_from(["config", *sorted(files)]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copy = tmp / "dataset"
        copy.mkdir()
        for name in ("obs.csv", "schema.json", "normalizer.json"):
            (copy / name).write_bytes((dataset / name).read_bytes())
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps({**config, "dataset": str(copy)}))
        if target == "config":
            config_path.write_bytes(data.draw(st.binary(max_size=200)))
        else:
            (copy / target).write_bytes(data.draw(damaged(files[target])))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["experiment", "--config", str(config_path), "--out", str(tmp / "out")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert set(one_json_error(code, err.getvalue())) == {"error", "message"}


BAD_NORMALIZERS = {
    "missing_y_max": {"y_min": 0.0},
    "list": [0.0, 1.0],
    "reversed": {"y_min": 2.0, "y_max": 1.0},
    "nan": {"y_min": float("nan"), "y_max": 1.0},
    "overflow": {"y_min": -1.7976931348623157e308, "y_max": 1.7976931348623157e308},
}


class TestErrorReporting:
    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_builtin_error_inside_a_command_propagates(self, dataset_dir, tmp_path, monkeypatch,
                                                       error):
        """A TypeError or KeyError is a fault of tenfit, not of its input,
        so main lets it out as a traceback rather than a JSON line."""

        def broken(path):
            raise error("raised inside load_dataset")

        monkeypatch.setattr(cli, "load_dataset", broken)
        with pytest.raises(error, match="raised inside load_dataset"):
            main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                  "--out", str(tmp_path / "m.json")])

    @pytest.mark.parametrize("kind", ["config", "model", "obs"])
    def test_non_utf8_file_yields_json_error(self, dataset_dir, tmp_path, capsys, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        out = str(tmp_path / "out")
        argv = {
            "config": ["experiment", "--config", str(bad), "--out", out],
            "model": ["predict", "--model", str(bad), "--indices", str(bad), "--out", out],
            "obs": ["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                    "--out", out],
        }[kind]
        if kind == "obs":
            (dataset_dir / "obs.csv").write_bytes(b"\xff\xfe")
        capsys.readouterr()
        payload = one_json_error(main(argv), capsys.readouterr().err)
        assert payload["error"] == "UnicodeDecodeError"

    @pytest.mark.parametrize("bad", sorted(BAD_NORMALIZERS))
    def test_bad_normalizer_json(self, dataset_dir, tmp_path, capsys, bad):
        (dataset_dir / "normalizer.json").write_text(json.dumps(BAD_NORMALIZERS[bad]))
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd",
                     "--rank", "2", "--out", str(tmp_path / "m.json")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert "normalizer.json" in payload["message"]

    def test_malformed_schema_json_names_its_file(self, dataset_dir, tmp_path, capsys):
        (dataset_dir / "schema.json").write_text(json.dumps({"axes": "nope", "outcome": "y"}))
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd",
                     "--rank", "2", "--out", str(tmp_path / "m.json")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert str(dataset_dir / "schema.json") in payload["message"]

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_deeply_nested_config_yields_json_error(self, tmp_path, capsys, command):
        config_path = tmp_path / "deep.json"
        config_path.write_text("[" * 100_000)
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "RecursionError"
        assert not (tmp_path / "out").exists()

    def test_missing_file_yields_json_error(self, tmp_path, capsys):
        code = main(["fit", "--obs", str(tmp_path / "missing"), "--model", "cpd",
                     "--rank", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}

    def test_non_integer_observation_cell_yields_json_error(self, dataset_dir, tmp_path, capsys):
        obs_path = dataset_dir / "obs.csv"
        lines = obs_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "1.5"
        lines[3] = ",".join(cells)
        obs_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd",
                     "--rank", "2", "--out", str(tmp_path / "m.json")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert "obs.csv" in payload["message"] and "row 3" in payload["message"]


class TestValidationNeedsPatience:
    """A validation share without patience would carve nothing: it is a
    ContractError, reported as one line of JSON before anything is written."""

    def test_experiment_model_entry(self, dataset_dir, tmp_path):
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0]["val_fraction"] = 0.2
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        message = "a validation fraction requires patience: 'patience' is None"
        assert payload == {"error": "ContractError", "message": message}
        assert not (tmp_path / "out").exists()

    def test_fit_flag(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                     "--val-fraction", "0.2", "--out", str(out)])
        printed = capsys.readouterr()
        assert printed.out == ""
        assert one_json_error(code, printed.err)["error"] == "ContractError"
        assert not out.exists() and not out.with_suffix(".report.json").exists()


class TestStrictKeys:
    """A key that its object's table lacks, or that the object's kind
    ignores, is a ContractError naming the key and where it sits, reported
    as one line of JSON before any output is written."""

    @pytest.mark.parametrize(
        "path, key, value, where, close",
        [((), "itterations", 2, "config", "iterations"),
         ((), "normalisation", "global", "config", "normalization"),
         (("models", 0), "epoch", 5, "models[0]", "epochs"),
         (("models", 0), "learning_rate", 0.5, "models[0]", None),
         (("models", 0), "lamda_smooth", 1.0, "models[0]", "lambda_smooth"),
         (("plans", 0), "fracton", 0.1, "plans[0]", "fraction"),
         (("plans", 1, "region"), "a_rnge", [0, 1], "plans[1].region", "a_range")],
        ids=["itterations", "normalisation", "epoch", "learning_rate", "lamda_smooth", "fracton",
             "a_rnge"],
    )
    def test_misspelled_key(self, dataset_dir, tmp_path, path, key, value, where, close):
        config = replace_field(experiment_config(dataset_dir, epochs=5), (*path, key), value)
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        hint = f"; did you mean {close!r}?" if close else ""
        assert payload == {"error": "ContractError",
                           "message": f"unknown key {key!r} in {where}{hint}"}
        assert not (tmp_path / "out").exists()

    def test_misspelled_sweep_key(self, dataset_dir, tmp_path):
        config = {**sweep_config(dataset_dir, epochs=5), "n_out": [2, 4]}
        payload = one_json_error(*run_config("sweep", config, tmp_path))
        assert payload["message"] == "unknown key 'n_out' in config; did you mean 'n_out_list'?"

    @pytest.mark.parametrize(
        "kind, key, value, reader",
        [("cpd", "lambda_smooth", 0.5, "cpd_s"), ("cpd", "smooth_modes", ["ux"], "cpd_s"),
         *((kind, key, 2, "costco") for kind in ("cpd", "cpd_s")
           for key in ("groups", "channels", "hidden"))],
    )
    def test_key_its_kind_ignores(self, dataset_dir, tmp_path, kind, key, value, reader):
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0].update({"kind": kind, key: value})
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        message = f"{key!r} in models[0] is ignored by {kind}: only {reader} read it"
        assert payload == {"error": "ContractError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, key, value, message",
        [(("plans", 0), "n_in", 4, "'n_in' in plans[0] is ignored by uniform: only biased read it"),
         (("plans", 1, "region"), "b_values", [1, 2],
          "'a_range' in plans[1].region is ignored by values: only ranges read it")],
        ids=["uniform_plan_n_in", "region_ranges_and_values"],
    )
    def test_key_its_plan_or_region_form_ignores(self, dataset_dir, tmp_path, path, key, value,
                                                 message):
        config = replace_field(experiment_config(dataset_dir, epochs=5), (*path, key), value)
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError", "message": message}

    def test_sweep_key_read_by_any_listed_kind(self, dataset_dir, tmp_path):
        # one TrainConfig serves every model of a sweep
        config = {**sweep_config(dataset_dir, epochs=5), "groups": 2}
        payload = one_json_error(*run_config("sweep", config, tmp_path))
        assert payload["message"] == "'groups' in config is ignored by cpd: only costco read it"
        config["models"] = ["cpd", "costco"]
        code, err = run_config("sweep", config, tmp_path)
        assert code == 0, err

    def test_sweep_repeated_kind_is_the_error(self, dataset_dir, tmp_path):
        # the repeat is reported before a key that the repeated kind ignores
        config = {**sweep_config(dataset_dir, epochs=5), "models": ["cpd", "cpd"], "groups": 2}
        payload = one_json_error(*run_config("sweep", config, tmp_path))
        assert payload == {"error": "ContractError",
                           "message": "model kinds ['cpd', 'cpd'] are not distinct"}
        assert not (tmp_path / "out").exists()

    def test_fit_flag_its_model_ignores(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                     "--lambda-smooth", "0.5", "--out", str(out)])
        printed = capsys.readouterr()
        message = "--lambda-smooth is ignored by cpd: only cpd_s read it"
        assert printed.out == ""
        assert one_json_error(code, printed.err) == {"error": "ContractError", "message": message}
        assert not out.exists()

    def test_smoothing_a_categorical_axis(self, dataset_dir, tmp_path, capsys):
        # CPD-S smooths ordinal axes: neighbouring values of a categorical
        # axis are in no order, so a first difference along it means nothing
        # the error names the key as the config spells it, or the flag
        message = "names the categorical axis 'geometry': CPD-S smooths ordinal axes only"
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0].update(kind="cpd_s", smooth_modes=["ux", "geometry"])
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError", "message": f"'smooth_modes' {message}"}
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd_s", "--rank", "2",
                     "--smooth-modes", "geometry", "--out", str(out)])
        error = one_json_error(code, capsys.readouterr().err)
        assert error["message"] == f"--smooth-modes {message}"
        assert not out.exists()


class TestErrorPathsNameTheirCause:
    """Config, option and model errors that exit 1 with one line of JSON
    naming the key, option or file at fault, before any output is written."""

    @pytest.mark.parametrize(
        "key, value, message",
        [("rank", 0, "rank must be >= 1"), ("epochs", 0, "epochs must be >= 1"),
         ("lr", 0.0, "learning rate must be positive: 'lr' is 0.0"),
         ("restarts", 0, "restarts must be >= 1"),
         ("lambda_smooth", -0.5, "smoothness weight must be non-negative: 'lambda_smooth' is -0.5")],
    )
    def test_train_config_checks(self, dataset_dir, tmp_path, key, value, message):
        if not message.endswith(f" is {value!r}"):  # the check alone; the message names the key
            message = f"{message}: {key!r} is {value!r}"
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0].update({"kind": kind_reading(key), key: value})
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("lr", math.nan, "learning rate must be finite: 'lr' is nan"),
         ("lr", math.inf, "learning rate must be finite: 'lr' is inf"),
         ("lambda_smooth", math.inf, "smoothness weight must be finite: 'lambda_smooth' is inf"),
         ("groups", 0, "CoSTCo head sizes must be >= 1: 'groups' is 0"),
         ("channels", 0, "CoSTCo head sizes must be >= 1: 'channels' is 0"),
         ("hidden", 0, "CoSTCo head sizes must be >= 1: 'hidden' is 0"),
         ("val_fraction", 1.5, "validation fraction must be in [0, 1): 'val_fraction' is 1.5"),
         ("patience", 0, "patience must be >= 1: 'patience' is 0")],
    )
    def test_train_config_check_names_its_key(self, dataset_dir, tmp_path, key, value, message):
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        config = experiment_config(dataset_dir, epochs=5)
        config["models"][0].update({"kind": kind_reading(key), key: value})
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, flags, message",
        [("cpd", ["--lr", "nan"], "learning rate must be finite: --lr is nan"),
         ("cpd", ["--lr", "-1"], "learning rate must be positive: --lr is -1.0"),
         ("cpd_s", ["--lambda-smooth", "inf"],
          "smoothness weight must be finite: --lambda-smooth is inf"),
         ("cpd", ["--patience", "0", "--val-fraction", "0.2"],
          "patience must be >= 1: --patience is 0"),
         ("cpd", ["--rank", "0"], "rank must be >= 1: --rank is 0")],
        ids=["lr_nan", "lr_negative", "lambda_smooth_inf", "patience_0", "rank_0"],
    )
    def test_fit_flag_names_its_key(self, dataset_dir, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", kind, "--rank", "2", *flags,
                     "--out", str(out)])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload == {"error": "ContractError", "message": message}
        assert not out.exists()

    def test_train_config_seed_check(self, dataset_dir, tmp_path, capsys):
        # a model entry takes no seed, so a fit's own seed is set by its flag
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                     "--seed", "-1", "--out", str(out)])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload == {"error": "ContractError", "message": "seed must be >= 0: --seed is -1"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_negative_config_seed(self, dataset_dir, tmp_path, command):
        build = experiment_config if command == "experiment" else sweep_config
        config = {**build(dataset_dir, epochs=5), "seed": -1}
        payload = one_json_error(*run_config(command, config, tmp_path))
        assert payload == {"error": "ContractError", "message": "seed must be >= 0"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "a_values, b_values, error, named",
        [(["g0", "g1"], [1], "ContractError", "'b_values'"),
         (["g0", "g7"], [1, 2], "SchemaError", "axis 'geometry': unknown value 'g7'"),
         (["g0", "g1"], ["x", 2], "SchemaError", "non-numeric value 'x' on an ordinal axis")],
        ids=["one_value", "unknown_value", "non_numeric_ordinal"],
    )
    def test_region_by_values(self, dataset_dir, tmp_path, a_values, b_values, error, named):
        config = experiment_config(dataset_dir, epochs=5)
        config["plans"][1]["region"] = {
            "axis_a": "geometry", "axis_b": "ux", "a_values": a_values, "b_values": b_values
        }
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload["error"] == error and named in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_region_by_values_equals_region_by_ranges(self, dataset_dir, tmp_path):
        config = experiment_config(dataset_dir, epochs=5)
        for run in ("ranges", "values"):
            (tmp_path / run).mkdir()
        code, err = run_config("experiment", config, tmp_path / "ranges")
        assert code == 0, err
        config["plans"][1]["region"] = {
            "axis_a": "geometry", "axis_b": "ux", "a_values": ["g0", "g1"], "b_values": [1, 2]
        }
        code, err = run_config("experiment", config, tmp_path / "values")
        assert code == 0, err
        by_ranges, by_values = (
            (tmp_path / run / "out" / "summary.json").read_bytes() for run in ("ranges", "values")
        )
        assert by_values == by_ranges

    @pytest.mark.parametrize("what", ["plans", "models"])
    def test_unusable_name(self, dataset_dir, tmp_path, what):
        config = experiment_config(dataset_dir, epochs=5)
        config[what][0]["name"] = "a/b"
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError",
                           "message": "name 'a/b' is not a usable file name"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what", ["plan", "model"])
    def test_duplicate_names(self, dataset_dir, tmp_path, what):
        config = experiment_config(dataset_dir, epochs=5)
        if what == "plan":
            for plan in config["plans"]:
                plan["name"] = "p"
        else:
            config["models"] *= 2
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        names = ["p", "p"] if what == "plan" else ["cpd", "cpd"]
        assert payload == {"error": "ContractError",
                           "message": f"{what} names {names} are not unique"}
        assert not (tmp_path / "out").exists()

    def test_pairs_that_share_a_file_name_stem(self, dataset_dir, tmp_path, monkeypatch):
        # plan "a" with model "b__c" and plan "a__b" with model "c" would
        # both write the a__b__c files: rejected before any fit
        def no_fit(*args):
            raise AssertionError("fit before the config was checked")

        monkeypatch.setattr(harness, "fit_batch", no_fit)
        config = experiment_config(dataset_dir, epochs=5)
        config["plans"][0]["name"], config["plans"][1]["name"] = "a", "a__b"
        config["models"] = [{**config["models"][0], "name": name} for name in ("b__c", "c")]
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {
            "error": "ContractError",
            "message": "(plan, model) pairs ('a', 'b__c') and ('a__b', 'c') both name 'a__b__c'",
        }
        assert not (tmp_path / "out").exists()

    def test_denormalize_without_a_normalizer(self, dataset_dir, tmp_path, capsys):
        model_path = TestFitPredictEvaluate().fit_model(dataset_dir, tmp_path)
        payload = json.loads(model_path.read_text())
        payload["normalizer"] = None
        model_path.write_text(json.dumps(payload))
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n0,1,2\n")
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--denormalize", "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "ContractError", "message": "model carries no normalizer; cannot denormalize"
        }
        assert not out.exists()

    def test_evaluate_on_a_test_set_of_another_shape(self, dataset_dir, tmp_path, capsys):
        model_path = TestFitPredictEvaluate().fit_model(dataset_dir, tmp_path)
        write_demo_csv(tmp_path / "small.csv", n_geometries=2)
        assert main(["ingest", "--data", str(tmp_path / "small.csv"), "--outcome", "stiffness",
                     "--categorical", "geometry", "--out", str(tmp_path / "small")]) == 0
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model_path), "--test", str(tmp_path / "small"),
                     "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "ContractError", "message": "test-space shape (2, 2, 3) != model shape (3, 2, 3)"
        }
        assert not out.exists()

    def test_fms_of_a_costco_model(self, dataset_dir, tmp_path, capsys):
        fitted = TestFitPredictEvaluate()
        linear = fitted.fit_model(dataset_dir, tmp_path)
        neural = fitted.fit_model(dataset_dir, tmp_path, "costco", ("--epochs", "5"))
        out = tmp_path / "fms.json"
        capsys.readouterr()
        code = main(["fms", "--a", str(linear), "--b", str(neural), "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "ContractError", "message": "--b must be a linear model (cpd or cpd_s)"
        }
        assert not out.exists()


class TestFailuresWriteNothing:
    """Failures that exit 1 with one line of JSON before anything is written."""

    @pytest.mark.parametrize(
        "text, flags, message",
        [("", [], "{csv}: missing CSV header"),
         (None, ["--ordinal", "nope"], "declared axis 'nope' not in CSV header"),
         (None, ["--ordinal", "thickness,ux", "--categorical", "ux"],
          "axes listed as both kinds: ['ux']")],
        ids=["empty_csv", "undeclared_axis", "axis_of_both_kinds"],
    )
    def test_ingest(self, tmp_path, capsys, text, flags, message):
        csv_path = tmp_path / "demo.csv"
        if text is None:
            write_demo_csv(csv_path)
        else:
            csv_path.write_text(text)
        out = tmp_path / "ds"
        code = main(["ingest", "--data", str(csv_path), "--outcome", "stiffness", *flags,
                     "--out", str(out)])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload == {"error": "SchemaError", "message": message.format(csv=csv_path)}
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [(("iterations",), 0, "iterations must be >= 1"),
         (("plans", 1, "n_in"), -1, "stratum counts must be non-negative"),
         (("plans", 1, "region", "a_range"), [2, 1], "region a_range (2, 1) is empty or negative")],
        ids=["no_iterations", "negative_n_in", "empty_a_range"],
    )
    def test_experiment_config(self, dataset_dir, tmp_path, path, value, message):
        config = replace_field(experiment_config(dataset_dir, epochs=5), path, value)
        payload = one_json_error(*run_config("experiment", config, tmp_path))
        assert payload == {"error": "ContractError", "message": message}
        assert not (tmp_path / "out").exists()

    def test_factors_quantile_outside_0_1(self, dataset_dir, tmp_path, capsys):
        model_path = TestFitPredictEvaluate().fit_model(dataset_dir, tmp_path)
        out = tmp_path / "factors"
        capsys.readouterr()
        code = main(["factors", "--model", str(model_path), "--quantile", "1.5", "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "ContractError", "message": "quantile must lie in [0, 1]"
        }
        assert not out.exists()

    def test_fms_of_models_of_different_shapes(self, dataset_dir, tmp_path, capsys):
        write_demo_csv(tmp_path / "small.csv", n_geometries=2)
        assert main(["ingest", "--data", str(tmp_path / "small.csv"), "--outcome", "stiffness",
                     "--categorical", "geometry", "--out", str(tmp_path / "small")]) == 0
        fitted = TestFitPredictEvaluate()
        large = fitted.fit_model(dataset_dir, tmp_path)
        small = fitted.fit_model(tmp_path / "small", tmp_path, "cpd_s")
        out = tmp_path / "fms.json"
        capsys.readouterr()
        code = main(["fms", "--a", str(large), "--b", str(small), "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "ContractError", "message": "factor shapes differ: (3, 2, 3) vs (2, 2, 3)"
        }
        assert not out.exists()

    def test_fit_on_a_dataset_without_rows(self, dataset_dir, tmp_path, capsys):
        obs_path = dataset_dir / "obs.csv"
        obs_path.write_text(obs_path.read_text().splitlines()[0] + "\n")
        out = tmp_path / "m.json"
        capsys.readouterr()
        code = main(["fit", "--obs", str(dataset_dir), "--model", "cpd", "--rank", "2",
                     "--out", str(out)])
        assert one_json_error(code, capsys.readouterr().err) == {
            "error": "DegenerateDataError", "message": "cannot fit on an empty observation set"
        }
        assert not out.exists() and not out.with_suffix(".report.json").exists()


class TestModelFileValidation:
    """A damaged model file is a SchemaError naming it, reported by the CLI as
    one line of JSON, never a traceback from predict."""

    def predict_with(self, dataset_dir, tmp_path, capsys, damage, kind="cpd"):
        """`damage` edits the JSON of a `kind` model file in place or returns
        a replacement for it."""
        model_path = TestFitPredictEvaluate().fit_model(dataset_dir, tmp_path, kind)
        payload = json.loads(model_path.read_text())
        replacement = damage(payload)
        model_path.write_text(json.dumps(payload if replacement is None else replacement))
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n2,1,2\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])
        payload = one_json_error(code, capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert f"{kind}.json" in payload["message"]
        return payload["message"]

    @pytest.mark.parametrize("version", [1, 99])
    def test_factor_rows_disagreeing_with_schema(self, dataset_dir, tmp_path, capsys, version):
        # mode 0 (geometry) has 3 values in the schema; keep 2 factor rows
        def damage(payload):
            factor = payload["params"]["factors"][0]
            factor["shape"] = [2, 2]
            factor["data"] = factor["data"][:4]
            payload["format_version"] = version

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert ("format_version 99" in message) if version == 99 else ("factors/0" in message)

    def test_truncated_data_array(self, dataset_dir, tmp_path, capsys):
        def damage(payload):
            factor = payload["params"]["factors"][1]
            factor["data"] = factor["data"][:-1]

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert "factors/1" in message and "3 values" in message

    def test_top_level_not_an_object(self, dataset_dir, tmp_path, capsys):
        message = self.predict_with(dataset_dir, tmp_path, capsys, lambda payload: [1, 2])
        assert "[1, 2]" in message

    @pytest.mark.parametrize(
        "kind, array, value", [("costco", "out_w", "nan"), ("cpd", "factors/0", "inf")],
        ids=["costco-out_w-nan", "cpd-factor 0-inf"],
    )
    def test_non_finite_array(self, dataset_dir, tmp_path, capsys, kind, array, value):
        def damage(payload):
            params = payload["params"]
            stored = params["out_w"] if kind == "costco" else params["factors"][0]
            stored["data"][0] = float(value)

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage, kind)
        assert array in message and "non-finite" in message

    def test_negative_smoothness_weight_names_the_field(self, dataset_dir, tmp_path, capsys):
        # the file has no config key 'lambda_smooth'; TrainConfig names its field
        def damage(payload):
            payload["smoothness"]["weight"] = -0.5

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert message.endswith(
            "(ContractError: smoothness weight must be non-negative: smooth_weight is -0.5)"
        )

    @pytest.mark.parametrize(
        "field, value, named",
        [("modes", [7], "smoothness modes (7,) invalid for 3 modes"),
         ("modes", [-1], "smoothness modes (-1,) invalid for 3 modes"),
         ("weight", math.nan, "smoothness weight must be finite: smooth_weight is nan")],
        ids=["mode_past_the_last", "negative_mode", "nan_weight"],
    )
    def test_bad_smoothing_block(self, dataset_dir, tmp_path, capsys, field, value, named):
        def damage(payload):
            payload["smoothness"][field] = value

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage, "cpd_s")
        assert named in message

    def test_shape_disagreeing_with_schema(self, dataset_dir, tmp_path, capsys):
        def damage(payload):
            payload["shape"] = [9, 9, 9]

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert "shape [9, 9, 9]" in message and "schema shape [3, 2, 3]" in message

    def test_params_not_matching_the_layout(self, dataset_dir, tmp_path, capsys):
        def damage(payload):
            del payload["params"]["factors"][2]

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert "params holds" in message and "factors/2" in message

    @pytest.mark.parametrize(
        "kind, key, block, named",
        [("cpd", "smoothness", {"weight": 0.7, "modes": [1]},
          "'smoothness' is {'weight': 0.7, 'modes': [1]}, but the cpd model it holds saves "
          "{'weight': 0.0, 'modes': []}"),
         ("cpd", "config", {"hidden_units": 3},
          "'config' is {'hidden_units': 3}, but the cpd model it holds saves None"),
         ("costco", "smoothness", {"weight": 0.0, "modes": []},
          "'smoothness' is {'weight': 0.0, 'modes': []}, but the costco model it holds saves "
          "None")],
        ids=["cpd-smoothing", "cpd-head-sizes", "costco-smoothing"],
    )
    def test_settings_block_the_model_would_ignore(self, dataset_dir, tmp_path, capsys, kind,
                                                   key, block, named):
        # loading it would drop the block silently: saving again writes another
        def damage(payload):
            payload[key] = block

        assert named in self.predict_with(dataset_dir, tmp_path, capsys, damage, kind)

    @pytest.mark.parametrize("bad", sorted(BAD_NORMALIZERS))
    def test_bad_normalizer_block(self, dataset_dir, tmp_path, capsys, bad):
        def damage(payload):
            payload["normalizer"] = BAD_NORMALIZERS[bad]

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert "normalizer" in message


DATA = Path(__file__).parent / "data"


class TestModelFileIntegers:
    """The integer settings of a model file (its rank, the smoothed modes,
    the CoSTCo head sizes) are read as strictly as config integers: a
    fraction, a string or a bool is a SchemaError naming the file."""

    FIELDS = {
        "rank": ("cpd_s", ("rank",)),
        "smooth_mode": ("cpd_s", ("smoothness", "modes", 0)),
        "head_size": ("costco", ("config", "hidden_units")),
    }

    def predict(self, tmp_path, capsys, kind, path=None, value=None):
        payload = json.loads((DATA / f"model_{kind}.json").read_text())
        if path is not None:
            replace_field(payload, path, value)
        model_path = tmp_path / f"{kind}.json"
        model_path.write_text(json.dumps(payload))
        indices_path = tmp_path / "grid.csv"
        with indices_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["geometry", "thickness", "ux"])
            writer.writerows(full_grid_indices((3, 2, 3)).tolist())
        capsys.readouterr()
        return main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])

    @pytest.mark.parametrize("value", [2.7, "2", True], ids=["fraction", "string", "bool"])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_non_integer_is_a_schema_error(self, tmp_path, capsys, field, value):
        kind, path = self.FIELDS[field]
        payload = one_json_error(self.predict(tmp_path, capsys, kind, path, value),
                                 capsys.readouterr().err)
        assert payload["error"] == "SchemaError"
        assert str(tmp_path / f"{kind}.json") in payload["message"]

    @pytest.mark.parametrize("kind", ["cpd_s", "costco"])
    def test_checked_in_files_still_predict(self, tmp_path, capsys, kind):
        assert self.predict(tmp_path, capsys, kind) == 0
        with (tmp_path / "preds.csv").open(newline="") as fh:
            got = [float(row["prediction"]) for row in csv.DictReader(fh)]
        assert got == json.loads((DATA / f"model_{kind}.predictions.json").read_text())
