import csv
import json

import numpy as np
import pytest

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


@pytest.fixture
def dataset_dir(tmp_path):
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

    def test_predict_non_integer_cell_is_schema_error(self, dataset_dir, tmp_path, capsys):
        model_path = self.fit_model(dataset_dir, tmp_path)
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n0,1,2\n1,1.5,0\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"
        assert "indices.csv" in payload["message"]
        assert "row 2" in payload["message"] and "'thickness'" in payload["message"]

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
        config = {
            "dataset": str(dataset_dir),
            "iterations": 2,
            "seed": 1,
            "models": [{"kind": "cpd", "rank": 2, "epochs": 80, "lr": 0.05}],
            "plans": [
                {"kind": "uniform", "fraction": 0.8},
                {
                    "kind": "biased",
                    "region": {"axis_a": "geometry", "axis_b": "ux", "a_range": [0, 1], "b_range": [0, 1]},
                    "n_in": 6,
                    "n_out": 3,
                },
            ],
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "exp_out"
        assert main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metadata"]["iterations"] == 2
        assert "uniform" in summary["aggregates"]

    def test_sweep_config_run(self, dataset_dir, tmp_path):
        config = {
            "dataset": str(dataset_dir),
            "region": {"axis_a": "geometry", "axis_b": "ux", "a_range": [0, 1], "b_range": [0, 1]},
            "n_in": 5,
            "n_out_list": [2, 4],
            "iterations": 2,
            "seed": 1,
            "rank": 2,
            "epochs": 60,
            "lr": 0.05,
            "models": ["cpd"],
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
        table = json.loads((out_dir / "sweep.json").read_text())
        assert [row["n_out"] for row in table["models"]["cpd"]] == [2, 4]


class TestErrorReporting:
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
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"
        assert "obs.csv" in payload["message"] and "row 3" in payload["message"]


class TestModelFileValidation:
    """A damaged model file is a SchemaError naming it, reported by the CLI as
    one line of JSON, never a traceback from predict."""

    def predict_with(self, dataset_dir, tmp_path, capsys, damage):
        model_path = TestFitPredictEvaluate().fit_model(dataset_dir, tmp_path)
        payload = json.loads(model_path.read_text())
        damage(payload)
        model_path.write_text(json.dumps(payload))
        indices_path = tmp_path / "indices.csv"
        indices_path.write_text("geometry,thickness,ux\n2,1,2\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--indices", str(indices_path),
                     "--out", str(tmp_path / "preds.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"
        assert "cpd.json" in payload["message"]
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
        assert ("format_version 99" in message) if version == 99 else ("factor 0" in message)

    def test_truncated_data_array(self, dataset_dir, tmp_path, capsys):
        def damage(payload):
            factor = payload["params"]["factors"][1]
            factor["data"] = factor["data"][:-1]

        message = self.predict_with(dataset_dir, tmp_path, capsys, damage)
        assert "factor 1" in message and "3 values" in message
