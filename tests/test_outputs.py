"""Every byte `run_experiment` and `run_sweep` write, pinned by digest.

A small seeded experiment (a uniform plan, a biased plan and a biased plan
whose in-region stratum is exhausted; CPD with restarts, CPD-S with early
stopping and a diverging CPD) and a CPD sweep over two out-of-region counts
are run, and the sha256 of each file they write is compared with
`data/outputs.sha256.json`. That pins the per-iteration records, the
aggregates, the `failures` order, the grids, the factor exports and the FMS
file. CoSTCo stays out so the digests do not depend on BLAS matmul rounding.

`python tests/test_outputs.py` rewrites the manifest; do that only for a
change that is meant to alter the output files, and say so.
"""

import hashlib
import json
from pathlib import Path

import pytest
from conftest import low_rank_values, obs_from_values

from tenfit.core import Normalizer
from tenfit.harness import run_experiment, run_sweep
from tenfit.modelio import write_dataset

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256.json"
REGION = {"axis_a": "p0", "axis_b": "p1", "a_range": [0, 1], "b_range": [0, 1]}


def experiment_config(dataset: str) -> dict:
    return {
        "dataset": dataset,
        "iterations": 3,
        "seed": 11,
        "models": [
            {"kind": "cpd", "rank": 2, "epochs": 150, "lr": 0.05, "restarts": 2},
            {"kind": "cpd_s", "rank": 2, "epochs": 400, "lr": 0.05, "lambda_smooth": 0.05,
             "patience": 5, "val_fraction": 0.3},
            {"kind": "cpd", "name": "cpd_diverging", "rank": 2, "epochs": 30, "lr": 1e160},
        ],
        "plans": [
            {"kind": "uniform", "fraction": 0.75},
            {"kind": "biased", "region": REGION, "n_in": 10, "n_out": 8},
            {"kind": "biased", "name": "exhausted", "region": REGION, "n_in": 100, "n_out": 4},
        ],
    }


def sweep_config(dataset: str) -> dict:
    return {
        "dataset": dataset,
        "region": REGION,
        "n_in": 10,
        "n_out_list": [4, 9],
        "iterations": 2,
        "seed": 5,
        "rank": 2,
        "epochs": 120,
        "lr": 0.05,
        "models": ["cpd"],
    }


def output_digests(root: Path) -> dict:
    """Run the pinned experiment and sweep under `root`; sha256 per written
    file, keyed by its path relative to `root`."""
    values = low_rank_values((4, 3, 3), 2, seed=41)
    values = (values - values.min()) / (values.max() - values.min())
    write_dataset(obs_from_values((4, 3, 3), values, Normalizer(0.0, 1.0)), root / "data")
    run_experiment(experiment_config(str(root / "data")), root / "experiment")
    run_sweep(sweep_config(str(root / "data")), root / "sweep")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for out in ("experiment", "sweep")
        for path in sorted((root / out).rglob("*"))
        if path.is_file()
    }


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_outputs_match_pinned_digests(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [path for path in expected if got[path] != expected[path]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    with tempfile.TemporaryDirectory() as scratch:
        digests = output_digests(Path(scratch))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(digests)} files")
