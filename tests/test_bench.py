"""`bench/kernels.py` runs on the engine it measures: its helpers are
loaded from the script and run on calls small enough for the suite."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tenfit import optim
from tenfit.neural import COSTCO_ROW_EPOCH_US

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "kernels.py"
SAME_BYTES = SCRIPT.with_name("same_bytes.py")


@pytest.fixture
def kernels(monkeypatch):
    """The script as a module; the thread variables and the import path it
    sets are restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_parallel_sides_give_equal_losses(kernels, monkeypatch):
    rng = np.random.default_rng(0)
    cfg = optim.TrainConfig(rank=2, epochs=3, lr=0.01, n_init_groups=2, conv_channels=2,
                            hidden_units=3)
    sets = [kernels.observations(kernels.LATTICE, n, rng) for n in (40, 40, 30, 30)]
    call = (kernels.LATTICE, [("costco", cfg)], sets, [0, 1, 0, 1])
    pooled = []
    train_in_workers = optim._train_in_workers

    def counted(jobs, workers):
        pooled.append(len(jobs))
        return train_in_workers(jobs, workers)

    monkeypatch.setattr(optim, "_train_in_workers", counted)
    threshold = optim.POOL_MIN_WORK_US
    serial = kernels.fit_batch_on(1, call)
    forked = kernels.fit_batch_on(2, call, min_work=0)
    assert pooled == [2]  # one batch per set size, trained in workers
    assert len(serial) == 4 and serial == forked
    assert kernels.estimated_work_ms(call) == pytest.approx(140 * 3 * COSTCO_ROW_EPOCH_US / 1e3)
    assert optim.POOL_MIN_WORK_US == threshold  # the forced threshold is put back


def test_src_sha256_names_the_sources_without_git(kernels, monkeypatch, tmp_path):
    """Two copies of the package give one digest, and a one-byte edit
    another, with no git call."""
    monkeypatch.setattr(kernels.subprocess, "run", None)  # a git call would raise
    package = Path(optim.__file__).parent
    a, b = (shutil.copytree(package, tmp_path / side / "tenfit") for side in "ab")
    assert kernels.src_sha256(a) == kernels.src_sha256(b) == kernels.src_sha256(package)
    text = (b / "core.py").read_bytes()
    (b / "core.py").write_bytes(text[:-1] + bytes([text[-1] ^ 1]))  # its last byte changed
    assert kernels.src_sha256(a) != kernels.src_sha256(b)


@pytest.mark.parametrize("kind", ["cpd", "cpd_s", "costco"])
def test_objective_entry_runs(kernels, kind):
    entry = kernels.bench_objective(kind, kernels.LATTICE, 20, 2, True, calls=1, rounds=1,
                                    rng=np.random.default_rng(1))
    assert entry["rows"] == 40 and entry["build_us"] > 0 and entry["us_per_call"] > 0


def test_tables_argument_runs_the_named_tables_alone(kernels, monkeypatch, capsys):
    """`--tables objective batch` at tiny sizes: those two tables and the
    environment, and no other table."""
    monkeypatch.setattr(kernels, "OBJECTIVE_CASES", [
        ("tiny_cpd_s", "cpd_s", kernels.LATTICE, 12, 2, True),
        ("tiny_costco", "costco", kernels.LATTICE, 10, 2, False),
    ])
    monkeypatch.setattr(kernels, "BATCH_CASES", [("cpd", kernels.LATTICE, 12, (1, 2)),
                                                 ("costco", kernels.LATTICE, 10, (2,))])
    kernels.main(["--tables", "objective", "batch", "--calls", "1", "--rounds", "1",
                  "--batch-rounds", "1", "--epochs", "2"])
    result = json.loads(capsys.readouterr().out)
    assert list(result) == ["environment", "objective", "batch"]
    assert list(result["objective"]) == ["tiny_cpd_s", "tiny_costco"]
    assert [(entry["kind"], entry["fits"]) for entry in result["batch"]] == [
        ("cpd", 1), ("cpd", 2), ("costco", 2)]
    assert all(entry["us_per_fit_epoch"] > 0 for entry in result["batch"])


def test_tables_argument_rejects_an_unknown_table(kernels, capsys):
    with pytest.raises(SystemExit):
        kernels.main(["--tables", "objectives"])
    assert "invalid choice: 'objectives'" in capsys.readouterr().err


def test_parallel_table_runs(kernels, monkeypatch):
    """Every entry of the `parallel` table at tiny sizes and epochs; the
    table raises if its sides' final losses differ."""
    monkeypatch.setattr(kernels, "PARALLEL_SIZES", (20, 12))
    monkeypatch.setattr(kernels, "PARALLEL_EPOCHS", 2)
    monkeypatch.setattr(kernels, "BREAK_EVEN_EPOCHS", (2,))
    monkeypatch.setattr(kernels, "LATTICE_SETS", (20, 12) * 3)
    monkeypatch.setattr(kernels, "LATTICE_EPOCHS", 2)
    table = kernels.bench_parallel(1, np.random.default_rng(2))
    names = ["startup", "break_even_2", "1_batches", "2_batches", "lattice_mixed"]
    assert [entry["name"] for entry in table] == names
    assert all(entry["est_work_ms"] > 0 and entry["serial_ms"] > 0 for entry in table)


def test_io_table_runs(kernels, monkeypatch, tmp_path):
    """Every entry of the `io` table on tiny grids; the ingest and predict
    entries draw no random numbers, so the tables after `io` keep their
    streams."""
    monkeypatch.setattr(kernels, "IO_SHAPES", ((2, 3), (3,)))
    monkeypatch.setattr(kernels, "IO_ROUND_S", 0.0)
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    table = kernels.bench_io(1, rng, tmp_path)
    for shape in kernels.IO_SHAPES:  # the grids' own draws, and no more
        kernels.observations(shape, int(np.prod(shape)), twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    calls = ["read_index_csv", "read_index_csv_value", "write_index_csv", "load_dataset",
             "build_design_space", "encode_observations", "predict_cpd", "predict_costco"]
    assert [(entry["call"], entry["rows"]) for entry in table] == [
        (call, rows) for rows in (6, 3) for call in calls
    ]
    assert all(entry["us_per_row"] > 0 and entry["minor_faults_per_call"] >= 0
               for entry in table)


def test_coldstart_table_runs(kernels, monkeypatch, tmp_path):
    """Every entry of the `coldstart` table on a tiny model, one round."""
    monkeypatch.setattr(kernels, "COLDSTART_CELLS", 20)
    monkeypatch.setattr(kernels, "COLDSTART_EPOCHS", 2)
    table = kernels.bench_coldstart(1, np.random.default_rng(4), tmp_path)
    commands = ["import tenfit.cli", "tenfit predict", "tenfit fms"]
    assert [entry["command"] for entry in table] == commands
    assert all(entry["wall_ms"] > 0 and entry["max_rss_mb"] > 0 for entry in table)
    assert (tmp_path / "preds.csv").is_file() and (tmp_path / "fms.json").is_file()


def load_same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SAME_BYTES)
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    return same_bytes


def test_same_bytes_reports_a_one_ulp_change(tmp_path):
    """`bench/same_bytes.py`'s fit job against a copy of src/ (no git call):
    the copy writes the same bytes, and a residual moved by one ulp in the
    copy's CPD objective is reported."""
    same_bytes = load_same_bytes()
    src = tmp_path / "src"
    shutil.copytree(SCRIPT.parents[1] / "src", src, ignore=shutil.ignore_patterns("__pycache__"))

    def compare(run):
        sides = {"base": src, "head": same_bytes.ROOT / "src"}
        for side, side_src in sides.items():
            assert same_bytes.run_side(side_src, ("fit",), [0], tmp_path / run / side) == []
        return same_bytes.compare(tmp_path / run / "base", tmp_path / run / "head")

    assert compare("same") == (11, [])
    kernel = src / "tenfit" / "cpd.py"
    line = "        np.subtract(residuals, values, out=residuals)\n"
    assert kernel.read_text().count(line) == 1
    kernel.write_text(kernel.read_text().replace(
        line, line + "        residuals[0] = np.nextafter(residuals[0], np.inf)\n"))
    total, lines = compare("ulp")
    assert total == 11 and "differs: fit/seed0/cpd.json" in lines


def test_same_bytes_env_reaches_the_head_side_only(monkeypatch, capsys):
    """`--env KEY=VALUE` is in the environment of the working tree's
    children and not of the base's. Each child is replaced by a stand-in
    that writes the variable it sees, so the compare reports one file per
    job as different."""
    same_bytes = load_same_bytes()
    monkeypatch.delenv("SAME_BYTES_PROBE", raising=False)
    seen = {}

    def child(argv, env, **kwargs):  # stands in for `same_bytes.py ... --child JOB SEED OUT`
        out = Path(argv[-1])
        side, job = out.parts[-3:-1]
        seen[side, job] = env.get("SAME_BYTES_PROBE")
        (out / "probe").write_text(str(seen[side, job]))
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(same_bytes.subprocess, "run", child)
    base = ["--base", str(same_bytes.ROOT / "src"), "--seeds", "0"]  # a directory: no git call
    assert same_bytes.main(base) == 0
    assert set(seen.values()) == {None}
    capsys.readouterr()
    assert same_bytes.main([*base, "--env", "SAME_BYTES_PROBE=on"]) == 1
    assert seen == {(side, job): "on" if side == "head" else None
                    for side in ("base", "head") for job in same_bytes.JOBS}
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"differs: {job}/seed0/probe" for job in sorted(same_bytes.JOBS)]


def test_same_bytes_base_imports_its_own_perfbench(tmp_path):
    """A base `src/` with `perfbench/` and `tests/` beside it, as a git
    revision is extracted, runs its children on those copies and not on the
    working tree's (no git call): a failure planted in each copy is the one
    reported."""
    same_bytes = load_same_bytes()
    for name in ("src", "perfbench", "tests"):
        shutil.copytree(same_bytes.ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("perfbench/workloads.py", "tests/test_outputs.py"):
        module = tmp_path / name
        module.write_text(module.read_text() + f'raise SystemExit("the copy of {name}")\n')
    src = tmp_path / "src"
    assert same_bytes.run_side(src, ("digest", "fit"), [0], tmp_path / "out") == [
        f"digest seed 0 on {src}: the copy of tests/test_outputs.py",
        f"fit seed 0 on {src}: the copy of perfbench/workloads.py",
    ]
