"""Layer bench: the CPD and CoSTCo objectives per call, training cost per
fit-epoch at growing batch sizes, batches trained serially against in
worker processes, the factor match score per call, the index-CSV codec
per row, and the cold start of the CLI.

    python3 bench/kernels.py --out results.json
    python3 bench/kernels.py --tables objective batch  # those two alone

Run it from the repository root; it imports tenfit from ./src. Six tables,
all of them unless `--tables` names some:

- `objective`: the training objective of a model kind's trainable
  (`cpd.masked_objective`, `neural._masked_objective`), called on the
  engine's flat parameter-major buffer of its fits, at the sizes the
  benchmark workloads train (experiment_large's 3,456-row fit, serve_cli's
  3,840-row set-up fits, experiment_large's 384-row validation pass, the
  lattice's cpd and cpd_s batches and the OOD sweep's cpd and costco
  batches). Each entry gives the median over rounds of the us per build of
  the objective (`build_us`: the engine builds it once per batch, and again
  each time a member leaves an early-stopped batch), of the us per call
  and of the minor page faults per call (`resource.getrusage`), each
  measured over a fixed number of builds or calls.
- `batch`: `optim.train_batch` on B same-size fits, in us per fit-epoch
  and per row-epoch (the best of several rounds), for CPD, CPD-S and
  CoSTCo; these measurements set `cpd.CPD_MAX_BATCH_ROWS`,
  `neural.COSTCO_MAX_BATCH_ROWS` and each kind's cost per row-epoch
  (`cpd.CPD_ROW_EPOCH_US`, `cpd.CPD_S_ROW_EPOCH_US`,
  `neural.COSTCO_ROW_EPOCH_US`).
- `parallel`: `optim.fit_batch` calls, medians over rounds in ms per call,
  each with the call's estimated work (`est_work_ms`, the engine's own
  estimate). The sides of an entry alternate within each round, so a slow
  spell of the host hits them alike, and must give equal final losses.
  - 1 to 4 CoSTCo batches of 2 fits at the OOD sweep's sizes and epochs,
    and the first two of them at fewer epochs (`startup` at one epoch,
    `break_even_<epochs>`): trained one after another in this process
    (`serial_ms`), as `fit_batch` chooses with every usable CPU
    (`pooled_ms`: serial below `optim.POOL_MIN_WORK_US`) and always in
    forked workers (`forked_ms`). Where `forked_ms` meets `serial_ms` sets
    the threshold; at one epoch `forked_ms` is almost all the cost of
    starting, feeding and reaping the workers.
  - `lattice_mixed`: experiment_lattice's cpd and cpd_s batches (2 plans x
    3 iterations, 500 epochs, cpd with 3 restarts), in one call on one CPU
    (`serial_ms`), in one call per kind as every usable CPU allows
    (`per_kind_ms`, one batch each, so serial) and in one call for both
    (`pooled_ms`).
- `fms`: `metrics.fms` between two random factor sets of the lattice shape
  at ranks 3, 5, 7 and 8 (the paper's ranks go up to 8), in us per call:
  the median over rounds, each round repeating the call for at least
  0.1 s. A call covers the congruence products (numpy) and the component
  pairing by `metrics._max_assignment`, a pure-Python port of SciPy's
  assignment solver, whose cost grows as R^3.
- `io`: `modelio.read_index_csv` with and without its value column,
  `modelio.write_index_csv`, `modelio.load_dataset` and the `predict` of a
  cpd and a costco model (seeded initial arrays at R=3 and the default
  CoSTCo head sizes, as serve_cli fits) on the full grid of the lattice
  (270 rows) and of the large shape (4,800 rows: serve_cli's grid
  predict), and the ingest path's `core.build_design_space` and
  `core.encode_observations` on one record per cell of those grids (axis 0
  categorical, the others ordinal, as the benchmark workloads ingest), in
  us per row, ms per call and minor page faults per call
  (`resource.getrusage`): the median over rounds, each round repeating the
  call for at least 0.1 s. Files go to a temporary directory.
- `coldstart`: three commands, each in a fresh `sys.executable` process
  with ./src on PYTHONPATH: `import tenfit.cli`, `tenfit predict` of the
  200 cells a small saved CPD model was fit on (`cli.main` from `-c`), and
  `tenfit fms` between two such models; none of them loads SciPy, as
  tenfit depends on numpy alone. Each entry gives the median wall time
  over rounds, from spawn to reaping, and the largest max RSS of the
  child, read per child with `os.wait4` (`RUSAGE_CHILDREN` only ever
  rises, so it cannot give one child's peak). A child's max RSS also
  counts the process that spawned it, so a bare interpreter spawns them.
  The commands alternate within each round. The models and CSVs go to a
  temporary directory.

BLAS/OpenMP threads are pinned to 1, as in perfbench. The output records
the Python, numpy and BLAS versions, nproc, the git commit and a sha256 of
the imported tenfit package's sources (`src_sha256`), which names the code
measured also in a `git archive` copy, where the commit reads null.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, as perfbench does.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tenfit import optim  # noqa: E402
from tenfit.core import CATEGORICAL, ORDINAL, DesignSpace, Normalizer  # noqa: E402
from tenfit.core import ObservationSet, build_design_space, encode_observations  # noqa: E402
from tenfit.core import pack  # noqa: E402
from tenfit.cpd import FactorSet  # noqa: E402
from tenfit.metrics import fms  # noqa: E402
from tenfit.modelio import load_dataset, read_index_csv, save_model  # noqa: E402
from tenfit.modelio import write_dataset, write_index_csv  # noqa: E402

LATTICE = (5, 2, 3, 3, 3)  # 270 cells
LARGE = (8, 4, 5, 5, 6)  # 4,800 cells
RANK = 3

# name, kind, shape, rows per fit, fits, gradient
OBJECTIVE_CASES = [
    ("large_fit", "cpd", LARGE, 3456, 1, True),
    ("serve_setup_fit", "cpd", LARGE, 3840, 1, True),
    ("large_validation", "cpd", LARGE, 384, 1, False),
    ("lattice_cpd_216", "cpd", LATTICE, 216, 9, True),
    ("lattice_cpd_84", "cpd", LATTICE, 84, 9, True),
    ("lattice_cpd_s_216", "cpd_s", LATTICE, 216, 3, True),
    ("lattice_cpd_s_84", "cpd_s", LATTICE, 84, 3, True),
    ("sweep_cpd_154", "cpd", LATTICE, 154, 2, True),
    ("sweep_cpd_74", "cpd", LATTICE, 74, 2, True),
    ("sweep_costco_154", "costco", LATTICE, 154, 2, True),
    ("sweep_costco_114", "costco", LATTICE, 114, 2, True),
    ("sweep_costco_74", "costco", LATTICE, 74, 2, True),
    ("serve_setup_costco", "costco", LARGE, 3840, 1, True),
]

# Training rows per fit of the OOD sweep's CoSTCo batches (n_out 100, 60
# and 20 on the lattice), each batch 2 fits trained for the sweep's 300
# epochs; a fourth batch repeats the largest size.
PARALLEL_SIZES = (154, 114, 74, 154)
PARALLEL_FITS = 2
PARALLEL_EPOCHS = 300
BREAK_EVEN_EPOCHS = (10, 20, 40, 80)  # of the first two batches

# experiment_lattice's training sets: uniform (0.8) and biased (54 in, 30
# out) splits of the 270-cell lattice, 3 iterations each, and its epochs
LATTICE_SETS = (216, 84) * 3
LATTICE_EPOCHS = 500

FMS_RANKS = (3, 5, 7, 8)
FMS_ROUND_S = 0.1

IO_SHAPES = (LATTICE, LARGE)  # full grids of 270 and 4,800 rows
IO_ROUND_S = 0.1

COLDSTART_CELLS = 200  # rows the saved models are fit on and predict
COLDSTART_EPOCHS = 50
RUN_CLI = "import sys; from tenfit.cli import main; sys.exit(main(sys.argv[1:]))"

# kind, shape, rows per fit, batch sizes
BATCH_CASES = [
    ("cpd", LATTICE, 216, (1, 9, 12, 16, 20, 24, 28, 31)),
    ("cpd", LARGE, 768, (1, 3, 5, 6, 7, 9)),
    ("cpd", LARGE, 1000, (1, 2, 3, 4, 6)),
    ("cpd", LARGE, 3456, (1, 2)),
    ("cpd_s", LATTICE, 216, (1, 3, 9, 12, 20)),
    ("cpd_s", LATTICE, 84, (3, 9, 27)),
    ("costco", LATTICE, 154, (1, 2, 3, 4, 5, 6, 9, 12)),
    ("costco", LATTICE, 74, (1, 4, 6, 8, 10, 12, 18, 24)),
    ("costco", LATTICE, 40, (1, 8, 12, 15, 20, 30, 40)),
]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def src_sha256(package: Path) -> str:
    """sha256 over a package's .py files in sorted path order, each file's
    path relative to the package and its bytes: it names the code measured
    also in a tree without .git, where git_sha is None."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(Path(optim.__file__).parent),
    }


def observations(shape, n, rng):
    """n distinct random cells of `shape` with uniform values."""
    flat = np.sort(rng.choice(int(np.prod(shape)), size=n, replace=False))
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=np.stack(np.unravel_index(flat, shape), axis=1),
        values=rng.uniform(-1, 1, size=n),
        normalizer=Normalizer(0.0, 1.0),
    )


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def bench_objective(kind, shape, n, n_fits, grad, calls, rounds, rng):
    """The objective of `kind`'s trainable (cpd_s smoothing every mode with
    weight 0.1) over n_fits sets of n rows, at seeded initial parameters:
    `calls` builds of it, then `calls` calls of one of them, per round."""
    cfg = optim.TrainConfig(rank=RANK, smooth_weight=0.1, smooth_modes=tuple(range(len(shape))))
    engine = optim.MODEL_KINDS[kind](shape, cfg)
    sets = [observations(shape, n, rng) for _ in range(n_fits)]
    objective = engine.objective(sets)
    flat = pack([engine.init(seed) for seed in range(n_fits)])
    for _ in range(calls):  # warm up
        objective(flat, grad=grad)
    build_us, us, faults = [], [], []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            engine.objective(sets)
        build_us.append((time.perf_counter() - start) / calls * 1e6)
        faults_start, start = minor_faults(), time.perf_counter()
        for _ in range(calls):
            objective(flat, grad=grad)
        us.append((time.perf_counter() - start) / calls * 1e6)
        faults.append((minor_faults() - faults_start) / calls)
    return {
        "rows": n * n_fits,
        "build_us": round(statistics.median(build_us), 2),
        "us_per_call": round(statistics.median(us), 2),
        "minor_faults_per_call": round(statistics.median(faults), 2),
    }


def bench_batch(rounds, epochs, rng):
    """us per fit-epoch of every BATCH_CASES entry, the best of `rounds`;
    each round runs every entry once, so a slow spell of the host hits all
    of them alike."""
    entries = []
    for kind, shape, n, sizes in BATCH_CASES:
        cfg = optim.TrainConfig(rank=RANK, epochs=epochs, lr=0.01)
        engine = optim.MODEL_KINDS[kind](shape, cfg)
        for n_fits in sizes:
            runs = [
                optim.Run(fit=b, restart=0, seed=b, data=observations(shape, n, rng))
                for b in range(n_fits)
            ]
            entries.append(({"kind": kind, "cells": int(np.prod(shape)), "n": n,
                             "fits": n_fits, "rows": n * n_fits}, engine, runs, cfg))
    best = [float("inf")] * len(entries)
    for _ in range(rounds):
        for i, (_, engine, runs, cfg) in enumerate(entries):
            start = time.perf_counter()
            optim.train_batch(engine, runs, cfg)
            best[i] = min(best[i], (time.perf_counter() - start) / (epochs * len(runs)))
    return [{**entry, "us_per_fit_epoch": round(us * 1e6, 2),
             "us_per_row_epoch": round(us * 1e6 / entry["n"], 3)}
            for (entry, *_), us in zip(entries, best)]


def fit_batch_on(cpus, call, min_work=None):
    """`optim.fit_batch` on a `(shape, models, sets, seeds)` call as it runs
    with `cpus` usable CPUs and, when given, a pool threshold of `min_work`
    us; returns the final losses."""
    saved = optim._usable_cpus, optim.POOL_MIN_WORK_US
    optim._usable_cpus = lambda: cpus
    if min_work is not None:
        optim.POOL_MIN_WORK_US = min_work
    try:
        outcomes = optim.fit_batch(*call)
    finally:
        optim._usable_cpus, optim.POOL_MIN_WORK_US = saved
    return [report.final_loss for model in outcomes for _, report in model]


def estimated_work_ms(call):
    """The engine's estimate of a call's work: rows x restarts x epochs x
    the kind's cost per row-epoch."""
    shape, models, sets, _ = call
    rows = sum(s.n for s in sets)
    return sum(rows * cfg.restarts * cfg.epochs * optim.MODEL_KINDS[kind](shape, cfg).row_epoch_us
               for kind, cfg in models) / 1e3


def bench_parallel(rounds, rng):
    """ms per `fit_batch` call of each entry's sides (median of `rounds`);
    every side must give the same final losses."""
    cpus = optim._usable_cpus()
    entries = []
    costco = [("startup", 2, 1)] + [(f"break_even_{e}", 2, e) for e in BREAK_EVEN_EPOCHS] + [
        (f"{k}_batches", k, PARALLEL_EPOCHS) for k in range(1, len(PARALLEL_SIZES) + 1)
    ]
    for name, n_batches, epochs in costco:
        cfg = optim.TrainConfig(rank=RANK, epochs=epochs, lr=0.01)
        sets = [observations(LATTICE, n, rng)
                for n in PARALLEL_SIZES[:n_batches] for _ in range(PARALLEL_FITS)]
        call = (LATTICE, [("costco", cfg)], sets, list(range(len(sets))))
        sides = {
            "serial": lambda call=call: fit_batch_on(1, call),
            "pooled": lambda call=call: fit_batch_on(cpus, call),
            "forked": lambda call=call: fit_batch_on(cpus, call, min_work=0),
        }
        entry = {"name": name, "batches": n_batches, "fits": len(sets), "epochs": epochs,
                 "rows": [s.n for s in sets[::PARALLEL_FITS]],
                 "workers": min(n_batches, cpus)}
        entries.append((entry, call, sides))
    sets = [observations(LATTICE, n, rng) for n in LATTICE_SETS]
    seeds = [it for it in range(3) for _ in range(2)]
    models = [("cpd", dict(restarts=3)),
              ("cpd_s", dict(smooth_weight=0.002, smooth_modes=(1, 2, 3, 4)))]
    models = [(kind, optim.TrainConfig(rank=RANK, epochs=LATTICE_EPOCHS, lr=0.02, **settings))
              for kind, settings in models]
    call = (LATTICE, models, sets, seeds)
    sides = {
        "serial": lambda: fit_batch_on(1, call),
        "per_kind": lambda: [loss for model in models
                             for loss in fit_batch_on(cpus, (LATTICE, [model], sets, seeds))],
        "pooled": lambda: fit_batch_on(cpus, call),
    }
    entry = {"name": "lattice_mixed", "batches": 2, "fits": len(sets) * 2, "epochs": LATTICE_EPOCHS,
             "rows": [sum(LATTICE_SETS) * 3, sum(LATTICE_SETS)], "workers": min(2, cpus)}
    entries.append((entry, call, sides))

    times = [{side: [] for side in sides} for _, _, sides in entries]
    for _ in range(rounds):
        for (entry, _, sides), spent in zip(entries, times):
            losses = []
            for side, run in sides.items():
                start = time.perf_counter()
                losses.append(run())
                spent[side].append((time.perf_counter() - start) * 1e3)
            if any(other != losses[0] for other in losses[1:]):
                raise AssertionError(f"{entry['name']}: final losses differ between sides")
    table = []
    for (entry, call, _), spent in zip(entries, times):
        ms = {f"{side}_ms": round(statistics.median(t), 2) for side, t in spent.items()}
        table.append({**entry, "est_work_ms": round(estimated_work_ms(call), 2), **ms,
                      "speedup": round(ms["serial_ms"] / ms["pooled_ms"], 3)})
    return table


def us_per_call(call, rounds, round_s):
    """The medians over `rounds` rounds of us and of minor page faults per
    call, each round repeating `call` for at least `round_s` seconds, after
    one warm-up call."""
    call()
    us, faults = [], []
    for _ in range(rounds):
        calls, faults_start, start = 0, minor_faults(), time.perf_counter()
        while not calls or time.perf_counter() - start < round_s:
            call()
            calls += 1
        us.append((time.perf_counter() - start) / calls * 1e6)
        faults.append((minor_faults() - faults_start) / calls)
    return statistics.median(us), statistics.median(faults)


def bench_fms(rounds, rng):
    """us per `fms` call at each FMS_RANKS rank on the lattice shape, the
    median of `rounds` rounds of at least FMS_ROUND_S seconds each."""
    table = []
    for rank in FMS_RANKS:
        a, b = (FactorSet([rng.normal(size=(s, rank)) for s in LATTICE]) for _ in range(2))
        us, _ = us_per_call(lambda: fms(a, b), rounds, FMS_ROUND_S)
        table.append({"rank": rank, "shape": list(LATTICE), "us_per_call": round(us, 2)})
    return table


def grid_records(obs):
    """One ingest record per cell of `obs`: axis 0's index as a label, the
    other axes' as floats, and the cell's value as `y` (no random draws)."""
    names = [a.name for a in obs.space.axes]
    kinds = {name: CATEGORICAL if m == 0 else ORDINAL for m, name in enumerate(names)}
    records = [{**dict(zip(names, map(float, cell))), names[0]: f"g{cell[0]}", "y": y}
               for cell, y in zip(obs.indices.tolist(), obs.values.tolist())]
    return records, names, kinds


def bench_io(rounds, rng, work_dir):
    """us per row and minor page faults per call of the index-CSV reader,
    writer and dataset loader, of the two ingest calls and of a cpd and a
    costco model's predict, on the full grid of each IO_SHAPES shape, with
    files under `work_dir`."""
    table = []
    for shape in IO_SHAPES:
        obs = observations(shape, int(np.prod(shape)), rng)
        space, n = obs.space, obs.n
        cfg = optim.TrainConfig(rank=RANK)  # serve_cli's rank and CoSTCo head sizes
        models = {kind: optim.MODEL_KINDS[kind](shape, cfg) for kind in ("cpd", "costco")}
        models = {kind: engine.model(dict(zip(dict(engine.layout), engine.init(0))), space, None)
                  for kind, engine in models.items()}
        path = Path(work_dir) / "grid.csv"
        write_index_csv(path, space, obs.indices, obs.values, "prediction")
        write_dataset(obs, Path(work_dir) / "dataset")
        records, names, kinds = grid_records(obs)
        ingested = build_design_space(records, names, "y", kinds)
        calls = {
            "read_index_csv": lambda: read_index_csv(path, space),
            "read_index_csv_value": lambda: read_index_csv(path, space, "prediction"),
            "write_index_csv": lambda: write_index_csv(path, space, obs.indices, obs.values,
                                                       "prediction"),
            "load_dataset": lambda: load_dataset(Path(work_dir) / "dataset"),
            "build_design_space": lambda: build_design_space(records, names, "y", kinds),
            "encode_observations": lambda: encode_observations(records, ingested),
            "predict_cpd": lambda: models["cpd"].predict(obs.indices),
            "predict_costco": lambda: models["costco"].predict(obs.indices),
        }
        for name, call in calls.items():
            us, faults = us_per_call(call, rounds, IO_ROUND_S)
            table.append({"call": name, "shape": list(shape), "rows": n,
                          "us_per_row": round(us / n, 3), "ms_per_call": round(us / 1e3, 3),
                          "minor_faults_per_call": round(faults, 1)})
    return table


# Reads one JSON `[argv, env]` per line, spawns it and answers with its wall
# seconds, exit code and max RSS in KiB. A child's max RSS also counts what
# its spawner held when it exec'd, so this bare interpreter spawns the
# cold-start commands rather than the bench with numpy loaded.
LAUNCHER = """
import json, os, sys, time
for line in sys.stdin:
    argv, env = json.loads(line)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    print(json.dumps([seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


def bench_coldstart(rounds, rng, work_dir):
    """Median wall ms and largest max RSS of each cold-start command over
    `rounds` rounds, on CPD models saved under `work_dir`."""
    work_dir = Path(work_dir)
    obs = observations(LATTICE, COLDSTART_CELLS, rng)
    models = []
    for seed in (0, 1):
        cfg = optim.TrainConfig(rank=RANK, epochs=COLDSTART_EPOCHS, lr=0.02, seed=seed)
        model, _ = optim.fit(LATTICE, obs, cfg, "cpd")
        models.append(str(work_dir / f"cpd_{seed}.json"))
        save_model(model, models[-1])
    cells = work_dir / "cells.csv"
    write_index_csv(cells, obs.space, obs.indices, obs.values)
    python = sys.executable
    commands = {
        "import tenfit.cli": [python, "-c", "import tenfit.cli"],
        "tenfit predict": [python, "-c", RUN_CLI, "predict", "--model", models[0],
                           "--indices", str(cells), "--out", str(work_dir / "preds.csv")],
        "tenfit fms": [python, "-c", RUN_CLI, "fms", "--a", models[0], "--b", models[1],
                       "--out", str(work_dir / "fms.json")],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    usage = {name: [] for name in commands}
    launcher = subprocess.Popen([python, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
    with launcher:
        for _ in range(rounds):
            for name, argv in commands.items():
                launcher.stdin.write(json.dumps([argv, env]) + "\n")
                launcher.stdin.flush()
                seconds, code, kib = json.loads(launcher.stdout.readline())
                if code:
                    raise RuntimeError(f"{name} exited {code}; its stderr is above")
                usage[name].append((seconds, kib / 1024))
    return [{"command": name, "rounds": rounds,
             "wall_ms": round(statistics.median(s for s, _ in runs) * 1e3, 1),
             "max_rss_mb": round(max(mb for _, mb in runs), 1)}
            for name, runs in usage.items()]


TABLES = ("objective", "batch", "parallel", "fms", "io", "coldstart")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout only)")
    parser.add_argument("--tables", nargs="+", choices=TABLES, default=list(TABLES),
                        help="the tables to run, in their fixed order (default: all six)")
    parser.add_argument("--calls", type=int, default=200, help="objective calls per round")
    parser.add_argument("--rounds", type=int, default=7, help="objective rounds per case")
    parser.add_argument("--batch-rounds", type=int, default=16, help="train_batch rounds")
    parser.add_argument("--epochs", type=int, default=80, help="epochs per train_batch call")
    parser.add_argument("--parallel-rounds", type=int, default=9,
                        help="serial/pooled rounds of the parallel table")
    args = parser.parse_args(argv)

    def rng(table):
        # each table's own generator, seeded with its position in TABLES, so
        # its data do not depend on the tables run with it
        return np.random.default_rng(TABLES.index(table))

    result = {"environment": environment()}
    if "objective" in args.tables:
        result["objective"] = {}
        objective_rng = rng("objective")
        for name, kind, shape, n, n_fits, grad in OBJECTIVE_CASES:
            entry = bench_objective(kind, shape, n, n_fits, grad, args.calls, args.rounds,
                                    objective_rng)
            result["objective"][name] = {"kind": kind, "fits": n_fits, "grad": grad, **entry}
            print(name, entry, file=sys.stderr)
    tables = {
        "batch": lambda work_dir: bench_batch(args.batch_rounds, args.epochs, rng("batch")),
        "parallel": lambda work_dir: bench_parallel(args.parallel_rounds, rng("parallel")),
        "fms": lambda work_dir: bench_fms(args.rounds, rng("fms")),
        "io": lambda work_dir: bench_io(args.rounds, rng("io"), work_dir),
        "coldstart": lambda work_dir: bench_coldstart(args.rounds, rng("coldstart"), work_dir),
    }
    with tempfile.TemporaryDirectory() as work_dir:
        for table, run in tables.items():
            if table in args.tables:
                result[table] = run(work_dir)
                for entry in result[table]:
                    print(entry, file=sys.stderr)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
