"""Layer bench: the CPD and CoSTCo objectives per call, training cost per
fit-epoch at growing batch sizes, batches trained serially against in
worker processes, and the factor match score per call.

    python3 bench/kernels.py --out results.json

Run it from the repository root; it imports tenfit from ./src. Four tables:

- `objective`: the training objective of a model kind's trainable
  (`cpd.masked_objective`, `neural._masked_objective`) at the sizes the
  benchmark workloads train (experiment_large's 3,456-row fit, serve_cli's
  3,840-row set-up fits, experiment_large's 384-row validation pass, the
  lattice's cpd and cpd_s batches and the OOD sweep's cpd and costco
  batches). Each entry gives the median over rounds of the us per call and
  of the minor page faults per call (`resource.getrusage`), measured over a
  fixed number of calls.
- `batch`: `optim.train_batch` on B same-size fits, in us per fit-epoch
  and per row-epoch (the best of several rounds), for CPD, CPD-S and
  CoSTCo; these measurements set `optim.MAX_BATCH_ROWS`,
  `neural.COSTCO_MAX_BATCH_ROWS` and each kind's cost per row-epoch
  (`cpd.CPD_ROW_EPOCH_US`, `cpd.CPD_S_ROW_EPOCH_US`,
  `neural.COSTCO_ROW_EPOCH_US`).
- `parallel`: `optim.train_fits` calls, medians over rounds in ms per call,
  each with the call's estimated work (`est_work_ms`, the engine's own
  estimate). The sides of an entry alternate within each round, so a slow
  spell of the host hits them alike, and must give equal final losses.
  - 1 to 4 CoSTCo batches of 2 fits at the OOD sweep's sizes and epochs,
    and the first two of them at fewer epochs (`startup` at one epoch,
    `break_even_<epochs>`): trained one after another in this process
    (`serial_ms`), as `train_fits` chooses with every usable CPU
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
  0.1 s.

BLAS/OpenMP threads are pinned to 1, as in perfbench. The output records
the Python, numpy and BLAS versions, nproc and the git commit.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, as perfbench does.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tenfit import optim  # noqa: E402
from tenfit.core import DesignSpace, Normalizer, ObservationSet  # noqa: E402
from tenfit.cpd import FactorSet  # noqa: E402
from tenfit.metrics import fms  # noqa: E402

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
# out) splits of the 270-cell lattice, 3 iterations each
LATTICE_SETS = (216, 84) * 3

FMS_RANKS = (3, 5, 7, 8)
FMS_ROUND_S = 0.1

# kind, shape, rows per fit, batch sizes
BATCH_CASES = [
    ("cpd", LATTICE, 216, (1, 9, 12, 16, 20, 24, 28, 31)),
    ("cpd", LARGE, 768, (1, 3, 5, 6, 7, 9)),
    ("cpd", LARGE, 1000, (1, 2, 3, 4, 6)),
    ("cpd", LARGE, 3456, (1, 2)),
    ("cpd_s", LATTICE, 216, (1, 3, 9, 12, 20)),
    ("cpd_s", LATTICE, 84, (3, 9, 27)),
    ("costco", LATTICE, 154, (1, 2, 3, 4, 5, 6)),
    ("costco", LATTICE, 74, (1, 4, 6, 8, 10, 12)),
    ("costco", LATTICE, 40, (1, 8, 12, 15, 20)),
]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
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
    weight 0.1) over n_fits sets of n rows, at seeded initial parameters."""
    cfg = optim.TrainConfig(rank=RANK, smooth_weight=0.1, smooth_modes=tuple(range(len(shape))))
    engine = trainable(kind, shape, cfg)
    objective = engine.objective([observations(shape, n, rng) for _ in range(n_fits)])
    params = [np.stack(arrays) for arrays in zip(*map(engine.init, range(n_fits)))]
    for _ in range(calls):  # warm up
        objective(params, grad=grad)
    us, faults = [], []
    for _ in range(rounds):
        faults_start, start = minor_faults(), time.perf_counter()
        for _ in range(calls):
            objective(params, grad=grad)
        us.append((time.perf_counter() - start) / calls * 1e6)
        faults.append((minor_faults() - faults_start) / calls)
    return {
        "rows": n * n_fits,
        "us_per_call": round(statistics.median(us), 2),
        "minor_faults_per_call": round(statistics.median(faults), 2),
    }


def trainable(kind, shape, cfg):
    return optim.MODEL_KINDS[kind][1](shape, cfg)


def bench_batch(rounds, epochs, rng):
    """us per fit-epoch of every BATCH_CASES entry, the best of `rounds`;
    each round runs every entry once, so a slow spell of the host hits all
    of them alike."""
    entries = []
    for kind, shape, n, sizes in BATCH_CASES:
        cfg = optim.TrainConfig(rank=RANK, epochs=epochs, lr=0.01)
        engine = trainable(kind, shape, cfg)
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


def train_fits_on(cpus, groups, min_work=None):
    """`optim.train_fits` as it runs with `cpus` usable CPUs and, when
    given, a pool threshold of `min_work` us; returns the final losses."""
    saved = optim._usable_cpus, optim.POOL_MIN_WORK_US
    optim._usable_cpus = lambda: cpus
    if min_work is not None:
        optim.POOL_MIN_WORK_US = min_work
    try:
        outcomes = optim.train_fits(groups)
    finally:
        optim._usable_cpus, optim.POOL_MIN_WORK_US = saved
    return [report.final_loss for group in outcomes for _, report in group]


def estimated_work_ms(groups):
    """The engine's estimate of a call's work: rows x restarts x epochs x
    the kind's cost per row-epoch."""
    return sum(sum(s.n for s in sets) * cfg.restarts * cfg.epochs * engine.row_epoch_us
               for engine, sets, _, cfg in groups) / 1e3


def bench_parallel(rounds, rng):
    """ms per `train_fits` call of each entry's sides (median of `rounds`);
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
        groups = [(trainable("costco", LATTICE, cfg), sets, list(range(len(sets))), cfg)]
        sides = {
            "serial": lambda groups=groups: train_fits_on(1, groups),
            "pooled": lambda groups=groups: train_fits_on(cpus, groups),
            "forked": lambda groups=groups: train_fits_on(cpus, groups, min_work=0),
        }
        entry = {"name": name, "batches": n_batches, "fits": len(sets), "epochs": epochs,
                 "rows": [s.n for s in sets[::PARALLEL_FITS]],
                 "workers": min(n_batches, cpus)}
        entries.append((entry, groups, sides))
    sets = [observations(LATTICE, n, rng) for n in LATTICE_SETS]
    seeds = [it for it in range(3) for _ in range(2)]
    models = [("cpd", dict(restarts=3)),
              ("cpd_s", dict(smooth_weight=0.002, smooth_modes=(1, 2, 3, 4)))]
    groups = []
    for kind, settings in models:
        cfg = optim.TrainConfig(rank=RANK, epochs=500, lr=0.02, **settings)
        groups.append((trainable(kind, LATTICE, cfg), sets, seeds, cfg))
    sides = {
        "serial": lambda: train_fits_on(1, groups),
        "per_kind": lambda: [loss for group in groups for loss in train_fits_on(cpus, [group])],
        "pooled": lambda: train_fits_on(cpus, groups),
    }
    entry = {"name": "lattice_mixed", "batches": 2, "fits": len(sets) * 2, "epochs": 500,
             "rows": [sum(LATTICE_SETS) * 3, sum(LATTICE_SETS)], "workers": min(2, cpus)}
    entries.append((entry, groups, sides))

    times = [{side: [] for side in sides} for _, _, sides in entries]
    for _ in range(rounds):
        for (entry, _, sides), spent in zip(entries, times):
            losses = []
            for side, call in sides.items():
                start = time.perf_counter()
                losses.append(call())
                spent[side].append((time.perf_counter() - start) * 1e3)
            if any(other != losses[0] for other in losses[1:]):
                raise AssertionError(f"{entry['name']}: final losses differ between sides")
    table = []
    for (entry, groups, _), spent in zip(entries, times):
        ms = {f"{side}_ms": round(statistics.median(t), 2) for side, t in spent.items()}
        table.append({**entry, "est_work_ms": round(estimated_work_ms(groups), 2), **ms,
                      "speedup": round(ms["serial_ms"] / ms["pooled_ms"], 3)})
    return table


def bench_fms(rounds, rng):
    """us per `fms` call at each FMS_RANKS rank on the lattice shape, the
    median of `rounds` rounds of at least FMS_ROUND_S seconds each."""
    table = []
    for rank in FMS_RANKS:
        a, b = (FactorSet([rng.normal(size=(s, rank)) for s in LATTICE]) for _ in range(2))
        fms(a, b)  # warm up
        us = []
        for _ in range(rounds):
            calls, start = 0, time.perf_counter()
            while not calls or time.perf_counter() - start < FMS_ROUND_S:
                fms(a, b)
                calls += 1
            us.append((time.perf_counter() - start) / calls * 1e6)
        table.append({"rank": rank, "shape": list(LATTICE),
                      "us_per_call": round(statistics.median(us), 2)})
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout only)")
    parser.add_argument("--calls", type=int, default=200, help="objective calls per round")
    parser.add_argument("--rounds", type=int, default=7, help="objective rounds per case")
    parser.add_argument("--batch-rounds", type=int, default=16, help="train_batch rounds")
    parser.add_argument("--epochs", type=int, default=80, help="epochs per train_batch call")
    parser.add_argument("--parallel-rounds", type=int, default=9,
                        help="serial/pooled rounds of the parallel table")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    result = {"environment": environment(), "objective": {}}
    for name, kind, shape, n, n_fits, grad in OBJECTIVE_CASES:
        entry = bench_objective(kind, shape, n, n_fits, grad, args.calls, args.rounds, rng)
        result["objective"][name] = {"kind": kind, "fits": n_fits, "grad": grad, **entry}
        print(name, entry, file=sys.stderr)
    result["batch"] = bench_batch(args.batch_rounds, args.epochs, rng)
    for entry in result["batch"]:
        print(entry, file=sys.stderr)
    result["parallel"] = bench_parallel(args.parallel_rounds, rng)
    for entry in result["parallel"]:
        print(entry, file=sys.stderr)
    result["fms"] = bench_fms(args.rounds, rng)
    for entry in result["fms"]:
        print(entry, file=sys.stderr)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
