"""tenfit benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload experiment_lattice --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 22 --trace 0

Run it from the repository root; it imports tenfit from ./src and writes
only under ./.perfbench_run. A run warms up (imports, a first small fit of
each model kind), sets up several times and reports the median as setup_s,
then repeats the workload's operation until --seconds of operation time have
been measured, checking every operation's outputs. The last stdout line is
one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off. With --trace 1 the run sets up once with spans recorded, measures half
the time untraced and half traced, writes the spans as JSONL and reports the
per-layer metrics (see spans.PER_LAYER).

End-to-end metrics, per workload. An operation is one run_experiment call
(experiment_*), one run_sweep call (sweep_ood) or one round of eight CLI
calls (serve_cli); a query is one entry-point call (run_experiment,
run_sweep or tenfit.cli.main).
    wall_s                 mean seconds per operation (operation time over
                           operations: a mean follows the host's slow and
                           fast spells more smoothly than a median does)
    setup_s                median seconds of one set-up (data generation,
                           ingest, and for serve_cli fitting and saving models)
    peak_rss_mb            peak resident set size of the process
    query_ms_p50/p95       latency of one query
    predicted_cells_per_s  cells predicted per second of operation time
Printed but not in the JSON, because the result line may hold only metrics
that every workload has, that are never 0 and that are steady across seeds:
    failed_frac            failed operations over attempted ones (0 on a
                           good run)
    fits_per_s             fits completed per second of operation time, on
                           the training workloads (serve_cli fits only in
                           set-up)
    test_mae               median of the run's aggregated test MAEs in
                           normalized units (sweep_ood: out-of-region rows;
                           serve_cli: `tenfit evaluate`); it depends on the
                           seed's data and splits, and its spread across
                           seeds (0.27 of the median on sweep_ood) is above
                           the largest bound a metric may have
    fms_mean               uniform-vs-biased (experiment_lattice) or cpd-vs-
                           cpd_s (serve_cli) factor match score
test_mae and fms_mean are checked on every operation.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: the fits are small, and a
# second BLAS thread made them slower, not faster, on a 2-core box.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
# Set up at least SETUP_REPEATS times and until SETUP_MIN_S have been spent
# (at most SETUP_MAX_REPEATS times), so a set-up of a few ms still gives a
# steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "predicted_cells_per_s": "1/s",
}
NAMES = ("experiment_lattice", "sweep_ood", "experiment_large", "serve_cli")


def import_tenfit():
    if not (SRC / "tenfit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tenfit sources under {SRC}; run from a tenfit checkout")
    sys.path.insert(0, str(SRC))
    import tenfit

    if Path(tenfit.__file__).resolve().parent != SRC / "tenfit":
        sys.exit(f"perfbench: imported tenfit from {tenfit.__file__}, not from {SRC}")


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
    }


def warm_up():
    """Untimed first calls: imports, einsum paths, one small fit per kind."""
    import numpy as np
    from tenfit import core, optim

    space = core.DesignSpace.from_shape((3, 2, 2, 2, 2))
    rng = np.random.default_rng(0)
    indices = np.indices(space.shape()).reshape(5, -1).T
    obs = core.ObservationSet(space, indices, rng.uniform(size=len(indices)),
                              core.Normalizer(0.0, 1.0))
    for kind in ("cpd", "cpd_s", "costco"):
        model, _ = optim.fit(space.shape(), obs, optim.TrainConfig(rank=2, epochs=5), kind)
        model.predict(indices)


def measure(workload, seconds):
    """Repeat the operation until `seconds` of operation time are measured."""
    results, attempted, failed, spent = [], 0, 0, 0.0
    while spent < seconds:
        attempted += 1
        try:
            result = workload.op()
        except Exception:
            traceback.print_exc()
            failed += 1
            spent += 1.0  # a failing operation must still end the loop
            continue
        spent += sum(result.latencies_s)
        results.append(result)
        if result.errors:
            failed += 1
            for error in result.errors:
                print(f"check failed: {error}", file=sys.stderr)
    return results, attempted, failed


def end_to_end(workload, results, setup_times, attempted, failed):
    op_s = [sum(r.latencies_s) for r in results]
    queries_ms = sorted(1e3 * s for r in results for s in r.latencies_s)
    total = sum(op_s)
    values = {
        "wall_s": total / len(op_s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_ms_p50": statistics.median(queries_ms),
        "query_ms_p95": statistics.quantiles(queries_ms, n=20, method="inclusive")[-1]
        if len(queries_ms) > 1 else queries_ms[0],
        "predicted_cells_per_s": sum(r.cells for r in results) / total,
    }
    extra = {
        "failed_frac": failed / attempted,
        "test_mae": workload.quality["test_mae"],
        "operations": len(results),
        "queries": len(queries_ms),
        "op_s": [round(s, 4) for s in op_s],
    }
    fits = sum(r.fits for r in results)
    if fits:
        extra["fits_per_s"] = fits / total
    if "fms_mean" in workload.quality:
        extra["fms_mean"] = workload.quality["fms_mean"]
    return values, extra


def run_one(name, seed, seconds, trace):
    import_tenfit()
    import workloads
    import spans

    env = environment()
    work = RUN_DIR / f"{name}-seed{seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](work, seed)
    start = time.perf_counter()
    warm_up()
    warmup_s = time.perf_counter() - start

    tracer = spans.Tracer() if trace else None
    setup_times = []
    while not setup_times or not trace and (
        len(setup_times) < SETUP_REPEATS
        or sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        if tracer:
            tracer.install()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()

    if tracer:
        untraced, attempted, failed = measure(workload, seconds / 2)
        tracer.phase = "timed"
        tracer.install()
        try:
            traced, a2, f2 = measure(workload, seconds / 2)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + a2, failed + f2
        results = untraced + traced
    else:
        results, attempted, failed = measure(workload, seconds)

    correct = failed == 0 and bool(results)
    metrics, extra = {}, {"warmup_s": warmup_s}
    if results:
        if tracer:
            wall = [statistics.median(sum(r.latencies_s) for r in rs) for rs in (untraced, traced)]
            values, layer_self = spans.per_layer_metrics(
                tracer.spans, len(traced), sum(sum(r.latencies_s) for r in traced), *wall)
            units = spans.PER_LAYER
            trace_path = RUN_DIR / f"trace-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            extra["trace_file"] = str(trace_path.relative_to(ROOT))
            extra["layer_self_s"] = layer_self
        else:
            values, more = end_to_end(workload, results, setup_times, attempted, failed)
            units = END_TO_END
            extra.update(more)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": name, "seed": seed, "env": env, **extra}))
    for key, metric in metrics.items():
        print(f"{name:20s} {key:32s} {metric['value']:14.6g} {metric['unit']}")
    for key, unit in (("failed_frac", "1"), ("fits_per_s", "1/s"), ("test_mae", "1"),
                      ("fms_mean", "1")):
        if key in extra:
            print(f"{name:20s} {key:32s} {extra[key]:14.6g} {unit}")
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS and state stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
