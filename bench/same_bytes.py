"""Do two source trees write the same bytes? Runs the same jobs on a base
revision's `src/` and on the working tree's `src/` and compares every file
they write.

    python3 bench/same_bytes.py --base HEAD~1             # seeds 0 and 1
    python3 bench/same_bytes.py --base HEAD~1 --seeds 0-3
    python3 bench/same_bytes.py --base path/to/src
    python3 bench/same_bytes.py --base HEAD --env OPENBLAS_CORETYPE=Prescott

Run it from anywhere in the repository. `--base` is a git revision, whose
`src/`, `perfbench/` and `tests/` are extracted with `git archive` (no
network) into a temporary directory, or a directory that holds a copy of a
`src/` tree (its `tenfit/` package), used as it is. Each job runs in a child
process per side and seed, with only that side's `src/` on the import path
and one BLAS thread. A child imports the workloads and `test_outputs` from
the `perfbench/` and `tests/` beside its `src/`; a directory `--base`
without both beside it uses the working tree's. So each side runs its own
copies when a change edits them. The jobs:

- `experiment_lattice`, `sweep_ood`, `experiment_large`, `serve_cli`: the
  benchmark workload's `setup()` and one `op()`, from `perfbench/`, which is
  imported and never written;
- `digest`: `tests/test_outputs.py`'s pinned experiment and sweep (its
  seeds are fixed, so it runs once, not per seed);
- `fit`: `tenfit fit` for cpd, cpd_s (on the ordinal axes, and on
  `--smooth-modes` named out of order with a repeat), costco and an
  early-stopped cpd on the lattice-shaped benchmark data of the seed.

`--env KEY=VALUE` (repeatable) sets a variable in the working tree's
children only, so a tree can be compared with itself under, say, another
BLAS kernel. It prints every file that differs or that only one side wrote,
and exits 1 on any difference or failed job. A `.report.json` file is
compared without its `seconds` key, the wall time of the fit; every other
byte counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiment_lattice", "sweep_ood", "experiment_large", "serve_cli")
JOBS = (*WORKLOADS, "digest", "fit")
FITS = {  # the `tenfit fit` runs of the fit job: output name -> flags
    "cpd": ["--model", "cpd", "--rank", "3", "--epochs", "200", "--lr", "0.02",
            "--restarts", "2"],
    "cpd_s": ["--model", "cpd_s", "--rank", "3", "--epochs", "200", "--lr", "0.02",
              "--lambda-smooth", "0.002"],
    "cpd_s_modes": ["--model", "cpd_s", "--rank", "3", "--epochs", "200", "--lr", "0.02",
                    "--smooth-modes", "uz,thickness,uz"],  # saved sorted, each once
    "costco": ["--model", "costco", "--rank", "3", "--epochs", "20", "--lr", "0.02"],
    "cpd_early": ["--model", "cpd", "--rank", "3", "--epochs", "400", "--lr", "0.03",
                  "--patience", "20", "--val-fraction", "0.2"],
}


def run_job(job: str, seed: int, out: Path, src: Path) -> None:
    """Write the files of one job at one seed under `out` (in the child),
    with `perfbench/` and `tests/` from the tree that holds `src`, or from
    the working tree when either is missing there."""
    own = src.parent
    tree = own if all((own / name).is_dir() for name in ("perfbench", "tests")) else ROOT
    sys.path[1:1] = [str(tree / "perfbench"), str(tree / "tests")]
    if job == "digest":
        from test_outputs import output_digests

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the diverging fit's overflow
            output_digests(out)
        return
    import workloads

    if job in WORKLOADS:
        workload = workloads.WORKLOADS[job](out, seed)
        workload.setup()
        workload.op()
        return
    from tenfit import cli

    workloads.ingest(workloads.make_records(workloads.LATTICE_SHAPE, seed), out / "ds")
    for name, flags in FITS.items():
        argv = ["fit", "--obs", str(out / "ds"), *flags, "--seed", str(seed),
                "--out", str(out / f"{name}.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"tenfit {' '.join(argv)} exited 1")


def base_src(base: str, scratch: Path) -> Path:
    """The `src/` tree of `base`: a directory holding `tenfit/`, or the
    `src/` of a git revision, extracted under `scratch` with its
    `perfbench/` and `tests/`."""
    if (Path(base) / "tenfit").is_dir():
        return Path(base).resolve()
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base, "src",
                          "perfbench", "tests"], capture_output=True)
    if git.returncode != 0:
        raise SystemExit(f"git archive {base}: {git.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
        # the "data" filter is in 3.12 and later 3.10/3.11 releases only
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(scratch, **safe)
    return scratch / "src"


def run_side(src: Path, jobs, seeds, out: Path, extra_env=()) -> list[str]:
    """Run every job at every seed on `src`, each in a child process whose
    environment also holds the `(key, value)` pairs of `extra_env`, and
    return the error of each job that failed."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    env.update(extra_env)
    failed = []
    for job in jobs:
        for seed in seeds[:1] if job == "digest" else seeds:
            target = out / job / f"seed{seed}"
            target.mkdir(parents=True)
            proc = subprocess.run([sys.executable, __file__, "--base", str(src), "--child", job,
                                   str(seed), str(target)], env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or ["(no output)"]
                failed.append(f"{job} seed {seed} on {src}: {lines[-1]}")
    return failed


def comparable(path: Path) -> bytes:
    """The bytes of a written file, less a report's `seconds` key."""
    data = path.read_bytes()
    if path.name.endswith(".report.json"):
        report = json.loads(data)
        report.pop("seconds", None)
        return json.dumps(report, sort_keys=True).encode()
    return data


def compare(base: Path, head: Path) -> tuple[int, list[str]]:
    """The number of files either side wrote, and a line for each that
    differs or that one side alone wrote."""
    files = {side: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for side, root in (("base", base), ("head", head))}
    lines = []
    for name in sorted(files["base"] | files["head"]):
        if name not in files["head"]:
            lines.append(f"only in base: {name}")
        elif name not in files["base"]:
            lines.append(f"only in head: {name}")
        elif comparable(base / name) != comparable(head / name):
            lines.append(f"differs: {name}")
    return len(files["base"] | files["head"]), lines


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def env_pair(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not key or not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VALUE")
    return key, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision, or a directory holding a copy of src/")
    parser.add_argument("--seeds", type=seed_range, default="0-1",
                        help="seeds, as 0-1 or 3 (default: 0-1)")
    parser.add_argument("--env", type=env_pair, action="append", default=[],
                        metavar="KEY=VALUE", help="set a variable on the working tree's "
                        "side only (repeatable)")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)  # JOB SEED OUT, on --base
    args = parser.parse_args(argv)
    if args.child:
        job, seed, out = args.child
        import tenfit

        if not Path(tenfit.__file__).resolve().is_relative_to(Path(args.base).resolve()):
            raise SystemExit(f"imported {tenfit.__file__}, not the tree under {args.base}")
        run_job(job, int(seed), Path(out), Path(args.base))
        return 0

    with tempfile.TemporaryDirectory(prefix="same_bytes_") as scratch:
        scratch = Path(scratch)
        sides = {"base": base_src(args.base, scratch), "head": ROOT / "src"}
        failed = []
        for side, src in sides.items():
            extra_env = args.env if side == "head" else ()
            failed += run_side(src, JOBS, args.seeds, scratch / side, extra_env)
        total, lines = compare(scratch / "base", scratch / "head")
    for line in failed + lines:
        print(line)
    verdict = "FAILED" if failed else f"{total - len(lines)}/{total} files identical"
    print(f"same_bytes: {verdict} (seeds {args.seeds})")
    return 1 if failed or lines else 0


if __name__ == "__main__":
    sys.exit(main())
