"""Sampling protocols, error disaggregation, and experiment orchestration.

Two sampling protocols are supported: a uniform train/test split and a
biased one that draws heavily from an axis-aligned region of a 2-axis
projection and sparsely from the rest. The experiment runner and the OOD
sweep share one split -> fit loop over iterations and model specs and then
score on held-out rows (the sweep on those outside the region only); the
runner aggregates mean +/- population std and exports factor analyses and
grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DesignSpace, Normalizer, ObservationSet
from .cpd import CPDModel
from .errors import ContractError, SplitError, StratumExhaustedError, TenfitError
from .metrics import component_expression_export, fms, regression_metrics
from .modelio import load_dataset
from .optim import MODEL_KINDS, TrainConfig, fit_batch


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned rectangle in the projection onto two named axes,
    expressed as inclusive index intervals."""

    axis_a: str
    axis_b: str
    a_range: tuple[int, int]
    b_range: tuple[int, int]

    def __post_init__(self):
        if self.axis_a == self.axis_b:
            raise ContractError("region axes must be distinct")
        for name, (lo, hi) in (("a", self.a_range), ("b", self.b_range)):
            if lo < 0 or hi < lo:
                raise ContractError(f"region {name}_range ({lo}, {hi}) is empty or negative")

    def validate(self, space: DesignSpace) -> None:
        for name, (lo, hi) in ((self.axis_a, self.a_range), (self.axis_b, self.b_range)):
            size = space.axes[space.axis_position(name)].size
            if hi >= size:
                raise ContractError(
                    f"region interval ({lo}, {hi}) exceeds axis {name!r} of size {size}"
                )

    def mask(self, obs: ObservationSet) -> np.ndarray:
        """Per-row boolean: does the observation project into the region?"""
        ia = obs.space.axis_position(self.axis_a)
        ib = obs.space.axis_position(self.axis_b)
        a = obs.indices[:, ia]
        b = obs.indices[:, ib]
        return (
            (a >= self.a_range[0])
            & (a <= self.a_range[1])
            & (b >= self.b_range[0])
            & (b <= self.b_range[1])
        )

    def to_json(self) -> dict:
        return {
            "axis_a": self.axis_a,
            "axis_b": self.axis_b,
            "a_range": list(self.a_range),
            "b_range": list(self.b_range),
        }


def region_from_values(
    space: DesignSpace, axis_a: str, axis_b: str, a_values, b_values
) -> RegionSpec:
    """Build a RegionSpec from (lo, hi) axis-value labels instead of indices."""
    ax_a = space.axes[space.axis_position(axis_a)]
    ax_b = space.axes[space.axis_position(axis_b)]
    a_range = (ax_a.index_of(a_values[0]), ax_a.index_of(a_values[1]))
    b_range = (ax_b.index_of(b_values[0]), ax_b.index_of(b_values[1]))
    return RegionSpec(axis_a=axis_a, axis_b=axis_b, a_range=a_range, b_range=b_range)


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform or biased training-data draw, repeated over iterations."""

    kind: str
    fraction: float | None = None
    region: RegionSpec | None = None
    n_in: int | None = None
    n_out: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind == "uniform":
            if self.fraction is None or not 0 < self.fraction < 1:
                raise ContractError("uniform plan needs a train fraction in (0, 1)")
        elif self.kind == "biased":
            if self.region is None or self.n_in is None or self.n_out is None:
                raise ContractError("biased plan needs region, n_in, and n_out")
            if self.n_in < 0 or self.n_out < 0:
                raise ContractError("stratum counts must be non-negative")
        else:
            raise ContractError(f"unknown plan kind {self.kind!r}")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)


def uniform_split(obs: ObservationSet, fraction: float, seed: int):
    """Disjoint exhaustive partition with |train| = round(fraction * n);
    deterministic per seed and independent of the input row order."""
    if not 0 < fraction < 1:
        raise ContractError("train fraction must lie in (0, 1)")
    if obs.n < 2:
        raise SplitError("need at least two observations to split")
    n_train = int(np.floor(fraction * obs.n + 0.5))
    if n_train < 1 or n_train >= obs.n:
        raise SplitError(
            f"fraction {fraction} leaves an empty side for n={obs.n}"
        )
    canon = obs.canonical_order()
    perm = np.random.default_rng(seed).permutation(obs.n)
    train_pos = np.sort(perm[:n_train])
    test_pos = np.sort(perm[n_train:])
    return canon.take(train_pos), canon.take(test_pos)


def biased_split(
    obs: ObservationSet, region: RegionSpec, n_in: int, n_out: int, seed: int
):
    """Training set = n_in draws from the region + n_out from its complement
    (without replacement); test set = everything else."""
    region.validate(obs.space)
    if n_in < 0 or n_out < 0:
        raise ContractError("stratum counts must be non-negative")
    canon = obs.canonical_order()
    in_region = region.mask(canon)
    in_pos = np.flatnonzero(in_region)
    out_pos = np.flatnonzero(~in_region)
    if n_in > in_pos.size:
        raise StratumExhaustedError(
            f"in-region stratum has {in_pos.size} observations, requested {n_in}"
        )
    if n_out > out_pos.size:
        raise StratumExhaustedError(
            f"out-of-region stratum has {out_pos.size} observations, requested {n_out}"
        )
    rng = np.random.default_rng(seed)
    picked_in = rng.choice(in_pos, size=n_in, replace=False) if n_in else np.empty(0, int)
    picked_out = rng.choice(out_pos, size=n_out, replace=False) if n_out else np.empty(0, int)
    train_pos = np.sort(np.concatenate([picked_in, picked_out]).astype(np.int64))
    test_pos = np.setdiff1d(np.arange(canon.n), train_pos)
    if train_pos.size == 0 or test_pos.size == 0:
        raise SplitError("biased split left an empty side")
    return canon.take(train_pos), canon.take(test_pos)


def split_plan(plan: SamplingPlan, obs: ObservationSet, seed: int):
    if plan.kind == "uniform":
        return uniform_split(obs, plan.fraction, seed)
    return biased_split(obs, plan.region, plan.n_in, plan.n_out, seed)


def renormalize_splits(train: ObservationSet, test: ObservationSet, scope: str = "train"):
    """Refit the normalizer on the training rows only (scope="train") or keep
    the ingest-time normalization (scope="full")."""
    if scope == "full":
        return train, test
    if scope != "train":
        raise ContractError(f"unknown normalization scope {scope!r}")
    originals = train.normalizer.denormalize(train.values)
    normalizer = Normalizer.fit(originals)
    return train.renormalized(normalizer), test.renormalized(normalizer)


@dataclass
class RegionErrorGrid:
    """Per-cell MAE statistics over the projection onto two axes; NaN cells
    had no test observations."""

    axis_a: str
    axis_b: str
    mean: np.ndarray
    std: np.ndarray
    count: np.ndarray
    region: RegionSpec | None = None

    def to_json(self) -> dict:
        def cellify(arr):
            return [
                [None if not np.isfinite(v) else float(v) for v in row] for row in arr
            ]

        return {
            "axis_a": self.axis_a,
            "axis_b": self.axis_b,
            "mean": cellify(self.mean),
            "std": cellify(self.std),
            "count": self.count.astype(int).tolist(),
            "region": self.region.to_json() if self.region is not None else None,
        }


def per_cell_errors(
    test_predictions, obs_test: ObservationSet, region: RegionSpec | None = None, axes=None
) -> RegionErrorGrid:
    """Aggregate |y - yhat| per (axis_a value, axis_b value) cell for one
    evaluation; cells without test rows stay absent."""
    preds = np.asarray(test_predictions, dtype=float).ravel()
    if preds.shape[0] != obs_test.n:
        raise ContractError("predictions are not aligned with the test observations")
    if axes is None:
        if region is None:
            raise ContractError("need either a region or an axis pair")
        axes = (region.axis_a, region.axis_b)
    ia = obs_test.space.axis_position(axes[0])
    ib = obs_test.space.axis_position(axes[1])
    na = obs_test.space.axes[ia].size
    nb = obs_test.space.axes[ib].size

    abs_err = np.abs(obs_test.values - preds)
    cell = obs_test.indices[:, ia] * nb + obs_test.indices[:, ib]
    count = np.bincount(cell, minlength=na * nb).astype(np.int64)
    total = np.bincount(cell, weights=abs_err, minlength=na * nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = total / count
    # two-pass variance: exact zeros when a cell's errors are identical
    deviations = abs_err - np.where(count[cell] > 0, mean[cell], 0.0)
    sq = np.bincount(cell, weights=deviations**2, minlength=na * nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        std = np.sqrt(sq / count)
    mean[count == 0] = np.nan
    std[count == 0] = np.nan
    return RegionErrorGrid(
        axis_a=axes[0],
        axis_b=axes[1],
        mean=mean.reshape(na, nb),
        std=std.reshape(na, nb),
        count=count.reshape(na, nb),
        region=region,
    )


def aggregate_error_grids(grids) -> RegionErrorGrid:
    """Mean and population std of per-iteration cell MAEs; a cell is present
    if any iteration observed it."""
    grids = list(grids)
    if not grids:
        raise ContractError("need at least one grid to aggregate")
    first = grids[0]
    if any(g.mean.shape != first.mean.shape for g in grids):
        raise ContractError("grids disagree on shape")
    stack = np.stack([g.mean for g in grids])
    present = np.isfinite(stack)
    n_present = present.sum(axis=0)
    denominator = np.maximum(n_present, 1)
    mean = np.where(n_present > 0, np.nansum(stack, axis=0) / denominator, np.nan)
    deviations = np.where(present, stack - np.where(present, mean, 0.0), 0.0)
    std = np.where(n_present > 0, np.sqrt(np.sum(deviations**2, axis=0) / denominator), np.nan)
    count = np.sum([g.count for g in grids], axis=0)
    return RegionErrorGrid(
        axis_a=first.axis_a,
        axis_b=first.axis_b,
        mean=mean,
        std=std,
        count=count,
        region=first.region,
    )


def _aggregate_metric_dicts(reports) -> dict:
    """Mean +/- population std per metric across iteration reports."""
    keys = ("r2", "mae", "rmse", "mape")
    out = {}
    for key in keys:
        vals = np.asarray([r[key] for r in reports], dtype=float)
        out[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    out["n_iterations"] = len(reports)
    return out


@dataclass
class ModelSpec:
    """One model column of an experiment: kind, name, and its train config."""

    name: str
    kind: str
    cfg: TrainConfig


def _split_and_fit(plan: SamplingPlan, obs: ObservationSet, specs, seeds, scope: str):
    """The split -> renormalize -> fit loop of one plan, shared by
    experiments and sweeps.

    Iteration i splits with seeds[i]; each model spec is then fitted to the
    training sides of all the iterations that split, in shared batches
    (`fit_batch`, iteration i's fit seeded with seeds[i]). Returns the
    splits, per iteration `(train, test)` or the split's TenfitError, and
    the fits, per spec name `{iteration: (model, TrainReport) or
    TenfitError}`. A bad scope or no iterations raises before any split.
    """
    if not seeds:
        raise ContractError("iterations must be >= 1")
    if scope not in ("train", "full"):
        raise ContractError(f"unknown normalization scope {scope!r}")
    splits = []
    for seed in seeds:
        try:
            train, test = split_plan(plan, obs, seed)
            splits.append(renormalize_splits(train, test, scope))
        except TenfitError as exc:
            splits.append(exc)
    done = [it for it, split in enumerate(splits) if not isinstance(split, TenfitError)]
    fits = {}
    for spec in specs:
        outcomes = fit_batch(
            obs.space.shape(),
            [splits[it][0] for it in done],
            spec.cfg,
            spec.kind,
            seeds=[seeds[it] for it in done],
        )
        fits[spec.name] = dict(zip(done, outcomes))
    return splits, fits


def ood_sweep(
    obs: ObservationSet,
    region: RegionSpec,
    n_in: int,
    n_out_list,
    cfg: TrainConfig,
    model_kinds,
    iterations: int = 10,
    normalization: str = "train",
) -> dict:
    """Out-of-distribution sweep: fixed in-region count, growing out-of-region
    counts, metrics restricted to test rows outside the region. Each count
    is a biased plan through the experiments' split -> fit loop; the first
    split or fit error raises."""
    n_out_list = [int(k) for k in n_out_list]
    if any(b <= a for a, b in zip(n_out_list, n_out_list[1:])):
        raise ContractError("n_out_list must be strictly increasing")
    specs = [ModelSpec(name=kind, kind=kind, cfg=cfg) for kind in model_kinds]
    results = {kind: [] for kind in model_kinds}
    seeds = [cfg.seed + it for it in range(iterations)]
    for n_out in n_out_list:
        plan = SamplingPlan(kind="biased", region=region, n_in=n_in, n_out=n_out)
        splits, fits = _split_and_fit(plan, obs, specs, seeds, normalization)
        for split in splits:
            if isinstance(split, TenfitError):
                raise split
        ood_tests = [test.take(np.flatnonzero(~region.mask(test))) for _, test in splits]
        for spec in specs:
            per_iteration = []
            for it, ood_test in enumerate(ood_tests):
                outcome = fits[spec.name][it]
                if isinstance(outcome, TenfitError):
                    raise outcome
                preds = outcome[0].predict(ood_test.indices)
                per_iteration.append(regression_metrics(ood_test.values, preds).to_json())
            results[spec.name].append(
                {
                    "n_out": n_out,
                    "metrics": _aggregate_metric_dicts(per_iteration),
                    "per_iteration": per_iteration,
                }
            )
    return {
        "n_in": n_in,
        "iterations": iterations,
        "region": region.to_json(),
        "models": results,
    }


_REQUIRED = object()


def _read(entry: dict, key: str, cast, default=_REQUIRED):
    """`cast(entry[key])`, or `default` when the key is absent. A missing
    required key, or a value `cast` rejects, raises a ContractError naming
    the key."""
    if key not in entry:
        if default is _REQUIRED:
            raise ContractError(f"config needs a {key!r} value")
        return default
    try:
        return cast(entry[key])
    except (TypeError, ValueError, OverflowError):
        raise ContractError(f"config value {entry[key]!r} of {key!r} is not valid") from None


def _object(entry, what: str) -> dict:
    if not isinstance(entry, dict):
        raise ContractError(f"{what} must be a JSON object, not {entry!r}")
    return entry


def _name(entry: dict, default: str) -> str:
    """A plan or model name; it becomes part of output file names."""
    name = entry.get("name", default)
    if not isinstance(name, str) or "/" in name or "\0" in name:
        raise ContractError(f"name {name!r} is not a usable file name")
    return name


def _pair(values) -> tuple:
    lo, hi = values
    return lo, hi


def _train_config_from(entry: dict, space: DesignSpace) -> TrainConfig:
    """The TrainConfig of a model entry, of a sweep config, or of the
    `tenfit fit` options (smooth_modes as a list of axis names; none means
    the ordinal axes)."""

    def modes(names):
        return space.ordinal_modes() if names is None else tuple(map(space.axis_position, names))

    return TrainConfig(
        rank=_read(entry, "rank", int),
        epochs=_read(entry, "epochs", int, 3000),
        lr=_read(entry, "lr", float, 0.01),
        smooth_weight=_read(entry, "lambda_smooth", float, 0.1),
        smooth_modes=_read(entry, "smooth_modes", modes, space.ordinal_modes()),
        seed=_read(entry, "seed", int, 0),
        restarts=_read(entry, "restarts", int, 1),
        patience=_read(entry, "patience", lambda v: None if v is None else int(v), None),
        val_fraction=_read(entry, "val_fraction", float, 0.0),
        n_init_groups=_read(entry, "groups", int, 3),
        conv_channels=_read(entry, "channels", int, 8),
        hidden_units=_read(entry, "hidden", int, 16),
    )


def _model_kind(value) -> str:
    if value not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {value!r}")
    return value


def model_spec_from_config(entry: dict, space: DesignSpace, taken=()) -> ModelSpec:
    kind = _read(_object(entry, "model entry"), "kind", _model_kind)
    name = _name(entry, kind)
    if name in taken:
        raise ContractError(f"duplicate model name {name!r}")
    return ModelSpec(name=name, kind=kind, cfg=_train_config_from(entry, space))


def region_from_config(entry: dict, space: DesignSpace) -> RegionSpec:
    _object(entry, "region")
    if "a_values" in entry or "b_values" in entry:
        region = region_from_values(
            space,
            entry["axis_a"],
            entry["axis_b"],
            _read(entry, "a_values", _pair),
            _read(entry, "b_values", _pair),
        )
    else:
        region = RegionSpec(
            axis_a=entry["axis_a"],
            axis_b=entry["axis_b"],
            a_range=_read(entry, "a_range", lambda v: tuple(int(i) for i in _pair(v))),
            b_range=_read(entry, "b_range", lambda v: tuple(int(i) for i in _pair(v))),
        )
    region.validate(space)
    return region


def plan_from_config(entry: dict, space: DesignSpace) -> SamplingPlan:
    kind = _object(entry, "plan").get("kind")
    if kind == "uniform":
        return SamplingPlan(
            kind="uniform",
            fraction=_read(entry, "fraction", float),
            name=_name(entry, "uniform"),
        )
    if kind == "biased":
        return SamplingPlan(
            kind="biased",
            region=region_from_config(entry["region"], space),
            n_in=_read(entry, "n_in", int),
            n_out=_read(entry, "n_out", int),
            name=_name(entry, "biased"),
        )
    raise ContractError(f"unknown plan kind {kind!r}")


def run_experiment(config: dict, out_dir) -> dict:
    """Execute the full protocol described by an experiment config.

    For every plan: split every iteration and fit each model to all of them
    (`_split_and_fit`), then predict the test rows and score, in (iteration,
    model) order. Emits aggregated metrics, per-iteration records (with the
    epochs run and every restart's final loss), per-cell error grids for
    biased plans, factor exports for the best linear models, and the
    uniform-vs-biased factor match score when both plans are present. A
    failed (plan, model, iteration) cell, factor export or factor match is
    recorded in `failures` and skipped.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per_iter_dir = out / "per_iteration"
    per_iter_dir.mkdir(exist_ok=True)

    space, obs = load_dataset(config["dataset"])
    iterations = _read(config, "iterations", int, 10)
    base_seed = _read(config, "seed", int, 0)
    if base_seed < 0:
        raise ContractError("seed must be >= 0")
    scope = config.get("normalization", "train")
    plans = [plan_from_config(p, space) for p in config["plans"]]
    if len({p.name for p in plans}) != len(plans):
        raise ContractError("plan names must be unique")
    specs = []
    for entry in config["models"]:
        specs.append(model_spec_from_config(entry, space, taken=[s.name for s in specs]))

    fms_kind = next((s.name for s in specs if s.kind == "cpd"), None)
    metric_rows: dict[tuple[str, str], list] = {}
    failures = []
    best_linear: dict[tuple[str, str], tuple[float, CPDModel]] = {}
    cpd_factors: dict[tuple[str, int], CPDModel] = {}
    grids: dict[tuple[str, str], list] = {}

    def fail(plan_name, model_name, iteration, exc):
        failures.append(
            {
                "plan": plan_name,
                "model": model_name,
                "iteration": iteration,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )

    seeds = [base_seed + it for it in range(iterations)]
    for plan in plans:
        splits, fits = _split_and_fit(plan, obs, specs, seeds, scope)
        for it, split in enumerate(splits):
            if isinstance(split, TenfitError):
                fail(plan.name, None, it, split)
                continue
            _, test = split
            for spec in specs:
                try:
                    outcome = fits[spec.name][it]
                    if isinstance(outcome, TenfitError):
                        raise outcome
                    model, report = outcome
                    preds = model.predict(test.indices)
                    metrics = regression_metrics(test.values, preds).to_json()
                except TenfitError as exc:
                    fail(plan.name, spec.name, it, exc)
                    continue
                record = {
                    "plan": plan.name,
                    "model": spec.name,
                    "iteration": it,
                    "metrics": metrics,
                    "final_loss": report.final_loss,
                    "restart": report.restart,
                    "epochs_run": report.epochs_run,
                    "restart_final_losses": report.to_json()["restart_final_losses"],
                }
                (per_iter_dir / f"{plan.name}__{spec.name}__{it:03d}.json").write_text(
                    json.dumps(record, indent=2), encoding="utf-8"
                )
                metric_rows.setdefault((plan.name, spec.name), []).append(metrics)
                if isinstance(model, CPDModel):
                    key = (plan.name, spec.name)
                    if key not in best_linear or report.final_loss < best_linear[key][0]:
                        best_linear[key] = (report.final_loss, model)
                if spec.name == fms_kind:
                    cpd_factors[(plan.name, it)] = model
                if plan.kind == "biased":
                    grids.setdefault((plan.name, spec.name), []).append(
                        per_cell_errors(preds, test, plan.region)
                    )

    aggregates: dict = {}
    for (plan_name, model_name), rows in metric_rows.items():
        aggregates.setdefault(plan_name, {})[model_name] = _aggregate_metric_dicts(rows)

    if grids:
        grid_dir = out / "grids"
        grid_dir.mkdir(exist_ok=True)
        for (plan_name, model_name), glist in grids.items():
            payload = aggregate_error_grids(glist).to_json()
            (grid_dir / f"{plan_name}__{model_name}.json").write_text(
                json.dumps(payload, indent=2), encoding="utf-8"
            )

    for (plan_name, model_name), (_, model) in best_linear.items():
        try:
            component_expression_export(
                model.factors, space, out / "factors" / f"{plan_name}__{model_name}"
            )
        except TenfitError as exc:
            fail(plan_name, model_name, None, exc)

    fms_summary = None
    uniform_plans = [p.name for p in plans if p.kind == "uniform"]
    biased_plans = [p.name for p in plans if p.kind == "biased"]
    if fms_kind and uniform_plans and biased_plans:
        uname, bname = uniform_plans[0], biased_plans[0]
        scores = []
        permutations = []
        for it in range(iterations):
            mu = cpd_factors.get((uname, it))
            mb = cpd_factors.get((bname, it))
            if mu is None or mb is None:
                continue
            try:
                comparison = fms(mu.factors, mb.factors)
            except TenfitError as exc:
                fail(f"{uname} vs {bname}", fms_kind, it, exc)
                continue
            scores.append(comparison.fms)
            permutations.append(list(comparison.permutation))
        if scores:
            arr = np.asarray(scores)
            fms_summary = {
                "model": fms_kind,
                "uniform_plan": uname,
                "biased_plan": bname,
                "per_iteration": scores,
                "permutations": permutations,
                "mean": float(arr.mean()),
                "std": float(arr.std()),
            }
            (out / "fms_uniform_vs_biased.json").write_text(
                json.dumps(fms_summary, indent=2), encoding="utf-8"
            )

    summary = {
        "metadata": {
            "iterations": iterations,
            "seed": base_seed,
            "normalization": scope,
            "std_convention": "population",
            "plans": [p.name for p in plans],
            "models": [s.name for s in specs],
        },
        "aggregates": aggregates,
        "failures": failures,
        "fms": fms_summary,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return summary


def run_sweep(config: dict, out_dir) -> dict:
    """Execute an OOD sweep config and persist the table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space, obs = load_dataset(config["dataset"])
    region = region_from_config(config["region"], space)
    specs = [
        model_spec_from_config({**config, "kind": kind}, space)
        for kind in config.get("models", ["cpd"])
    ]
    table = ood_sweep(
        obs,
        region,
        n_in=_read(config, "n_in", int),
        n_out_list=_read(config, "n_out_list", lambda counts: [int(k) for k in counts]),
        cfg=_train_config_from(config, space),
        model_kinds=[spec.kind for spec in specs],
        iterations=_read(config, "iterations", int, 10),
        normalization=config.get("normalization", "train"),
    )
    (out / "sweep.json").write_text(json.dumps(table, indent=2), encoding="utf-8")
    return table
