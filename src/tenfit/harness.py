"""Sampling protocols, error disaggregation, and experiment orchestration.

Two sampling protocols are supported: a uniform train/test split (in
`core`, which the training engine's validation carve shares) and a biased
one that draws heavily from an axis-aligned region of a 2-axis projection
and sparsely from the rest. The experiment runner and the OOD
sweep share one scoring loop: split -> renormalize -> fit -> predict ->
score, over plans, iterations and model specs, with one batched fit per
model spec across all plans (the sweep scores only the test rows outside
the region and stops at the first error). The runner reads and checks its
whole config, scores every plan, recording each failed cell, and only then
writes: per-iteration records, aggregates (mean +/- population std), error
grids, factor exports and the factor match score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import DesignSpace, Normalizer, ObservationSet, uniform_split
from .errors import ContractError, SplitError, StratumExhaustedError, TenfitError
from .metrics import component_expression_export, fms, regression_metrics
from .modelio import as_float, as_int, load_dataset, record_json, write_atomic
from .optim import MODEL_KINDS, TrainConfig, TrainReport, fit_batch


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

    to_json = record_json


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
    region: RegionSpec

    def to_json(self) -> dict:
        def cellify(arr):
            return [[float(v) if np.isfinite(v) else None for v in row] for row in arr]

        return {
            "axis_a": self.axis_a,
            "axis_b": self.axis_b,
            "mean": cellify(self.mean),
            "std": cellify(self.std),
            "count": self.count.astype(int).tolist(),
            "region": self.region.to_json(),
        }


def _cell_stats(values, cells, n_cells: int):
    """Count, mean and two-pass population std of the values in each of
    n_cells cells, summed in the given order; NaN in a cell without values."""
    count = np.bincount(cells, minlength=n_cells)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.bincount(cells, weights=values, minlength=n_cells) / count
        deviations = values - mean[cells]
        std = np.sqrt(np.bincount(cells, weights=deviations**2, minlength=n_cells) / count)
    return count, mean, std


def per_cell_errors(
    test_predictions, obs_test: ObservationSet, region: RegionSpec
) -> RegionErrorGrid:
    """Aggregate |y - yhat| per (axis_a value, axis_b value) cell of the
    region's two axes for one evaluation; cells without test rows stay
    absent."""
    preds = np.asarray(test_predictions, dtype=float).ravel()
    if preds.shape[0] != obs_test.n:
        raise ContractError("predictions are not aligned with the test observations")
    ia = obs_test.space.axis_position(region.axis_a)
    ib = obs_test.space.axis_position(region.axis_b)
    na = obs_test.space.axes[ia].size
    nb = obs_test.space.axes[ib].size

    cell = obs_test.indices[:, ia] * nb + obs_test.indices[:, ib]
    count, mean, std = _cell_stats(np.abs(obs_test.values - preds), cell, na * nb)
    return RegionErrorGrid(
        axis_a=region.axis_a,
        axis_b=region.axis_b,
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
    stack = np.stack([g.mean.ravel() for g in grids])
    iteration, cell = np.nonzero(np.isfinite(stack))  # iteration-major order
    _, mean, std = _cell_stats(stack[iteration, cell], cell, stack.shape[1])
    return RegionErrorGrid(
        axis_a=first.axis_a,
        axis_b=first.axis_b,
        mean=mean.reshape(first.mean.shape),
        std=std.reshape(first.mean.shape),
        count=np.sum([g.count for g in grids], axis=0),
        region=first.region,
    )


def _mean_std(values) -> dict:
    """Mean and population std of a list of numbers, as JSON."""
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def _aggregate_metric_dicts(reports) -> dict:
    """Mean +/- population std per metric across iteration reports."""
    out = {key: _mean_std([r[key] for r in reports]) for key in ("r2", "mae", "rmse", "mape")}
    return {**out, "n_iterations": len(reports)}


@dataclass(frozen=True)
class ModelSpec:
    """One model column of an experiment: kind, name, and its train config."""

    name: str
    kind: str
    cfg: TrainConfig


@dataclass
class ScoredCell:
    """One fitted and scored (iteration, model) cell of a sampling plan: the
    model and its TrainReport, the test rows it was scored on, its
    predictions there and their metrics as JSON."""

    model: object
    report: TrainReport
    test: ObservationSet
    preds: np.ndarray
    metrics: dict


def _scored_cells(plans, obs: ObservationSet, specs, seed, iterations, scope, keep=None):
    """The split -> renormalize -> fit -> predict -> score loop of a run's
    plans, shared by experiments and sweeps.

    Iteration i is seeded with seed + i, both its split of every plan and
    every model's fit of it. `keep(test)`, when given, is the boolean mask
    of the test rows to score. Every model spec is fitted to the training
    sides of every (plan, iteration) that split, in one `fit_batch` call
    whose batches share one worker pool. Yields `(plan, iteration, spec,
    outcome)` in (plan, iteration, spec) order, the outcome a ScoredCell or
    the TenfitError of that cell's fit or scoring; a failed split yields
    its error once, with spec None. A bad scope or no iterations raises
    before any split.
    """
    if iterations < 1:
        raise ContractError("iterations must be >= 1")
    if scope not in ("train", "full"):
        raise ContractError(f"unknown normalization scope {scope!r}")
    seeds = [seed + it for it in range(iterations)]
    splits = {}
    for plan in plans:
        for it, it_seed in enumerate(seeds):
            try:
                if plan.kind == "uniform":
                    split = uniform_split(obs, plan.fraction, it_seed)
                else:
                    split = biased_split(obs, plan.region, plan.n_in, plan.n_out, it_seed)
                train, test = renormalize_splits(*split, scope)
                if keep is not None:
                    test = test.take(np.flatnonzero(keep(test)))
                splits[plan, it] = (train, test)
            except TenfitError as exc:
                splits[plan, it] = exc
    done = [cell for cell, split in splits.items() if not isinstance(split, TenfitError)]
    trains, done_seeds = [splits[cell][0] for cell in done], [seeds[it] for _, it in done]
    models = [(spec.kind, spec.cfg) for spec in specs]
    outcomes = fit_batch(obs.space.shape(), models, trains, done_seeds)
    fits = {spec.name: dict(zip(done, fitted)) for spec, fitted in zip(specs, outcomes)}
    for (plan, it), split in splits.items():
        if isinstance(split, TenfitError):
            yield plan, it, None, split
            continue
        test = split[1]
        for spec in specs:
            outcome = fits[spec.name][plan, it]
            if not isinstance(outcome, TenfitError):
                try:
                    preds = outcome[0].predict(test.indices)
                    metrics = regression_metrics(test.values, preds).to_json()
                    outcome = ScoredCell(*outcome, test, preds, metrics)
                except TenfitError as exc:
                    outcome = exc
            yield plan, it, spec, outcome


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
    is a biased plan, and all of them go through one call of the
    experiments' scoring loop, so each model kind trains once across every
    count. The first split, fit or scoring error in (count, iteration,
    model) order raises."""
    n_out_list = [int(k) for k in n_out_list]
    if any(b <= a for a, b in zip(n_out_list, n_out_list[1:])):
        raise ContractError("n_out_list must be strictly increasing")
    specs = [ModelSpec(name=kind, kind=kind, cfg=cfg) for kind in model_kinds]
    results = {spec.name: [] for spec in specs}
    if len(results) != len(specs):
        raise ContractError(f"model kinds {list(model_kinds)} are not distinct")
    plans = [SamplingPlan(kind="biased", region=region, n_in=n_in, n_out=k) for k in n_out_list]
    per_iteration = {(plan, spec.name): [] for plan in plans for spec in specs}
    cells = _scored_cells(plans, obs, specs, cfg.seed, iterations, normalization,
                          lambda t: ~region.mask(t))
    for plan, _, spec, outcome in cells:
        if isinstance(outcome, TenfitError):
            raise outcome
        per_iteration[plan, spec.name].append(outcome.metrics)
    for (plan, name), rows in per_iteration.items():
        metrics = _aggregate_metric_dicts(rows)
        results[name].append({"n_out": plan.n_out, "metrics": metrics, "per_iteration": rows})
    return {
        "n_in": n_in,
        "iterations": iterations,
        "region": region.to_json(),
        "models": results,
    }


_REQUIRED = object()


def _one_of(names):
    """A cast to one of `names`."""
    def cast(value):
        if value not in names:
            raise ValueError(f"{value!r} is not one of {list(names)}")
        return value
    return cast


def _list_of(cast=None, size=None, empty=False):
    """A cast to a tuple from a JSON list (a string is not a list), non-empty
    unless `empty`, of `size` items when given, each passed through `cast`."""
    def read(values):
        if (not isinstance(values, (list, tuple)) or not (values or empty)
                or size not in (None, len(values))):
            raise ValueError(f"{values!r} is not a list of {size or 'some'} items")
        return tuple(values if cast is None else map(cast, values))
    return read


def _optional(cast):
    return lambda value: None if value is None else cast(value)


def _sweep_kinds(kinds) -> tuple:
    """A sweep's model kinds, each listed once: they share one TrainConfig,
    so a repeat would fit the same model twice."""
    kinds = _list_of(_one_of(MODEL_KINDS))(kinds)
    if len(set(kinds)) != len(kinds):
        raise ContractError(f"model kinds {list(kinds)} are not distinct")
    return kinds


def _name(name) -> str:
    """A plan or model name; it becomes part of output file names."""
    if not isinstance(name, str) or "/" in name or "\0" in name:
        raise ContractError(f"name {name!r} is not a usable file name")
    return name


# The keys of each config object: key -> (cast, default, *the kinds that read
# it; none: every kind). A cast of None keeps the value as it is. A key left
# out takes its default, or stays out when that is None (so TrainConfig's own
# default applies); a _REQUIRED one must be given.
_MODEL_KEYS = {
    "kind": (_one_of(MODEL_KINDS), _REQUIRED), "name": (_name, None), "rank": (as_int, _REQUIRED),
    "epochs": (as_int, None), "lr": (as_float, None), "restarts": (as_int, None),
    "patience": (_optional(as_int), None), "val_fraction": (as_float, None),
    "lambda_smooth": (as_float, None, "cpd_s"),
    "smooth_modes": (_optional(_list_of(empty=True)), None, "cpd_s"),
    **{key: (as_int, None, "costco") for key in ("groups", "channels", "hidden")},
}
_RUN_KEYS = {  # the keys experiment and sweep configs share
    "dataset": (Path, _REQUIRED), "seed": (as_int, 0), "iterations": (as_int, 10),
    "normalization": (None, "train"),  # checked when the scoring loop starts
}
_EXPERIMENT_KEYS = {**_RUN_KEYS, **{key: (_list_of(), _REQUIRED) for key in ("plans", "models")}}
_SWEEP_KEYS = {  # one TrainConfig serves every listed model kind
    "models": (_sweep_kinds, ("cpd",)), **_RUN_KEYS,
    "region": (None, _REQUIRED), "n_in": (as_int, _REQUIRED),
    "n_out_list": (_list_of(as_int), _REQUIRED),
    **{key: spec for key, spec in _MODEL_KEYS.items() if key not in ("kind", "name")},
}
_FIT_KEYS = {**_MODEL_KEYS, "seed": _RUN_KEYS["seed"]}  # `tenfit fit`'s options
_PLAN_KEYS = {
    "kind": (_one_of(("uniform", "biased")), _REQUIRED), "name": (_name, None),
    "fraction": (as_float, _REQUIRED, "uniform"), "region": (None, _REQUIRED, "biased"),
    "n_in": (as_int, _REQUIRED, "biased"), "n_out": (as_int, _REQUIRED, "biased"),
}
_REGION_KEYS = {  # by inclusive index intervals ("ranges"), or by value labels ("values")
    "axis_a": (None, _REQUIRED), "axis_b": (None, _REQUIRED),
    **{f"{ab}_range": (_list_of(as_int, 2), _REQUIRED, "ranges") for ab in "ab"},
    **{f"{ab}_values": (_list_of(None, 2), _REQUIRED, "values") for ab in "ab"},
}
_FIELDS = {"lambda_smooth": "smooth_weight", "groups": "n_init_groups",  # keys named for
           "channels": "conv_channels", "hidden": "hidden_units"}  # another TrainConfig field


def _read_object(entry, keys: dict, where: str, kind: str | None = None, kinds=(),
                 label=None) -> dict:
    """A config object of `kinds` read through its table `keys`, or of the
    kinds key `kind` (first in its table) names. A ContractError names the
    key at fault and `where` the object sits, or the key as `label(key)`
    gives it."""
    label = label or (lambda key: f"{key!r} in {where}")
    if not isinstance(entry, dict):
        raise ContractError(f"{where} must be a JSON object, not {entry!r}")
    for key in entry:
        if key not in keys:
            import difflib  # here, not at the top: it adds ~0.2 MB to every run
            close = difflib.get_close_matches(str(key), keys, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ContractError(f"unknown key {label(key)}{hint}")
    values = {}
    for key, (cast, default, *readers) in keys.items():
        if readers and not set(readers) & set(kinds):
            if key in entry:
                raise ContractError(f"{label(key)} is ignored by {' and '.join(kinds)}: "
                                    f"only {' and '.join(readers)} read it")
        elif key in entry:
            try:
                values[key] = entry[key] if cast is None else cast(entry[key])
            except (TypeError, ValueError, OverflowError):
                raise ContractError(
                    f"config value {entry[key]!r} of {label(key)} is not valid") from None
        elif default is _REQUIRED:
            raise ContractError(f"{where} needs a {key!r} value")
        elif default is not None:
            values[key] = default
        if key == kind:
            kinds = (values[key],) if isinstance(values[key], str) else values[key]
    return values


def _train_config(values: dict, space: DesignSpace, label=repr) -> TrainConfig:
    """The TrainConfig of a model entry's, a sweep config's or `tenfit
    fit`'s values; a failed check names its key as `label(key)` gives it.
    smooth_modes names ordinal axes; none means all of them."""
    names = values.get("smooth_modes")
    modes = space.ordinal_modes() if names is None else tuple(map(space.axis_position, names))
    for name, mode in zip(names or (), modes):
        if mode not in space.ordinal_modes():
            raise ContractError(f"{label('smooth_modes')} names the categorical axis {name!r}: "
                                f"CPD-S smooths ordinal axes only")
    given = {_FIELDS.get(key, key): value for key, value in values.items()}
    given = {f.name: given[f.name] for f in fields(TrainConfig) if f.name in given}
    try:
        return TrainConfig(**{**given, "smooth_modes": modes})
    except ContractError as exc:
        # every check ends "<check>: <field> is <value>"; name its key
        check, _, named = str(exc).rpartition(": ")
        field, _, value = named.partition(" is ")
        keys = {f: key for key, f in _FIELDS.items()}
        raise ContractError(f"{check}: {label(keys.get(field, field))} is {value}") from None


def _flag(key: str) -> str:
    """The `tenfit fit` flag of an option key."""
    return "--" + key.replace("_", "-")


def model_spec_from_config(entry: dict, space: DesignSpace, where: str = "model entry",
                           flags: bool = False) -> ModelSpec:
    """A model entry of an experiment config, or with `flags` the `tenfit
    fit` options (_FIT_KEYS), which its errors name by their flags. An
    entry takes no `seed`: iteration i of every model is seeded with the
    config's top-level seed + i."""
    keys, label = (_FIT_KEYS, _flag) if flags else (_MODEL_KEYS, None)
    values = _read_object(entry, keys, where, kind="kind", label=label)
    kind = values["kind"]
    cfg = _train_config(values, space, label or repr)
    return ModelSpec(name=values.get("name", kind), kind=kind, cfg=cfg)


def region_from_config(entry: dict, space: DesignSpace, where: str = "region") -> RegionSpec:
    by = "values" if isinstance(entry, dict) and {*entry} & {"a_values", "b_values"} else "ranges"
    values = _read_object(entry, _REGION_KEYS, where, kinds=(by,))
    region = region_from_values(space, **values) if by == "values" else RegionSpec(**values)
    region.validate(space)
    return region


def plan_from_config(entry: dict, space: DesignSpace, where: str = "plan") -> SamplingPlan:
    values = _read_object(entry, _PLAN_KEYS, where, kind="kind")
    if "region" in values:
        values["region"] = region_from_config(values["region"], space, f"{where}.region")
    return SamplingPlan(**values)


def _read_run(config, keys: dict, kind=None):
    """An experiment or sweep config's values, and its dataset's space and observations."""
    values = _read_object(config, keys, "config", kind)
    if values["seed"] < 0:
        raise ContractError("seed must be >= 0")
    return values, *load_dataset(values["dataset"])


def _failure(plan: str, model, iteration, exc: TenfitError) -> dict:
    """The `failures` record of a failed cell, factor export or factor match."""
    error, message = type(exc).__name__, str(exc)
    return dict(plan=plan, model=model, iteration=iteration, error=error, message=message)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(payload, indent=2))


def _write_cells(out: Path, scored: dict, failures: list) -> dict:
    """Per (plan, model): write each scored cell's per-iteration record, the
    error grid over the iterations of a biased plan, and the factors of a
    linear model's lowest-loss fit (a failed export is appended to
    `failures`). Returns the aggregated metrics by plan and model name."""
    (out / "per_iteration").mkdir(parents=True, exist_ok=True)
    aggregates: dict = {}
    for (plan, spec), cells in scored.items():
        stem = f"{plan.name}__{spec.name}"
        for it, cell in cells.items():
            report = cell.report.to_json()
            record = dict(plan=plan.name, model=spec.name, iteration=it, metrics=cell.metrics)
            for key in ("final_loss", "restart", "epochs_run", "restart_final_losses"):
                record[key] = report[key]
            _write_json(out / "per_iteration" / f"{stem}__{it:03d}.json", record)
        metrics = [cell.metrics for cell in cells.values()]
        aggregates.setdefault(plan.name, {})[spec.name] = _aggregate_metric_dicts(metrics)
        if plan.kind == "biased":
            grids = [per_cell_errors(c.preds, c.test, plan.region) for c in cells.values()]
            _write_json(out / "grids" / f"{stem}.json", aggregate_error_grids(grids).to_json())
        best = min(cells.values(), key=lambda cell: cell.report.final_loss).model
        if hasattr(best, "factors"):
            try:
                component_expression_export(best.factors, best.space, out / "factors" / stem)
            except TenfitError as exc:
                failures.append(_failure(plan.name, spec.name, None, exc))
    return aggregates


def _write_fms(out: Path, scored: dict, plans, specs, failures: list):
    """The factor match score of the first cpd model between the first
    uniform and the first biased plan, per iteration both fitted; None (and
    no file) when no iteration scores, as without such a model or plan pair.
    A failed match is appended to `failures`."""
    spec = next((s for s in specs if s.kind == "cpd"), None)
    uniform = next((p for p in plans if p.kind == "uniform"), None)
    biased = next((p for p in plans if p.kind == "biased"), None)
    in_uniform, in_biased = scored.get((uniform, spec), {}), scored.get((biased, spec), {})
    comparisons = []
    for it in sorted(in_uniform.keys() & in_biased.keys()):
        try:
            comparisons.append(fms(in_uniform[it].model.factors, in_biased[it].model.factors))
        except TenfitError as exc:
            failures.append(_failure(f"{uniform.name} vs {biased.name}", spec.name, it, exc))
    if not comparisons:
        return None
    scores = [comparison.fms for comparison in comparisons]
    summary = {
        "model": spec.name,
        "uniform_plan": uniform.name,
        "biased_plan": biased.name,
        "per_iteration": scores,
        "permutations": [list(comparison.permutation) for comparison in comparisons],
        **_mean_std(scores),
    }
    _write_json(out / "fms_uniform_vs_biased.json", summary)
    return summary


def run_experiment(config: dict, out_dir) -> dict:
    """Execute the full protocol described by an experiment config.

    Reads and checks the config, then scores every (plan, iteration,
    model) cell through one call of the split -> fit -> score loop, which
    fits each model's iterations and restarts of every plan together, and
    only then writes: per-iteration records (with the epochs run and every
    restart's final loss), aggregated metrics, per-cell error grids for
    biased plans, factor exports for the best linear models, and the
    uniform-vs-biased factor match score when both plans are present. A
    failed cell, factor export or factor match is recorded in `failures`
    and skipped.
    """
    run, space, obs = _read_run(config, _EXPERIMENT_KEYS)
    iterations, seed, scope = run["iterations"], run["seed"], run["normalization"]
    plans = [plan_from_config(p, space, f"plans[{i}]") for i, p in enumerate(run["plans"])]
    specs = [model_spec_from_config(m, space, f"models[{i}]") for i, m in enumerate(run["models"])]
    for what, names in (("plan", [p.name for p in plans]), ("model", [s.name for s in specs])):
        if len(set(names)) != len(names):
            raise ContractError(f"{what} names {names} are not unique")
    stems = {}  # (plan, model) pairs by the stem of their file names, as _write_cells names them
    for pair, stem in (((p.name, s.name), f"{p.name}__{s.name}") for p in plans for s in specs):
        if stems.setdefault(stem, pair) != pair:
            raise ContractError(f"(plan, model) pairs {stems[stem]} and {pair} both name {stem!r}")

    scored: dict[tuple[SamplingPlan, ModelSpec], dict[int, ScoredCell]] = {}
    failures = []
    for plan, it, spec, outcome in _scored_cells(plans, obs, specs, seed, iterations, scope):
        if isinstance(outcome, TenfitError):
            failures.append(_failure(plan.name, spec.name if spec else None, it, outcome))
        else:
            scored.setdefault((plan, spec), {})[it] = outcome

    out = Path(out_dir)
    aggregates = _write_cells(out, scored, failures)
    fms_summary = _write_fms(out, scored, plans, specs, failures)
    summary = {
        "metadata": {
            "iterations": iterations,
            "seed": seed,
            "normalization": scope,
            "std_convention": "population",
            "plans": [p.name for p in plans],
            "models": [s.name for s in specs],
        },
        "aggregates": aggregates,
        "failures": failures,
        "fms": fms_summary,
    }
    _write_json(out / "summary.json", summary)
    return summary


def run_sweep(config: dict, out_dir) -> dict:
    """Execute an OOD sweep config and persist the table; every model shares
    the config's one TrainConfig."""
    run, space, obs = _read_run(config, _SWEEP_KEYS, kind="models")
    region, cfg = region_from_config(run["region"], space), _train_config(run, space)
    table = ood_sweep(
        obs,
        region,
        n_in=run["n_in"],
        n_out_list=run["n_out_list"],
        cfg=cfg,
        model_kinds=run["models"],
        iterations=run["iterations"],
        normalization=run["normalization"],
    )
    _write_json(Path(out_dir) / "sweep.json", table)
    return table
