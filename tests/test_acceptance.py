"""Acceptance suite.

Each test exercises one release criterion at a pinned tolerance and prints
one `[acceptance] PASS|FAIL` line (run with `pytest -s` to stream them).
Criterion 8 needs the external lattice dataset and is skipped automatically
when the CSV is absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import as_row_set, copy_factors, fd_cpd_gradient, fd_neural_gradient
from conftest import low_rank_values, obs_from_values, permute_components, random_cpd_instance
from conftest import random_obs, random_region
from oracles import costco_forward, exhaustive_fms, neural_grad

from tenfit.cpd import FactorSet, grad_masked_loss
from tenfit.harness import (
    RegionSpec,
    biased_split,
    ood_sweep,
    renormalize_splits,
    uniform_split,
)
from tenfit.metrics import fms, regression_metrics
from tenfit.modelio import write_dataset
from tenfit.neural import NeuralModel, costco_init, costco_layout
from tenfit.optim import TrainConfig, fit


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_synthetic_exact_recovery():
    shape = (5, 4, 3)
    obs = obs_from_values(shape, low_rank_values(shape, rank=2, seed=99))
    train, test = uniform_split(obs, 0.7, seed=1)
    start = time.perf_counter()
    model, _ = fit(shape, train, TrainConfig(rank=2, epochs=2000, lr=0.05, restarts=3, seed=5), "cpd")
    elapsed = time.perf_counter() - start
    r2 = regression_metrics(test.values, model.predict(test.indices)).r2
    _report(
        "1 synthetic exact recovery",
        r2 >= 0.99 and elapsed < 10.0,
        f"held-out R2={r2:.6f} (>=0.99), fit time {elapsed:.2f}s (<10s)",
    )


def test_criterion_2_lattice_shaped_noisy_recovery():
    shape = (5, 2, 3, 3, 3)
    clean = low_rank_values(shape, rank=3, seed=2024)
    r2s = []
    for it in range(10):
        rng = np.random.default_rng(500 + it)
        noisy = clean + rng.normal(0.0, 0.01, size=clean.shape)
        obs = obs_from_values(shape, noisy)
        train, test = uniform_split(obs, 0.8, seed=500 + it)
        cfg = TrainConfig(rank=3, epochs=2000, lr=0.02, restarts=2, seed=500 + it)
        model, _ = fit(shape, train, cfg, "cpd")
        r2s.append(regression_metrics(test.values, model.predict(test.indices)).r2)
    mean, std = float(np.mean(r2s)), float(np.std(r2s))
    _report(
        "2 lattice-shaped noisy recovery",
        mean >= 0.95,
        f"test R2 = {mean:.4f} +/- {std:.4f} over 10 seeds (mean >= 0.95)",
    )


def _neural_instance(rng, margin=1e-3):
    shape = (3, 3, 3)
    obs = random_obs(shape, 8, rng)
    while True:  # keep pre-activations off the rectifier kinks
        seed = int(rng.integers(1 << 30))
        cfg = TrainConfig(rank=2, n_init_groups=2, conv_channels=4, hidden_units=6)
        names = [name for name, _ in costco_layout(shape, cfg)]
        params = dict(zip(names, costco_init(shape, cfg, seed)))
        _, cache = costco_forward(params, obs.indices)
        _, z1, _, z2, _, z3, _ = cache
        if min(np.abs(z1).min(), np.abs(z2).min(), np.abs(z3).min()) > margin:
            return NeuralModel("costco", params, obs.space, None, cfg), obs


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(321)
    worst_cpd = 0.0
    for _ in range(100):
        factors, obs, cfg = random_cpd_instance(rng)
        analytic = grad_masked_loss(factors, obs, cfg)
        numeric = fd_cpd_gradient(factors, obs, cfg, h=1e-5)
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
            worst_cpd = max(worst_cpd, float(np.max(np.abs(a - f) / denom)))

    worst_neural = 0.0
    for _ in range(20):
        model, obs = _neural_instance(rng)
        analytic = neural_grad(model, obs)
        numeric = fd_neural_gradient(model, obs, h=1e-5)
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            worst_neural = max(worst_neural, float(np.max(np.abs(a - f) / denom)))

    ok = worst_cpd <= 1e-4 and worst_neural <= 1e-3
    _report(
        "3 gradient correctness",
        ok,
        f"CPD/CPD-S worst rel err {worst_cpd:.2e} (<=1e-4) on 100 instances; "
        f"neural worst rel err {worst_neural:.2e} (<=1e-3) on 20 instances",
    )


def test_criterion_4_metric_oracle_equivalence():
    rng = np.random.default_rng(654)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        y = rng.normal(0, 5, size=n)
        if np.all(y == y[0]):
            y[0] += 1.0
        yhat = rng.normal(0, 5, size=n)
        rep = regression_metrics(y, yhat)
        mean_y = sum(y) / n
        ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
        ss_tot = sum((a - mean_y) ** 2 for a in y)
        kept = [(a, b) for a, b in zip(y, yhat) if abs(a) >= 1e-8]
        oracle = (
            1 - ss_res / ss_tot,
            sum(abs(a - b) for a, b in zip(y, yhat)) / n,
            math.sqrt(ss_res / n),
            sum(abs((a - b) / a) for a, b in kept) / len(kept) if kept else 0.0,
        )
        got = (rep.r2, rep.mae, rep.rmse, rep.mape)
        worst = max(
            worst,
            max(abs(g - o) / max(abs(o), 1.0) for g, o in zip(got, oracle)),
        )
    hand = regression_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    hand_ok = (
        hand.r2 == 0.0
        and hand.mae == 2.0 / 3.0
        and hand.rmse == math.sqrt(2.0 / 3.0)
        and hand.mape == 4.0 / 9.0
    )
    _report(
        "4 metric oracle equivalence",
        worst <= 1e-12 and hand_ok,
        f"worst deviation {worst:.2e} over 1000 pairs (<=1e-12); hand case exact={hand_ok}",
    )


def test_criterion_5_fms_suite():
    rng = np.random.default_rng(987)
    checks = []

    a = FactorSet([rng.normal(size=(s, 4)) for s in (6, 5, 4)])
    checks.append(("self", abs(fms(a, a).fms - 1.0) <= 1e-9))

    sigma = [3, 1, 0, 2]
    scaled = permute_components(a, sigma)
    for m in range(scaled.ndim):
        for r in range(scaled.rank):
            scaled.factors[m][:, r] *= float(rng.uniform(0.1, 10.0))
    checks.append(("perm+rescale", abs(fms(a, scaled).fms - 1.0) <= 1e-12))

    flip_ok = True
    for rank in (2, 3, 5):
        ortho = FactorSet([np.linalg.qr(rng.normal(size=(s, rank)))[0] for s in (8, 7, 6)])
        flipped = copy_factors(ortho)
        flipped.factors[1][:, 0] *= -1.0
        flip_ok &= abs(fms(ortho, flipped).fms - (rank - 2) / rank) <= 1e-9
    checks.append(("one-mode sign flip (R-2)/R", flip_ok))

    agree = True
    for _ in range(100):
        rank = int(rng.integers(1, 7))
        shape = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4))))
        x = FactorSet([rng.normal(size=(s, rank)) for s in shape])
        y = FactorSet([rng.normal(size=(s, rank)) for s in shape])
        result = fms(x, y)
        agree &= (result.fms, result.permutation) == exhaustive_fms(x, y)
    checks.append(("exhaustive==assignment (R<=6, 100x)", agree))

    ok = all(passed for _, passed in checks)
    _report("5 FMS suite", ok, "; ".join(f"{name}={passed}" for name, passed in checks))


def test_criterion_6_biased_split_contract():
    rng = np.random.default_rng(135)
    sizes = (6, 5, 4, 3)
    obs = random_obs(sizes, 220, rng)
    plans_checked = 0
    for _ in range(200):
        if plans_checked == 50:
            break
        region = random_region(rng, sizes)
        in_available = int(region.mask(obs).sum())
        n_in = int(rng.integers(0, in_available + 1))
        n_out = int(rng.integers(0, obs.n - in_available + 1))
        if n_in + n_out in (0, obs.n):
            continue
        seed = int(rng.integers(1 << 30))
        train, test = biased_split(obs, region, n_in, n_out, seed)
        train2, test2 = biased_split(obs, region, n_in, n_out, seed)

        rows = as_row_set
        assert rows(train) == rows(train2) and rows(test) == rows(test2)  # deterministic
        assert train.n == n_in + n_out
        assert rows(train) | rows(test) == rows(obs)  # partition
        assert not rows(train) & rows(test)
        # independent membership filter: manual interval checks, row by row
        in_a, in_b = int(region.axis_a[1:]), int(region.axis_b[1:])  # axis "p<m>" is mode m
        (a_lo, a_hi), (b_lo, b_hi) = region.a_range, region.b_range
        inside = lambda idx: a_lo <= idx[in_a] <= a_hi and b_lo <= idx[in_b] <= b_hi
        assert sum(inside(idx) for idx in train.indices) == n_in
        assert sum(not inside(idx) for idx in train.indices) == n_out
        assert sum(inside(idx) for idx in test.indices) == in_available - n_in
        plans_checked += 1
    _report(
        "6 biased-split contract",
        plans_checked == 50,
        f"{plans_checked}/50 random plans verified (counts, partition, determinism, membership)",
    )


def test_criterion_7_biased_sampling_generalization():
    shape = (5, 2, 3, 3, 3)
    dense = low_rank_values(shape, rank=3, seed=2024, unit_std=False)
    values = (dense - dense.min()) / (dense.max() - dense.min())
    obs = obs_from_values(shape, values)
    # region covers 4 of 15 projection cells (~27%) on axes p0 x p2
    region = RegionSpec(axis_a="p0", axis_b="p2", a_range=(0, 1), b_range=(0, 1))
    cfg = TrainConfig(rank=3, epochs=1200, lr=0.02, seed=100)
    table = ood_sweep(
        obs, region, n_in=54, n_out_list=[5, 10, 20, 40], cfg=cfg,
        model_kinds=["cpd", "costco"], iterations=10,
    )
    cpd_rows = table["models"]["cpd"]
    costco_rows = table["models"]["costco"]

    base_cpd = cpd_rows[0]["metrics"]["mae"]
    base_costco = costco_rows[0]["metrics"]["mae"]
    neural_wins = base_costco["mean"] <= base_cpd["mean"]

    def monotone_within_std(rows):
        for prev, nxt in zip(rows, rows[1:]):
            if nxt["metrics"]["mae"]["mean"] > prev["metrics"]["mae"]["mean"] + prev["metrics"]["mae"]["std"]:
                return False
        return True

    trend_ok = monotone_within_std(cpd_rows) and monotone_within_std(costco_rows)
    detail = (
        f"OOD MAE at n_out=5: costco {base_costco['mean']:.3f} <= cpd {base_cpd['mean']:.3f}; "
        f"sweep monotone within 1 std: cpd={monotone_within_std(cpd_rows)}, "
        f"costco={monotone_within_std(costco_rows)}"
    )
    _report("7 biased-sampling generalization", neural_wins and trend_ok, detail)


def _lattice_csv_path():
    root = Path(os.environ.get("TENFIT_DATA_DIR", "data"))
    return root / "lattice.csv"


@pytest.mark.skipif(
    not _lattice_csv_path().exists(),
    reason="external lattice dataset not present (set TENFIT_DATA_DIR)",
)
def test_criterion_8_external_lattice_dataset(tmp_path):
    import csv as csvmod

    from tenfit.core import build_design_space, encode_observations

    csv_path = _lattice_csv_path()
    with csv_path.open(newline="", encoding="utf-8") as fh:
        reader = csvmod.DictReader(fh)
        records = list(reader)
        fields = list(reader.fieldnames)
    outcome = os.environ.get("TENFIT_LATTICE_OUTCOME", fields[-1])
    axis_names = [f for f in fields if f != outcome]
    kinds = {}
    for name in axis_names:
        try:
            for r in records:
                float(r[name])
            kinds[name] = "ordinal"
        except ValueError:
            kinds[name] = "categorical"
    space = build_design_space(records, axis_names, outcome, kinds)
    obs = encode_observations(records, space)
    data_dir = tmp_path / "lattice"
    write_dataset(obs, data_dir)

    # uniform 80/20 CPD rank 3
    train, test = uniform_split(obs, 0.8, seed=0)
    train, test = renormalize_splits(train, test, "train")
    model, _ = fit(space.shape(), train, TrainConfig(rank=3, epochs=3000, lr=0.02, restarts=5, seed=0), "cpd")
    r2 = regression_metrics(test.values, model.predict(test.indices)).r2

    # uniform-vs-biased FMS, best-of-5 restarts per sampling, 5 outer iterations
    sizes = space.shape()
    region = RegionSpec(
        axis_a=space.axes[0].name,
        axis_b=space.axes[2].name,
        a_range=(0, max(0, sizes[0] // 2 - 1)),
        b_range=(0, max(0, sizes[2] // 2 - 1)),
    )
    in_count = int(region.mask(obs).sum())
    out_count = obs.n - in_count
    scores = []
    for it in range(5):
        tr_u, _ = uniform_split(obs, 0.8, seed=it)
        tr_u, _ = renormalize_splits(tr_u, _, "train")
        m_u, _rep = fit(space.shape(), tr_u, TrainConfig(rank=3, epochs=3000, lr=0.02, restarts=5, seed=it), "cpd")
        tr_b, te_b = biased_split(obs, region, int(0.6 * in_count), max(1, int(0.05 * out_count)), seed=it)
        tr_b, te_b = renormalize_splits(tr_b, te_b, "train")
        m_b, _rep = fit(space.shape(), tr_b, TrainConfig(rank=3, epochs=3000, lr=0.02, restarts=5, seed=it), "cpd")
        scores.append(fms(m_u.factors, m_b.factors).fms)
    fms_mean = float(np.mean(scores))
    ok = r2 >= 0.95 and abs(fms_mean - 0.723) <= 0.15
    _report(
        "8 external lattice dataset",
        ok,
        f"uniform CPD R2={r2:.3f} (>=0.95); uniform-vs-biased FMS={fms_mean:.3f} (0.723 +/- 0.15)",
    )


def test_criterion_9_costco_capacity_and_determinism():
    shape = (4, 4, 4)
    obs = random_obs(shape, 50, seed=42)
    cfg = TrainConfig(
        rank=3, epochs=3000, lr=0.01, seed=7, n_init_groups=3, conv_channels=8, hidden_units=16
    )
    _, report_a = fit(shape, obs, cfg, "costco")
    _, report_b = fit(shape, obs, cfg, "costco")
    ok = report_a.final_loss <= 1e-3 and report_a.losses == report_b.losses
    _report(
        "9 costco capacity + determinism",
        ok,
        f"train MSE {report_a.final_loss:.2e} (<=1e-3) in 3000 epochs; identical loss curves={report_a.losses == report_b.losses}",
    )
