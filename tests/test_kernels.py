import numpy as np
from conftest import full_grid_indices
from oracles import costco_loss_and_grad, cpd_loss_and_grad

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import SmoothnessConfig, masked_objective
from tenfit.neural import (
    _masked_objective,
    init_conv_head,
    init_embedding_bank,
    pack_params,
)

TOLERANCE = 1e-12


def rel_err(got, want) -> float:
    """Largest entry-wise difference relative to the largest reference entry."""
    scale = max(float(np.max(np.abs(want), initial=0.0)), np.finfo(float).tiny)
    return float(np.max(np.abs(np.asarray(got) - want), initial=0.0)) / scale


def random_observations(rng, shape, n):
    """n distinct cells, none in mode 0's first row."""
    grid = full_grid_indices(shape)
    grid = grid[grid[:, 0] != 0]
    picked = grid[rng.choice(len(grid), size=n, replace=False)]
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=picked,
        values=rng.uniform(-1, 1, size=n),
        normalizer=Normalizer(0.0, 1.0),
    )


def test_fused_objectives_match_reference_kernels():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(12):
        ndim = int(rng.integers(3, 6))
        shape = tuple(int(rng.integers(2, 6)) for _ in range(ndim))
        rank = int(rng.integers(1, 5))
        n_cells = int(np.prod(shape)) - int(np.prod(shape[1:]))
        obs = random_observations(rng, shape, int(rng.integers(shape[1] + 1, n_cells + 1)))
        assert len(np.unique(obs.indices[:, 1])) < obs.n  # repeated rows
        assert not np.any(obs.indices[:, 0] == 0)  # an unobserved row

        # cpd, then cpd_s with every mode smoothed, then with two of them
        factors = [rng.normal(0, 0.8, size=(s, rank)) for s in shape]
        weight = float(rng.uniform(0.01, 0.5))
        for modes in ((), tuple(range(ndim)), (0, ndim - 1)):
            cfg = SmoothnessConfig(weight=weight if modes else 0.0, modes=modes)
            objective = masked_objective([obs], rank, cfg)
            (loss,), grads = objective([f[None] for f in factors])
            grads = [g[0] for g in grads]
            ref_loss, ref_grads = cpd_loss_and_grad(
                factors, obs.indices, obs.values, cfg.weight, cfg.modes
            )
            assert objective([f[None] for f in factors], grad=False) == loss
            assert [g.shape for g in grads] == [g.shape for g in ref_grads]
            worst = max(worst, rel_err(loss, ref_loss), *map(rel_err, grads, ref_grads))
            # the unobserved row gets only the smoothness gradient
            smooth_only = 2.0 * weight * (factors[0][0] - factors[0][1]) if 0 in modes else 0.0
            assert np.all(grads[0][0] == smooth_only)

        n_groups = int(rng.integers(1, 4))
        bank = init_embedding_bank(shape, rank, n_groups, seed=trial)
        head = init_conv_head(rank, ndim, n_groups, int(rng.integers(1, 6)), 7, seed=trial + 50)
        params = [p[None] for p in pack_params(bank, head)]
        (loss,), grads = _masked_objective([obs], n_groups, rank)(params)
        grads = [g[0] for g in grads]
        ref_loss, ref_grads = costco_loss_and_grad(bank, head, obs.indices, obs.values)
        assert [g.shape for g in grads] == [g.shape for g in ref_grads]
        worst = max(worst, rel_err(loss, ref_loss), *map(rel_err, grads, ref_grads))
        for s in range(n_groups):  # the unobserved row gets no embedding gradient
            assert np.all(grads[s * ndim][0] == 0.0)

    assert worst <= TOLERANCE, f"worst relative error {worst:.2e}"
