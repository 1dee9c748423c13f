import numpy as np
import pytest
from conftest import full_grid_indices
from oracles import costco_loss_and_grad, cpd_loss_and_grad

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import SmoothnessConfig, masked_objective
from tenfit.errors import ContractError
from tenfit.neural import _masked_objective, costco_init, costco_layout
from tenfit.optim import TrainConfig

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
        cfg = TrainConfig(
            rank=rank, n_init_groups=n_groups, conv_channels=int(rng.integers(1, 6)), hidden_units=7
        )
        arrays = costco_init(shape, cfg, seed=trial)
        (loss,), grads = _masked_objective([obs], n_groups, rank)([p[None] for p in arrays])
        grads = [g[0] for g in grads]
        named = dict(zip([name for name, _ in costco_layout(shape, cfg)], arrays))
        ref_loss, ref_grads = costco_loss_and_grad(named, obs.indices, obs.values)
        assert [g.shape for g in grads] == [g.shape for g in ref_grads]
        worst = max(worst, rel_err(loss, ref_loss), *map(rel_err, grads, ref_grads))
        for s in range(n_groups):  # the unobserved row gets no embedding gradient
            assert np.all(grads[s * ndim][0] == 0.0)

    assert worst <= TOLERANCE, f"worst relative error {worst:.2e}"


@pytest.mark.parametrize("cfg", [SmoothnessConfig(), SmoothnessConfig(weight=0.2, modes=(0, 2))])
def test_cpd_objective_results_outlive_the_next_call(cfg):
    # the closure reuses its work arrays; what one call returns must not
    # change when the next call runs on other factors
    rng = np.random.default_rng(7)
    shape, rank = (4, 3, 5), 3
    sets = [random_observations(rng, shape, n) for n in (20, 31)]
    objective = masked_objective(sets, rank, cfg)
    first = [rng.normal(0, 0.8, size=(2, s, rank)) for s in shape]
    second = [rng.normal(0, 0.8, size=(2, s, rank)) for s in shape]
    losses, grads = objective(first)
    val_losses = objective(first, grad=False)
    kept = losses.copy(), val_losses.copy(), [g.copy() for g in grads]

    losses_2, grads_2 = objective(second)
    objective(second, grad=False)
    assert np.array_equal(losses, kept[0]) and np.array_equal(val_losses, kept[1])
    assert all(np.array_equal(g, k) for g, k in zip(grads, kept[2]))
    for b, obs in enumerate(sets):
        ref_loss, ref_grads = cpd_loss_and_grad(
            [f[b] for f in second], obs.indices, obs.values, cfg.weight, cfg.modes
        )
        assert rel_err(losses_2[b], ref_loss) <= TOLERANCE
        assert all(rel_err(g[b], r) <= TOLERANCE for g, r in zip(grads_2, ref_grads))


@pytest.mark.parametrize(
    "stacks",
    [
        [(1, 5, 2), (1, 3, 2)],  # mode 0 one row short
        [(1, 4, 2), (1, 4, 2)],  # mode 1 one row long
        [(1, 6, 2), (1, 3, 3)],  # rank disagrees
        [(2, 6, 2), (2, 3, 2)],  # two fits for one data set
        [(1, 6, 2)],  # a mode missing
    ],
)
def test_cpd_objective_rejects_wrong_factor_shapes(stacks):
    rng = np.random.default_rng(1)
    obs = random_observations(rng, (6, 3), 10)
    objective = masked_objective([obs], 2)
    with pytest.raises(ContractError, match="factor stacks"):
        objective([rng.normal(size=s) for s in stacks])
