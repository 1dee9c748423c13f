import numpy as np
import pytest
from conftest import full_grid_indices
from oracles import costco_loss_and_grad, cpd_loss_and_grad

from tenfit.core import DesignSpace, Normalizer, ObservationSet, block_views, pack, unpack
from tenfit.cpd import SmoothnessConfig, masked_objective
from tenfit.errors import ContractError
from tenfit.neural import _masked_objective, _sum_rows, costco_init, costco_layout
from tenfit.optim import MODEL_KINDS, TrainConfig

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


def unflatten(g, arrays):
    """One fit's flat gradient split into arrays shaped as `arrays`."""
    return unpack(g, [a.shape for a in arrays])


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
            (loss,), g = objective(np.concatenate(factors, axis=None))
            grads = unflatten(g, factors)
            ref_loss, ref_grads = cpd_loss_and_grad(
                factors, obs.indices, obs.values, cfg.weight, cfg.modes
            )
            assert objective(np.concatenate(factors, axis=None), grad=False) == loss
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
        (loss,), g = _masked_objective([obs], cfg)(np.concatenate(arrays, axis=None))
        grads = unflatten(g, arrays)
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
    losses, g = objective(np.concatenate(first, axis=None))
    val_losses = objective(np.concatenate(first, axis=None), grad=False)
    kept = losses.copy(), val_losses.copy(), g.copy()

    losses_2, g_2 = objective(np.concatenate(second, axis=None))
    objective(np.concatenate(second, axis=None), grad=False)
    assert np.array_equal(losses, kept[0]) and np.array_equal(val_losses, kept[1])
    assert np.array_equal(g, kept[2])
    grads_2 = block_views(g_2, [s.shape[1:] for s in second], 2)
    for b, obs in enumerate(sets):
        ref_loss, ref_grads = cpd_loss_and_grad(
            [f[b] for f in second], obs.indices, obs.values, cfg.weight, cfg.modes
        )
        assert rel_err(losses_2[b], ref_loss) <= TOLERANCE
        assert all(rel_err(grad[b], r) <= TOLERANCE for grad, r in zip(grads_2, ref_grads))


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
    # the buffer of one fit of shape (6, 3) at rank 2 holds 18 entries
    rng = np.random.default_rng(1)
    obs = random_observations(rng, (6, 3), 10)
    objective = masked_objective([obs], 2)
    with pytest.raises(ContractError, match="flat factor buffer must hold 18 entries"):
        objective(np.concatenate([rng.normal(size=s) for s in stacks], axis=None))


@pytest.mark.parametrize("kind", ["cpd", "costco"])
def test_objectives_reject_a_buffer_of_the_wrong_length_or_not_flat(kind):
    # a CoSTCo buffer one entry short would shift every head array's view
    rng = np.random.default_rng(3)
    shape, cfg = (4, 3, 5), TrainConfig(rank=2, n_init_groups=2, conv_channels=3, hidden_units=4)
    sets = [random_observations(rng, shape, 12) for _ in range(2)]
    trainable = MODEL_KINDS[kind](shape, cfg)
    objective = trainable.objective(sets)
    flat = pack(map(trainable.init, (0, 1)))
    objective(flat)
    for wrong in (flat[:-1], np.append(flat, 0.0), flat[None], flat[: flat.size // 2]):
        for grad in (True, False):
            with pytest.raises(ContractError, match=f"must hold {flat.size} entries"):
                objective(wrong, grad=grad)


def test_costco_objective_results_outlive_the_next_call():
    # the closure reuses its gather, forward and backward arrays; what one
    # call returns must not change when the next call runs on other arrays
    rng = np.random.default_rng(8)
    shape = (4, 3, 5)
    cfg = TrainConfig(rank=2, n_init_groups=2, conv_channels=3, hidden_units=4)
    sets = [random_observations(rng, shape, 17) for _ in range(2)]
    objective = _masked_objective(sets, cfg)
    first, second = ([costco_init(shape, cfg, seed) for seed in seeds] for seeds in ((0, 1), (2, 3)))
    stacked = [pack(fits) for fits in (first, second)]
    losses, g = objective(stacked[0])
    val_losses = objective(stacked[0], grad=False)
    kept = losses.copy(), val_losses.copy(), g.copy()

    losses_2, g_2 = objective(stacked[1].copy())  # another buffer: the head views follow it
    objective(stacked[1], grad=False)
    assert np.array_equal(losses, kept[0]) and np.array_equal(val_losses, kept[1])
    assert np.array_equal(g, kept[2])
    grads_2 = block_views(g_2, [a.shape for a in second[0]], 2)
    names = [name for name, _ in costco_layout(shape, cfg)]
    for b, obs in enumerate(sets):
        ref_loss, ref_grads = costco_loss_and_grad(dict(zip(names, second[b])), obs.indices,
                                                   obs.values)
        assert rel_err(losses_2[b], ref_loss) <= TOLERANCE
        assert all(rel_err(grad[b], r) <= TOLERANCE for grad, r in zip(grads_2, ref_grads))


def test_row_sums_equal_numpy_sums_bit_for_bit():
    # _sum_rows takes einsum where C >= 2 and a.sum(axis=1) at C = 1, where
    # einsum's sums differ from the pairwise ones in their last bits
    rng = np.random.default_rng(11)
    einsum_differs_at_one = 0
    for _ in range(400):
        n_fits, n, channels = (int(rng.integers(1, k)) for k in (5, 2000, 20))
        a = rng.normal(size=(n_fits, n, channels)) * 10.0 ** rng.integers(-6, 6, size=(1, n, 1))
        want = a.sum(axis=1)
        got = _sum_rows(a, out=np.empty((n_fits, channels)))
        assert got.tobytes() == want.tobytes()
        if channels == 1:
            einsum_differs_at_one += np.einsum("bnc->bc", a).tobytes() != want.tobytes()
    assert einsum_differs_at_one  # the C = 1 fallback is needed
