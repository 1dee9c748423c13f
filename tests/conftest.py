import math
from dataclasses import replace

import numpy as np
import pytest

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import FactorSet, SmoothnessConfig, init_factors, masked_mse, reconstruct_full
from tenfit.cpd import smoothness_penalty
from tenfit.harness import RegionSpec
from tenfit.neural import neural_loss


def full_grid_indices(shape) -> np.ndarray:
    return np.indices(shape).reshape(len(shape), -1).T.astype(np.int64)


def random_obs(shape, n, seed, low=0.0, high=1.0) -> ObservationSet:
    """n distinct cells of `shape` with uniform values in [low, high), drawn
    from `seed` (an int, or a Generator the draws continue)."""
    rng = np.random.default_rng(seed)
    grid = full_grid_indices(shape)
    picked = rng.choice(len(grid), size=n, replace=False)
    return ObservationSet(
        space=DesignSpace.from_shape(shape),
        indices=grid[picked],
        values=rng.uniform(low, high, size=n),
        normalizer=Normalizer(low, high),
    )


def as_row_set(obs):
    return {tuple(i) + (v,) for i, v in zip(obs.indices, obs.values)}


def random_region(rng, sizes) -> RegionSpec:
    """A region on two distinct random axes of a space of axis `sizes`,
    each interval random and non-empty."""
    axes = rng.choice(len(sizes), size=2, replace=False)
    a_lo = int(rng.integers(0, sizes[axes[0]]))
    a_hi = int(rng.integers(a_lo, sizes[axes[0]]))
    b_lo = int(rng.integers(0, sizes[axes[1]]))
    b_hi = int(rng.integers(b_lo, sizes[axes[1]]))
    return RegionSpec(axis_a=f"p{axes[0]}", axis_b=f"p{axes[1]}",
                      a_range=(a_lo, a_hi), b_range=(b_lo, b_hi))


def random_cpd_instance(rng):
    """Random factors of 2-3 modes of size 2-4 at rank 1-3, a random
    non-empty set of their cells with uniform values, and no smoothing or a
    random weight on a random set of modes."""
    ndim = int(rng.integers(2, 4))
    shape = tuple(int(rng.integers(2, 5)) for _ in range(ndim))
    rank = int(rng.integers(1, 4))
    factors = FactorSet([rng.normal(0, 0.8, size=(s, rank)) for s in shape])
    obs = random_obs(shape, int(rng.integers(1, math.prod(shape) + 1)), rng, low=-1.0)
    if rng.random() < 0.5:
        cfg = SmoothnessConfig()
    else:
        modes = tuple(m for m in range(ndim) if rng.random() < 0.7)
        cfg = SmoothnessConfig(weight=float(rng.uniform(0.01, 0.5)), modes=modes)
    return factors, obs, cfg


def fd_cpd_gradient(factors, obs, cfg, h=1e-5):
    """Central finite differences of the full CPD training objective."""

    def loss(fs):
        return masked_mse(fs, obs) + smoothness_penalty(fs, cfg)

    grads = []
    for m, matrix in enumerate(factors.factors):
        g = np.zeros_like(matrix)
        for i in range(matrix.shape[0]):
            for r in range(matrix.shape[1]):
                plus, minus = copy_factors(factors), copy_factors(factors)
                plus.factors[m][i, r] += h
                minus.factors[m][i, r] -= h
                g[i, r] = (loss(plus) - loss(minus)) / (2 * h)
        grads.append(g)
    return grads


def fd_neural_gradient(model, obs, h=1e-6):
    """Central finite differences of a CoSTCo model's masked MSE, one array
    per parameter."""
    names, params = list(model.params), list(model.params.values())

    def loss_of(plist):
        return neural_loss(replace(model, params=dict(zip(names, plist))), obs)

    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        flat = g.ravel()
        for j in range(p.size):
            plus = [q.copy() for q in params]
            plus[k].ravel()[j] += h
            minus = [q.copy() for q in params]
            minus[k].ravel()[j] -= h
            flat[j] = (loss_of(plus) - loss_of(minus)) / (2 * h)
        grads.append(g)
    return grads


def obs_from_values(shape, values, normalizer=None) -> ObservationSet:
    """Fully observed synthetic tensor with an identity normalizer."""
    space = DesignSpace.from_shape(shape)
    return ObservationSet(
        space=space,
        indices=full_grid_indices(shape),
        values=np.asarray(values, dtype=float).ravel(),
        normalizer=normalizer or Normalizer(0.0, 1.0),
    )


def copy_factors(factors: FactorSet) -> FactorSet:
    """A factor set whose matrices are copies, safe to edit in place."""
    return FactorSet([f.copy() for f in factors.factors])


def permute_components(factors: FactorSet, permutation) -> FactorSet:
    """The factor set with its components (columns) in the order given by
    `permutation`, a bijection on 0..R-1."""
    assert sorted(permutation) == list(range(factors.rank))
    return FactorSet([f[:, list(permutation)] for f in factors.factors])


def low_rank_values(shape, rank, seed, unit_std=True) -> np.ndarray:
    """Raw values of a seeded rank-R tensor; scaling preserves the rank."""
    dense = reconstruct_full(init_factors(shape, rank, seed)).array.ravel()
    return dense / dense.std() if unit_std else dense


@pytest.fixture
def lattice_records():
    """Full factorial records shaped like a 5-geometry lattice study."""
    geometries = ["octet", "gyroid", "bcc", "fcc", "kelvin"]
    records = []
    value = 0.0
    for g in geometries:
        for t in (0.4, 0.8):
            for x in (1, 2, 3):
                for y in (1, 2, 3):
                    for z in (1, 2, 3):
                        value += 1.0
                        records.append(
                            {
                                "geometry": g,
                                "thickness": t,
                                "ux": x,
                                "uy": y,
                                "uz": z,
                                "stiffness": value,
                            }
                        )
    return records
