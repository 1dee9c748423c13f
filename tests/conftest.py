import numpy as np
import pytest

from tenfit.core import DesignSpace, Normalizer, ObservationSet
from tenfit.cpd import FactorSet, init_factors, reconstruct_full


def full_grid_indices(shape) -> np.ndarray:
    return np.indices(shape).reshape(len(shape), -1).T.astype(np.int64)


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
