"""Deterministic substream derivation for parallel replication.

The mixing chain below is part of the package's reproducibility contract:
results are documented as functions of (master seed, index path), so the
exact avalanche function matters and must not change.
"""

import numpy as np

from .statistic import _check_int

_MASK = (1 << 64) - 1


def _splitmix64(z):
    # one splitmix64 output round
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master, *indices):
    """Mix a master seed and integer indices into one 64-bit substream seed.

    seed = splitmix64(master); then for each index in order,
    seed = splitmix64(seed XOR splitmix64(index)). Each value is an
    integer (numpy's too, not a bool), reduced modulo 2^64 first, so
    negative values are accepted.
    """
    s = _splitmix64(_check_int("master", master) & _MASK)
    for ix in indices:
        s = _splitmix64(s ^ _splitmix64(_check_int("index", ix) & _MASK))
    return s


def substream(master, *indices):
    """A numpy Generator seeded with derive_seed(master, *indices)."""
    return np.random.default_rng(derive_seed(master, *indices))
