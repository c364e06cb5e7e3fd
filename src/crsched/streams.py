"""Deterministic random-stream derivation.

Every stochastic component of a run (each user's arrival process, each
user's direct and interference channels) owns a private generator derived
from the master seed and a (user index, role) pair. A user's draw sequence
is therefore a pure function of the seed and its own index: adding or
removing other users, or changing the order components are sampled in,
never perturbs it.
"""

from __future__ import annotations

import numpy as np

ROLE_DIRECT = 0
ROLE_INTERFERENCE = 1
ROLE_ARRIVALS = 2


def substream(seed: int, su_index: int, role: int) -> np.random.Generator:
    """Independent PCG64 generator for the (seed, su_index, role) triple."""
    if su_index < 0 or role < 0:
        raise ValueError("su_index and role must be nonnegative")
    ss = np.random.SeedSequence(seed, spawn_key=(su_index, role))
    return np.random.Generator(np.random.PCG64(ss))
