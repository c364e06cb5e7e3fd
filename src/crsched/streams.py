"""Deterministic random-stream derivation.

Every stochastic component of a run (each user's arrival process, each
user's direct and interference channels) owns a private generator derived
from the master seed and a (user index, role) pair. A user's draw sequence
is therefore a pure function of the seed and its own index: adding or
removing other users, or changing the order components are sampled in,
never perturbs it.
"""

from __future__ import annotations

from typing import Callable

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


class BufferedDraws:
    """Scalar draws served from blocks of a batched numpy draw ``fill(n)``,
    such as ``gen.random`` or a gain model's bound ``sample_block``.

    numpy fills a batched request from the same bit stream as repeated
    scalar calls, so the value sequence equals one scalar draw per call.
    """

    __slots__ = ("_fill", "_block", "_buf", "_idx")

    def __init__(self, fill: Callable[[int], np.ndarray], block: int = 4096):
        if block < 1:
            raise ValueError("block size must be positive")
        self._fill = fill
        self._block = block
        self._buf = fill(block).tolist()
        self._idx = 0

    def random(self) -> float:
        """The next draw; named like ``Generator.random``, which arrival
        processes call on their uniform source."""
        i = self._idx
        if i == self._block:
            self._buf = self._fill(self._block).tolist()
            i = 0
        self._idx = i + 1
        return self._buf[i]
