"""FIFO packet queues and arrival processes.

Each user buffers whole packets in arrival order and tracks, per departed
packet, the waiting time W = departure slot - arrival slot + 1 (the
transmission slot counts, so W >= 1 always).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from numbers import Integral

import numpy as np

DEFAULT_BUFFER_CAP = 10_000_000


class InfeasibleLoadError(RuntimeError):
    """A queue outgrew its safety cap: the offered load cannot be served."""


class SettingError(ValueError):
    """A constructor refused the value of its field ``field``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def require_integer(owner, *fields: str) -> None:
    """Refuse any of owner's fields that is not an integer (a bool neither)."""
    for field in fields:
        value = getattr(owner, field)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise SettingError(field, f"{field} must be an integer, got {value!r}")


def require_instance(field: str, value, kind, what: str | None = None) -> None:
    """Refuse ``value`` (field's value, or what of it) unless it is a
    ``kind``: a class or a union of classes."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in getattr(kind, "__args__", (kind,)))
        raise SettingError(field, f"{what or field} must be {names}, got {value!r}")


@dataclass(frozen=True)
class Bernoulli:
    """At most one arrival per slot, with mean ``rate``."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise SettingError("rate", f"bernoulli rate must be in [0, 1], got {self.rate!r}")

    @property
    def a_max(self) -> int:
        return 1

    def draw(self, source) -> int:
        return 1 if source.random() < self.rate else 0

    def counts(self, u: np.ndarray) -> np.ndarray:
        """draw() applied to each uniform of ``u``."""
        return (u < self.rate).astype(int)

    def with_rate(self, rate: float) -> "Bernoulli":
        return Bernoulli(rate)


@lru_cache(maxsize=None)
def _truncated_poisson_cdf(rate: float, cap: int) -> tuple[float, ...]:
    # Renormalized over {0, ..., cap}; this is a conditioned distribution,
    # not a clamp of the unbounded one, so no mass piles up at the cap.
    weights = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(cap + 1)]
    total = sum(weights)
    return tuple(accumulate(w / total for w in weights))


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson(rate) conditioned on the support {0, ..., cap}."""

    rate: float
    cap: int

    def __post_init__(self):
        require_integer(self, "cap")
        if self.cap < 1:
            raise SettingError("cap", f"poisson cap must be at least 1, got {self.cap!r}")
        if not 0.0 <= self.rate <= self.cap:
            raise SettingError("rate", f"poisson rate must be in [0, cap={self.cap}], got {self.rate!r}")

    @property
    def a_max(self) -> int:
        return self.cap

    def draw(self, source) -> int:
        u = source.random()
        for k, c in enumerate(_truncated_poisson_cdf(self.rate, self.cap)):
            if u < c:
                return k
        return self.cap

    def counts(self, u: np.ndarray) -> np.ndarray:
        """draw() applied to each uniform of ``u``."""
        cdf = np.array(_truncated_poisson_cdf(self.rate, self.cap))
        return np.minimum(np.searchsorted(cdf, u, side="right"), self.cap)

    def with_rate(self, rate: float) -> "TruncatedPoisson":
        return TruncatedPoisson(rate, self.cap)


ArrivalProcess = Bernoulli | TruncatedPoisson


class SuQueue:
    """One user's FIFO buffer plus cumulative arrival/departure stats.

    The FIFO holds each queued packet's arrival slot, oldest first. The
    slot loop (engine.Simulation) appends arriving packets to its tail,
    pops departing packets off its head and adds them to the departure
    counters. A packet leaves the FIFO only by departing, so the arrivals
    so far are the departures plus the backlog.
    """

    __slots__ = ("arrivals", "buffer_cap", "fifo", "cumulative_departures", "departed_waiting_sum")

    def __init__(self, arrivals: ArrivalProcess, buffer_cap: int = DEFAULT_BUFFER_CAP):
        self.arrivals = arrivals
        self.buffer_cap = buffer_cap
        self.fifo: deque[int] = deque()
        self.cumulative_departures = 0
        self.departed_waiting_sum = 0

    @property
    def backlog(self) -> int:
        return len(self.fifo)

    @property
    def cumulative_arrivals(self) -> int:
        return self.cumulative_departures + len(self.fifo)

    def draw_arrivals(self, slot: int, source) -> int:
        """Draw this slot's arrivals from ``source.random()`` and admit them."""
        return self.admit(self.arrivals.draw(source), slot)

    def admit(self, n: int, slot: int) -> int:
        """Queue n packets arriving at ``slot`` (they may depart in it); return n.

        The scalar arrival path of draw_arrivals; the slot loop admits
        arrivals itself, with the same cap check.
        """
        self.fifo.extend(repeat(slot, n))
        if len(self.fifo) > self.buffer_cap:
            raise InfeasibleLoadError(f"backlog exceeded safety cap {self.buffer_cap} at slot {slot}")
        return n

    def average_delay(self) -> float | None:
        """Mean waiting time over departed packets; None if none departed."""
        if self.cumulative_departures == 0:
            return None
        return self.departed_waiting_sum / self.cumulative_departures
