"""Per-slot channel gain models.

Gains are power gains, drawn independently across slots and links and
truncated to a finite support [0, cap]. Two models cover the experiments:
a constant gain and a Rayleigh-faded link, whose power gain (the squared
envelope) is exponentially distributed with the configured mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .queueing import SettingError

# Default truncation point for fading gains, as a multiple of the mean.
# P(exceed) = exp(-25), so the truncation is statistically invisible but
# keeps every per-slot quantity bounded.
RAYLEIGH_CAP_FACTOR = 25.0


@dataclass(frozen=True)
class DeterministicGain:
    """Constant power gain. The cap defaults to the value itself."""

    value: float
    cap: float | None = None

    def __post_init__(self):
        if self.cap is None:
            object.__setattr__(self, "cap", float(self.value))
        if not (math.isfinite(self.value) and math.isfinite(self.cap)):
            raise SettingError("cap" if math.isfinite(self.value) else "value",
                               f"deterministic gain {self.value!r} and its cap {self.cap!r} must be finite")
        if not 0.0 <= self.value <= self.cap:
            raise SettingError("value", f"deterministic gain {self.value!r} outside [0, {self.cap!r}]")


@dataclass(frozen=True)
class RayleighGain:
    """Rayleigh-faded link: exponential power gain, truncated at cap."""

    mean: float
    cap: float | None = None

    def __post_init__(self):
        if not 0.0 < self.mean < math.inf:
            raise SettingError("mean", f"rayleigh mean must be positive and finite, got {self.mean!r}")
        if self.cap is None:
            object.__setattr__(self, "cap", RAYLEIGH_CAP_FACTOR * self.mean)
        if not 0.0 < self.cap < math.inf:
            raise SettingError("cap", f"rayleigh cap must be positive and finite, got {self.cap!r}")

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.minimum(rng.exponential(self.mean, n), self.cap)


ChannelModel = DeterministicGain | RayleighGain
