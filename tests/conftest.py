import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from crsched.channels import DeterministicGain, RayleighGain
from crsched.engine import PHI_ACTUAL, SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import Bernoulli


def shipped_config(name: str) -> str:
    return str(resources.files("crsched") / "configs" / name)


def set_key(text: str, section: str, key: str, value: str) -> str:
    """Config text with ``key = value`` in [section], replacing the key's
    line there or, if it has none, added under the section header."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    for i in range(start + 1, end):
        if lines[i].split("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def two_user_sus(lam: float, g_means=(0.4, 0.2), bounds=(1.5, 5.0)):
    """The baseline pair: unit deterministic direct links, faded
    interference links."""
    return tuple(
        SuConfig(
            arrivals=Bernoulli(lam),
            delay_bound=d,
            direct=DeterministicGain(1.0),
            interference=RayleighGain(g),
        )
        for d, g in zip(bounds, g_means)
    )


def two_user_config(lam: float, scheduler: str, i_avg: float = 2.0, seed: int = 1, **kw) -> SimConfig:
    return SimConfig(
        sus=two_user_sus(lam),
        i_avg=i_avg,
        scheduler=SchedulerKind(scheduler),
        seed=seed,
        **kw,
    )


class Staged(NamedTuple):
    """One user's preset state for staged_sim: the arrival slots of its
    queued packets (oldest first), Y, its delay bound and constant gains."""

    fifo: tuple[int, ...] = ()
    y: float = 0.0
    d: float = 1.5
    direct: float = 1.0
    interference: float = 0.4


def staged_sim(kind: str, *users: Staged, x: float = 0.0, slot: int = 0,
               phi_mode: str = PHI_ACTUAL, i_avg: float = 2.0) -> Simulation:
    """A Simulation paused at ``slot`` with the given X and users.

    Nothing arrives and every gain is constant, so the next slot, stepped
    with run_slot() or observe(1), decides on exactly the preset state.
    """
    sim = Simulation(SimConfig(
        sus=tuple(
            SuConfig(
                arrivals=Bernoulli(0.0),
                delay_bound=u.d,
                direct=DeterministicGain(u.direct),
                interference=DeterministicGain(u.interference),
            )
            for u in users
        ),
        i_avg=i_avg,
        scheduler=SchedulerKind(kind, phi_mode),
    ))
    sim.slot = slot
    sim.x = x
    for i, u in enumerate(users):
        sim.y[i] = u.y
        sim.sus[i].queue.fifo.extend(u.fifo)
    return sim


@pytest.fixture
def table1_cfg_path():
    return shipped_config("table1.cfg")


@pytest.fixture
def binding_cfg_path():
    return shipped_config("binding.cfg")
