import numpy as np
import pytest

from crsched.channels import DeterministicGain
from crsched.engine import BLOCK, SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import TruncatedPoisson
from crsched.streams import ROLE_ARRIVALS, ROLE_DIRECT, ROLE_INTERFERENCE, substream


def test_same_triple_gives_identical_stream():
    a = substream(42, 1, ROLE_DIRECT).random(1000)
    b = substream(42, 1, ROLE_DIRECT).random(1000)
    assert np.array_equal(a, b)


def test_distinct_roles_and_indexes_give_distinct_streams():
    base = substream(42, 0, ROLE_DIRECT).random(100)
    for su, role in [(0, ROLE_INTERFERENCE), (0, ROLE_ARRIVALS), (1, ROLE_DIRECT)]:
        other = substream(42, su, role).random(100)
        assert not np.array_equal(base, other)


def test_distinct_seeds_give_distinct_streams():
    a = substream(1, 0, ROLE_DIRECT).random(100)
    b = substream(2, 0, ROLE_DIRECT).random(100)
    assert not np.array_equal(a, b)


def test_negative_identifiers_rejected():
    with pytest.raises(ValueError):
        substream(1, -1, 0)
    with pytest.raises(ValueError):
        substream(1, 0, -1)


def test_buffered_uniforms_match_scalar_draws():
    # Drawing inputs in blocks is a speed layer only: a Simulation's arrival
    # counts over several blocks equal one scalar draw per slot from an
    # identically seeded generator, decoded by the scalar law.
    cfg = SimConfig(
        sus=(SuConfig(arrivals=TruncatedPoisson(1.2, 4), delay_bound=1.0,
                      direct=DeterministicGain(1.0), interference=DeterministicGain(1.0)),),
        i_avg=1.0,
        scheduler=SchedulerKind("proposed"),
        seed=7,
    )
    sim = Simulation(cfg)
    blocked = []
    for _ in range(3):
        sim._fill_block()
        blocked += sim.sus[0].arrivals
    scalar = substream(7, 0, ROLE_ARRIVALS)
    assert blocked == [cfg.sus[0].arrivals.draw(scalar) for _ in range(3 * BLOCK)]
