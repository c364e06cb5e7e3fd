import numpy as np
import pytest

from crsched.channels import DeterministicGain, RayleighGain
from crsched.engine import BLOCK, SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import TruncatedPoisson
from crsched.streams import ROLE_ARRIVALS, ROLE_DIRECT, ROLE_INTERFERENCE, substream

from oracles import scalar_arrivals


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


def test_block_arrivals_match_scalar_draws():
    # Drawing inputs in blocks is a speed layer only: a Simulation's arrival
    # counts over several blocks equal one scalar draw per slot from an
    # identically seeded generator, decoded by the scalar law. A block ends
    # at the next check, so with checks every 5000 slots the blocks hold
    # 4096 and 904 slots in turn.
    cfg = SimConfig(
        sus=(SuConfig(arrivals=TruncatedPoisson(1.2, 4), delay_bound=1.0,
                      direct=DeterministicGain(1.0), interference=DeterministicGain(1.0)),),
        i_avg=1.0,
        scheduler=SchedulerKind("proposed"),
        check_interval=5000,
        seed=7,
    )
    sim = Simulation(cfg)
    blocked, lengths = [], []
    for _ in range(5):
        sim._fill_block()
        blocked += sim.sus[0].arrivals
        lengths.append(len(sim.sus[0].arrivals))
        sim.slot += lengths[-1]
    assert lengths == [BLOCK, 5000 - BLOCK, BLOCK, 5000 - BLOCK, BLOCK]
    scalar = substream(7, 0, ROLE_ARRIVALS)
    assert blocked == [scalar_arrivals(cfg.sus[0].arrivals, scalar.random()) for _ in range(sum(lengths))]


def test_a_run_draws_only_the_slots_it_runs():
    # Blocks end at the next check and at max_slots, so a run that stops at
    # either has taken exactly one draw per slot from each faded generator,
    # and none beyond: the first run converges at its first check, the
    # second (epsilon 0) runs to a max_slots between two checks.
    sus = tuple(
        SuConfig(TruncatedPoisson(0.05, 3), d, RayleighGain(direct), RayleighGain(interference))
        for d, direct, interference in ((2.0, 2.0, 0.4), (4.0, 3.0, 0.2), (6.0, 4.0, 0.3))
    )
    for max_slots, epsilon, slots in ((10_000, 0.01, 2000), (2500, 0.0, 2500)):
        cfg = SimConfig(sus=sus, i_avg=0.1, scheduler=SchedulerKind("proposed"), epsilon=epsilon,
                        max_slots=max_slots, check_interval=2000, seed=1)
        sim = Simulation(cfg)
        result = sim.run_until_converged()
        assert (result.converged, result.slots) == (epsilon > 0.0, slots)
        for i, (su, state) in enumerate(zip(sus, sim.sus)):
            arrivals = substream(1, i, ROLE_ARRIVALS)
            arrivals.random(slots)
            assert state.arrival_rng.bit_generator.state == arrivals.bit_generator.state
            for model, rng, role in ((su.direct, state.direct_rng, ROLE_DIRECT),
                                     (su.interference, state.interference_rng, ROLE_INTERFERENCE)):
                fresh = substream(1, i, role)
                model.sample_block(fresh, slots)
                assert rng.bit_generator.state == fresh.bit_generator.state
