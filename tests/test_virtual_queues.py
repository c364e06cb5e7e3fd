import pytest
from hypothesis import given, strategies as st

from crsched.channels import DeterministicGain
from crsched.engine import (
    MAXWEIGHT,
    SchedulerKind,
    SimConfig,
    Simulation,
    SuConfig,
    stability_metric,
)
from crsched.queueing import Bernoulli

from conftest import Staged, staged_sim, two_user_config


def delay_level_after(y, d, waits):
    """Y after one slot in which packets with these waiting times (oldest
    first) depart. One more packet, arrived this slot, stays behind, so an
    empty ``waits`` is a scheduled slot that sends nothing."""
    slot = max(waits, default=1)
    fifo = tuple(slot - w + 1 for w in waits) + (slot,)
    # Rate log2(1 + 2^n - 1) = n exactly.
    sim = staged_sim(MAXWEIGHT, Staged(fifo=fifo, y=y, d=d, direct=2.0 ** len(waits) - 1.0),
                     slot=slot)
    t, = sim.observe(1)
    assert t.su == 0
    assert t.waiting_times == tuple(waits)
    return sim.y[0]


def interference_level_after(x, gain, budget):
    """X after one slot that schedules a user with this interference gain,
    or idles when ``gain`` is None."""
    users = (Staged(),) if gain is None else (Staged(fifo=(0,), direct=0.0, interference=gain),)
    sim = staged_sim(MAXWEIGHT, *users, x=x, slot=1, i_avg=budget)
    sim.run_slot()
    return sim.x


class TestDelayVirtualQueue:
    def test_starts_at_zero_and_requires_positive_bound(self):
        assert Simulation(two_user_config(0.1, "proposed")).y == [0.0, 0.0]
        with pytest.raises(ValueError, match="delay bound must be positive"):
            SuConfig(Bernoulli(0.1), 0.0, DeterministicGain(1.0), DeterministicGain(1.0))

    def test_accumulates_excess_over_bound(self):
        assert delay_level_after(2.0, 1.5, [3, 1]) == 3.0

    def test_clamped_at_zero(self):
        assert delay_level_after(0.5, 5.0, [1]) == 0.0

    def test_no_departures_leaves_level_unchanged(self):
        assert delay_level_after(7.0, 1.0, []) == 7.0
        # An idle slot leaves it too.
        sim = staged_sim(MAXWEIGHT, Staged(y=7.0))
        assert sim.run_slot() is None
        assert sim.y == [7.0]

    @given(
        levels=st.floats(min_value=0.0, max_value=100.0),
        bound=st.floats(min_value=0.1, max_value=10.0),
        waits=st.lists(st.integers(min_value=1, max_value=50), max_size=6),
    )
    def test_never_negative(self, levels, bound, waits):
        assert delay_level_after(levels, bound, sorted(waits, reverse=True)) >= 0.0


class TestInterferenceVirtualQueue:
    def test_starts_at_zero_and_requires_positive_budget(self):
        assert Simulation(two_user_config(0.1, "proposed")).x == 0.0
        with pytest.raises(ValueError, match="interference budget must be positive"):
            SimConfig(
                sus=two_user_config(0.1, "proposed").sus,
                i_avg=0.0,
                scheduler=SchedulerKind("proposed"),
            )

    def test_accumulates_gain_minus_budget(self):
        assert interference_level_after(1.9, 0.4, 2.0) == pytest.approx(0.3)

    def test_idle_slot_drains_budget(self):
        assert interference_level_after(5.0, None, 2.0) == 3.0

    def test_clamped_at_zero(self):
        assert interference_level_after(0.0, 0.3, 2.0) == 0.0

    @given(
        start=st.floats(min_value=0.0, max_value=50.0),
        gain=st.floats(min_value=0.0, max_value=20.0),
        budget=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_never_negative(self, start, gain, budget):
        assert interference_level_after(start, gain, budget) >= 0.0


class TestStabilityMetric:
    def test_average_level_per_queue_per_slot(self):
        assert stability_metric(50.0, (30.0, 10.0), 10**4) == 0.003

    def test_all_zero(self):
        assert stability_metric(0.0, (0.0, 0.0), 10**4) == 0.0

    def test_above_threshold_case(self):
        # A terminal level of 600 over 10^4 slots averages 0.02 per queue
        # per slot, which is not below the usual 0.01 threshold.
        metric = stability_metric(600.0, (0.0, 0.0), 10**4)
        assert metric == 0.02
        assert not metric < 0.01

    def test_requires_elapsed_slots(self):
        with pytest.raises(ValueError):
            stability_metric(1.0, (0.0,), 0)


def test_interference_pressure_grows_with_load():
    # Under a tight budget (0.1) and a policy that transmits whenever
    # backlogged, the accumulator's normalized level must rise with load:
    # light traffic leaves it at zero while heavy traffic overruns the
    # budget every scheduled slot (fixed seed, fixed horizon).
    def x_over_t(lam):
        sim = Simulation(
            two_user_config(lam, "proposed-nonidling", i_avg=0.1, seed=5,
                            max_slots=20_000, check_interval=20_000, epsilon=0.0)
        )
        for _ in range(20_000):
            sim.run_slot()
        return sim.x / sim.slot

    assert x_over_t(0.02) < x_over_t(0.4)
