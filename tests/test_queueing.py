import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crsched.channels import DeterministicGain
from crsched.engine import PROPOSED_NONIDLING, SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import Bernoulli, SettingError, SuQueue, TruncatedPoisson, _truncated_poisson_cdf
from crsched.streams import ROLE_ARRIVALS, substream

from conftest import Staged, staged_sim
from oracles import ScriptedSource, resim_queue_levels, scalar_arrivals, truncated_poisson_stats


class TestBernoulli:
    def test_zero_rate_never_arrives(self):
        src = substream(0, 0, ROLE_ARRIVALS)
        assert not Bernoulli(0.0).counts(src.random(100)).any()

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            Bernoulli(1.2)
        with pytest.raises(ValueError):
            Bernoulli(-0.1)

    def test_rate_one_always_arrives(self):
        src = substream(0, 0, ROLE_ARRIVALS)
        assert Bernoulli(1.0).counts(src.random(100)).tolist() == [1] * 100

    def test_empirical_mean(self):
        # Binomial oracle: std error of the mean is sqrt(p(1-p)/n).
        p, n = 0.3, 10**6
        total = int(Bernoulli(p).counts(substream(17, 0, ROLE_ARRIVALS).random(n)).sum())
        assert abs(total / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestTruncatedPoisson:
    def test_cap_respected_and_mean_matches_renormalized_pmf(self):
        rate, cap, n = 0.3, 4, 10**6
        proc = TruncatedPoisson(rate, cap)
        draws = proc.counts(substream(23, 0, ROLE_ARRIVALS).random(n)).tolist()
        assert max(draws) <= cap
        mean, var = truncated_poisson_stats(rate, cap)
        assert abs(sum(draws) / n - mean) <= 3 * math.sqrt(var / n)

    def test_rate_above_cap_rejected(self):
        with pytest.raises(ValueError):
            TruncatedPoisson(5.0, 4)
        with pytest.raises(ValueError):
            TruncatedPoisson(0.1, 0)

    @pytest.mark.parametrize("rate, cap", [(0.0, 171), (0.0, 200), (150.0, 160)])
    def test_pmf_that_overflows_a_float_rejected_at_cap(self, rate, cap):
        # 171! and 150.0**160 do not fit a float.
        with pytest.raises(SettingError, match="pmf overflows a float") as err:
            TruncatedPoisson(rate, cap)
        assert err.value.field == "cap"

    def test_largest_computable_pmf_accepted(self):
        assert TruncatedPoisson(0.0, 170).cap == TruncatedPoisson(1.5, 170).cap == 170

    def test_with_rate_keeps_cap(self):
        assert TruncatedPoisson(0.1, 4).with_rate(0.3) == TruncatedPoisson(0.3, 4)


def scalar_counts(process, us):
    """The scalar rule applied to each of the uniforms ``us`` in turn."""
    return [scalar_arrivals(process, u) for u in us]


class TestArrivalDecoding:
    """counts() decodes a block of uniforms exactly as the scalar rule
    decodes one."""

    def test_bernoulli_edges(self):
        # An arrival iff u < rate: u == rate gives none.
        rate = 0.3
        us = [0.0, np.nextafter(rate, 0.0), rate, np.nextafter(rate, 1.0), np.nextafter(1.0, 0.0)]
        want = [1, 1, 0, 0, 0]
        assert scalar_counts(Bernoulli(rate), us) == want
        assert Bernoulli(rate).counts(np.array(us)).tolist() == want

    @pytest.mark.parametrize("rate, cap", [(0.3, 4), (1.7, 3), (2.0, 2)])
    def test_truncated_poisson_edges(self, rate, cap):
        # The count is the first k with u < cdf[k]: just below an entry
        # gives its k, the entry itself moves on to k + 1, and at or above
        # the last entry the count is the cap.
        cdf = _truncated_poisson_cdf(rate, cap)
        assert all(a < b for a, b in zip(cdf, cdf[1:]))
        us, want = [0.0], [0]
        for k, c in enumerate(cdf):
            us += [np.nextafter(c, 0.0), c]
            want += [k, min(k + 1, cap)]
        us += [np.nextafter(cdf[-1], 2.0), 1.0]
        want += [cap, cap]
        proc = TruncatedPoisson(rate, cap)
        assert scalar_counts(proc, us) == want
        assert proc.counts(np.array(us)).tolist() == want

    @pytest.mark.parametrize("process", [
        Bernoulli(0.0), Bernoulli(0.45), Bernoulli(1.0),
        TruncatedPoisson(0.0, 2), TruncatedPoisson(0.8, 5), TruncatedPoisson(4.0, 4),
    ], ids=repr)
    def test_block_matches_scalar_law(self, process):
        us = substream(3, 0, ROLE_ARRIVALS).random(20_000)
        assert process.counts(us).tolist() == scalar_counts(process, us.tolist())


def staged_queue(arrival_slots, packets):
    """A one-user staged Simulation whose FIFO holds packets that arrived at
    the given slots; whenever backlogged it is scheduled and its direct
    gain 2^packets - 1 lets up to ``packets`` head packets depart."""
    return staged_sim(PROPOSED_NONIDLING, Staged(fifo=tuple(arrival_slots), direct=2.0**packets - 1.0))


def serve(sim, slot):
    """Run slot ``slot`` of a staged Simulation; return the waiting times of
    the packets that departed in it, oldest packet first."""
    sim.slot = slot
    t, = sim.observe(1)
    return t.waiting_times


def scripted_sim(arrivals, serves):
    """A one-user Simulation whose slot t admits arrivals[t] packets and
    offers serves[t] departures, scripted into its input lists. Its kernel
    counts both from those lists, as it does for truncated-Poisson arrivals
    with a cap over every count and a zero direct gain, whose packet counts
    the script replaces; it would not on a one-packet constant link."""
    sim = Simulation(SimConfig(
        sus=(SuConfig(TruncatedPoisson(0.0, max([2, *arrivals])), 1.5, DeterministicGain(0.0),
                      DeterministicGain(0.4)),),
        i_avg=2.0, scheduler=SchedulerKind(PROPOSED_NONIDLING),
    ))
    sim._inputs.fill(sim.slot)
    inputs = sim.sus[0]
    inputs.arrivals[:len(arrivals)] = arrivals
    inputs.packets[:len(serves)] = serves
    return sim


class TestPeekDepartures:
    def test_empty_queue(self):
        sim = staged_queue([], 1)
        assert serve(sim, 0) == ()
        q = sim.sus[0].queue
        assert q.backlog == 0 and q.cumulative_departures == 0

    def test_waiting_time_counts_transmission_slot(self):
        assert serve(staged_queue([3], 1), 5) == (3,)

    def test_fifo_order_and_truncation(self):
        sim = staged_queue([1, 2, 4], 2)
        assert serve(sim, 5) == (5, 4)
        assert list(sim.sus[0].queue.fifo) == [4]

    def test_peek_does_not_mutate(self):
        # User 0's index reads its two head packets (phi = 5 - 4 = 1) but
        # user 1 wins (phi = 0.1 - 1): user 0's queue is left untouched.
        sim = staged_sim(
            PROPOSED_NONIDLING,
            Staged(fifo=(1, 2), direct=3.0, interference=5.0),
            Staged(fifo=(3,), interference=0.1),
            x=1.0, slot=3,
        )
        assert sim.run_slot() == 1
        assert list(sim.sus[0].queue.fifo) == [1, 2]
        assert sim.sus[0].queue.cumulative_departures == 0


class TestCommitDepartures:
    def test_removes_head_packets(self):
        sim = staged_queue([0, 0, 0, 0, 0], 3)
        serve(sim, 0)
        q = sim.sus[0].queue
        assert q.backlog == 2
        assert q.cumulative_departures == 3

    def test_zero_count_is_a_noop(self):
        sim = staged_queue([0], 0)
        assert serve(sim, 4) == ()
        q = sim.sus[0].queue
        assert q.backlog == 1
        assert q.cumulative_departures == 0 and q.departed_waiting_sum == 0

    def test_batch_count_must_match_waiting_times(self):
        for n in range(4):
            sim = staged_queue([0, 1, 2], n)
            assert len(serve(sim, 2)) == n
            assert sim.sus[0].queue.cumulative_departures == n

    def test_departure_stamps_satisfy_waiting_law(self):
        sim = staged_queue([2, 5], 2)
        assert serve(sim, 7) == (7 - 2 + 1, 7 - 5 + 1)
        assert sim.sus[0].queue.departed_waiting_sum == (7 - 2 + 1) + (7 - 5 + 1)


class TestAverageDelay:
    def test_mean_over_departed(self):
        sim = staged_queue([0, 1, 2], 1)
        serve(sim, 0)   # W=1
        serve(sim, 2)   # W=2
        serve(sim, 4)   # W=3
        assert sim.sus[0].queue.average_delay() == 2.0

    def test_single_same_slot_departure(self):
        sim = staged_queue([6], 1)
        serve(sim, 6)
        assert sim.sus[0].queue.average_delay() == 1.0

    def test_undefined_before_first_departure(self):
        assert staged_queue([0], 1).sus[0].queue.average_delay() is None

    def test_serve_every_slot_gives_unit_delay(self):
        # Independent oracle: with at most one arrival per slot and one
        # packet served in the same slot, the backlog never exceeds one and
        # every waiting time is exactly 1.
        sim = Simulation(SimConfig(
            sus=(SuConfig(Bernoulli(0.2), 1.5, DeterministicGain(1.0), DeterministicGain(0.4)),),
            i_avg=2.0, scheduler=SchedulerKind(PROPOSED_NONIDLING), seed=99,
        ))
        q = sim.sus[0].queue
        oracle_departures = 0
        for t in sim.observe(10**4):
            assert q.backlog == 0
            oracle_departures += t.arrivals[0]
        assert q.cumulative_departures == oracle_departures
        if oracle_departures:
            assert q.average_delay() == 1.0


@st.composite
def slot_script(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    arrivals = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    serves = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    return arrivals, serves


class TestQueueProperties:
    @given(slot_script())
    @settings(max_examples=200)
    def test_conservation_and_backlog_trajectory(self, script):
        arrivals, serves = script
        counts = [1 if a else 0 for a in arrivals]
        sim = scripted_sim(counts, serves)
        q = sim.sus[0].queue
        levels = []
        logged = []
        for t in sim.observe(len(serves)):
            levels.append(q.backlog)
            logged.append(t.arrivals[0])
            assert q.cumulative_arrivals == q.backlog + q.cumulative_departures
        assert logged == counts
        assert levels == resim_queue_levels(counts, serves)

    @given(slot_script())
    @settings(max_examples=100)
    def test_fifo_order_and_waiting_law(self, script):
        arrivals, serves = script
        counts = [1 if a else 0 for a in arrivals]
        sim = scripted_sim(counts, serves)
        q = sim.sus[0].queue
        departed = []
        for slot, offer in enumerate(serves):
            head_arrivals = (list(q.fifo) + [slot] * counts[slot])[:offer]
            t, = sim.observe(1)
            waits = t.waiting_times
            assert len(waits) == len(head_arrivals)
            departed.extend((a, slot, w) for a, w in zip(head_arrivals, waits))
        arrival_order = [a for a, _, _ in departed]
        assert arrival_order == sorted(arrival_order)
        for arrival, departure, w in departed:
            assert departure >= arrival
            assert w == departure - arrival + 1
            assert w >= 1


def test_fifo_probe_queues_one_packet_per_call():
    # The FIFO memory probe's calls: a rate-1 Bernoulli queue fed by a
    # source whose every uniform is 0.0 queues one packet per call, tagged
    # with its slot, and the backlog counts them.
    q = SuQueue(Bernoulli(1.0))
    src = ScriptedSource([0.0])
    packets = 1000
    assert [q.draw_arrivals(slot, src) for slot in range(packets)] == [1] * packets
    assert q.backlog == q.cumulative_arrivals == packets
    assert list(q.fifo) == list(range(packets))


def test_draw_arrivals_decodes_its_uniform_by_the_scalar_rule():
    proc = TruncatedPoisson(1.7, 3)
    us = substream(5, 0, ROLE_ARRIVALS).random(200).tolist()
    q = SuQueue(proc)
    src = ScriptedSource(us)
    want = scalar_counts(proc, us)
    assert [q.draw_arrivals(slot, src) for slot in range(len(us))] == want
    assert q.backlog == sum(want)


def test_fifo_memory_stays_bounded_per_queued_packet():
    # A user whose channel never carries a packet queues every arrival until
    # its backlog passes buffer_cap; the FIFO, one arrival slot per packet,
    # is then nearly all the run holds. The README's worst case per process,
    # sum_i min(buffer_cap, max_slots * a_max_i) * ~40 B, rests on this.
    cap = 30_000
    cfg = SimConfig(
        sus=(SuConfig(Bernoulli(1.0), 1.0, DeterministicGain(0.0), DeterministicGain(0.1)),),
        i_avg=2.0, scheduler=SchedulerKind(PROPOSED_NONIDLING), max_slots=100_000,
        check_interval=10_000, epsilon=0.0, buffer_cap=cap,
    )
    Simulation(cfg)  # the first one imports numpy.random, no part of the FIFO
    tracemalloc.start()
    try:
        sim = Simulation(cfg)
        result = sim.run_until_converged()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.note == "infeasible-load"
    assert result.terminal_q == (cap + 1,) and sim.sus[0].queue.backlog == cap + 1
    assert held / (cap + 1) <= 64
