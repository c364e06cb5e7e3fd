import math

import pytest
from hypothesis import given, settings, strategies as st

from crsched.engine import (
    MAXWEIGHT,
    PHI_ACTUAL,
    PHI_LITERAL,
    PROPOSED,
    PROPOSED_NONIDLING,
    SchedulerKind,
    transmission_rate,
)

from conftest import Staged, staged_sim
from oracles import phi_value


def expected_index_choice(kind, phi_mode, users, x, slot):
    """The index policy's choice on a staged slot, from phi_value alone:
    the smallest phi, ties to the lowest index; the idling rule idles when
    that minimum is positive."""
    scores = {}
    for i, u in enumerate(users):
        if not u.fifo:
            continue
        q = len(u.fifo)
        rate = transmission_rate(u.direct)
        n = min(q, math.floor(rate))
        w_sum = float(sum(slot + 1 - a for a in u.fifo[:n]))
        scores[i] = phi_value(q, u.y, u.d, x, u.interference, w_sum,
                              rate if phi_mode == PHI_LITERAL else float(n))
    best = min(scores, key=lambda i: (scores[i], i), default=None)
    if best is not None and kind == PROPOSED and scores[best] > 0.0:
        return None
    return best


def index_choice(phis, x=1.0):
    """Non-idling index-policy choice when user i's index is x * phis[i];
    None marks an empty queue.

    A sub-unit direct gain carries no whole packet, so phi reduces to
    X g exactly.
    """
    users = [
        Staged() if v is None else Staged(fifo=(0,), direct=0.5, interference=v)
        for v in phis
    ]
    return staged_sim(PROPOSED_NONIDLING, *users, x=x, slot=1).run_slot()


def weight_choice(loads):
    """Max-weight choice when user i holds loads[i] = (Q_i, g_i) packets
    and interference gain; None marks an empty queue."""
    users = [
        Staged() if load is None else Staged(fifo=(0,) * load[0], interference=load[1])
        for load in loads
    ]
    return staged_sim(MAXWEIGHT, *users, slot=1).run_slot()


class TestSchedulerKind:
    def test_known_kinds(self):
        assert SchedulerKind(PROPOSED).idling
        assert not SchedulerKind(PROPOSED_NONIDLING).idling
        assert not SchedulerKind(MAXWEIGHT).idling

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SchedulerKind("round-robin")

    def test_unknown_phi_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown phi mode"):
            SchedulerKind(PROPOSED, phi_mode="rounded")


class TestTransmissionRate:
    def test_unit_gain_carries_one_packet(self):
        assert transmission_rate(1.0) == 1.0

    def test_gain_three_carries_two_packets(self):
        assert transmission_rate(3.0) == 2.0

    def test_fractional_rate(self):
        assert transmission_rate(0.5) == pytest.approx(math.log2(1.5))


class TestPhi:
    def test_all_terms_active(self):
        # X=1, g=0.5, Y=2 with one head packet at W=4, d=1.5, Q=3 and a
        # unit rate: 0.5 + 8 - (3 + 3) = 2.5, every product exact in
        # binary.
        assert phi_value(q=3, y=2.0, d=1.5, x=1.0, g=0.5, w_sum=4.0, r=1.0) == 2.5

    def test_zero_accumulators_reduce_to_backlog_term(self):
        assert phi_value(q=1, y=0.0, d=1.5, x=0.0, g=0.7, w_sum=1.0, r=1.0) == -1.0

    def test_mixed_terms(self):
        got = phi_value(q=1, y=1.0, d=1.5, x=2.0, g=0.2, w_sum=1.0, r=1.0)
        assert got == pytest.approx(-1.1, rel=1e-12)

    def test_literal_mode_uses_raw_rate(self):
        # Direct gain 0.5 carries no whole packet. The actual index
        # multiplies the closing term by those 0 packets, leaving
        # X g = 0.3 > 0, so the idling policy idles; the literal index
        # multiplies it by the raw rate log2(1.5) and goes negative.
        def decide(mode):
            sim = staged_sim(
                PROPOSED, Staged(fifo=(0,), y=1.0, direct=0.5, interference=0.3),
                x=1.0, slot=1, phi_mode=mode,
            )
            return sim.run_slot()

        assert decide(PHI_ACTUAL) is None
        assert decide(PHI_LITERAL) == 0

    def test_compute_phi_peeks_head_packets(self):
        # Backlog 3 with the head packet 4 slots old; unit direct gain
        # allows one departure, reproducing the 2.5 example end to end:
        # the idling policy idles and the queue is left as it was. With a
        # head packet of age 1 the index is 0.5 + 2 - 6 < 0 and the same
        # user is served.
        old = staged_sim(
            PROPOSED, Staged(fifo=(2, 3, 4), y=2.0, d=1.5, interference=0.5),
            x=1.0, slot=5,
        )
        assert old.run_slot() is None
        assert list(old.sus[0].queue.fifo) == [2, 3, 4]
        young = staged_sim(
            PROPOSED, Staged(fifo=(5, 5, 5), y=2.0, d=1.5, interference=0.5),
            x=1.0, slot=5,
        )
        assert young.run_slot() == 0

    def test_compute_phi_requires_backlog(self):
        # An empty queue is never scored: user 0's interference-free link
        # would give it infinite weight and the lowest index, yet the
        # backlogged user 1 is served.
        empty = Staged(interference=0.0)
        busy = Staged(fifo=(0,), direct=0.5, interference=0.4)
        assert staged_sim(MAXWEIGHT, empty, busy, slot=1).run_slot() == 1
        assert staged_sim(PROPOSED_NONIDLING, empty, busy, x=1.0, slot=1).run_slot() == 1


class TestArgSelectors:
    def test_argmin_basic(self):
        assert index_choice([3.0, 1.0, 2.0]) == 1

    def test_argmin_tie_takes_lowest_index(self):
        assert index_choice([2.0, 1.0, 1.0]) == 1

    def test_argmin_skips_nan(self):
        assert index_choice([None, 5.0, None]) == 1

    def test_argmin_all_nan(self):
        assert index_choice([None, None]) is None

    def test_argmax_basic(self):
        assert weight_choice([(3, 1.0), (1, 0.0), (2, 1.0)]) == 1

    def test_argmax_tie_takes_lowest_index(self):
        assert weight_choice([None, (4, 1.0), (4, 1.0)]) == 1

    @given(
        gains=st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e3, allow_subnormal=False),
                st.just(0.0),
                st.none(),
            ),
            min_size=1,
            max_size=4,
        ),
        backlogs=st.lists(st.integers(min_value=1, max_value=6), min_size=4, max_size=4),
        scale=st.sampled_from([2.0, 8.0, 1024.0]),
    )
    def test_scaling_preserves_selection(self, gains, backlogs, scale):
        # Power-of-two scaling is exact for these magnitudes: scaling X
        # scales every index X g, and dividing every gain scales every
        # weight Q/g, so the selected user must not move.
        assert index_choice(gains) == index_choice(gains, x=scale)
        loads = [None if g is None else (q, g) for g, q in zip(gains, backlogs)]
        scaled = [None if g is None else (q, g / scale) for g, q in zip(gains, backlogs)]
        assert weight_choice(loads) == weight_choice(scaled)


class TestDecideProposed:
    def test_all_empty_idles(self):
        t, = staged_sim(PROPOSED, Staged(), Staged()).observe(1)
        assert t.su is None
        assert t.waiting_times == () and t.gain == 0.0

    def test_argmin_selects_most_negative(self):
        # Zero accumulators make phi_i = -Q_i n_i: backlog (1, 2) against
        # rates (1, 2) scores (-1, -4).
        t, = staged_sim(
            PROPOSED,
            Staged(fifo=(0,), direct=1.0),
            Staged(fifo=(0, 0), direct=3.0, interference=0.2),
        ).observe(1)
        assert t.su == 1
        assert t.waiting_times == (1, 1)

    def test_idling_gate_under_pure_interference_pressure(self):
        # Sub-unit direct gains mean nothing can depart (n=0), so phi
        # reduces to X g > 0 for both users, (1.0, 1.5): the idling variant
        # leaves the slot empty, the non-idling variant transmits anyway.
        users = (
            Staged(fifo=(0,), direct=0.5, interference=0.2),
            Staged(fifo=(0,), direct=0.5, interference=0.3),
        )
        assert staged_sim(PROPOSED, *users, x=5.0, slot=1).run_slot() is None
        assert staged_sim(PROPOSED_NONIDLING, *users, x=5.0, slot=1).run_slot() == 0

    def test_zero_phi_boundary_schedules(self):
        # phi = 0 exactly (all accumulators zero, no departable packet):
        # the idling rule only idles on strictly positive minima. The
        # scheduled slot sends 0 packets but still charges its gain.
        t, = staged_sim(PROPOSED, Staged(fifo=(0,), direct=0.5, interference=0.3), slot=1).observe(1)
        assert t.su == 0
        assert t.waiting_times == ()
        assert t.q == (1,)
        assert t.gain == 0.3

    def test_tie_breaks_to_lowest_index(self):
        user = Staged(fifo=(0,), d=2.0)
        assert staged_sim(PROPOSED, user, user).run_slot() == 0

    def test_nonidling_schedules_sole_backlogged_user(self):
        sim = staged_sim(
            PROPOSED_NONIDLING, Staged(), Staged(fifo=(0,), direct=0.5, interference=0.2),
            x=9.0, slot=1,
        )
        assert sim.run_slot() == 1

    def test_decision_batch_matches_head_of_queue(self):
        # The chosen user sends its oldest packets, with waiting times
        # measured at the decision slot.
        sim = staged_sim(PROPOSED, Staged(fifo=(1, 2, 3), direct=3.0, interference=0.1), Staged(),
                         slot=4)
        t, = sim.observe(1)
        assert t.su == 0
        assert t.waiting_times == (4, 3)
        assert list(sim.sus[0].queue.fifo) == [3]


# Staged slots (X, slot, users) that take every branch of the index scoring:
# Y_i = 0 and Y_i > 0, X = 0 and X > 0, direct gains 0.5, 1, 3 and 7 (0 to 3
# packets), FIFOs shorter than the link's packets, an interference gain of
# -0.0, ties, and minima above, at and below 0.
STAGED_SLOTS = {
    "y0-x0-one-packet": (0.0, 3, [Staged(fifo=(1, 2)), Staged(fifo=(0,), interference=0.2)]),
    "y0-no-packet": (4.0, 1, [Staged(fifo=(0,), direct=0.5, interference=0.3),
                              Staged(fifo=(0,), direct=0.5, interference=0.2)]),
    "y0-packets-capped-by-fifo": (1.0, 2, [Staged(fifo=(0, 1), direct=7.0, interference=0.5),
                                           Staged(fifo=(0, 0, 1, 1), direct=3.0, interference=1.0)]),
    # phi_0 = 0 + 7 - (1.5 + 2) 2 = 0 < phi_1 = 1; a wrong two-packet wait sum flips it.
    "y-two-packets": (2.0, 4, [Staged(fifo=(0, 3), y=1.0, direct=3.0, interference=0.0),
                               Staged(fifo=(3,), direct=0.5, interference=0.5)]),
    "y-one-packet": (1.0, 5, [Staged(fifo=(2, 3, 4), y=2.0, interference=0.5),
                              Staged(fifo=(4,), y=0.5, direct=7.0, interference=0.6)]),
    # phi_0 = 9 - (1.5 + 4) 3 = -7.5 < phi_1 = -6; a wrong three-packet wait sum flips it.
    "y-three-packets": (0.0, 3, [Staged(fifo=(0, 1, 2, 3), y=1.0, direct=7.0),
                                 Staged(fifo=(3, 3, 3), direct=3.0)]),
    "y-two-packets-capped-by-fifo": (0.0, 3, [Staged(fifo=(1,), direct=7.0),
                                              Staged(fifo=(0, 2), y=0.75, d=0.5, direct=7.0)]),
    "y-no-packet": (0.0, 1, [Staged(fifo=(0,), y=3.0, direct=0.5)]),
    "minus-zero-gain-y0": (3.0, 1, [Staged(fifo=(0,), direct=0.5, interference=-0.0)]),
    "minus-zero-gain-x0": (0.0, 1, [Staged(fifo=(0,), direct=0.5, interference=-0.0)]),
    "minus-zero-gain-y": (3.0, 1, [Staged(fifo=(0,), y=1.0, direct=0.5, interference=-0.0),
                                   Staged(fifo=(0,), direct=0.5, interference=0.1)]),
    # -0.0 from Y = 0 ties +0.0 from Y > 0, in either order.
    "zero-tie-y0-first": (1.0, 1, [Staged(fifo=(0,), direct=0.5, interference=-0.0),
                                   Staged(fifo=(0,), y=2.0, direct=0.5, interference=0.0)]),
    "zero-tie-y0-second": (1.0, 1, [Staged(fifo=(0,), y=2.0, direct=0.5, interference=0.0),
                                    Staged(fifo=(0,), direct=0.5, interference=-0.0)]),
    "tie-y": (1.0, 2, [Staged(fifo=(1,), y=0.5), Staged(fifo=(1,), y=0.5)]),
    "tie-y0-after-empty": (1.0, 2, [Staged(), Staged(fifo=(1,)), Staged(fifo=(1,))]),
    "minimum-positive": (10.0, 3, [Staged(fifo=(0, 1, 2), y=0.5, d=0.5, interference=0.3),
                                   Staged(fifo=(2,), direct=0.5, interference=0.2)]),
}


@pytest.mark.parametrize("kind", [PROPOSED, PROPOSED_NONIDLING])
@pytest.mark.parametrize("phi_mode", [PHI_ACTUAL, PHI_LITERAL])
@pytest.mark.parametrize("case", STAGED_SLOTS)
def test_index_choice_follows_phi(case, phi_mode, kind):
    x, slot, users = STAGED_SLOTS[case]
    sim = staged_sim(kind, *users, x=x, slot=slot, phi_mode=phi_mode)
    assert sim.run_slot() == expected_index_choice(kind, phi_mode, users, x, slot)


staged_users = st.builds(
    lambda arrivals, y, d, direct, interference: Staged(
        fifo=tuple(sorted(arrivals)), y=y, d=d, direct=direct, interference=interference),
    st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.5]), st.floats(min_value=0.0, max_value=5.0)),
    st.sampled_from([0.5, 1.5, 4.0]),
    st.sampled_from([0.5, 1.0, 3.0, 7.0]),
    st.sampled_from([-0.0, 0.0, 0.1, 0.4, 2.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    users=st.lists(staged_users, min_size=1, max_size=3),
    x=st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(min_value=0.0, max_value=5.0)),
    kind=st.sampled_from([PROPOSED, PROPOSED_NONIDLING]),
    phi_mode=st.sampled_from([PHI_ACTUAL, PHI_LITERAL]),
)
def test_index_choice_follows_phi_on_random_slots(users, x, kind, phi_mode):
    # Every packet arrived by slot 9, so slot 10 gives waits of 2 to 11.
    sim = staged_sim(kind, *users, x=x, slot=10, phi_mode=phi_mode)
    assert sim.run_slot() == expected_index_choice(kind, phi_mode, users, x, 10)


class TestDecideMaxWeight:
    def test_highest_backlog_per_gain_wins(self):
        # Weights Q/g = (10, 20).
        assert weight_choice([(4, 0.4), (2, 0.1)]) == 1

    def test_zero_gain_is_infinite_weight(self):
        assert weight_choice([(1000, 0.001), (1, 0.0)]) == 1

    def test_all_empty_idles(self):
        assert weight_choice([None, None]) is None

    def test_never_idles_under_backlog(self):
        # Even when transmitting clears nothing (n=0), max-weight holds
        # the channel and is charged its interference.
        t, = staged_sim(MAXWEIGHT, Staged(fifo=(0,), direct=0.2, interference=5.0), Staged(),
                        slot=1).observe(1)
        assert t.su == 0
        assert t.waiting_times == ()
        assert t.gain == 5.0

    def test_interference_free_tie_takes_lowest_index(self):
        # Both weights are infinite, whatever the backlogs.
        assert weight_choice([None, (1, 0.0), (5, 0.0)]) == 1

    def test_arrival_departs_in_its_own_slot(self):
        # The link carries log2(1 + 7) = 3 packets, but only the queued
        # packet and the one arriving in this slot can go.
        sim = staged_sim(MAXWEIGHT, Staged(fifo=(0,), direct=7.0), slot=1)
        sim._fill_block()
        sim._pos = 0
        sim.sus[0].arrivals[0] = 1
        t, = sim.observe(1)
        assert t.su == 0
        assert t.waiting_times == (2, 1)
        queue = sim.sus[0].queue
        assert queue.backlog == 0 and queue.cumulative_departures == 2

    def test_all_empty_slot_charges_no_gain(self):
        sim = staged_sim(MAXWEIGHT, Staged(interference=0.0), Staged(interference=5.0), x=3.0)
        t, = sim.observe(1)
        assert t.su is None
        assert t.waiting_times == () and t.gain == 0.0
        assert sim.interference_sum == 0.0
        assert sim.x == 1.0

    def test_batch_carries_transmittable_head_packets(self):
        t, = staged_sim(MAXWEIGHT, Staged(fifo=(0, 1), direct=3.0), Staged(), slot=2).observe(1)
        assert t.su == 0
        assert t.waiting_times == (3, 2)
