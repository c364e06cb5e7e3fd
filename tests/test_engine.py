import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crsched.channels import DeterministicGain, RayleighGain
from crsched.config import load_spec, parse_scheduler
from crsched.engine import (
    BLOCK,
    PHI_ACTUAL,
    PHI_LITERAL,
    SCHEDULER_NAMES,
    SchedulerKind,
    Simulation,
    SimConfig,
    SlotTrace,
    SuConfig,
    run_lockstep,
    simulations,
    stability_metric,
    transmission_rate,
    whole_packets,
)
from crsched.queueing import Bernoulli, InfeasibleLoadError, SettingError, TruncatedPoisson
from crsched.streams import ROLE_DIRECT, ROLE_INTERFERENCE, substream
from crsched.sweep import point_config

from conftest import shipped_config, two_user_config, two_user_sus
from oracles import (
    first_decision_mismatch,
    lyapunov_drift_sum,
    random_small_sim_config,
    resim_trajectories,
)


def single_user_config(**kw) -> SimConfig:
    """One saturated user on constant channels; every quantity in the run
    is a multiple of one half, so all assertions below are exact."""
    defaults = dict(
        sus=(
            SuConfig(
                arrivals=Bernoulli(1.0),
                delay_bound=0.5,
                direct=DeterministicGain(3.0),
                interference=DeterministicGain(1.0),
            ),
        ),
        i_avg=0.5,
        scheduler=SchedulerKind("proposed"),
        seed=0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def dead_channel_config(buffer_cap: int, kind: str = "proposed") -> SimConfig:
    """One saturated user whose zero direct gain never carries a packet, so
    its backlog passes buffer_cap at slot buffer_cap under every rule."""
    return single_user_config(
        sus=(
            SuConfig(
                arrivals=Bernoulli(1.0),
                delay_bound=1.0,
                direct=DeterministicGain(0.0),
                interference=DeterministicGain(0.1),
            ),
        ),
        i_avg=2.0,
        scheduler=SchedulerKind(kind),
        buffer_cap=buffer_cap,
    )


def run_slots(config: SimConfig, n: int) -> Simulation:
    sim = Simulation(config)
    for _ in range(n):
        sim.run_slot()
    return sim


def observe_slots(config: SimConfig, n: int) -> tuple[Simulation, list[SlotTrace]]:
    """A Simulation of ``config`` observed for n slots, and their records."""
    sim = Simulation(config)
    return sim, list(sim.observe(n))


def accumulators(sim: Simulation):
    """The run's accumulators besides X, Y and the queues."""
    return sim.interference_sum, sim.c_y_emp


class TestHandTrace:
    """Regression against a five-slot trace computed by hand.

    One user, one arrival per slot, rate 2 packets when scheduled,
    interference gain 1 against a budget of 0.5, delay bound 0.5. The
    index alternates sign as the accumulators fill and drain, so the
    trace exercises scheduling, idling, and a two-packet departure.
    """

    def test_idling_variant(self):
        sim, trace = observe_slots(single_user_config(), 5)
        assert [t.su for t in trace] == [0, 0, None, 0, None]
        assert [t.waiting_times for t in trace] == [(1,), (1,), (), (2, 1), ()]
        assert [t.q for t in trace] == [(0,), (0,), (1,), (0,), (1,)]
        assert [t.y for t in trace] == [(0.5,), (1.0,), (1.0,), (3.0,), (3.0,)]
        assert [t.x for t in trace] == [0.5, 1.0, 0.5, 1.0, 0.5]
        assert [t.gain for t in trace] == [1.0, 1.0, 0.0, 1.0, 0.0]
        assert sim.sus[0].queue.average_delay() == 1.25
        assert sim.interference_sum == 3.0

    def test_literal_rate_variant(self):
        # The raw-rate index is more negative, so the run never idles;
        # slot 4 lands exactly on the zero boundary and still transmits.
        cfg = single_user_config(scheduler=SchedulerKind("proposed", PHI_LITERAL))
        sim, trace = observe_slots(cfg, 5)
        assert [t.su for t in trace] == [0, 0, 0, 0, 0]
        assert all(t.waiting_times == (1,) for t in trace)
        assert all(t.q == (0,) for t in trace)
        assert [t.y for t in trace] == [(0.5,), (1.0,), (1.5,), (2.0,), (2.5,)]
        assert [t.x for t in trace] == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert sim.sus[0].queue.average_delay() == 1.0
        assert sim.interference_sum == 5.0


def test_saturated_unit_rate_steady_state():
    # One arrival and one departure per slot: every packet waits exactly
    # one slot, the delay accumulator never charges (1 < d), and the large
    # interference budget keeps that accumulator at zero.
    cfg = single_user_config(
        sus=(
            SuConfig(
                arrivals=Bernoulli(1.0),
                delay_bound=1.5,
                direct=DeterministicGain(1.0),
                interference=DeterministicGain(1.0),
            ),
        ),
        i_avg=10.0,
    )
    sim, trace = observe_slots(cfg, 10)
    for t in trace:
        assert t.arrivals == (1,)
        assert t.su == 0
        assert t.waiting_times == (1,)
        assert t.q == (0,)
        assert t.y == (0.0,)
        assert t.x == 0.0
    assert sim.sus[0].queue.average_delay() == 1.0


def test_empty_system_slot_drains_interference_accumulator():
    sim = Simulation(two_user_config(0.0, "proposed", i_avg=2.0))
    sim.x = 5.0
    t, = sim.observe(1)
    assert t.su is None
    assert sim.x == 3.0
    assert sim.sus[0].queue.average_delay() is None
    assert t.arrivals == (0, 0)


def test_same_seed_same_ledger():
    cfg = two_user_config(0.3, "proposed", seed=7,
                          max_slots=10_000, check_interval=10_000)
    (a, a_trace), (b, b_trace) = observe_slots(cfg, 10_000), observe_slots(cfg, 10_000)
    assert accumulators(a) == accumulators(b)
    assert a_trace == b_trace
    assert a.stability_metric() == b.stability_metric()


def test_run_results_are_reproducible():
    cfg = two_user_config(0.3, "maxweight", seed=7,
                          max_slots=20_000, check_interval=10_000)
    assert Simulation(cfg).run_until_converged() == Simulation(cfg).run_until_converged()


def test_no_traffic_converges_at_first_check():
    result = Simulation(two_user_config(0.0, "proposed")).run_until_converged()
    assert result.converged
    assert result.slots == 10_000
    assert result.stability_metric == 0.0
    assert result.avg_delays == (None, None)
    assert result.interference_avg == 0.0
    assert result.terminal_q == (0, 0)


def test_zero_epsilon_runs_to_the_cap():
    cfg = two_user_config(0.1, "proposed", epsilon=0.0,
                          max_slots=2_000, check_interval=1_000)
    result = Simulation(cfg).run_until_converged()
    assert not result.converged
    assert result.slots == 2_000


@pytest.fixture(scope="module")
def moderate_load_run():
    cfg = two_user_config(0.1, "proposed", seed=1)
    return cfg, Simulation(cfg).run_until_converged()


def test_converged_metric_recomputes_from_terminals(moderate_load_run):
    cfg, result = moderate_load_run
    assert result.converged
    assert result.stability_metric < cfg.epsilon
    assert result.stability_metric == stability_metric(
        result.terminal_x, result.terminal_y, result.slots
    )


def test_moderate_load_meets_constraints(moderate_load_run):
    _, result = moderate_load_run
    d1, d2 = result.avg_delays
    assert d1 <= 1.5 * 1.1
    assert d2 <= 5.0 * 1.1
    assert result.interference_avg <= 2.0 * 1.05


def test_drift_diagnostics_on_converged_run(moderate_load_run):
    _, result = moderate_load_run
    drift = result.drift
    assert drift is not None
    assert drift.mean_drift <= drift.c_total
    assert all(q <= drift.jensen_bound for q in drift.q_over_t)


@pytest.mark.parametrize("kind", ["proposed-nonidling", "maxweight"])
def test_work_conservation(kind):
    cfg = two_user_config(0.3, kind, seed=2,
                          max_slots=2_000, check_interval=2_000,
                          epsilon=0.0)
    _, trace = observe_slots(cfg, 2_000)
    idle_slots = [t for t in trace if t.su is None]
    assert idle_slots, "load should leave some genuinely empty slots"
    for t in idle_slots:
        assert sum(t.q) == 0


@pytest.mark.parametrize("config, lam", [("binding.cfg", 0.2), ("binding.cfg", 0.36), ("table1.cfg", 0.3)])
def test_non_idling_rules_share_one_backlog_path_on_unit_links(config, lam):
    # On unit-rate links a rule that never idles under backlog sends exactly
    # one packet in every backlogged slot, so the total backlog follows
    # (Q + A - 1)^+ whichever user it serves (Kleinrock's conservation law,
    # sample-path form). At one seed both rules see the same draws, so they
    # share one total backlog path, departure count and backlog area, where
    # sum_i (departed waiting sum + sum over queued packets of (T - a)) is
    # that area plus the departures. No phi is evaluated here.
    spec = load_spec(shipped_config(config))
    slots = 20_000
    sims = [Simulation(point_config(spec, SchedulerKind(kind), lam, 1))
            for kind in ("maxweight", "proposed-nonidling")]
    assert all(su.direct == DeterministicGain(1.0) for su in sims[0].config.sus)
    differing = served_apart = 0
    for a, b in zip(*(sim.observe(slots) for sim in sims)):
        differing += sum(a.q) != sum(b.q)
        served_apart += a.su != b.su
    assert differing == 0
    # The rules do serve different users, so the identity is not vacuous.
    assert served_apart > 0

    def departures_and_area(sim):
        queues = [su.queue for su in sim.sus]
        return (sum(q.cumulative_departures for q in queues),
                sum(q.departed_waiting_sum + sum(sim.slot - a for a in q.fifo) for q in queues))

    assert sims[0].slot == sims[1].slot == slots
    assert departures_and_area(sims[0]) == departures_and_area(sims[1])


def test_interference_sum_re_adds_from_trace():
    cfg = two_user_config(0.3, "maxweight", seed=4,
                          max_slots=3_000, check_interval=3_000,
                          epsilon=0.0)
    sim, trace = observe_slots(cfg, 3_000)
    # Same float addition order, so equality is exact.
    assert sim.interference_sum == sum(t.gain for t in trace)
    assert all(t.gain == 0.0 for t in trace if t.su is None)
    assert sim.interference_sum > 0.0


def test_trace_matches_independent_resimulation():
    cfg = two_user_config(0.3, "proposed", seed=3,
                          max_slots=500, check_interval=500,
                          epsilon=0.0)
    _, trace = observe_slots(cfg, 500)
    expected = resim_trajectories(
        trace, [su.delay_bound for su in cfg.sus], cfg.i_avg
    )
    for t, (q, y, x) in zip(trace, expected):
        assert t.q == q
        assert t.y == y
        assert t.x == x


@pytest.mark.parametrize("kind", SCHEDULER_NAMES)
def test_dead_channel_aborts_as_infeasible(kind):
    # A zero direct gain can never carry a packet, so the backlog outgrows
    # its safety cap and the run ends with its metrics so far, noted.
    result = Simulation(dead_channel_config(50, kind)).run_until_converged()
    assert result.note == "infeasible-load"
    assert not result.converged
    # 50 completed slots; the 51st packet lands before the abort fires.
    assert result.slots == 50
    assert result.terminal_q == (51,)


@pytest.mark.parametrize("kind", SCHEDULER_NAMES)
def test_kernel_benchmark_reads_each_users_counters_after_a_run(kind):
    # The kernel benchmark builds a shipped config's point at a fixed
    # horizon, runs it with run_until_converged() and reads every user's
    # cumulative arrival and departure counters; a counter that went missing
    # would read as absent there, not fail.
    spec = load_spec(shipped_config("table1.cfg"))
    sched = replace(parse_scheduler(kind), phi_mode=spec.schedulers[0].phi_mode)
    cfg = replace(point_config(spec, sched, 0.36, 1), epsilon=0.0, max_slots=spec.base.check_interval)
    sim = Simulation(cfg)
    result = sim.run_until_converged()
    arrivals = [su.queue.cumulative_arrivals for su in sim.sus]
    departures = [su.queue.cumulative_departures for su in sim.sus]
    assert all(type(n) is int for n in arrivals + departures)
    assert [a - d for a, d in zip(arrivals, departures)] == list(result.terminal_q)
    assert result.slots == cfg.max_slots and min(departures) > 0


def queue_state(sim: Simulation):
    return [
        (list(q.fifo), q.cumulative_arrivals, q.cumulative_departures, q.departed_waiting_sum)
        for q in (su.queue for su in sim.sus)
    ]


def multi_packet_sus(lam=0.6, direct_mean=2.0):
    """two_user_sus with truncated-Poisson arrivals and Rayleigh direct
    links, so that some slots send several packets."""
    return tuple(
        replace(su, arrivals=TruncatedPoisson(lam, 3), direct=RayleighGain(direct_mean))
        for su in two_user_sus(0.3)
    )


@pytest.mark.parametrize("kind", ["proposed", "proposed-nonidling", "maxweight"])
@pytest.mark.parametrize("arrivals", ["bernoulli", "poisson"])
def test_stepped_and_converging_loops_agree(kind, arrivals):
    # run_until_converged() advances a check interval per call, observe()
    # one slot; both must reach the same state across three input-block
    # boundaries and a last result interval.
    slots = 3 * BLOCK + 500
    sus = multi_packet_sus() if arrivals == "poisson" else two_user_sus(0.3)
    cfg = SimConfig(sus=sus, i_avg=0.3, scheduler=SchedulerKind(kind), seed=5, epsilon=0.0,
                    max_slots=slots, check_interval=1000)
    stepped, trace = observe_slots(cfg, slots)
    converging = Simulation(cfg)
    result = converging.run_until_converged()
    assert result.slots == converging.slot == stepped.slot == slots
    assert (result.terminal_x, result.terminal_y) == (stepped.x, tuple(stepped.y))
    assert result.terminal_q == tuple(su.queue.backlog for su in stepped.sus)
    assert accumulators(converging) == accumulators(stepped)
    assert queue_state(converging) == queue_state(stepped)
    assert len(trace) == slots
    assert any(t.su is not None for t in trace[-500:])
    if arrivals == "poisson":
        assert any(len(t.waiting_times) > 1 for t in trace)


@pytest.mark.parametrize("observed", [False, True])
def test_stepping_past_max_slots_matches_a_longer_run(observed):
    # Input blocks end at max_slots only while a run is short of it, so
    # run_slot() or observe() stepped 200 slots past max_slots goes on
    # drawing, with blocks ending at checks, and agrees with a run that has
    # room to spare.
    slots = 2700
    cfg = SimConfig(sus=multi_packet_sus(), i_avg=0.3, scheduler=SchedulerKind("proposed"), seed=5,
                    epsilon=0.0, max_slots=slots - 200, check_interval=2000)
    if observed:
        short, trace = observe_slots(cfg, slots)
        assert len(trace) == slots
    else:
        short = run_slots(cfg, slots)
    longer = run_slots(replace(cfg, max_slots=10_000), slots)
    assert (short.slot, short.x, short.y) == (longer.slot, longer.x, longer.y)
    assert accumulators(short) == accumulators(longer)
    assert queue_state(short) == queue_state(longer)


@pytest.mark.parametrize("kind", ["proposed", "proposed-nonidling", "maxweight"])
@pytest.mark.parametrize("phi_mode", [PHI_ACTUAL, PHI_LITERAL])
def test_tracing_does_not_change_the_run(kind, phi_mode):
    # Slots observed before run_until_converged(), across input blocks and
    # into a check interval, and after it, past max_slots, leave the same
    # state as the same slots run unobserved, also beside a constant link
    # whose inputs are filled once.
    fading = multi_packet_sus(1.2, 3.0)
    mixed = (replace(fading[0], direct=DeterministicGain(3.0)), fading[1])
    for sus in (fading, mixed):
        cfg = SimConfig(sus=sus, i_avg=1.0, scheduler=SchedulerKind(kind, phi_mode),
                        seed=6, epsilon=0.0, max_slots=2 * BLOCK + 300, check_interval=1000)
        plain = Simulation(cfg)
        plain_result = plain.run_until_converged()
        for _ in range(500):
            plain.run_slot()
        observed = Simulation(cfg)
        trace = list(observed.observe(BLOCK + 50))
        assert observed.run_until_converged() == plain_result
        trace += observed.observe(500)
        assert len(trace) == BLOCK + 550
        assert (observed.slot, observed.x, observed.y) == (plain.slot, plain.x, plain.y)
        assert queue_state(observed) == queue_state(plain)
        assert accumulators(observed) == accumulators(plain)
        assert any(len(t.waiting_times) > 1 for t in trace)


def test_observing_keeps_no_records():
    # observe() yields each record as its slot runs and holds none, so
    # watching 10^5 slots costs what one block and the queues cost, not
    # ~550 B per slot (55 MB here) as a kept list of records would.
    spec = load_spec(shipped_config("table1.cfg"))
    cfg = replace(point_config(spec, SchedulerKind("proposed-nonidling"), 0.2, 1), epsilon=0.0)
    sim = Simulation(cfg)
    tracemalloc.start()
    try:
        for _ in sim.observe(10**5):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.slot == 10**5
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("kind", SCHEDULER_NAMES)
def test_observed_abort_matches_stepping(kind):
    # The buffer overflows at slot 5000, inside the second input block:
    # observe() raises there, as stepping run_slot() does, with the records
    # of the completed slots yielded and the same state left.
    cfg = dead_channel_config(5000, kind)
    stepped = run_slots(cfg, 5000)
    with pytest.raises(InfeasibleLoadError, match="^backlog exceeded safety cap 5000 at slot 5000$"):
        stepped.run_slot()
    observed = Simulation(cfg)
    trace = []
    with pytest.raises(InfeasibleLoadError, match="^backlog exceeded safety cap 5000 at slot 5000$"):
        trace.extend(observed.observe(10_000))
    assert len(trace) == 5000 and trace[-1].q == (5000,)
    assert (observed.slot, observed.x, observed.y) == (stepped.slot, stepped.x, stepped.y)
    assert accumulators(observed) == accumulators(stepped)
    assert queue_state(observed) == queue_state(stepped)


def test_block_rates_and_packets_follow_the_scalar_rule():
    # Each block's whole packets come from the exponents of one numpy add;
    # they must equal the integer part of transmission_rate of each gain.
    # Only literal mode reads the raw rates, so only it keeps them, from
    # math.log2 of the same sums: they must equal transmission_rate exactly.
    # Each block's direct gains are kept as drawn, for observe().
    for phi_mode in (PHI_ACTUAL, PHI_LITERAL):
        cfg = SimConfig(sus=multi_packet_sus(), i_avg=0.3, scheduler=SchedulerKind("proposed", phi_mode),
                        seed=8)
        sim = Simulation(cfg)
        for _ in range(3):
            sim._fill_block()
            for inputs, drawn in zip(sim.sus, sim._direct):
                direct = drawn.tolist()
                assert len(direct) == len(inputs.packets) == BLOCK
                if phi_mode == PHI_LITERAL:
                    assert inputs.rate == [transmission_rate(g) for g in direct]
                else:
                    assert inputs.rate == []
                assert inputs.packets == [int(transmission_rate(g)) for g in direct]
                assert set(inputs.packets) >= {0, 1, 2, 3}


def near_powers_of_two():
    """Gains g whose 1 + g lies within 2000 ulps of 2^k, k = 0..7, on
    either side (only above for k = 0, since g >= 0)."""
    gains = []
    for k in range(8):
        below = above = 2.0**k
        for _ in range(2000):
            above = math.nextafter(above, math.inf)
            gains.append(above - 1.0)
            if k:
                below = math.nextafter(below, 0.0)
                gains.append(below - 1.0)
        if k:
            gains.append(2.0**k - 1.0)
    return gains


def test_whole_packets_take_the_scalar_rule_at_powers_of_two():
    # Where 1 + g sits at or next to a power of two, the exponent alone can
    # disagree with math.log2's rounding; the helper must still give
    # int(transmission_rate(g)) for every g, and for drawn Rayleigh gains.
    caps = [RayleighGain(mean).cap for mean in (0.2, 0.3, 0.4, 2.0, 3.0, 4.0)]
    gains = np.array([0.0, *caps, *near_powers_of_two()])
    assert whole_packets(1.0 + gains) == [int(transmission_rate(g)) for g in gains.tolist()]
    for mean in (1e-3, 0.5, 2.0, 30.0):
        drawn = RayleighGain(mean).sample_block(substream(4, 0, ROLE_DIRECT), 20_000)
        assert whole_packets(1.0 + drawn) == [int(transmission_rate(g)) for g in drawn.tolist()]


@pytest.mark.parametrize("observed", [False, True])
def test_constant_links_take_no_draws(observed):
    # A constant link's inputs are computed once and its generator is never
    # drawn from, so the Rayleigh user beside it sees its own stream as before.
    # Its raw rates are kept in literal mode only, the one reader; observe()
    # reads its direct gain from the model.
    slots = 3 * BLOCK
    constant = SuConfig(Bernoulli(0.3), 1.5, DeterministicGain(3.0), DeterministicGain(0.5))
    fading = multi_packet_sus()[1]
    cfg = SimConfig(sus=(constant, fading), i_avg=1.0, scheduler=SchedulerKind("proposed"),
                    seed=3, epsilon=0.0, max_slots=slots, check_interval=BLOCK)
    literal = Simulation(replace(cfg, scheduler=SchedulerKind("proposed", PHI_LITERAL))).sus[0]
    assert literal.rate == [transmission_rate(3.0)] * BLOCK
    assert literal.packets == [2] * BLOCK
    sim = Simulation(cfg)
    if observed:
        trace = list(sim.observe(slots))
        assert [t.direct for t in trace] == list(zip(
            [3.0] * slots, fading.direct.sample_block(substream(3, 1, ROLE_DIRECT), slots).tolist()))
    else:
        sim.run_until_converged()
    assert sim.slot == slots
    inputs = sim.sus[0]
    for rng, role in ((inputs.direct_rng, ROLE_DIRECT), (inputs.interference_rng, ROLE_INTERFERENCE)):
        assert rng.bit_generator.state == substream(3, 0, role).bit_generator.state
    assert inputs.rate == []
    assert inputs.packets == [int(transmission_rate(3.0))] * BLOCK == [2] * BLOCK
    assert inputs.interference == [0.5] * BLOCK
    assert sim._direct[0] is None
    drawn = sim.sus[1].direct_rng.bit_generator.state
    assert drawn != substream(3, 1, ROLE_DIRECT).bit_generator.state


def test_literal_maxweight_keeps_no_raw_rates():
    # Only phi reads the raw rates, so max-weight keeps none in literal mode,
    # neither for a constant link nor for a faded link's drawn block.
    constant = SuConfig(Bernoulli(0.3), 1.5, DeterministicGain(3.0), DeterministicGain(0.5))
    cfg = SimConfig(sus=(constant, multi_packet_sus()[1]), i_avg=1.0,
                    scheduler=SchedulerKind("maxweight", PHI_LITERAL), seed=3)
    sim = Simulation(cfg)
    sim.run_slot()
    assert len(sim.sus[1].packets) == BLOCK
    assert [su.rate for su in sim.sus] == [[], []]


@pytest.mark.parametrize("kind", SCHEDULER_NAMES)
def test_abort_past_the_first_block_matches_stepping(kind):
    # The buffer overflows at slot 5000, inside the second input block and
    # inside run_until_converged's first 10,000-slot advance; stepping
    # run_slot() aborts in the same place with the same state.
    cfg = dead_channel_config(5000, kind)
    aborted = Simulation(cfg)
    result = aborted.run_until_converged()
    assert result.note == "infeasible-load"
    assert result.slots == 5000
    assert result.terminal_q == (5001,)
    stepped = run_slots(cfg, 5000)
    with pytest.raises(InfeasibleLoadError, match="^backlog exceeded safety cap 5000 at slot 5000$"):
        stepped.run_slot()
    for sim in (aborted, stepped):
        queue = sim.sus[0].queue
        assert queue.cumulative_arrivals == queue.cumulative_departures + queue.backlog == 5001
    assert (aborted.slot, aborted.x, aborted.y) == (stepped.slot, stepped.x, stepped.y)
    assert accumulators(aborted) == accumulators(stepped)
    assert queue_state(aborted) == queue_state(stepped)


def lockstep_group(case: str) -> tuple[SimConfig, list[SchedulerKind]]:
    """A config and the rules of a group, in the order they run."""
    spec = load_spec(shipped_config("table1.cfg"))
    table1 = replace(point_config(spec, spec.schedulers[0], 0.36, 1), max_slots=30_000)
    faded = SimConfig(sus=multi_packet_sus(), i_avg=0.3, scheduler=SchedulerKind("proposed"), seed=8,
                      max_slots=2 * BLOCK + 1000, check_interval=3000)
    if case == "table1":
        # Both index rules converge at the first check, max-weight runs to max_slots.
        return table1, [SchedulerKind(kind) for kind in sorted(SCHEDULER_NAMES)]
    if case == "abort":
        # The idling rule, which draws first, starves SU 1 past the buffer
        # cap in the second block; the others run on and converge.
        config = replace(point_config(spec, spec.schedulers[0], 0.2, 1), max_slots=30_000, buffer_cap=1000)
        return config, [SchedulerKind(kind) for kind in SCHEDULER_NAMES]
    if case == "literal":
        # Max-weight draws, and reads no rates, but the index rules do.
        return faded, [SchedulerKind(kind, PHI_LITERAL) for kind in sorted(SCHEDULER_NAMES)]
    # Multi-packet slots; the idling rule converges at the first check, the
    # others run to a max_slots between two checks.
    return faded, [SchedulerKind(kind) for kind in sorted(SCHEDULER_NAMES)]


def generator_states(sim: Simulation):
    return [[rng.bit_generator.state for rng in su[-3:]] for su in sim.sus]


@pytest.mark.parametrize("case", ["table1", "abort", "literal", "faded"])
def test_lockstep_group_matches_each_rule_alone(case):
    # Rules that share their inputs each end as they would alone, in their
    # result and in their whole end state, and the shared generators have
    # drawn exactly what the longest of them draws alone, stepped slot by
    # slot to where it stopped: no block twice, and none skipped.
    config, kinds = lockstep_group(case)
    group = simulations(config, kinds)
    results = run_lockstep(group)
    alone = [Simulation(replace(config, scheduler=kind)) for kind in kinds]
    assert results == [sim.run_until_converged() for sim in alone]
    for together, sim in zip(group, alone):
        assert (together.slot, together.x, together.y) == (sim.slot, sim.x, sim.y)
        assert accumulators(together) == accumulators(sim)
        assert queue_state(together) == queue_state(sim)
    assert len({result.slots for result in results}) > 1
    longest = max(alone, key=lambda sim: sim.slot)
    stepped = run_slots(longest.config, longest.slot)
    assert all(generator_states(sim) == generator_states(stepped) for sim in [*group, longest])
    if case == "abort":
        assert [result.note for result in results] == ["infeasible-load", "", ""]
        assert BLOCK < results[0].slots < 2 * BLOCK


class TestDriftDiagnostics:
    def test_interference_bound_component(self):
        sus = tuple(
            SuConfig(
                arrivals=Bernoulli(0.0),
                delay_bound=d,
                direct=DeterministicGain(1.0),
                interference=DeterministicGain(4.0),
            )
            for d in (1.5, 5.0)
        )
        result = Simulation(SimConfig(
            sus=sus, i_avg=2.0, scheduler=SchedulerKind("proposed"),
            max_slots=10, check_interval=10,
        )).run_until_converged()
        assert result.drift.c_x == 20.0

    def test_queue_bound_component(self):
        cfg = SimConfig(
            sus=(
                SuConfig(
                    arrivals=Bernoulli(0.0),
                    delay_bound=1.5,
                    direct=DeterministicGain(1.0),
                    interference=DeterministicGain(1.0),
                ),
            ),
            i_avg=2.0,
            scheduler=SchedulerKind("proposed"),
            max_slots=10,
            check_interval=10,
        )
        result = Simulation(cfg).run_until_converged()
        assert result.drift.c_q == (2.0,)

    def test_mean_drift_sums_the_traced_one_slot_drifts(self):
        # mean_drift is read from the end state alone; the one-slot drifts
        # L(t+1) - L(t), recomputed from every traced slot, must average to it.
        for case_seed in range(100):
            config, slots = random_small_sim_config(case_seed)
            sim = Simulation(config)
            trace = list(sim.observe(slots))
            result = sim.run_until_converged()
            assert result.slots == slots
            want = lyapunov_drift_sum(trace) / slots
            assert result.drift.mean_drift == pytest.approx(want, rel=1e-9), f"case {case_seed}"

    @pytest.mark.parametrize("arrivals, slots, terminal_q, mean_drift", [
        (Bernoulli(1.0), 5000, (5001, 0), 2500.0),
        (TruncatedPoisson(2.5, 4), 2335, (5002, 0), 5351.177944325482),
    ])
    def test_aborted_run_drift_covers_completed_slots_only(
        self, arrivals, slots, terminal_q, mean_drift
    ):
        # SU 0's dead link fills its 5000-packet buffer. The aborted slot's
        # arrivals are queued, so terminal_q counts them, but the drift
        # averages over completed slots and leaves them out.
        cfg = SimConfig(
            sus=(
                SuConfig(arrivals, 1.5, DeterministicGain(0.0), DeterministicGain(1.0)),
                SuConfig(Bernoulli(0.3), 2.0, DeterministicGain(1.0), DeterministicGain(0.5)),
            ),
            i_avg=1.0, scheduler=SchedulerKind("proposed"), epsilon=0.0,
            max_slots=10_000, check_interval=10_000, buffer_cap=5000,
        )
        sim = Simulation(cfg)
        result = sim.run_until_converged()
        assert result.note == "infeasible-load"
        assert (result.slots, result.terminal_q) == (slots, terminal_q)
        assert result.drift.mean_drift == pytest.approx(mean_drift, rel=1e-12)
        # Every admitted packet, the aborted slot's too, is queued or departed.
        for su, q in zip(sim.sus, terminal_q):
            queue = su.queue
            assert queue.cumulative_arrivals == queue.cumulative_departures + queue.backlog
            assert queue.backlog == q
        stepped = run_slots(cfg, slots)
        with pytest.raises(InfeasibleLoadError, match=f"^backlog exceeded safety cap 5000 at slot {slots}$"):
            stepped.run_slot()

    def test_unrecorded_run_has_no_diagnostics(self):
        # A run that aborts before completing a slot has no drift to
        # average. With seed 1 the first draw (u = 0.88) brings three
        # packets into a one-packet buffer at slot 0.
        cfg = single_user_config(
            sus=(
                SuConfig(
                    arrivals=TruncatedPoisson(3.0, 3),
                    delay_bound=1.0,
                    direct=DeterministicGain(1.0),
                    interference=DeterministicGain(0.1),
                ),
            ),
            buffer_cap=1,
            seed=1,
        )
        result = Simulation(cfg).run_until_converged()
        assert result.note == "infeasible-load"
        assert result.slots == 0
        assert result.terminal_q == (3,)
        assert result.drift is None


@pytest.mark.parametrize("kind", ["proposed", "proposed-nonidling"])
def test_objective_consistency_check_passes(kind):
    # The second run's input blocks end at its 3000-slot checks, the last
    # one at max_slots; its Poisson arrivals and Rayleigh direct links send
    # several packets in a slot, some in the slot they arrive.
    unit = two_user_config(0.3, kind, seed=9, max_slots=2_000, check_interval=2_000,
                           epsilon=0.0)
    multi = SimConfig(sus=multi_packet_sus(), i_avg=0.3, scheduler=SchedulerKind(kind), seed=9,
                      max_slots=2 * BLOCK + 300, check_interval=3000, epsilon=0.0)
    for cfg in (unit, multi):
        _, trace = observe_slots(cfg, cfg.max_slots)
        assert len(trace) == cfg.max_slots
        assert first_decision_mismatch(cfg, trace) is None
    assert any(len(t.waiting_times) > 1 and 1 in t.waiting_times for t in trace)


def test_decisions_match_brute_force_oracle_on_random_instances():
    for case_seed in range(100):
        config, slots = random_small_sim_config(case_seed)
        _, trace = observe_slots(config, slots)
        mismatch = first_decision_mismatch(config, trace)
        assert mismatch is None, f"case {case_seed}: {mismatch}"


def test_oracle_flags_a_tampered_decision():
    # The brute-force replay is not vacuous: handing one slot to the other
    # user in the log is reported at that slot.
    cfg = two_user_config(0.3, "proposed", seed=9,
                          max_slots=500, check_interval=500,
                          epsilon=0.0)
    _, trace = observe_slots(cfg, 500)
    k = next(k for k, t in enumerate(trace) if t.su is not None and k > 100)
    tampered = list(trace)
    tampered[k] = trace[k]._replace(su=1 - trace[k].su)
    assert first_decision_mismatch(cfg, trace) is None
    assert first_decision_mismatch(cfg, tampered).startswith(f"slot {k}:")


def test_every_user_draws_both_gains_every_slot():
    # Each faded link's gains come from its own (seed, user, link)
    # substream, one draw per slot whether or not the user is backlogged, so
    # the trace replays each stream from its start; a constant link gives
    # its value in every slot.
    slots = 300
    cfg = two_user_config(0.05, "proposed", seed=4,
                          max_slots=slots, check_interval=slots,
                          epsilon=0.0)
    _, trace = observe_slots(cfg, slots)
    assert any(t.q[0] == 0 for t in trace)
    for i, su in enumerate(cfg.sus):
        assert [t.direct[i] for t in trace] == [su.direct.value] * slots
        drawn = su.interference.sample_block(substream(4, i, ROLE_INTERFERENCE), slots)
        assert [t.interference[i] for t in trace] == drawn.tolist()


def faded_direct_config(lam: float, seed: int) -> SimConfig:
    """two_user_config with SU-1's direct link Rayleigh faded (mean 1), so
    that it sends 0, 1 or several packets per served slot."""
    su1, su2 = two_user_sus(lam)
    return SimConfig(sus=(replace(su1, direct=RayleighGain(1.0)), su2), i_avg=2.0,
                     scheduler=SchedulerKind("proposed-nonidling"), seed=seed,
                     max_slots=2_000, check_interval=2_000, epsilon=0.0)


@pytest.mark.parametrize("cfg, su1_largest", [
    (two_user_config(0.3, "proposed-nonidling", seed=2, max_slots=2_000, check_interval=2_000,
                     epsilon=0.0), "single"),
    (faded_direct_config(0.2, seed=2), "multi"),
    (faded_direct_config(0.1, seed=2), "single"),
], ids=["unit-rate", "faded-multi-largest", "faded-single-largest"])
def test_drift_delay_term_re_derives_from_trace(cfg, su1_largest):
    # c_y_emp[i] is the largest d_i^2 n^2 + (sum W)^2 over user i's
    # departing batches. The slot loop folds single packets in from their
    # longest wait and multi-packet batches as they depart; on the faded
    # points SU-1 departs both ways, and either kind may hold the largest.
    sim = Simulation(cfg)
    trace = list(sim.observe(2_000))
    result = sim.run_until_converged()
    want = [0.0, 0.0]
    largest = {"single": 0.0, "multi": 0.0}
    for t in trace:
        if t.waiting_times:
            d = cfg.sus[t.su].delay_bound
            n = len(t.waiting_times)
            w = float(sum(t.waiting_times))
            want[t.su] = max(want[t.su], d * d * n * n + w * w)
            if t.su == 0:
                kind = "single" if n == 1 else "multi"
                largest[kind] = max(largest[kind], d * d * n * n + w * w)
    assert all(c > 0.0 for c in want)
    assert (largest["multi"] > 0.0) == isinstance(cfg.sus[0].direct, RayleighGain)
    assert max(largest, key=largest.get) == su1_largest
    assert result.drift.c_y_emp == tuple(want)


def test_drift_delay_term_is_zero_without_departures():
    # A dead link is served 0-packet slots and never sends, so its user has
    # no candidate for the drift constant's Y-term.
    sim = run_slots(dead_channel_config(100), 50)
    assert sim.sus[0].queue.cumulative_departures == 0
    assert sim.interference_sum > 0.0
    assert sim.c_y_emp == (0.0,)


class TestConfigValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            two_user_config(0.1, "proposed", epsilon=-0.01)

    def test_cap_below_check_interval_rejected(self):
        with pytest.raises(ValueError, match="max_slots"):
            two_user_config(0.1, "proposed", max_slots=100, check_interval=200)

    @pytest.mark.parametrize("field, value, message", [
        ("buffer_cap", 0, "buffer cap must be positive"),
        ("buffer_cap", -5, "buffer cap must be positive"),
        ("seed", -1, "seeds must be nonnegative"),
        ("check_interval", 1000.0, "check_interval must be an integer, got 1000.0"),
        ("check_interval", True, "check_interval must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("buffer_cap", 10.5, "buffer_cap must be an integer, got 10.5"),
        ("max_slots", 20000.5, "max_slots must be an integer, got 20000.5"),
    ])
    def test_bad_run_setting_rejected(self, field, value, message):
        # SimConfig holds each run setting's rule and names the field it
        # refuses; the config file reports the same message at the key.
        with pytest.raises(ValueError, match=message) as exc:
            two_user_config(0.1, "proposed", **{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("build, field, message", [
        (lambda: replace(two_user_config(0.1, "proposed"), scheduler="proposed"),
         "scheduler", "scheduler must be SchedulerKind, got 'proposed'"),
        (lambda: SimConfig(sus=(two_user_sus(0.1)[0], "su2"), i_avg=2.0,
                           scheduler=SchedulerKind("proposed")),
         "sus", "each of sus must be SuConfig, got 'su2'"),
        (lambda: replace(two_user_sus(0.1)[0], arrivals=0.1),
         "arrivals", "arrivals must be Bernoulli or TruncatedPoisson, got 0.1"),
        (lambda: replace(two_user_sus(0.1)[0], direct=1.0),
         "direct", "direct must be DeterministicGain or RayleighGain, got 1.0"),
        (lambda: replace(two_user_sus(0.1)[0], interference="rayleigh mean=0.4"),
         "interference", "interference must be DeterministicGain or RayleighGain"),
    ])
    def test_wrong_type_rejected(self, build, field, message):
        # A value of the wrong type fails at construction, not later in the
        # run (a scheduler name as a string once failed on its first slot).
        with pytest.raises(ValueError, match=message) as exc:
            build()
        assert exc.value.field == field

    @pytest.mark.parametrize("build, field, message", [
        (lambda: Bernoulli(1.5), "rate", "bernoulli rate must be in [0, 1], got 1.5"),
        (lambda: Bernoulli(-0.1), "rate", "bernoulli rate must be in [0, 1], got -0.1"),
        (lambda: TruncatedPoisson(0.5, 0), "cap", "poisson cap must be at least 1, got 0"),
        (lambda: TruncatedPoisson(3.0, 2), "rate", "poisson rate must be in [0, cap=2], got 3.0"),
        (lambda: DeterministicGain(-0.5), "value", "deterministic gain -0.5 outside [0, -0.5]"),
        (lambda: DeterministicGain(2.0, cap=1.0), "value", "deterministic gain 2.0 outside [0, 1.0]"),
        (lambda: DeterministicGain(math.inf), "value",
         "deterministic gain inf and its cap inf must be finite"),
        (lambda: DeterministicGain(1.0, cap=math.nan), "cap",
         "deterministic gain 1.0 and its cap nan must be finite"),
        (lambda: RayleighGain(0.0), "mean", "rayleigh mean must be positive and finite, got 0.0"),
        (lambda: RayleighGain(0.4, cap=-1.0), "cap", "rayleigh cap must be positive and finite, got -1.0"),
    ])
    def test_bad_model_parameter_rejected(self, build, field, message):
        # The arrival processes and channel models name the field they
        # refuse, as SimConfig does; the config file reports the message.
        with pytest.raises(SettingError) as exc:
            build()
        assert (exc.value.field, str(exc.value)) == (field, message)

    def test_non_integer_poisson_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be an integer, got 2.5"):
            TruncatedPoisson(0.5, 2.5)

    def test_numpy_integers_accepted(self):
        cfg = two_user_config(0.1, "proposed", max_slots=np.int64(2000),
                              check_interval=np.int32(1000), seed=np.int64(3),
                              buffer_cap=np.int64(50))
        assert Simulation(cfg).run_until_converged().slots <= 2000
        assert TruncatedPoisson(0.5, np.int64(2)).a_max == 2

    def test_no_users_rejected(self):
        with pytest.raises(ValueError, match="at least one user"):
            SimConfig(sus=(), i_avg=2.0, scheduler=SchedulerKind("proposed"))
