"""Slot-by-slot simulation driver and its decision rules.

At most one backlogged user transmits per slot. The index policy serves the
smallest index phi (its idling variant idles when even that is positive);
max-weight serves the largest Q/g and never idles under backlog.

Each slot is one scan over the users followed by at most one departure.
Every user's arrivals and gains are drawn a block of slots at a time,
backlogged or not: up to BLOCK slots, ending at the next convergence check
or at max_slots, so a run that stops at either has drawn exactly the slots
it ran.
All three rules share one scan, built once when the run is set up: it
admits each user's arrivals and enforces the buffer cap the same way for
every rule, and the rules differ only in how they score a backlogged user.
A slot goes:

1. each user's arrivals join its queue (and may depart in the same slot)
2. if backlogged, its metric is scored: Q/g for max-weight, or the index phi
   from the fields only phi reads; phi's delay terms, and the head packets'
   waiting times they need, are scored only when Y_i > 0
3. the chosen user's head packets depart, n = min(Q, floor(rate))
4. its delay accumulator Y_i absorbs the departures' excess over d_i
5. the interference accumulator X absorbs the slot's gain (0 on idle) - I_avg
6. metrics are accumulated

Simulation._advance is the only kernel and holds no trace code.
run_lockstep holds the stopping rule. It runs Simulations that share their
inputs one block at a time: each block is drawn once, by the first of them
that reaches it, and every one then runs it and applies the rule.
run_until_converged is run_lockstep with one Simulation; simulations()
builds a group, one Simulation per rule on one config, so the rules of a
sweep point see the same draws.
Simulation.observe steps it one slot at a time and yields each slot's
SlotTrace, built from outside from the state and the slot's inputs; it
keeps none, and it is the only reader of the direct gains.

Y_i and X (the "virtual queues") grow when a slot violates its constraint
and drain, down to 0, when it has room to spare; if their time-averaged
level vanishes, the long-run average constraints hold. A run stops once that
level per queue per slot falls below epsilon (converged) or at max_slots.
A backlog that outgrows its safety cap aborts the run as infeasible-load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, repeat, takewhile
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import ChannelModel, DeterministicGain
from .queueing import (DEFAULT_BUFFER_CAP, ArrivalProcess, InfeasibleLoadError, SettingError,
                       SuQueue, require_instance, require_integer)
from .streams import ROLE_ARRIVALS, ROLE_DIRECT, ROLE_INTERFERENCE, substream

PHI_ACTUAL = "actual"  # closing term counts the packets actually transmittable
PHI_LITERAL = "literal"  # closing term uses the raw real-valued rate

PROPOSED = "proposed"
PROPOSED_NONIDLING = "proposed-nonidling"
MAXWEIGHT = "maxweight"
SCHEDULER_NAMES = (PROPOSED, PROPOSED_NONIDLING, MAXWEIGHT)

BLOCK = 4096  # slots of inputs drawn at a time


@dataclass(frozen=True)
class SchedulerKind:
    """A decision rule plus, for the index policy, its phi flavor."""

    kind: str
    phi_mode: str = PHI_ACTUAL

    def __post_init__(self):
        if self.kind not in SCHEDULER_NAMES:
            raise SettingError("kind", f"unknown scheduler name {self.kind!r}; "
                                       f"expected one of {', '.join(SCHEDULER_NAMES)}")
        if self.phi_mode not in (PHI_ACTUAL, PHI_LITERAL):
            raise SettingError("phi_mode", f"unknown phi mode {self.phi_mode!r}; expected actual or literal")

    @property
    def idling(self) -> bool:
        return self.kind == PROPOSED

    @property
    def reads_rates(self) -> bool:
        """Only phi reads the raw rates, and only in literal mode."""
        return self.kind != MAXWEIGHT and self.phi_mode == PHI_LITERAL


def transmission_rate(gamma: float) -> float:
    """Packets deliverable in one slot at direct power gain gamma."""
    return math.log2(1.0 + gamma)


# Mantissas of 1 + gamma this close to a power of two take the scalar rule.
_NEAR_POWER_OF_TWO = 2.0**-30


def whole_packets(one_plus: np.ndarray) -> list[int]:
    """int(transmission_rate(gamma)) for each element 1 + gamma >= 1 of
    ``one_plus``, without a log per element.

    With 1 + gamma = m 2^e and m in [0.5, 1), log2(1 + gamma) lies in
    [e - 1, e), so its integer part is e - 1. math.log2 errs by less than
    an ulp, so it lands in that interval too unless m is within a hair of
    0.5 or 1; only those elements are evaluated by the scalar rule.
    """
    m, e = np.frexp(one_plus)
    packets = e - 1
    for k in np.flatnonzero(np.abs(m - 0.75) > 0.25 - _NEAR_POWER_OF_TWO).tolist():
        packets[k] = int(math.log2(float(one_plus[k])))
    return packets.tolist()


@dataclass(frozen=True)
class SuConfig:
    """One user's statics: traffic, delay bound, and both channel models."""

    arrivals: ArrivalProcess
    delay_bound: float
    direct: ChannelModel
    interference: ChannelModel

    def __post_init__(self):
        require_instance("arrivals", self.arrivals, ArrivalProcess)
        require_instance("direct", self.direct, ChannelModel)
        require_instance("interference", self.interference, ChannelModel)
        if not 0.0 < self.delay_bound < math.inf:
            raise SettingError("delay_bound", f"delay bound must be positive and finite, got {self.delay_bound!r}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; picklable, so sweeps can fan out."""

    sus: tuple[SuConfig, ...]
    i_avg: float
    scheduler: SchedulerKind
    epsilon: float = 0.01
    max_slots: int = 1_000_000
    check_interval: int = 10_000
    seed: int = 0
    buffer_cap: int = DEFAULT_BUFFER_CAP

    def __post_init__(self):
        if not self.sus:
            raise SettingError("sus", "need at least one user")
        for su in self.sus:
            require_instance("sus", su, SuConfig, "each of sus")
        require_instance("scheduler", self.scheduler, SchedulerKind)
        require_integer(self, "max_slots", "check_interval", "seed", "buffer_cap")
        if not 0.0 < self.i_avg < math.inf:
            raise SettingError("i_avg",
                               f"interference budget must be positive and finite, got {self.i_avg!r}")
        # epsilon = 0 is allowed: every run then executes max_slots slots.
        if not 0.0 <= self.epsilon < math.inf:
            raise SettingError("epsilon", "epsilon must be nonnegative")
        if self.check_interval < 1:
            raise SettingError("check_interval", "check interval must be positive")
        if self.max_slots < self.check_interval:
            raise SettingError("max_slots", "max_slots must be at least check_interval")
        if self.seed < 0:
            raise SettingError("seed", "seeds must be nonnegative")
        if self.buffer_cap < 1:
            raise SettingError("buffer_cap", "buffer cap must be positive")


class SuState(NamedTuple):
    """One user's FIFO and delay bound, its inputs for the current block of
    up to BLOCK slots, one entry per slot (arrival counts, the rates
    log2(1 + gain) of the direct gains, the whole packets floor(rate) and
    interference gains), and the generators they are drawn from.

    The inputs and generators are one user's entry of an _Inputs, the same
    objects in every Simulation that shares it.
    """

    queue: SuQueue
    delay_bound: float
    arrivals: list[int]
    rate: list[float]
    packets: list[int]
    interference: list[float]
    arrival_rng: np.random.Generator
    direct_rng: np.random.Generator
    interference_rng: np.random.Generator


class _Inputs(NamedTuple):
    """Every user's input lists and generators, in SuState's order, and each
    faded direct link's gains in the current block (None for a constant
    link), which observe() reads.

    The Simulations of one config under different rules share one, so each
    block is drawn once for all of them. The rates are kept only if one of
    them reads them (keep_rates); otherwise those lists stay empty. A link
    with a constant gain has its lists filled once from the scalar rule and
    never redrawn; its generator is never drawn from.
    """

    users: tuple[tuple[list, list, list, list, np.random.Generator, np.random.Generator,
                       np.random.Generator], ...]
    direct: list[np.ndarray | None]
    keep_rates: bool


def _inputs(config: SimConfig, keep_rates: bool) -> _Inputs:
    """Fresh inputs for config's users. One substream per (user, role): a
    user's draws depend only on the seed and its own index. Drawn BLOCK
    slots at a time, they give the same values in the same order as one
    draw per slot."""
    users = []
    for i, su in enumerate(config.sus):
        rate, packets, interference = [], [], []
        # A constant link's lists hold BLOCK slots, at least as many as any block.
        if isinstance(su.direct, DeterministicGain):
            gain = float(su.direct.value)
            if keep_rates:
                rate[:] = [transmission_rate(gain)] * BLOCK
            packets[:] = [int(transmission_rate(gain))] * BLOCK
        if isinstance(su.interference, DeterministicGain):
            interference[:] = [float(su.interference.value)] * BLOCK
        users.append(([], rate, packets, interference,
                      substream(config.seed, i, ROLE_ARRIVALS),
                      substream(config.seed, i, ROLE_DIRECT),
                      substream(config.seed, i, ROLE_INTERFERENCE)))
    return _Inputs(tuple(users), [None] * len(config.sus), keep_rates)


class SlotTrace(NamedTuple):
    """Post-slot snapshot plus the slot's driving quantities."""

    slot: int
    arrivals: tuple[int, ...]
    su: int | None
    gain: float
    waiting_times: tuple[int, ...]
    q: tuple[int, ...]
    y: tuple[float, ...]
    x: float
    direct: tuple[float, ...]
    interference: tuple[float, ...]


class DriftSummary(NamedTuple):
    """Empirical drift bound check for one run: c_total bounds the mean
    one-slot quadratic drift, which telescopes to mean_drift = (L(T) - L(0))/T
    over the T completed slots, L = (X^2 + sum_i Y_i^2 + Q_i^2)/2 and L(0) = 0;
    jensen_bound is the implied cap sqrt(C/T) on every terminal backlog
    divided by the horizon."""

    c_x: float
    c_q: tuple[float, ...]
    c_y_emp: tuple[float, ...]
    c_total: float
    mean_drift: float
    q_over_t: tuple[float, ...]
    jensen_bound: float


class RunResult(NamedTuple):
    converged: bool
    stability_metric: float
    avg_delays: tuple[float | None, ...]
    interference_avg: float
    slots: int
    terminal_x: float
    terminal_y: tuple[float, ...]
    terminal_q: tuple[int, ...]
    drift: DriftSummary | None
    note: str = ""


def stability_metric(x: float, ys: Sequence[float], slots: int) -> float:
    """Average terminal accumulator level per queue per slot. Small values
    mean every accumulator grew sublinearly: the delay and interference
    constraints hold in long-run average."""
    if slots <= 0:
        raise ValueError("stability metric needs at least one elapsed slot")
    return (x + sum(ys)) / ((len(ys) + 1) * slots)


class Simulation:
    """Mutable run state, with X as x and Y_i as y[i]; drive with
    run_slot() or run_until_converged(), or watch it with observe().

    interference_sum adds up the interference gains charged so far.
    c_y_emp[i], the empirical Y-term of the drift constant, is the largest
    d_i^2 n^2 + (sum W)^2 of user i; no decision reads it.

    Given inputs, as simulations() gives each Simulation of a group, it
    reads and draws into lists that the whole group shares; such a group is
    driven by run_lockstep only.
    """

    def __init__(self, config: SimConfig, inputs: _Inputs | None = None):
        self.config = config
        n = len(config.sus)
        self.x = 0.0
        self.y = [0.0] * n
        self.interference_sum = 0.0
        # c_y_emp's two parts: the largest multi-packet candidate, and the
        # longest single-packet wait (0 until one departs).
        self._c_y_multi = [0.0] * n
        self._w1_max = [0] * n
        self.slot = 0
        # The next slot's index into the inputs, and the block's length;
        # _advance draws the next block when the first reaches the second.
        self._pos = self._len = 0
        sched = config.scheduler
        self._maxweight = sched.kind == MAXWEIGHT
        self._idling = sched.idling
        self._literal = sched.reads_rates
        if inputs is None:
            inputs = _inputs(config, self._literal)
        self._direct, self._keep_rates = inputs.direct, inputs.keep_rates
        sus, self._scan = [], []
        for i, su in enumerate(config.sus):
            state = SuState(SuQueue(su.arrivals), su.delay_bound, *inputs.users[i])
            # The scan reads a user's FIFO, arrivals and interference gains
            # under every rule, then what the departure step reads of it if
            # it is served, then what only phi reads. The lists are refilled
            # in place, so the scan is built once.
            fifo = state.queue.fifo
            self._scan.append((fifo, state.arrivals, state.interference,
                               (i, state.queue, fifo, su.delay_bound, state.packets, state.interference),
                               (state.packets, state.rate, su.delay_bound, i)))
            sus.append(state)
        self.sus = tuple(sus)
        # Each constant direct link's gain, None for a faded one.
        self._constant_direct = tuple(float(su.direct.value) if isinstance(su.direct, DeterministicGain)
                                      else None for su in config.sus)

    @property
    def c_y_emp(self) -> tuple[float, ...]:
        """Each user's largest d_i^2 n^2 + (sum W)^2 over its departures.

        A single packet's candidate d^2 + W^2 grows with W, and its rounding
        keeps that order, so the slot loop keeps only the longest single
        wait and its candidate is folded in here."""
        return tuple(c if w == 0 else max(c, su.delay_bound * su.delay_bound + w * w)
                     for c, w, su in zip(self._c_y_multi, self._w1_max, self.sus))

    def _segment(self) -> int:
        """Slots from self.slot to the next check, or to max_slots if that
        comes first. Past max_slots, reachable only by stepping run_slot(),
        a segment ends at the next check, so none is empty."""
        config = self.config
        n = config.check_interval - self.slot % config.check_interval
        if self.slot < config.max_slots:
            n = min(n, config.max_slots - self.slot)
        return n

    def _fill_block(self) -> None:
        """Replace every user's drawn inputs with those of the next slots from
        self.slot on: BLOCK of them, or fewer if the segment ends first.
        Each call draws a new block, into the lists that every Simulation
        sharing these inputs reads."""
        self._len = n = min(BLOCK, self._segment())
        keep_rates = self._keep_rates
        for i, (su, state) in enumerate(zip(self.config.sus, self.sus)):
            state.arrivals[:] = su.arrivals.counts(state.arrival_rng.random(n)).tolist()
            if not isinstance(su.direct, DeterministicGain):
                direct = self._direct[i] = su.direct.sample_block(state.direct_rng, n)
                # numpy's float64 add rounds as Python's does in transmission_rate.
                one_plus = 1.0 + direct
                if keep_rates:
                    state.rate[:] = map(math.log2, one_plus.tolist())
                state.packets[:] = whole_packets(one_plus)
            if not isinstance(su.interference, DeterministicGain):
                state.interference[:] = su.interference.sample_block(state.interference_rng, n).tolist()

    def run_slot(self) -> int | None:
        """Advance one slot; return the scheduled user, None on idle."""
        return self._advance(1)

    def observe(self, count: int) -> Iterator[SlotTrace]:
        """Run up to ``count`` slots as _advance(1) calls, yielding each slot's
        SlotTrace once it has run; each slot runs when its record is asked
        for, and none is kept. A backlog that outgrows its cap raises
        InfeasibleLoadError from the aborted slot, as run_slot() does.

        The kernel is watched from outside: before a slot, each user's
        departure count and waiting-time sum, and its FIFO head, as many
        packets as the slot could send, where that is two or more; after it,
        the state and the slot's inputs. One served packet waited what the
        waiting-time sum grew by. Several are the first of that head, then the
        slot's own arrivals (waiting 1 slot), as many as the departure count
        grew by. A faded link's direct gain is read from its block as drawn,
        a constant link's from its model.
        """
        sus = self.sus
        queues = [su.queue for su in sus]
        constant = self._constant_direct
        for _ in range(count):
            if self._pos == self._len:
                self._fill_block()
                self._pos = 0
            slot, pos = self.slot, self._pos
            before = [(q.cumulative_departures, q.departed_waiting_sum,
                       list(islice(q.fifo, su.packets[pos])) if su.packets[pos] >= 2 and q.fifo else ())
                      for su, q in zip(sus, queues)]
            best = self._advance(1)
            if best is None:
                gain, waits = 0.0, ()
            else:
                queue = queues[best]
                departed, waited, head = before[best]
                n = queue.cumulative_departures - departed
                gain = sus[best].interference[pos]
                if n == 1:
                    waits = (queue.departed_waiting_sum - waited,)
                else:
                    waits = tuple(slot + 1 - a for a in head[:n]) + (1,) * (n - len(head))
            yield SlotTrace(
                slot, tuple([su.arrivals[pos] for su in sus]), best, gain, waits,
                tuple([len(q.fifo) for q in queues]), tuple(self.y), self.x,
                tuple([float(self._direct[i][pos]) if g is None else g for i, g in enumerate(constant)]),
                tuple([su.interference[pos] for su in sus]),
            )

    def _advance(self, count: int) -> int | None:
        """Run ``count`` >= 1 slots; return the last one's scheduled user.

        The run state lives in locals and is written back on the way out,
        also when a backlog outgrows its cap: the aborted slot then leaves
        its arrivals so far queued and changes nothing else.
        """
        y = self.y
        c_y_multi, w1_max = self._c_y_multi, self._w1_max
        i_avg = self.config.i_avg
        buffer_cap = self.config.buffer_cap
        scan = self._scan
        maxweight, idling, literal = self._maxweight, self._idling, self._literal
        inf = math.inf
        start_v = -inf if maxweight else inf
        x, slot, pos, length = self.x, self.slot, self._pos, self._len
        interference_sum = self.interference_sum
        end = slot + count
        best_served = None
        try:
            while slot < end:
                if pos == length:
                    self.slot = slot
                    self._fill_block()
                    pos, length = 0, self._len
                stop = min(length, pos + end - slot)
                # Arrivals are tagged with the slot, waits run to slot1 = slot + 1.
                for pos, slot, slot1 in zip(range(pos, stop), range(slot, end), range(slot + 1, end + 1)):
                    # Ties keep the lowest index: only a strictly better value replaces it.
                    best_served = None
                    best_v = start_v
                    for fifo, arrivals, interference, served, phi in scan:
                        # Arrivals join the tail; they may depart in this slot.
                        a = arrivals[pos]
                        if a:
                            if a == 1:
                                fifo.append(slot)
                            else:
                                fifo.extend(repeat(slot, a))
                            q = len(fifo)
                            if q > buffer_cap:
                                raise InfeasibleLoadError(
                                    f"backlog exceeded safety cap {buffer_cap} at slot {slot}")
                        elif fifo:
                            q = len(fifo)
                        else:
                            continue
                        if maxweight:
                            g = interference[pos]
                            # An interference-free link has infinite weight.
                            v = inf if g <= 0.0 else q / g
                            if v > best_v:
                                best_served, best_v, best_q = served, v, q
                            continue
                        packets, rates, d, i = phi
                        n = packets[pos]
                        if n > q:
                            n = q
                        # phi = X g + Y sum(W) - (Y d + Q) r, where r is the packet
                        # count (actual mode) or the raw rate (literal mode).
                        y_i = y[i]
                        if y_i:
                            # The departing packets' waiting-time sum, an exact integer.
                            if n == 1:
                                w_sum = slot1 - fifo[0]
                            elif n:
                                w_sum = n * slot1 - sum(islice(fifo, n))
                            else:
                                w_sum = 0
                            v = (x * interference[pos] + y_i * w_sum
                                 - (y_i * d + q) * (rates[pos] if literal else n))
                        else:
                            # Y = +0.0 zeroes both delay terms exactly; only the sign of
                            # a zero phi can differ, which no comparison below sees.
                            v = x * interference[pos] - q * (rates[pos] if literal else n)
                        if v < best_v:
                            best_served, best_v, best_n = served, v, n
                    if idling and best_v > 0.0:
                        best_served = None

                    if best_served is None:
                        # An idle slot charges no gain; x + 0.0 == x, as X >= 0 is never -0.0.
                        x -= i_avg
                    else:
                        best, queue, fifo, d, packets, interference = best_served
                        gain = interference[pos]
                        interference_sum += gain
                        if maxweight:
                            best_n = packets[pos]
                            if best_n > best_q:
                                best_n = best_q
                        # Pop the head packets in FIFO order: each adds its waiting
                        # time W to the waiting sum and its excess W - d to Y. A
                        # single packet, the only case on a unit-rate link, skips
                        # the loop and keeps its user's longest single wait, from
                        # which c_y_emp derives its candidate when read. A
                        # 0-packet slot still holds the channel and charges its gain.
                        if best_n == 1:
                            w = slot1 - fifo.popleft()
                            queue.cumulative_departures += 1
                            queue.departed_waiting_sum += w
                            y_new = y[best] + (w - d)
                            y[best] = y_new if y_new > 0.0 else 0.0
                            if w > w1_max[best]:
                                w1_max[best] = w
                        elif best_n:
                            pop = fifo.popleft
                            w_sum = 0
                            excess = 0.0
                            for _ in range(best_n):
                                w = slot1 - pop()
                                w_sum += w
                                excess += w - d
                            queue.cumulative_departures += best_n
                            queue.departed_waiting_sum += w_sum
                            y_new = y[best] + excess
                            y[best] = y_new if y_new > 0.0 else 0.0
                            cand = d * d * best_n * best_n + w_sum * w_sum
                            if cand > c_y_multi[best]:
                                c_y_multi[best] = cand
                        x = x + gain - i_avg
                    x = x if x > 0.0 else 0.0
                slot, pos = slot1, stop
        finally:
            self.x, self.slot, self._pos = x, slot, pos
            self.interference_sum = interference_sum
        return None if best_served is None else best_served[0]

    def stability_metric(self) -> float:
        if self.slot == 0:
            return math.inf
        return stability_metric(self.x, self.y, self.slot)

    def run_until_converged(self) -> RunResult:
        """Run to the stopping rule or max_slots. A backlog that outgrows its
        cap ends the run too, as an unconverged result noted infeasible-load."""
        return run_lockstep((self,))[0]

    def _drift_summary(self, terminal_q: tuple[int, ...]) -> DriftSummary:
        """Empirical drift statistics against the per-run deterministic bound."""
        config = self.config
        g_max = max(su.interference.cap for su in config.sus)
        c_x = g_max * g_max + config.i_avg * config.i_avg
        c_q = []
        for su in config.sus:
            a_max = float(su.arrivals.a_max)
            r_max = transmission_rate(su.direct.cap)
            c_q.append(a_max * a_max + r_max * r_max)
        c_y_emp = self.c_y_emp
        c_total = c_x + sum(c_q) + sum(c_y_emp)
        t = self.slot
        # L after the last completed slot. An aborted slot has changed only
        # the FIFOs, by appending its arrivals, each tagged with slot t.
        level = 0.5 * self.x * self.x
        for y, su in zip(self.y, self.sus):
            fifo = su.queue.fifo
            q = len(fifo) - sum(1 for _ in takewhile(t.__eq__, reversed(fifo)))
            level += 0.5 * (y * y + q * q)
        return DriftSummary(
            c_x, tuple(c_q), c_y_emp, c_total, level / t,
            tuple(q / t for q in terminal_q), math.sqrt(c_total / t),
        )

    def _finalize(self, converged: bool, metric: float, note: str = "") -> RunResult:
        slots = self.slot
        queues = [su.queue for su in self.sus]
        terminal_q = tuple(queue.backlog for queue in queues)
        return RunResult(
            converged, metric, tuple(queue.average_delay() for queue in queues),
            self.interference_sum / slots if slots else 0.0, slots,
            self.x, tuple(self.y), terminal_q,
            self._drift_summary(terminal_q) if slots else None, note,
        )


def simulations(config: SimConfig, kinds: Sequence[SchedulerKind]) -> list[Simulation]:
    """One Simulation of config per rule in kinds, in that order, all on one
    set of inputs; they keep the raw rates if any of them reads them."""
    inputs = _inputs(config, any(kind.reads_rates for kind in kinds))
    return [Simulation(replace(config, scheduler=kind), inputs) for kind in kinds]


def run_lockstep(sims: Sequence[Simulation]) -> list[RunResult]:
    """Run each of sims, which share their inputs and stand at one slot, to
    the stopping rule or max_slots, and return their results in order.

    They advance together, to the end of one input block at a time. The
    first still running draws each block, so a block is drawn once, and
    only while a run needs it. After a block every run that ends at a
    check tests its metric and stops once it falls below epsilon; a run
    stops at max_slots too, and a backlog that outgrows its cap ends it as
    an unconverged result noted infeasible-load. A block never passes a
    check or max_slots, so every run stops where it would alone.
    """
    config = sims[0].config
    results: list[RunResult | None] = [None] * len(sims)
    running = [k for k, sim in enumerate(sims) if sim.slot < config.max_slots]
    while running:
        lead = sims[running[0]]
        if lead._pos == lead._len:
            lead._fill_block()
            for k in running:
                sims[k]._pos, sims[k]._len = 0, lead._len
        count = lead._len - lead._pos
        for k in running:
            sim = sims[k]
            try:
                sim._advance(count)
            except InfeasibleLoadError:
                results[k] = sim._finalize(False, sim.stability_metric(), note="infeasible-load")
                continue
            if sim.slot % config.check_interval == 0:
                metric = sim.stability_metric()
                if metric < config.epsilon:
                    results[k] = sim._finalize(True, metric)
        running = [k for k in running if results[k] is None and sims[k].slot < config.max_slots]
    return [sim._finalize(False, sim.stability_metric()) if result is None else result
            for sim, result in zip(sims, results)]
