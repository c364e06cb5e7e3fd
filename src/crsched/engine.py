"""Slot-by-slot simulation driver and its decision rules.

At most one backlogged user transmits per slot. The index policy serves the
smallest index phi (its idling variant idles when even that is positive);
max-weight serves the largest Q/g and never idles under backlog.

Each slot is one scan over the users followed by at most one departure.
Every user's arrivals and gains are drawn a block of slots at a time,
backlogged or not: up to BLOCK slots, ending at the next convergence check
or at max_slots, so a run that stops at either has drawn exactly the slots
it ran.
Simulation._advance sets up the decision rule's scan once per call:
max-weight's reads only each user's backlog Q and interference gain g, the
index scan what phi needs. Either way a slot goes:

1. each user's arrivals join its queue (and may depart in the same slot)
2. if backlogged, its metric is scored: the index phi, or Q/g for max-weight
3. the chosen user's head packets depart, n = min(Q, floor(rate))
4. its delay accumulator Y_i absorbs the departures' excess over d_i
5. the interference accumulator X absorbs the slot's gain (0 on idle) - I_avg
6. metrics are accumulated

Simulation._advance is the only kernel and holds no trace code.
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
from dataclasses import dataclass
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

    The rates are kept only in literal phi mode, their one reader; otherwise
    that list stays empty. A link with a constant gain has its lists filled
    once from the scalar rule, when the run is set up, and never redrawn;
    its generator is never drawn from.
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
    d_i^2 n^2 + (sum W)^2 of user i.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        # One substream per (user, role): a user's draws depend only on the
        # seed and its own index. Drawn BLOCK slots at a time, they give the
        # same values in the same order as one draw per slot.
        self.sus = tuple(
            SuState(
                SuQueue(su.arrivals, config.buffer_cap), su.delay_bound, [], [], [], [],
                substream(config.seed, i, ROLE_ARRIVALS),
                substream(config.seed, i, ROLE_DIRECT),
                substream(config.seed, i, ROLE_INTERFERENCE),
            )
            for i, su in enumerate(config.sus)
        )
        n = len(config.sus)
        self.x = 0.0
        self.y = [0.0] * n
        self.interference_sum = 0.0
        self.c_y_emp = [0.0] * n
        # Each faded direct link's gains in the current block; observe() reads them.
        self._direct: list[np.ndarray | None] = [None] * n
        self.slot = 0
        # The next slot's index into the inputs, and the block's length;
        # _advance draws the next block when the first reaches the second.
        self._pos = self._len = 0
        literal = config.scheduler.phi_mode == PHI_LITERAL
        for su, state in zip(config.sus, self.sus):
            # A constant link's lists come from the scalar rule, once; they
            # hold BLOCK slots, at least as many as any block.
            if isinstance(su.direct, DeterministicGain):
                gain = float(su.direct.value)
                if literal:
                    state.rate[:] = [transmission_rate(gain)] * BLOCK
                state.packets[:] = [int(transmission_rate(gain))] * BLOCK
            if isinstance(su.interference, DeterministicGain):
                state.interference[:] = [float(su.interference.value)] * BLOCK

    def _fill_block(self) -> None:
        """Replace every user's drawn inputs with those of the next slots from
        self.slot on: BLOCK of them, or fewer if the next check or max_slots
        comes first. Past max_slots, reachable only by stepping run_slot(),
        blocks end at checks alone, so none is empty."""
        config = self.config
        check = config.check_interval
        n = min(BLOCK, check - self.slot % check)
        if self.slot < config.max_slots:
            n = min(n, config.max_slots - self.slot)
        self._len = n
        literal = config.scheduler.phi_mode == PHI_LITERAL
        for i, (su, state) in enumerate(zip(config.sus, self.sus)):
            state.arrivals[:] = su.arrivals.counts(state.arrival_rng.random(n)).tolist()
            if not isinstance(su.direct, DeterministicGain):
                direct = self._direct[i] = su.direct.sample_block(state.direct_rng, n)
                # numpy's float64 add rounds as Python's does in transmission_rate.
                one_plus = 1.0 + direct
                if literal:
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

        The kernel is watched from outside: before a slot, each user's FIFO
        head, as many packets as the slot could send, and its departure count;
        after it, the state and the slot's inputs. The served packets are the
        first of that head, then the slot's own arrivals (waiting 1 slot), as
        many as the departure count grew by. A faded link's direct gain is
        read from its block as drawn, a constant link's from its model.
        """
        sus = self.sus
        constant = [float(su.direct.value) if isinstance(su.direct, DeterministicGain) else None
                    for su in self.config.sus]
        for _ in range(count):
            if self._pos == self._len:
                self._fill_block()
                self._pos = 0
            slot, pos = self.slot, self._pos
            heads = [(list(islice(su.queue.fifo, su.packets[pos])), su.queue.cumulative_departures)
                     for su in sus]
            best = self._advance(1)
            if best is None:
                gain, waits = 0.0, ()
            else:
                head, departed = heads[best]
                n = sus[best].queue.cumulative_departures - departed
                gain = sus[best].interference[pos]
                waits = tuple(slot + 1 - a for a in head[:n]) + (1,) * (n - len(head))
            yield SlotTrace(
                slot, tuple(su.arrivals[pos] for su in sus), best, gain, waits,
                tuple(len(su.queue.fifo) for su in sus), tuple(self.y), self.x,
                tuple(float(self._direct[i][pos]) if g is None else g for i, g in enumerate(constant)),
                tuple(su.interference[pos] for su in sus),
            )

    def _advance(self, count: int) -> int | None:
        """Run ``count`` >= 1 slots; return the last one's scheduled user.

        The run state lives in locals and is written back on the way out,
        also when a backlog outgrows its cap: the aborted slot then leaves
        its arrivals so far queued and changes nothing else.
        """
        sus = self.sus
        y = self.y
        c_y_emp = self.c_y_emp
        i_avg = self.config.i_avg
        buffer_cap = self.config.buffer_cap
        sched = self.config.scheduler
        maxweight = sched.kind == MAXWEIGHT
        idling = sched.idling
        literal = sched.phi_mode == PHI_LITERAL
        inf = math.inf
        # Each rule scans what it reads of a user: Q and g for max-weight,
        # what phi needs for the index policy. Its entry ends with what the
        # departure step reads of the user, if the user is served.
        scan = []
        for i, su in enumerate(sus):
            fifo = su.queue.fifo
            served = (i, su.queue, fifo, su.delay_bound, su.packets, su.interference)
            if maxweight:
                scan.append((fifo, su.arrivals, su.interference, served))
            else:
                scan.append((fifo, su.arrivals, su.interference, su.packets, su.rate,
                             su.delay_bound, i, served))
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
                for pos in range(pos, stop):
                    # Ties keep the lowest index: only a strictly better value replaces it.
                    best_served = None
                    best_v = start_v
                    if maxweight:
                        for fifo, arrivals, interference, served in scan:
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
                            g = interference[pos]
                            # An interference-free link has infinite weight.
                            v = inf if g <= 0.0 else q / g
                            if v > best_v:
                                best_served, best_v, best_q = served, v, q
                    else:
                        for fifo, arrivals, interference, packets, rates, d, i, served in scan:
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
                            n = packets[pos]
                            if n > q:
                                n = q
                            # The departing packets' waiting-time sum, an exact integer.
                            if n < 2:
                                w_sum = n * (slot + 1 - fifo[0])
                            else:
                                w_sum = n * (slot + 1) - sum(islice(fifo, n))
                            # phi = X g + Y sum(W) - (Y d + Q) r, where r is the packet
                            # count (actual mode) or the raw rate (literal mode).
                            y_i = y[i]
                            v = (x * interference[pos] + y_i * w_sum
                                 - (y_i * d + q) * (rates[pos] if literal else n))
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
                        # A 0-packet slot still holds the channel and charges its gain.
                        if best_n:
                            # Pop the head packets in FIFO order: each adds its
                            # waiting time W to w_sum and its excess W - d to excess.
                            # A single packet, the only case on a unit-rate link,
                            # skips the loop's set-up.
                            if best_n == 1:
                                w_sum = slot + 1 - fifo.popleft()
                                excess = w_sum - d
                            else:
                                pop = fifo.popleft
                                w_sum = 0
                                excess = 0.0
                                for _ in range(best_n):
                                    w = slot + 1 - pop()
                                    w_sum += w
                                    excess += w - d
                            queue.cumulative_departures += best_n
                            queue.departed_waiting_sum += w_sum
                            y_new = y[best] + excess
                            y[best] = y_new if y_new > 0.0 else 0.0
                            cand = d * d * best_n * best_n + w_sum * w_sum
                            if cand > c_y_emp[best]:
                                c_y_emp[best] = cand
                        x = x + gain - i_avg
                    x = x if x > 0.0 else 0.0
                    slot += 1
                pos = stop
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
        cfg = self.config
        check = cfg.check_interval
        try:
            while self.slot < cfg.max_slots:
                self._advance(min(check - self.slot % check, cfg.max_slots - self.slot))
                if self.slot % check == 0:
                    metric = self.stability_metric()
                    if metric < cfg.epsilon:
                        return self._finalize(True, metric)
        except InfeasibleLoadError:
            return self._finalize(False, self.stability_metric(), note="infeasible-load")
        return self._finalize(False, self.stability_metric())

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
        c_total = c_x + sum(c_q) + sum(self.c_y_emp)
        t = self.slot
        # L after the last completed slot. An aborted slot has changed only
        # the FIFOs, by appending its arrivals, each tagged with slot t.
        level = 0.5 * self.x * self.x
        for y, su in zip(self.y, self.sus):
            fifo = su.queue.fifo
            q = len(fifo) - sum(1 for _ in takewhile(t.__eq__, reversed(fifo)))
            level += 0.5 * (y * y + q * q)
        return DriftSummary(
            c_x, tuple(c_q), tuple(self.c_y_emp), c_total, level / t,
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
