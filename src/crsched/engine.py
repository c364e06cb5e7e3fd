"""Slot-by-slot simulation driver and its decision rules.

At most one backlogged user transmits per slot. The index policy serves the
smallest index phi (its idling variant idles when even that is positive);
max-weight serves the largest Q/g and never idles under backlog.

Each slot is one pass over the users followed by at most one departure:

1. the user's arrivals join its queue (and may depart in the same slot)
2. its direct and interference gains are drawn, backlogged or not
3. if backlogged, its metric is scored: the index phi, or Q/g for max-weight
4. the chosen user's head packets depart, n = min(Q, floor(rate))
5. its delay accumulator Y_i absorbs the departures' excess over d_i
6. the interference accumulator X absorbs the slot's gain (0 on idle) - I_avg
7. metrics are accumulated

Y_i and X (the "virtual queues") grow when a slot violates its constraint
and drain, down to 0, when it has room to spare; if their time-averaged
level vanishes, the long-run average constraints hold. A run stops once that
level per queue per slot falls below epsilon (converged) or at max_slots.
A backlog that outgrows its safety cap aborts the run as infeasible-load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple, Sequence

from .channels import ChannelModel
from .queueing import DEFAULT_BUFFER_CAP, ArrivalProcess, InfeasibleLoadError, SuQueue
from .streams import ROLE_ARRIVALS, ROLE_DIRECT, ROLE_INTERFERENCE, BufferedDraws, substream

PHI_ACTUAL = "actual"  # closing term counts the packets actually transmittable
PHI_LITERAL = "literal"  # closing term uses the raw real-valued rate

PROPOSED = "proposed"
PROPOSED_NONIDLING = "proposed-nonidling"
MAXWEIGHT = "maxweight"
SCHEDULER_NAMES = (PROPOSED, PROPOSED_NONIDLING, MAXWEIGHT)


@dataclass(frozen=True)
class SchedulerKind:
    """A decision rule plus, for the index policy, its phi flavor."""

    kind: str
    phi_mode: str = PHI_ACTUAL

    def __post_init__(self):
        if self.kind not in SCHEDULER_NAMES:
            raise ValueError(f"unknown scheduler {self.kind!r}; expected one of {SCHEDULER_NAMES}")
        if self.phi_mode not in (PHI_ACTUAL, PHI_LITERAL):
            raise ValueError(f"unknown phi mode {self.phi_mode!r}")

    @property
    def idling(self) -> bool:
        return self.kind == PROPOSED


def transmission_rate(gamma: float) -> float:
    """Packets deliverable in one slot at direct power gain gamma."""
    return math.log2(1.0 + gamma)


def phi_value(q: int, y: float, d: float, x: float, g: float, w_sum: float, r: float) -> float:
    """Decision index of one backlogged user: phi = X g + Y sum(W) - (Y d + Q) r.

    w_sum is the waiting-time sum of the head packets that would depart and
    r is either their count (actual mode) or the raw rate (literal mode).
    """
    return x * g + y * w_sum - (y * d + q) * r


@dataclass(frozen=True)
class SuConfig:
    """One user's statics: traffic, delay bound, and both channel models."""

    arrivals: ArrivalProcess
    delay_bound: float
    direct: ChannelModel
    interference: ChannelModel

    def __post_init__(self):
        if self.delay_bound <= 0.0:
            raise ValueError(f"delay bound must be positive, got {self.delay_bound!r}")


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
    trace: bool = False

    def __post_init__(self):
        if not self.sus:
            raise ValueError("need at least one user")
        if self.i_avg <= 0.0:
            raise ValueError(f"interference budget must be positive, got {self.i_avg!r}")
        # epsilon = 0 is allowed here: the threshold is then unreachable and
        # the run always executes max_slots slots.
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon!r}")
        if self.check_interval < 1:
            raise ValueError("check interval must be positive")
        if self.max_slots < self.check_interval:
            raise ValueError("max_slots must be at least the check interval")


class SuState(NamedTuple):
    """One user's FIFO, arrival-uniform and gain feeds, and delay bound."""

    queue: SuQueue
    uniforms: BufferedDraws
    direct: BufferedDraws
    interference: BufferedDraws
    delay_bound: float


@dataclass(frozen=True)
class SlotTrace:
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


@dataclass(slots=True)
class MetricsLedger:
    """Per-run accumulators, and the slot trace if the config asks for it.

    drift_sum adds up the one-slot changes of L = (X^2 + sum_i Y_i^2 + Q_i^2)/2,
    whose last value is lyapunov_prev. c_y_emp[i], the empirical Y-term of
    the drift constant, is the largest d_i^2 n^2 + (sum W)^2 of user i.
    """

    interference_sum: float = 0.0
    drift_sum: float = 0.0
    lyapunov_prev: float = 0.0
    c_y_emp: list[float] = field(default_factory=list)
    trace: list[SlotTrace] = field(default_factory=list)


@dataclass(frozen=True)
class DriftSummary:
    """Empirical drift bound check for one run: c_total bounds the mean
    one-slot quadratic drift; jensen_bound is the implied cap sqrt(C/T) on
    every terminal backlog divided by the horizon."""

    c_x: float
    c_q: tuple[float, ...]
    c_y_emp: tuple[float, ...]
    c_total: float
    mean_drift: float
    q_over_t: tuple[float, ...]
    jensen_bound: float


@dataclass(frozen=True)
class RunResult:
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
    run_slot() or run_until_converged()."""

    def __init__(self, config: SimConfig):
        self.config = config
        seed = config.seed
        # One block-buffered substream per (user, role): a user's draws
        # depend only on the seed and its own index.
        self.sus = tuple(
            SuState(
                SuQueue(su.arrivals, config.buffer_cap),
                BufferedDraws(substream(seed, i, ROLE_ARRIVALS).random),
                BufferedDraws(partial(su.direct.sample_block, substream(seed, i, ROLE_DIRECT))),
                BufferedDraws(
                    partial(su.interference.sample_block, substream(seed, i, ROLE_INTERFERENCE))
                ),
                su.delay_bound,
            )
            for i, su in enumerate(config.sus)
        )
        n = len(config.sus)
        self.x = 0.0
        self.y = [0.0] * n
        self.ledger = MetricsLedger(c_y_emp=[0.0] * n)
        self.slot = 0
        self._queues = tuple(su.queue for su in self.sus)
        # This slot's draws, overwritten in place every slot.
        self._arrivals = [0] * n
        self._direct = [0.0] * n
        self._interference = [0.0] * n
        sched = config.scheduler
        self._maxweight = sched.kind == MAXWEIGHT
        self._idling = sched.idling
        self._literal = sched.phi_mode == PHI_LITERAL

    def run_slot(self) -> int | None:
        """Advance one slot; return the scheduled user, None on idle."""
        slot = self.slot
        x = self.x
        y = self.y
        arrivals = self._arrivals
        direct = self._direct
        interference = self._interference
        maxweight = self._maxweight
        literal = self._literal
        # Ties keep the lowest index: only a strictly better value replaces it.
        best = None
        best_v = -math.inf if maxweight else math.inf
        best_n = 0
        for i, (queue, uniforms, direct_feed, interference_feed, d) in enumerate(self.sus):
            arrivals[i] = queue.draw_arrivals(slot, uniforms)
            g_d = direct[i] = direct_feed.random()
            g = interference[i] = interference_feed.random()
            fifo = queue.fifo
            q = len(fifo)
            if not q:
                continue
            if maxweight:
                # An interference-free link has infinite weight.
                v = math.inf if g <= 0.0 else q / g
                if v > best_v:
                    best, best_v = i, v
                continue
            rate = math.log2(1.0 + g_d)
            n = min(q, int(rate))
            w_sum = 0.0
            for a in islice(fifo, n):
                w_sum += slot - a + 1
            v = phi_value(q, y[i], d, x, g, w_sum, rate if literal else float(n))
            if v < best_v:
                best, best_v, best_n = i, v, n
        if self._idling and best_v > 0.0:
            best = None

        led = self.ledger
        gain = 0.0
        waits = ()
        if best is not None:
            gain = interference[best]
            queue = self._queues[best]
            if maxweight:
                best_n = min(len(queue.fifo), int(math.log2(1.0 + direct[best])))
            # A 0-packet slot still holds the channel and charges its gain.
            if best_n:
                waits = queue.depart(best_n, slot)
                d = self.sus[best].delay_bound
                w_sum = 0.0
                excess = 0.0
                for w in waits:
                    w_sum += w
                    excess += w - d
                y_new = y[best] + excess
                y[best] = y_new if y_new > 0.0 else 0.0
                cand = d * d * best_n * best_n + w_sum * w_sum
                if cand > led.c_y_emp[best]:
                    led.c_y_emp[best] = cand
        x = x + gain - self.config.i_avg
        x = x if x > 0.0 else 0.0
        self.x = x

        led.interference_sum += gain
        l_new = 0.5 * x * x
        for y_i, queue in zip(y, self._queues):
            q = len(queue.fifo)
            l_new += 0.5 * (y_i * y_i + q * q)
        led.drift_sum += l_new - led.lyapunov_prev
        led.lyapunov_prev = l_new
        if self.config.trace:
            led.trace.append(SlotTrace(
                slot, tuple(arrivals), best, gain, tuple(waits),
                tuple(len(queue.fifo) for queue in self._queues), tuple(y), x,
                tuple(direct), tuple(interference),
            ))
        self.slot = slot + 1
        return best

    def stability_metric(self) -> float:
        if self.slot == 0:
            return math.inf
        return stability_metric(self.x, self.y, self.slot)

    def run_until_converged(self) -> RunResult:
        cfg = self.config
        try:
            while self.slot < cfg.max_slots:
                self.run_slot()
                if self.slot % cfg.check_interval == 0:
                    metric = self.stability_metric()
                    if metric < cfg.epsilon:
                        return self._finalize(True, metric)
            return self._finalize(False, self.stability_metric())
        except InfeasibleLoadError as err:
            err.partial_result = self._finalize(
                False, self.stability_metric(), note="infeasible-load"
            )
            raise

    def _drift_summary(self, terminal_q: tuple[int, ...]) -> DriftSummary:
        """Empirical drift statistics against the per-run deterministic bound."""
        config = self.config
        led = self.ledger
        g_max = max(su.interference.cap for su in config.sus)
        c_x = g_max * g_max + config.i_avg * config.i_avg
        c_q = []
        for su in config.sus:
            a_max = float(su.arrivals.a_max)
            r_max = transmission_rate(su.direct.cap)
            c_q.append(a_max * a_max + r_max * r_max)
        c_total = c_x + sum(c_q) + sum(led.c_y_emp)
        t = self.slot
        return DriftSummary(
            c_x, tuple(c_q), tuple(led.c_y_emp), c_total, led.drift_sum / t,
            tuple(q / t for q in terminal_q), math.sqrt(c_total / t),
        )

    def _finalize(self, converged: bool, metric: float, note: str = "") -> RunResult:
        led = self.ledger
        slots = self.slot
        terminal_q = tuple(len(queue.fifo) for queue in self._queues)
        return RunResult(
            converged, metric, tuple(queue.average_delay() for queue in self._queues),
            led.interference_sum / slots if slots else 0.0, slots,
            self.x, tuple(self.y), terminal_q,
            self._drift_summary(terminal_q) if slots else None, note,
        )


def run_until_converged(config: SimConfig) -> RunResult:
    """Build a Simulation from config and drive it to its stopping point."""
    return Simulation(config).run_until_converged()
