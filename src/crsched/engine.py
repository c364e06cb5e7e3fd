"""Slot-by-slot simulation driver and its decision rules.

At most one backlogged user transmits per slot. The index policy serves the
smallest index phi (its idling variant idles when even that is positive);
max-weight serves the largest Q/g and never idles under backlog.

Each slot is one scan over the users followed by at most one departure.
Every user's arrivals and gains are drawn a block of slots at a time,
backlogged or not: up to BLOCK slots, ending at the next convergence check
or at max_slots, so a run that stops at either has drawn exactly the slots
it ran.
All three rules share one scan: it admits each user's arrivals and
enforces the buffer cap the same way for every rule, and the rules differ
only in how they score a backlogged user.
A slot goes:

1. each user's arrivals join its queue (and may depart in the same slot)
2. if backlogged, its metric is scored: Q/g for max-weight, or the index phi
   from the fields only phi reads; phi's delay terms, and the head packets'
   waiting times they need, are scored only when Y_i > 0
3. the chosen user's head packets depart, n = min(Q, floor(rate))
4. its delay accumulator Y_i absorbs the departures' excess over d_i
5. the interference accumulator X absorbs the slot's gain (0 on idle) - I_avg
6. metrics are accumulated

run_slot() and observe() call the full kernel, as self._kernel(self,
count); it holds no trace code and runs within the drawn block. It is
generated from one template, _KERNEL, once per (rule, user shapes) in a
process: the scan and the departure are written out once per user, from
that user's one table of fragments, and the rule's scoring and start value
are chosen when the text is built, so a slot neither loops over the users
nor tests the rule.
run_lockstep calls the full kernel too, except under the idling rule in
actual mode, where it may call a sealed variant from the same template.
Before each call it seals every unit-link user whose margin (margins()),
a lower bound on its phi with X g >= 0 dropped, stays positive after all
of the block's arrivals. Such a user's turn is its admission and cap test
alone: it is not scored and has no departure. While it waits, its head and
Y stay, its wait only grows and its backlog stays within the bound, so its
phi stays positive in every slot of the call. The rule serves only at
phi <= 0 and would not have served it, so the run is the same slot for
slot. The margin is the kernel's own float operations at the least wait
and the greatest backlog, and rounding is monotone, so the bound is exact.
Each user's state lives in the kernel's locals for a call: its SuState,
bound whole, its Y_i, its c_y_emp parts and its backlog, a count taken
from the FIFO once per call and kept by admission and departure from then
on, so no slot calls len(). A slot's choice is the user's index alone, and the departure
written out for that user works on its locals. On the way out, also when a
backlog outgrows its cap, the state of each user that departed in the call
is written back; no other user's has changed.
A user's shape says whether its direct link is a constant one-packet link
and whether at most one packet arrives in a slot. A unit-link user's scan
reads no packet count and its departure is its head packet alone, and a
single-arrival user's admission tests no count.
The slot loop is driven by position alone. It runs over a slice of
_POSITIONS, the ints 0 .. BLOCK - 1 made once per process, so pos, the
slot's index into the block's input lists, is an int no slot allocates.
The slot and slot1 = slot + 1 are floats: slot1 starts as float(self.slot),
and each slot takes slot = slot1, then slot1 = slot + 1.0, one float add.
Each is an integer below 2^53 plus 1.0, so every one is exact.
Each rule starts a slot from a value a picked user's score must beat, and
the slot idles when that value still stands. The non-idling index policy
starts at inf, max-weight at 0.0: gains are finite, so a backlogged user
weighs inf (g <= 0) or Q/g >= 1/DBL_MAX, about 5.6e-309 (g > 0), and beats
0.0 as it would -inf. The idling index policy starts at 5e-324, the least
positive float. No float lies between 0.0 and 5e-324, so phi < 5e-324
exactly when phi <= 0.0: a user is picked exactly when it scores phi <= 0.
The last slot's user is returned, or None if it idled.
The slot loop's arithmetic is kept to one type per operation, as CPython
3.11 specializes a binary operation or a comparison only for two floats or
two ints. So the FIFOs hold arrival slots as floats, the loop's slot and
slot1 are floats, and so are every wait W, waiting sum and excess W - d;
a unit-link user's backlog is a float too, tested against a float copy of
buffer_cap. A listed link's backlog and packet count n stay ints, as islice
and range take n. Every integer below 2^53 is exact as a float, and CPython
converts an int operand to exactly that float before it adds, subtracts or
multiplies, so each result is the same as with ints while slots and a
call's waiting sums stay below 2^53 (about 9e15). The state a Simulation
hands out stays int: the slot, the queue counters (a call's waiting sum is
written back as an int), RunResult and SlotTrace.
_Inputs owns a group's inputs: it judges each link constant or drawn once,
draws each block and holds the shapes and the direct gains. run_slot(),
observe() and run_lockstep ask _Inputs.left for the slots left in the drawn
block, which draws the next when none are and refuses a slot before it.
run_lockstep holds the stopping rule. It runs Simulations that share their
inputs one block at a time: each block is drawn once, by the first of them
that finds the last spent, and every one then runs it and applies the rule.
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

import linecache
import math
import textwrap
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, repeat, takewhile
from string import Template
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
_POSITIONS = tuple(range(BLOCK))  # a kernel call's positions in the block, sliced


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
    """One user's FIFO and delay bound and its inputs for the current block
    of up to BLOCK slots, one entry per slot: arrival counts, the rates
    log2(1 + gain) of the direct gains, the whole packets floor(rate) and
    interference gains. The kernel binds it whole, once per call.

    The input lists are one user's entry of _Inputs.users, the same objects
    in every Simulation that shares them; only _Inputs writes them.
    """

    queue: SuQueue
    delay_bound: float
    arrivals: list[int]
    rate: list[float]
    packets: list[int]
    interference: list[float]


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


# The slot kernel, as text. Each $name is filled when a kernel is built,
# with a user index or one of the fragments below, never with text from a
# config: the scan and the departure are written out once per user with the
# rule's scoring in them, so a slot neither loops over the users nor
# branches on the rule.
_KERNEL = """\
def kernel(self, count):
    # The call's allocations come first, and a slot's one float, its slot1,
    # is made on the loop's first lines: tracemalloc finds the line of each
    # allocation by scanning the function's line table from its start.
    # A slot's position comes from a slice of _POSITIONS, so no slot makes an
    # int. Arrivals are tagged with the slot, waits run to slot1 = slot + 1.
    # Both are floats, exact below 2^53, so that each wait, its excess over d
    # and phi's delay terms are float operations, which CPython specializes.
    x, slot1, pos = self.x, float(self.slot), self.slot - self._inputs.start
    positions = _POSITIONS[pos:pos + count]
    end = self.slot + count
    y = self.y
    c_y_multi, w1_max = self._c_y_multi, self._w1_max
    i_avg = self.config.i_avg
    # A unit-link backlog is a float, and is tested against the float copy.
    buffer_cap = self.config.buffer_cap
    float_cap = float(buffer_cap)
    sus = self.sus
$bind
    inf = math.inf
    interference_sum = self.interference_sum
    try:
        for pos in positions:
            slot = slot1
            slot1 = slot + 1.0
            # Ties keep the lowest index: only a strictly better value replaces
            # it. best is read only when best_v shows a pick in this slot.
            best_v = $start
$scan
            if best_v == $start:
                # An idle slot charges no gain; x + 0.0 == x, as X >= 0 is never -0.0.
                x -= i_avg
$depart
            x = x if x > 0.0 else 0.0
        if best_v == $start:
            best = None
        slot = end
    finally:
        self.x, self.slot = x, int(slot)
        self.interference_sum = interference_sum
$write
    return best
"""

# User $i's state, bound to locals once per call: its SuState, its FIFO,
# its Y, its c_y_emp parts, and its backlog, counted here ($backlog, a float
# on a unit link) and kept by the kernel from then on. Its departures and
# their waiting-time sum (a float) in this call start at 0.
_BIND = """\
    queue$i, d$i, arrivals$i, rates$i, packets$i, interference$i = sus[$i]
    fifo$i = queue$i.fifo
    y$i, w1_max$i, c_y_multi$i = y[$i], w1_max[$i], c_y_multi[$i]
    q$i = $backlog
    departures$i, waited$i = 0, 0.0"""

# User $i's state changes only when it departs, so only then is it written
# back, on every way out: a slot whose backlog outgrew its cap has changed
# nothing by then but the FIFOs, whose counts the next call takes afresh.
_WRITE = """\
        if departures$i:
            y[$i], w1_max[$i], c_y_multi[$i] = y$i, w1_max$i, c_y_multi$i
            queue$i.cumulative_departures += departures$i
            queue$i.departed_waiting_sum += int(waited$i)"""

# User $i's arrivals join the tail, and may depart in this slot; $cap is
# the cap of the backlog's type. This is the whole turn of a sealed user.
_ADMIT = """\
$admit
                if q$i > $cap:
                    raise InfeasibleLoadError(f"backlog exceeded safety cap {buffer_cap} at slot {int(slot)}")"""

# User $i's turn in a slot: its admission, then, if it is backlogged, the
# rule scores it.
_USER = _ADMIT + """
            if q$i:
$score"""

# A slot's arrivals, any number of them.
_ADMIT_BATCHED = """\
            a = arrivals$i[pos]
            if a:
                if a == 1:
                    fifo$i.append(slot)
                else:
                    fifo$i.extend(repeat(slot, a))
                q$i += a"""

# At most one packet arrives in a slot.
_ADMIT_SINGLE = """\
            if arrivals$i[pos]:
                fifo$i.append(slot)
                q$i += $one"""

# Max-weight serves the largest Q/g.
_SCORE_WEIGHT = """\
                g = interference$i[pos]
                # An interference-free link has infinite weight.
                v = inf if g <= 0.0 else q$i / g
                if v > best_v:
                    $pick"""

# The index policy serves the smallest phi = X g + Y sum(W) - (Y d + Q) r,
# where r is the packet count n (actual mode) or the raw rate (literal mode).
# On a unit link n is 1: the count is not read and the factor n is dropped,
# which is exact, as v * 1 == v for every float v and q * 1 == q.
_SCORE_PHI = """\
$count
                if y$i:
                    # The departing packets' waiting-time sum, a float of an exact integer.
$wait
                    v = (x * interference$i[pos] + y$i * w_sum
                         - (y$i * d$i + q$i)$rate)
                else:
                    # Y = +0.0 zeroes both delay terms exactly; only the sign of
                    # a zero phi can differ, which no comparison below sees.
                    v = x * interference$i[pos] - q$i$rate
                if v < best_v:
                    $pick"""

# The packets a link carries this slot, as many as the queue holds, counted
# into $n: n where phi scores the user, best_n where max-weight departs.
_COUNT = """\
                $n = packets$i[pos]
                if $n > q$i:
                    $n = q$i"""

_WAIT_LISTED = """\
                    if n == 1:
                        w_sum = slot1 - fifo$i[0]
                    elif n:
                        w_sum = n * slot1 - sum(islice(fifo$i, n))
                    else:
                        w_sum = 0.0"""

_WAIT_UNIT = """\
                    w_sum = slot1 - fifo$i[0]"""

# Each rule's start value, which a user's score must beat to be picked; a
# slot idles when it still stands, so this alone says whether a rule idles
# (the module docstring says why 5e-324 and 0.0 are exact).
_START = {PROPOSED: "5e-324", PROPOSED_NONIDLING: "inf", MAXWEIGHT: "0.0"}

# User $i's departure, after the idle test: $test is "elif best == $i" or,
# for the last user, "else". Its gain is charged whether or not a packet
# goes.
_DEPART = """\
            $test:
                gain = interference$i[pos]
                interference_sum += gain
$pop
                x = x + gain - i_avg"""

# The head packet departs: its waiting time W joins the waiting sum and its
# excess W - d joins Y, and its user keeps its longest single wait, from
# which c_y_emp derives its candidate when read.
_POP_ONE = """\
                w = slot1 - fifo$i.popleft()
                q$i -= $one
                departures$i += 1
                waited$i += w
                y_new = y$i + (w - d$i)
                y$i = y_new if y_new > 0.0 else 0.0
                if w > w1_max$i:
                    w1_max$i = w"""

# The departure on a link that may carry other than one packet: best_n
# packets, counted by the rule when it scored the user or, for max-weight,
# here.
_DEPART_LISTED = """\
$best_count
                # Pop the head packets in FIFO order: each adds its waiting
                # time W to the waiting sum and its excess W - d to Y. A
                # single packet skips the loop and keeps its user's longest
                # single wait, from which c_y_emp derives its candidate when
                # read. A 0-packet slot still holds the channel and charges
                # its gain.
                if best_n == 1:
$pop_one
                elif best_n:
                    pop = fifo$i.popleft
                    w_sum = excess = 0.0
                    for _ in range(best_n):
                        w = slot1 - pop()
                        w_sum += w
                        excess += w - d$i
                    q$i -= best_n
                    departures$i += best_n
                    waited$i += w_sum
                    y_new = y$i + excess
                    y$i = y_new if y_new > 0.0 else 0.0
                    cand = d$i * d$i * best_n * best_n + w_sum * w_sum
                    if cand > c_y_multi$i:
                        c_y_multi$i = cand"""


class _UserShape(NamedTuple):
    """What a user's kernel text depends on besides the rule: whether its
    direct link is a constant one that carries exactly one packet a slot,
    and whether at most one packet arrives in a slot. Such a user's scan
    reads no packet counts, and its admission tests no count."""

    unit_link: bool
    single_arrival: bool

    def __str__(self) -> str:
        return f"{'unit' if self.unit_link else 'listed'}/{'single' if self.single_arrival else 'batched'}"


def _expand(text: str, parts: dict[str, str]) -> str:
    """text with each $name replaced by its fragment in parts, and again in
    what that brings in, until nothing is left to replace."""
    while (filled := Template(text).safe_substitute(parts)) != text:
        text = filled
    return text


@lru_cache(maxsize=32)
def _kernel(shapes: tuple[_UserShape, ...], kind: SchedulerKind, sealed: tuple[int, ...] = ()):
    """The kernel for users of the given shapes, in order, under ``kind``,
    compiled from _KERNEL, each user's text filled from its own fragments.
    Its source is entered into linecache under a name that tells the
    shapes and the seal apart, so that a traceback shows its lines.

    A user in ``sealed`` is only admitted and tested against the cap: it is
    never scored, and it has no departure. Only a user the rule cannot
    pick in any slot of the call may be sealed; run_lockstep seals a user
    of the idling rule on a unit link in actual mode when margins() shows
    that.

    kernel(sim, count) runs ``count`` >= 1 slots of sim, all in the drawn
    block, and returns the last one's scheduled user. The run state lives
    in its locals and is written back on the way out, also when a backlog
    outgrows its cap: the aborted slot then leaves its arrivals so far
    queued and changes nothing else."""
    maxweight = kind.kind == MAXWEIGHT
    last = max((i for i in range(len(shapes)) if i not in sealed), default=None)
    binds, scans, departs, writes = [], [], [], []
    for i, shape in enumerate(shapes):
        unit = shape.unit_link
        # User i's fragments. A unit link's backlog is a float, a listed
        # link's an int: the packet count n it caps is an int, as islice and
        # range take it. A better candidate records what its departure needs
        # beyond its index: the packet count phi scored a listed link with.
        parts = dict(
            i=str(i), backlog="float(len(fifo$i))" if unit else "len(fifo$i)",
            one="1.0" if unit else "1", cap="float_cap" if unit else "buffer_cap",
            admit=_ADMIT_SINGLE if shape.single_arrival else _ADMIT_BATCHED,
            score=_SCORE_WEIGHT if maxweight else _SCORE_PHI,
            pick="best, best_v = $i, v" if maxweight or unit else "best, best_v, best_n = $i, v, n",
            count="" if unit else _COUNT, n="best_n" if maxweight else "n",
            wait=_WAIT_UNIT if unit else _WAIT_LISTED,
            rate=" * rates$i[pos]" if kind.reads_rates else "" if unit else " * n",
            test="else" if i == last else "elif best == $i",
            pop=_POP_ONE if unit else _DEPART_LISTED,
            best_count=_COUNT if maxweight else "",
            pop_one=textwrap.indent(_POP_ONE, "    "))
        binds.append(_expand(_BIND, parts))
        scans.append(_expand(_ADMIT if i in sealed else _USER, parts))
        if i not in sealed:
            departs.append(_expand(_DEPART, parts))
        writes.append(_expand(_WRITE, parts))
    source = Template(_KERNEL).substitute(bind="\n".join(binds), start=_START[kind.kind], scan="\n".join(scans),
                                          depart="\n".join(departs), write="\n".join(writes))
    n = len(shapes)
    filename = (f"<crsched kernel: {kind.kind}/{kind.phi_mode}, {n} user{'s' if n > 1 else ''}: "
                f"{', '.join(map(str, shapes))}{'; sealed ' + ', '.join(map(str, sealed)) if sealed else ''}>")
    namespace = {"math": math, "repeat": repeat, "islice": islice, "_POSITIONS": _POSITIONS,
                 "InfeasibleLoadError": InfeasibleLoadError}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace["kernel"]


class _Inputs:
    """A group's inputs: the Simulations of one config under different
    rules share one, so each block is drawn once for all of them.

    Each link is judged constant or drawn once, here. A constant link has
    no generator (None in rngs); its lists hold BLOCK slots, at least as
    many as any block, filled once by the scalar rule, and its packet count
    gives the user's entry of shapes. users holds each user's input lists
    in SuState's order, and direct each direct link's gain, or its block as
    drawn; only observe() reads direct. The rates are kept only if a rule in
    kinds reads them (keep_rates). The block holds length slots from start,
    and arrived each user's arrivals in all of them, which bounds what
    arrives from any of its slots on.

    One substream per (user, role): a user's draws depend only on the seed
    and its own index, and drawn BLOCK slots at a time they give the same
    values in the same order as one draw per slot.
    """

    def __init__(self, config: SimConfig, kinds: Sequence[SchedulerKind]):
        self.config, self.keep_rates = config, any(kind.reads_rates for kind in kinds)
        self.start = self.length = 0
        self.arrived = [0] * len(config.sus)
        self.users, self.rngs, self.direct, shapes = [], [], [], []
        for i, su in enumerate(config.sus):
            rate, packets, interference = [], [], []
            gain = count = direct_rng = interference_rng = None
            if isinstance(su.direct, DeterministicGain):
                gain = float(su.direct.value)
                count = int(transmission_rate(gain))
                if self.keep_rates:
                    rate[:] = [transmission_rate(gain)] * BLOCK
                packets[:] = [count] * BLOCK
            else:
                direct_rng = substream(config.seed, i, ROLE_DIRECT)
            if isinstance(su.interference, DeterministicGain):
                interference[:] = [float(su.interference.value)] * BLOCK
            else:
                interference_rng = substream(config.seed, i, ROLE_INTERFERENCE)
            self.users.append(([], rate, packets, interference))
            self.rngs.append((substream(config.seed, i, ROLE_ARRIVALS), direct_rng, interference_rng))
            self.direct.append(gain)
            shapes.append(_UserShape(count == 1, su.arrivals.a_max == 1))
        self.shapes = tuple(shapes)

    def fill(self, slot: int) -> None:
        """Draw every user's inputs for the slots from ``slot`` on: BLOCK
        slots, or fewer if the next check or max_slots comes first. Past
        max_slots, reached only by stepping run_slot() or observe(), the
        next check ends it."""
        config = self.config
        n = config.check_interval - slot % config.check_interval
        if slot < config.max_slots:
            n = min(n, config.max_slots - slot)
        n = min(BLOCK, n)
        self.start, self.length = slot, n
        for i, (su, (arrivals, rate, packets, interference), (arrival_rng, direct_rng, interference_rng)) in \
                enumerate(zip(config.sus, self.users, self.rngs)):
            counts = su.arrivals.counts(arrival_rng.random(n))
            arrivals[:] = counts.tolist()
            self.arrived[i] = int(counts.sum())
            if direct_rng is not None:
                direct = self.direct[i] = su.direct.sample_block(direct_rng, n)
                # numpy's float64 add rounds as Python's does in transmission_rate.
                one_plus = 1.0 + direct
                if self.keep_rates:
                    rate[:] = map(math.log2, one_plus.tolist())
                packets[:] = whole_packets(one_plus)
            if interference_rng is not None:
                interference[:] = su.interference.sample_block(interference_rng, n).tolist()

    def left(self, slot: int) -> int:
        """Slots of the drawn block from ``slot`` on; if none are left, the
        next block is drawn first. A slot before the block, that of a
        member stepped behind its group, is refused with a ValueError."""
        if slot < self.start:
            raise ValueError(f"slot {slot} lies before the drawn block, which starts at slot {self.start}: "
                             f"a group from simulations() advances through run_lockstep")
        if self.start + self.length <= slot:
            self.fill(slot)
        return self.start + self.length - slot


class Simulation:
    """Mutable run state, with X as x and Y_i as y[i]; drive with
    run_slot() or run_until_converged(), or watch it with observe().

    sus holds one SuState per user, the one record of its queue and inputs.
    Each call of the kernel binds every SuState whole to its locals, counts
    each backlog once from its FIFO, and writes back Y_i, c_y_emp's parts
    and the queue counters of each user that departed in the call; X, the
    slot and interference_sum are written back on every call. Between calls
    the state lives here alone, so a FIFO or Y_i staged between calls is
    what the next call starts from.

    interference_sum adds up the interference gains charged so far.
    c_y_emp[i], the empirical Y-term of the drift constant, is the largest
    d_i^2 n^2 + (sum W)^2 of user i; no decision reads it.

    Its inputs are its own _Inputs or, from simulations(), one its whole
    group shares; such a group is driven by run_lockstep, and a member
    stepped behind the group's drawn block is refused.
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
        self._w1_max = [0.0] * n
        self.slot = 0
        if inputs is None:
            inputs = _Inputs(config, (config.scheduler,))
        self._inputs = inputs
        # A plain function kept on the instance, called as self._kernel(self,
        # count): a method bound to self would make a reference cycle.
        self._kernel = _kernel(inputs.shapes, config.scheduler)
        self.sus = tuple(SuState(SuQueue(su.arrivals), su.delay_bound, *lists)
                         for su, lists in zip(config.sus, inputs.users))

    @property
    def c_y_emp(self) -> tuple[float, ...]:
        """Each user's largest d_i^2 n^2 + (sum W)^2 over its departures.

        A single packet's candidate d^2 + W^2 grows with W, and its rounding
        keeps that order, so the slot loop keeps only the longest single
        wait and its candidate is folded in here."""
        return tuple(c if w == 0 else max(c, su.delay_bound * su.delay_bound + w * w)
                     for c, w, su in zip(self._c_y_multi, self._w1_max, self.sus))

    def run_slot(self) -> int | None:
        """Advance one slot; return the scheduled user, None on idle."""
        self._inputs.left(self.slot)
        return self._kernel(self, 1)

    def observe(self, count: int) -> Iterator[SlotTrace]:
        """Run up to ``count`` slots as run_slot() does, yielding each slot's
        SlotTrace once it has run; each slot runs when its record is asked
        for, and none is kept. A backlog that outgrows its cap raises
        InfeasibleLoadError from the aborted slot, as run_slot() does.

        The kernel is watched from outside. One user departs in a slot, so
        each user's departure count and waiting-time sum are kept in two
        lists, and after a slot only the served user's entries are read
        again (all of them when the Simulation was advanced elsewhere
        between two records). Before a slot, the FIFO head is copied, as
        many packets as the slot could send, only where that is two or
        more; after it, the state is read. One served packet waited what the
        waiting-time sum grew by. Several are the first of that head, then
        the slot's own arrivals (waiting 1 slot), as many as the departure
        count grew by. The slot's inputs are read from zips over the users'
        lists, taken afresh at each block and after an advance elsewhere, so
        each record's per-user fields are tuples built at their size. The
        direct gains are _Inputs.direct's: a constant link's gain, or a faded
        link's block as drawn.
        """
        sus = self.sus
        queues = [su.queue for su in sus]
        fifos = [queue.fifo for queue in queues]
        inputs = self._inputs
        # When every direct link is constant, one tuple serves every slot.
        constant = tuple(inputs.direct) if all(isinstance(g, float) for g in inputs.direct) else None

        def rows_from(pos: int) -> Iterator[tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]]:
            # Each slot's arrivals, direct and interference gains, from pos to
            # the block's end; a memoryview of the drawn gains yields floats.
            direct = (repeat(constant) if constant is not None else
                      zip(*(repeat(g) if isinstance(g, float) else memoryview(g)[pos:] for g in inputs.direct)))
            return zip(zip(*(islice(su.arrivals, pos, None) for su in sus)), direct,
                       zip(*(islice(su.interference, pos, None) for su in sus)))

        # A record is built in a short function of its own, as tracemalloc
        # finds the line of each allocation by scanning the line table of
        # its function from the start.
        def record(slot: int, best: int | None, waits: tuple[int, ...]) -> SlotTrace:
            arrived, direct, charged = next(rows)
            return SlotTrace(slot, arrived, best, 0.0 if best is None else charged[best], waits,
                             tuple(map(len, fifos)), tuple(self.y), self.x, direct, charged)

        # The users whose packet counts the kernel reads: all but unit links.
        listed = [(i, su.packets, su.queue.fifo) for i, (su, shape) in enumerate(zip(sus, inputs.shapes))
                  if not shape.unit_link]
        heads: list[list[int] | None] = [None] * len(sus)
        after = None
        for _ in range(count):
            inputs.left(self.slot)
            slot, pos = self.slot, self.slot - inputs.start
            if slot != after:
                departed = [queue.cumulative_departures for queue in queues]
                waited = [queue.departed_waiting_sum for queue in queues]
            if slot != after or not pos:
                rows = rows_from(pos)
            for i, packets, fifo in listed:
                n = packets[pos]
                heads[i] = list(islice(fifo, n)) if n >= 2 and fifo else None
            best = self._kernel(self, 1)
            after = self.slot
            if best is None:
                yield record(slot, best, ())
                continue
            queue = queues[best]
            n = queue.cumulative_departures - departed[best]
            if n == 1:
                waits = (queue.departed_waiting_sum - waited[best],)
            else:
                head = heads[best] or ()
                waits = tuple(slot + 1 - int(a) for a in head[:n]) + (1,) * (n - len(head))
            departed[best], waited[best] = queue.cumulative_departures, queue.departed_waiting_sum
            yield record(slot, best, waits)

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
        # the FIFOs, by appending its arrivals, each tagged with slot t as a
        # float; float(t).__eq__ matches them, where int.__eq__ would return
        # NotImplemented, which is true.
        level = 0.5 * self.x * self.x
        for y, su in zip(self.y, self.sus):
            fifo = su.queue.fifo
            q = len(fifo) - sum(1 for _ in takewhile(float(t).__eq__, reversed(fifo)))
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


def margins(sim: Simulation, arrivals: Sequence[int]) -> dict[int, float]:
    """Each unit-link user i with a queued packet, mapped to its margin

        M_i = Y_i (T + 1 - a) - (Y_i d_i + (Q_i + A_i)),

    at sim's slot T, with a the arrival slot of its head packet and A_i =
    arrivals[i], in the kernel's own float operations.

    Under the idling rule in actual mode, while user i is not served its
    head and Y_i stay, and in a slot t >= T whose arrivals from T on number
    at most A_i the kernel scores it phi_i = X g_i + Y_i W - (Y_i d_i + Q)
    with W >= T + 1 - a and Q <= Q_i + A_i. A rounded product or sum never
    falls as an operand grows, and X g_i >= 0, so M_i > 0, which holds
    exactly when fl(Y_i (T + 1 - a)) > fl(fl(Y_i d_i) + (Q_i + A_i)),
    keeps phi_i > 0: the rule cannot serve user i in any such slot."""
    slot1 = sim.slot + 1.0
    return {i: y * (slot1 - su.queue.fifo[0]) - (y * su.delay_bound + (len(su.queue.fifo) + a))
            for i, (y, su, shape, a) in enumerate(zip(sim.y, sim.sus, sim._inputs.shapes, arrivals))
            if shape.unit_link and su.queue.fifo}


def simulations(config: SimConfig, kinds: Sequence[SchedulerKind]) -> list[Simulation]:
    """One Simulation of config per rule in kinds, in that order, all on one
    set of inputs."""
    inputs = _Inputs(config, kinds)
    return [Simulation(replace(config, scheduler=kind), inputs) for kind in kinds]


def run_lockstep(sims: Sequence[Simulation]) -> list[RunResult]:
    """Run each of sims, which share their inputs and stand at one slot (a
    ValueError says if they do not), to the stopping rule or max_slots, and
    return their results in order.

    They advance together, to the end of one input block at a time. The
    first still running draws each block, so a block is drawn once, and
    only while a run needs it. After a block every run that ends at a
    check tests its metric and stops once it falls below epsilon; a run
    stops at max_slots too, and a backlog that outgrows its cap ends it as
    an unconverged result noted infeasible-load. A block never passes a
    check or max_slots, so every run stops where it would alone.

    Before each call, a run of the idling rule in actual mode seals each
    unit-link user whose margin over the block's arrivals is positive
    (see margins): the call runs a kernel that does not score it, and as
    the rule could not have served it, the run is the same.
    """
    inputs = sims[0]._inputs
    if any(sim._inputs is not inputs for sim in sims):
        raise ValueError("run_lockstep needs Simulations that share their inputs, as simulations() builds")
    if any(sim.slot != sims[0].slot for sim in sims):
        raise ValueError(f"run_lockstep needs Simulations at one slot, got {[sim.slot for sim in sims]}")
    config = sims[0].config
    sealing = [sim.config.scheduler == SchedulerKind(PROPOSED, PHI_ACTUAL) for sim in sims]
    results: list[RunResult | None] = [None] * len(sims)
    running = [k for k, sim in enumerate(sims) if sim.slot < config.max_slots]
    while running:
        for k in running:
            sim = sims[k]
            count = inputs.left(sim.slot)
            kernel = sim._kernel
            if sealing[k]:
                sealed = tuple(i for i, margin in margins(sim, inputs.arrived).items() if margin > 0.0)
                if sealed:
                    kernel = _kernel(inputs.shapes, sim.config.scheduler, sealed)
            try:
                kernel(sim, count)
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
