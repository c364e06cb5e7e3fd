"""Independent re-simulators and statistical helpers used by the tests.

Everything here recomputes expected values from first principles (the
update definitions, closed-form moments, direct summation), deliberately
not reusing the package's own accumulation code paths.
"""

from __future__ import annotations

import math
import random
from collections import deque


class ScriptedSource:
    """Uniform source that replays a fixed list of values (cycled)."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def random(self) -> float:
        v = self.values[self.i % len(self.values)]
        self.i += 1
        return v


def scalar_arrivals(process, u: float) -> int:
    """One slot's arrival count from its uniform u, by the scalar rule that
    the block decoder ``counts`` reproduces: an arrival iff u < rate for a
    Bernoulli process; for a truncated Poisson, the first k with u < cdf[k],
    or the cap if there is none. The CDF is the package's own, so that only
    the decoding is checked here."""
    from crsched.queueing import Bernoulli, _truncated_poisson_cdf

    if isinstance(process, Bernoulli):
        return 1 if u < process.rate else 0
    for k, c in enumerate(_truncated_poisson_cdf(process.rate, process.cap)):
        if u < c:
            return k
    return process.cap


def phi_value(q: int, y: float, d: float, x: float, g: float, w_sum: float, r: float) -> float:
    """Decision index of one backlogged user: phi = X g + Y sum(W) - (Y d + Q) r.

    w_sum is the waiting-time sum of the head packets that would depart and
    r is either their count (actual mode) or the raw rate (literal mode).
    """
    return x * g + y * w_sum - (y * d + q) * r


def resim_queue_levels(arrivals, serve_requests):
    """Backlog trajectory from per-slot arrival and service-offer counts.

    Departures are capped by the post-arrival backlog; the clamp at zero
    mirrors the queue recursion even though it can never bind here.
    """
    q = 0
    levels = []
    for a, s in zip(arrivals, serve_requests):
        dep = min(q + a, s)
        q = max(q + a - dep, 0)
        levels.append(q)
    return levels


def resim_trajectories(trace, delay_bounds, i_avg):
    """Recompute (Q, Y, X) after every slot from logged driving data.

    ``trace`` entries carry per-slot arrival counts, the scheduled user,
    the departed waiting times, and the slot's interference contribution.
    The recursions are applied exactly as defined: queue backlog moves by
    arrivals minus departures, the delay accumulator by the departed
    excess over the bound, the interference accumulator by the slot gain
    minus the budget, each clamped at zero.
    """
    n = len(delay_bounds)
    q = [0] * n
    y = [0.0] * n
    x = 0.0
    out = []
    for t in trace:
        for i in range(n):
            q[i] = max(q[i] + t.arrivals[i], 0)
        if t.su is not None:
            i = t.su
            q[i] = max(q[i] - len(t.waiting_times), 0)
            excess = 0.0
            for w in t.waiting_times:
                excess += w - delay_bounds[i]
            y[i] = max(y[i] + excess, 0.0)
        x = max(x + t.gain - i_avg, 0.0)
        out.append((tuple(q), tuple(y), x))
    return out


def lyapunov_drift_sum(trace) -> float:
    """Sum of the one-slot drifts L(t+1) - L(t) over a traced run that
    starts empty, with L = (X^2 + sum_i Y_i^2 + Q_i^2)/2 taken from each
    slot's logged post-slot x, y and q."""
    total = 0.0
    prev = 0.0
    for t in trace:
        level = 0.5 * (t.x * t.x + sum(y * y for y in t.y) + sum(q * q for q in t.q))
        total += level - prev
        prev = level
    return total


def first_decision_mismatch(config, trace) -> str | None:
    """Replay a traced run and check every logged decision by brute force.

    The replay keeps its own FIFOs (rebuilt from the logged arrival counts),
    backlogs Q, delay accumulators Y and interference accumulator X, and
    takes only the gains from the trace. Each slot it scores every option
    and picks the best:

    * index policies: each backlogged user scores its index
      phi = X g + Y sum(W) - (Y d + Q) r, with r the departing packet count
      (actual mode) or the raw rate log2(1 + gamma) (literal mode); the
      idling variant adds idle at score 0. The minimum wins, scheduling
      beats idle on a tie, then the lowest index. In actual mode phi must
      also agree with the one-slot objective
      psi = X g + Y sum(W - d) - Q n, its expanded form.
    * max-weight: the largest Q/g wins (g = 0 is infinite weight), lowest
      index on ties; it idles only when nobody is backlogged.

    It then checks the logged choice, gain, departures and post-slot state.
    Returns a description of the first mismatching slot, or None.
    """
    kind = config.scheduler.kind
    literal = config.scheduler.phi_mode == "literal"
    bounds = [su.delay_bound for su in config.sus]
    fifos = [deque() for _ in bounds]
    y = [0.0] * len(bounds)
    x = 0.0
    for t in trace:
        for i, count in enumerate(t.arrivals):
            fifos[i].extend([t.slot] * count)
        scores = {}
        departing = {}
        for i, fifo in enumerate(fifos):
            q = len(fifo)
            if q == 0:
                continue
            rate = math.log2(1.0 + t.direct[i])
            n = min(q, math.floor(rate))
            waits = tuple(t.slot - a + 1 for a in list(fifo)[:n])
            departing[i] = waits
            g = t.interference[i]
            if kind == "maxweight":
                scores[i] = math.inf if g == 0.0 else q / g
                continue
            d = bounds[i]
            phi = phi_value(q, y[i], d, x, g, float(sum(waits)), rate if literal else float(n))
            if not literal:
                psi = x * g + y[i] * sum(w - d for w in waits) - q * n
                scale = abs(x * g) + y[i] * sum(waits) + (y[i] * d + q) * n
                if abs(psi - phi) > 1e-9 * (1.0 + scale):
                    return f"slot {t.slot}: user {i} phi {phi} != psi {psi}"
            scores[i] = phi
        if kind == "maxweight":
            su = min(scores, key=lambda i: (-scores[i], i), default=None)
        else:
            su = min(scores, key=lambda i: (scores[i], i), default=None)
            if su is not None and kind == "proposed" and scores[su] > 0.0:
                su = None
        waits = departing[su] if su is not None else ()
        gain = t.interference[su] if su is not None else 0.0
        if (t.su, t.waiting_times, t.gain) != (su, waits, gain):
            return (
                f"slot {t.slot}: logged user {t.su} sending {t.waiting_times} at gain "
                f"{t.gain}, expected user {su} sending {waits} at gain {gain}"
            )
        if su is not None:
            for _ in waits:
                fifos[su].popleft()
            excess = 0.0
            for w in waits:
                excess += w - bounds[su]
            y[su] = max(y[su] + excess, 0.0)
        x = max(x + gain - config.i_avg, 0.0)
        state = (tuple(len(f) for f in fifos), tuple(y), x)
        if (t.q, t.y, t.x) != state:
            return f"slot {t.slot}: logged state {(t.q, t.y, t.x)} != replayed {state}"
    return None


def truncated_poisson_stats(rate: float, cap: int) -> tuple[float, float]:
    """Mean and variance of Poisson(rate) conditioned on {0..cap}, by
    direct summation."""
    weights = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(cap + 1)]
    total = sum(weights)
    mean = sum(k * w for k, w in enumerate(weights)) / total
    second = sum(k * k * w for k, w in enumerate(weights)) / total
    return mean, second - mean * mean


def random_small_sim_config(case_seed: int):
    """A randomized small instance for trajectory-equivalence checks."""
    from crsched.channels import DeterministicGain, RayleighGain
    from crsched.engine import SchedulerKind, SimConfig, SuConfig
    from crsched.queueing import Bernoulli, TruncatedPoisson

    rng = random.Random(case_seed)
    n = rng.randint(1, 3)

    def channel():
        if rng.random() < 0.5:
            return DeterministicGain(round(rng.uniform(0.0, 4.0), 3))
        return RayleighGain(round(rng.uniform(0.05, 2.0), 3))

    def arrivals():
        if rng.random() < 0.5:
            return Bernoulli(round(rng.uniform(0.0, 1.0), 3))
        return TruncatedPoisson(round(rng.uniform(0.0, 2.0), 3), rng.randint(2, 5))

    sus = tuple(
        SuConfig(
            arrivals=arrivals(),
            delay_bound=round(rng.uniform(0.5, 6.0), 3),
            direct=channel(),
            interference=channel(),
        )
        for _ in range(n)
    )
    kind = rng.choice(["proposed", "proposed-nonidling", "maxweight"])
    mode = rng.choice(["actual", "literal"]) if kind != "maxweight" else "actual"
    slots = rng.randint(10, 200)
    return (
        SimConfig(
            sus=sus,
            i_avg=round(rng.uniform(0.05, 3.0), 3),
            scheduler=SchedulerKind(kind, mode),
            max_slots=max(slots, 1),
            check_interval=max(slots, 1),
            seed=rng.getrandbits(32),
        ),
        slots,
    )
