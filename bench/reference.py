"""Independent reference slot loop, written from the model's definitions.

It shares no code with crsched: it parses the config file itself and takes
its random draws straight from numpy, one PCG64 generator per
``SeedSequence(seed, spawn_key=(su, role))`` with roles 0 = direct channel,
1 = interference channel, 2 = arrivals, as the README's "Determinism"
section specifies. Each user consumes one uniform per slot for arrivals and
one gain per slot and link from a faded channel (a constant channel draws
nothing). The recursions, per slot t:

    arrivals join the FIFO (they may depart in the same slot)
    scheduled user: index policy (argmin phi, idle if min phi > 0 for the
    idling variant) or max-weight (argmax Q/g); it sends
    n = min(Q, floor(log2(1 + gamma))) head packets, W = t - arrival + 1
    Y <- max(Y + sum_j (W_j - d), 0)          for the scheduled user
    X <- max(X + I(t) - I_avg, 0)             I(t) = 0 when idle
    every check_interval slots: stop if (X + sum Y) / ((N + 1) T) < epsilon
"""

from __future__ import annotations

import configparser
import math
from collections import deque
from decimal import Decimal
from itertools import islice

import numpy as np

RAYLEIGH_CAP_FACTOR = 25.0


def _params(spec: str) -> tuple[str, dict[str, float]]:
    kind, *rest = spec.split()
    return kind, {k: float(v) for k, v in (t.split("=", 1) for t in rest)}


def read_system(path) -> dict:
    """The parts of a crsched config file that the slot loop and the
    output checks need."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path)
    sysc = cp["system"]
    n = int(sysc["n_sus"])
    sus = []
    for k in range(1, n + 1):
        sec = cp[f"su{k}"]
        kind, p = _params(sec.get("arrivals", "bernoulli"))
        links = {}
        for link in ("direct", "interference"):
            lkind, lp = _params(sec[link])
            if lkind == "deterministic":
                links[link] = ("const", lp["value"])
            else:
                links[link] = ("rayleigh", lp["mean"], lp.get("cap", RAYLEIGH_CAP_FACTOR * lp["mean"]))
        sus.append({
            "d": float(sec["d"]),
            "poisson_cap": int(p["cap"]) if kind == "poisson" else None,
            **links,
        })
    sw = cp["sweep"]
    lo, hi, step = (Decimal(sw[k].strip()) for k in ("lambda_min", "lambda_max", "lambda_step"))
    grid = []
    while lo <= hi:
        grid.append(float(lo))
        lo += step
    return {
        "sus": sus,
        "i_avg": float(sysc["i_avg"]),
        "epsilon": float(sysc.get("epsilon", "0.01")),
        "max_slots": int(sysc.get("max_slots", "1000000")),
        "check_interval": int(sysc.get("check_interval", "10000")),
        "literal_phi": sysc.get("phi_mode", "actual").strip().lower() == "literal",
        "lambda_grid": grid,
        "schedulers": [s.strip() for s in sw["schedulers"].split(",")],
    }


def _generator(seed: int, su: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(su, role))))


def _gains(link, seed: int, su: int, role: int, slots: int) -> list[float]:
    if link[0] == "const":
        return [link[1]] * slots
    _, mean, cap = link
    return np.minimum(_generator(seed, su, role).exponential(mean, slots), cap).tolist()


def _poisson_cdf(rate: float, cap: int) -> list[float]:
    pmf = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(cap + 1)]
    total = sum(pmf)
    cdf, acc = [], 0.0
    for p in pmf:
        acc += p / total
        cdf.append(acc)
    return cdf


def simulate(system: dict, scheduler: str, lam: float, seed: int,
             max_slots: int, epsilon: float) -> dict:
    """One run to its stopping point; the same fields the benchmark reads
    from the program."""
    sus = system["sus"]
    n = len(sus)
    check = system["check_interval"]
    i_avg = system["i_avg"]
    literal = system["literal_phi"]
    idling = scheduler == "proposed"
    maxweight = scheduler == "maxweight"
    bounds = [su["d"] for su in sus]
    uniforms = [_generator(seed, i, 2).random(max_slots).tolist() for i in range(n)]
    direct = [_gains(su["direct"], seed, i, 0, max_slots) for i, su in enumerate(sus)]
    interf = [_gains(su["interference"], seed, i, 1, max_slots) for i, su in enumerate(sus)]
    cdfs = [None if su["poisson_cap"] is None else _poisson_cdf(lam, su["poisson_cap"]) for su in sus]

    fifo = [deque() for _ in range(n)]
    y = [0.0] * n
    x = 0.0
    arrivals = [0] * n
    departures = [0] * n
    waited = [0] * n
    interference_sum = 0.0
    idle = 0
    converged = False
    slots = 0
    while slots < max_slots:
        t = slots
        for i in range(n):
            u = uniforms[i][t]
            if cdfs[i] is None:
                a = 1 if u < lam else 0
            else:
                a = len(cdfs[i]) - 1
                for k, c in enumerate(cdfs[i]):
                    if u < c:
                        a = k
                        break
            for _ in range(a):
                fifo[i].append(t)
            arrivals[i] += a
        chosen, send = None, 0
        if maxweight:
            best_v = -math.inf
            for i in range(n):
                if fifo[i]:
                    g = interf[i][t]
                    v = math.inf if g <= 0.0 else len(fifo[i]) / g
                    if v > best_v:
                        chosen, best_v = i, v
            if chosen is not None:
                send = min(len(fifo[chosen]), int(math.log2(1.0 + direct[chosen][t])))
        else:
            best_v = math.inf
            for i in range(n):
                q = len(fifo[i])
                if not q:
                    continue
                rate = math.log2(1.0 + direct[i][t])
                k = min(q, int(rate))
                w_sum = 0.0
                for a_slot in islice(fifo[i], k):
                    w_sum += t - a_slot + 1
                r = rate if literal else float(k)
                phi = x * interf[i][t] + y[i] * w_sum - (y[i] * bounds[i] + q) * r
                if phi < best_v:
                    chosen, best_v, send = i, phi, k
            if chosen is not None and idling and best_v > 0.0:
                chosen = None
        if chosen is None:
            gain = 0.0
            idle += 1
        else:
            excess = 0.0
            for _ in range(send):
                w = t - fifo[chosen].popleft() + 1
                excess += w - bounds[chosen]
                waited[chosen] += w
            departures[chosen] += send
            yc = y[chosen] + excess
            y[chosen] = yc if yc > 0.0 else 0.0
            gain = interf[chosen][t]
        xn = x + gain - i_avg
        x = xn if xn > 0.0 else 0.0
        interference_sum += gain
        slots = t + 1
        if slots % check == 0 and (x + sum(y)) / ((n + 1) * slots) < epsilon:
            converged = True
            break
    return {
        "slots": slots,
        "converged": converged,
        "stability_metric": (x + sum(y)) / ((n + 1) * slots),
        "interference_avg": interference_sum / slots,
        "delays": [waited[i] / departures[i] if departures[i] else None for i in range(n)],
        "terminal_q": [len(f) for f in fifo],
        "terminal_x": x,
        "terminal_y": list(y),
        "arrivals": arrivals,
        "departures": departures,
        "idle_slots": idle,
    }
