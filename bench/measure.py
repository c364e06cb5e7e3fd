"""Timing that holds still on a host whose CPU speed changes under it.

On a shared host one virtual CPU runs a fixed piece of Python at two or more
speeds, switching every few seconds (the same loop takes 13 ms or 25 ms),
and the two CPUs switch independently of each other. A plain wall time then
spreads by 20 to 30 % between runs of the same work.

So a measured process runs on a known set of CPUs in its own process group.
Every SLICE_S the group is stopped, a fixed calibration workload is timed on
each of those CPUs, and the group is resumed. Each active slice between two
pauses is weighted by NOMINAL_S over the mean calibration time around it,
which turns its wall time into nominal seconds: seconds on a CPU where the
calibration takes exactly NOMINAL_S. The pauses themselves are not counted.

The calibration workload is a small queueing loop of the same kind of Python
work as a crsched slot: deque traffic, a frozen dataclass and a tuple per
packet, a generator and a tuple per slot, float recursions, method calls on
a slotted class. Of the loops tried, it tracked the program best (its speed
changes explained the most of the program's). It imports nothing from
crsched, so no change to the program changes it.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field

NOMINAL_S = 0.0025
CALIBRATION_SLOTS = 500
SLICE_S = 0.05


@dataclass(frozen=True)
class _Packet:
    slot: int
    stamps: tuple


class _Queue:
    __slots__ = ("fifo", "y", "bound")

    def __init__(self, bound: float):
        self.fifo = deque()
        self.y = 0.0
        self.bound = bound

    def push(self, t: int) -> None:
        self.fifo.append(_Packet(t, (t,)))

    def pop(self, t: int) -> int:
        return t - self.fifo.popleft().slot + 1


def _calibration_s() -> float:
    t0 = time.perf_counter()
    rng = random.Random(20161209)
    queues = (_Queue(1.5), _Queue(5.0))
    x = 0.0
    for t in range(CALIBRATION_SLOTS):
        for q in queues:
            if rng.random() < 0.3:
                q.push(t)
        index = tuple(x * rng.expovariate(2.5) + q.y - len(q.fifo) if q.fifo else math.nan
                      for q in queues)
        best = min((i for i, v in enumerate(index) if v == v), key=index.__getitem__, default=None)
        gain = 0.0
        if best is not None:
            q = queues[best]
            y = q.y + (q.pop(t) - q.bound)
            q.y = y if y > 0.0 else 0.0
            gain = 0.3
        x = max(x + gain - 0.2, 0.0)
    return time.perf_counter() - t0


def calibrate(cpus: tuple[int, ...]) -> float:
    """Mean calibration time over ``cpus``, running on each in turn."""
    mine = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += _calibration_s()
    finally:
        os.sched_setaffinity(0, mine)
    return total / len(cpus)


@dataclass
class Measured:
    code: int
    cpu: float  # user + system seconds of the process and its reaped children
    rss_mb: float  # largest peak resident set of any process in the tree
    stdout: str = ""
    slices: list[tuple[float, float, float]] = field(default_factory=list)
    # (start, end, calibration seconds) of each active interval, on the
    # perf_counter clock, which is shared by every process on the host

    def wall(self, a: float | None = None, b: float | None = None) -> float:
        """Active seconds within [a, b] (default: the whole run)."""
        return self._sum(a, b, lambda c: 1.0)

    def nominal(self, a: float | None = None, b: float | None = None) -> float:
        """Nominal seconds within [a, b] (default: the whole run)."""
        return self._sum(a, b, lambda c: NOMINAL_S / c)

    def _sum(self, a, b, weight) -> float:
        a = -math.inf if a is None else a
        b = math.inf if b is None else b
        return sum(max(0.0, min(e, b) - max(s, a)) * weight(c) for s, e, c in self.slices)


def run(argv: list[str], cpus: tuple[int, ...], stdout, stderr, env, cwd,
        limit_s: float, pause: bool = True) -> Measured:
    """Run ``argv`` pinned to ``cpus`` and wait for it, pausing the whole
    process group every SLICE_S to calibrate those CPUs. Without ``pause``
    the run is one slice, weighted by the calibrations before and after it:
    for traced runs, whose own clocks would count the pauses."""
    mine = os.sched_getaffinity(0)
    calib = calibrate(cpus)
    os.sched_setaffinity(0, set(cpus))  # inherited by the child
    try:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                                start_new_session=True)
    finally:
        os.sched_setaffinity(0, mine)
    start = slices_start = time.perf_counter()
    exit_info = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        exit_info.update(end=time.perf_counter(), status=status, usage=usage)

    waiter = threading.Thread(target=reap)
    waiter.start()
    slices = []
    try:
        while True:
            waiter.join(SLICE_S)
            if not waiter.is_alive():
                break
            if time.perf_counter() - slices_start > limit_s:
                os.killpg(proc.pid, signal.SIGKILL)
                continue
            if not pause:
                continue
            try:
                os.killpg(proc.pid, signal.SIGSTOP)
            except ProcessLookupError:
                continue
            paused = time.perf_counter()
            after = calibrate(cpus)
            slices.append((start, paused, (calib + after) / 2))
            calib = after
            try:
                os.killpg(proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            start = time.perf_counter()
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        waiter.join()
        raise
    end = exit_info["end"]
    slices.append((start, end, (calib + calibrate(cpus)) / 2))
    usage = exit_info["usage"]
    proc.returncode = os.waitstatus_to_exitcode(exit_info["status"])
    return Measured(
        code=proc.returncode,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        slices=[(s, min(e, end), c) for s, e, c in slices if s < end],
    )
