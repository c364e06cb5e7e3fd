"""In-process tracing of crsched's public functions, installed from outside.

The tracer replaces each traced function or method with a wrapper, in every
crsched module that holds a reference to it, so no code under ``src/`` has to
change. Each wrapper records call counts, total time and self time (its span
minus the wrapped calls inside it). Per-slot functions run millions of times,
so their spans are folded into those per-name totals; the coarse functions
(sweep points, output writers, config parsing) also keep every span, with
start, end and the enclosing kept span. Everything stays in memory until the
process dumps it as JSON at its end.

A traced target that no longer exists is listed under ``absent`` instead of
failing, so a refactor that removes a function leaves its metrics absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pickle
import sys
import time

# name -> (module, attribute path, keep every span)
TARGETS = {
    "engine.run_slot": ("crsched.engine", "Simulation.run_slot", False),
    "engine.init": ("crsched.engine", "Simulation.__init__", False),
    "schedulers.decide_proposed": ("crsched.schedulers", "decide_proposed", False),
    "schedulers.decide_max_weight": ("crsched.schedulers", "decide_max_weight", False),
    "queueing.draw_arrivals": ("crsched.queueing", "SuQueue.draw_arrivals", False),
    "queueing.peek_departures": ("crsched.queueing", "SuQueue.peek_departures", False),
    "queueing.commit_departures": ("crsched.queueing", "SuQueue.commit_departures", False),
    "channels.sample_slot": ("crsched.channels", "ChannelBank.sample_slot", False),
    "channels.sample_block.rayleigh": ("crsched.channels", "RayleighGain.sample_block", False),
    "channels.sample_block.deterministic": (
        "crsched.channels", "DeterministicGain.sample_block", False),
    "streams.substream": ("crsched.streams", "substream", False),
    "streams.uniform": ("crsched.streams", "BufferedUniforms.random", False),
    "virtual_queues.delay_update": ("crsched.virtual_queues", "DelayVirtualQueue.update", False),
    "virtual_queues.interference_update": (
        "crsched.virtual_queues", "InterferenceVirtualQueue.update", False),
    "virtual_queues.stability_metric": ("crsched.virtual_queues", "stability_metric", False),
    "sweep.sweep_results": ("crsched.sweep", "sweep_results", True),
    "sweep.run_point": ("crsched.sweep", "run_point", True),
    "sweep.write_rows": ("crsched.sweep", "write_rows", True),
    "sweep.emit_figures": ("crsched.sweep", "emit_figures", True),
    "sweep.file_sha256": ("crsched.sweep", "file_sha256", True),
    "config.load_spec": ("crsched.config", "load_spec", True),
    "cli.main": ("crsched.cli", "main", True),
}


class Tracer:
    def __init__(self, out_dir: str | None = None):
        self.out_dir = out_dir
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent span index)
        self.absent: list[str] = []
        self._child_ns: list[int] = []  # wrapped time inside each open span
        self._open_kept: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def wrap(self, name: str, fn, keep: bool = False, observe=None):
        """A wrapper that times ``fn`` under ``name``; ``observe(args,
        result)`` runs after the span closes, outside its time."""
        perf = time.perf_counter_ns
        child_ns = self._child_ns
        open_kept = self._open_kept
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep:
                parent = open_kept[-1] if open_kept else -1
                open_kept.append(len(spans))
                spans.append(None)
            child_ns.append(0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                inner = child_ns.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - inner
                if child_ns:
                    child_ns[-1] += d
                if keep:
                    spans[open_kept.pop()] = (name, t0, t1, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self, observers: dict) -> None:
        """Wrap every target that still exists, in every crsched module
        that references it."""
        for name, (mod_name, attr, keep) in TARGETS.items():
            try:
                module = importlib.import_module(mod_name)
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, keep, observers.get(name))
            setattr(owner, leaf, wrapped)
            if not path:
                # Functions imported by name elsewhere: rebind those too.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("crsched") and \
                            getattr(other, leaf, None) is original:
                        setattr(other, leaf, wrapped)

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.counters.clear()
        self.spans.clear()

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(
                {"pid": os.getpid(), "stats": self.stats, "counters": self.counters,
                 "spans": self.spans, "absent": self.absent},
                f,
            )

    def _after_fork(self) -> None:
        # A pool worker starts with a copy of the parent's totals: drop them,
        # and dump this worker's own when it shuts down.
        self.reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)


def crsched_observers(tracer: Tracer) -> dict:
    """Counters read at the layer boundaries, after each call returns."""

    def arrivals(args, n):
        tracer.count("queueing.arrivals", n)
        tracer.peak("queueing.peak_backlog", args[0].backlog)

    def departures(args, _):
        tracer.count("queueing.departures", args[1].count)

    def decided(args, decision):
        if decision.su is None:
            tracer.count("schedulers.idle_slots")

    def point(args, result):
        tracer.count("sweep.pickle_bytes",
                     len(pickle.dumps(args[0])) + len(pickle.dumps(result)))

    return {
        "queueing.draw_arrivals": arrivals,
        "queueing.commit_departures": departures,
        "schedulers.decide_proposed": decided,
        "schedulers.decide_max_weight": decided,
        "sweep.run_point": point,
    }


def start(out_dir: str) -> Tracer:
    tracer = Tracer(out_dir)
    tracer.install(crsched_observers(tracer))
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Calibrated cost of one wrapped call of an empty function, over the
    bare call."""

    def empty():
        return None

    wrapped = Tracer().wrap("calibration", empty)
    best = []
    for fn in (empty, wrapped):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            samples.append(time.perf_counter_ns() - t0)
        best.append(min(samples) / calls)
    return best[1] - best[0]
