"""crsched benchmark: one command for every workload and metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds nothing: the program is the
checkout's own ``src/crsched``, which every measured process imports through
PYTHONPATH. Scratch output goes to ``.bench_work/``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See bench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import measure
import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD = "bench/child.py"
TABLE1 = "src/crsched/configs/table1.cfg"
SCHEDULERS = ("proposed", "proposed-nonidling", "maxweight")
SETUP_REPEATS = 7
MIN_ROUNDS = 3
CHILD_LIMIT_S = 120
CPUS = tuple(sorted(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    config: str
    kernel_lam: float  # load of the fixed-horizon point per scheduler
    kernel_slots: int  # its horizon; epsilon = 0, so every run covers it
    jobs: int = 0  # --jobs of the sweep; 0 means the workload runs no sweep
    seeds: int = 1  # sweep seeds: --seed, --seed + 1, ...
    max_slots: int | None = None  # --max-slots of the sweep, if any
    budget_separates: bool = False  # the budget binds: criterion 3's check applies


WORKLOADS = {
    "table1-sweep": Workload(TABLE1, 0.4, 20_000, jobs=2, max_slots=30_000),
    "fading-seeds": Workload("bench/fading-seeds.cfg", 0.35, 10_000, jobs=1, seeds=2,
                             budget_separates=True),
    "kernel-horizon": Workload(TABLE1, 0.36, 100_000),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slots_per_s": "slots/s",
    **{f"slots_per_s.{s}": "slots/s" for s in SCHEDULERS},
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.run_slot.self_ns": "ns",
    "engine.init_us": "us",
    "engine.slots": "count",
    "schedulers.decide.self_ns": "ns",
    "schedulers.idle_slots": "count",
    "schedulers.peek_useful_ratio": "ratio",
    "queueing.draw_arrivals.ns": "ns",
    "queueing.peek_departures.ns": "ns",
    "queueing.commit_departures.ns": "ns",
    "queueing.arrivals": "count",
    "queueing.departures": "count",
    "queueing.peak_backlog": "packets",
    "queueing.fifo_bytes_per_packet": "B/packet",
    "channels.sample_slot.ns": "ns",
    "channels.sample_block.us": "us",
    "channels.sample_block.calls": "count",
    "streams.substream.us": "us",
    "streams.substream.calls": "count",
    "streams.uniform.ns": "ns",
    "virtual_queues.delay_update.ns": "ns",
    "virtual_queues.interference_update.ns": "ns",
    "virtual_queues.stability_metric.calls": "count",
    "sweep.point_s.p50": "s",
    "sweep.point_s.max": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.output_ms": "ms",
    "sweep.pickle_bytes_per_point": "B",
    "config.load_spec_ms": "ms",
    "cli.import_ms": "ms",
    "trace.wrapper_ns": "ns",
    "trace.overhead_ratio": "ratio",
}


TIME_UNITS = ("s", "ms", "us", "ns")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def run_child(args: list[str], tag: str, jobs: int = 1, pause: bool = True) -> measure.Measured:
    """Run ``python3 ARGS`` from the checkout root on ``jobs`` CPUs and wait
    for it. CPU time and peak RSS come from wait4, so they include the pool
    workers the child started and reaped."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        child = measure.run([sys.executable, *args], CPUS[:max(jobs, 1)], out, err, env, ROOT,
                            CHILD_LIMIT_S, pause)
    child.stdout = out_path.read_text()
    return child


def require(child: measure.Measured, tag: str) -> measure.Measured:
    if child.code != 0:
        err = (WORK / f"{tag}.err").read_text().strip().splitlines()[-5:]
        raise BenchError(f"{tag} exited with {child.code}: " + " | ".join(err))
    return child


def kernel_args(config: str, lam: float, seed: int, slots: int | None, schedulers=SCHEDULERS):
    args = [CHILD, "kernel", config, repr(lam), str(seed), "--schedulers", ",".join(schedulers)]
    return args + (["--slots", str(slots)] if slots else [])


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.system = reference.read_system(ROOT / self.w.config)
        self.seeds = [seed + k for k in range(self.w.seeds)]
        self.max_slots = self.w.max_slots or self.system["max_slots"]
        self.points = len(self.system["schedulers"]) * len(self.system["lambda_grid"]) * len(self.seeds)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # --- operations ---------------------------------------------------------

    def sweep(self, tag: str, trace_dir: Path | None = None, pause: bool = True) -> dict:
        """One ``crsched run``; its operations are the sweep points."""
        out = WORK / tag
        cli = ["run", "--config", self.w.config, "--seed", ",".join(map(str, self.seeds)),
               "--jobs", str(self.w.jobs), "--out", str(out.relative_to(ROOT)),
               "--max-slots", str(self.max_slots)]
        if trace_dir is None:
            args = ["-m", "crsched.cli", *cli]
        else:
            args = [CHILD, "cli", str(trace_dir), *cli]
        child = run_child(args, tag, self.w.jobs, pause)
        rows_path = out / "rows.csv"
        if child.code not in (0, 1) or not rows_path.exists():
            require(child, tag)
            raise BenchError(f"{tag}: no rows.csv")
        rows = checks.read_rows(rows_path)
        self.attempted += self.points
        self.failed += self.points - len(rows) + sum(1 for r in rows if r["note"])
        return {"child": child, "out": out, "rows": rows, "slots": sum(r["slots"] for r in rows),
                "digest": hashlib.sha256(rows_path.read_bytes()).hexdigest()}

    def kernel(self, tag: str, trace_dir: Path | None = None, pause: bool = True) -> dict:
        """One process, one fixed-horizon run per scheduler."""
        w = self.w
        args = kernel_args(w.config, w.kernel_lam, self.seeds[0], w.kernel_slots)
        if trace_dir is not None:
            args += ["--trace", str(trace_dir)]
        child = require(run_child(args, tag, 1, pause), tag)
        runs = json.loads(child.stdout.splitlines()[-1])
        self.attempted += len(runs)
        self.failed += sum(1 for r in runs if r["note"])
        return {"child": child, "runs": runs, "slots": sum(r["slots"] for r in runs)}

    def main_op(self, tag: str, trace_dir: Path | None = None, pause: bool = True) -> dict:
        op = self.sweep if self.w.jobs else self.kernel
        return op(tag, trace_dir, pause)

    # --- measurement --------------------------------------------------------

    def rounds(self, seconds: float, one_round, min_rounds: int = MIN_ROUNDS) -> list:
        """Whole rounds until ``seconds`` have passed, at least ``min_rounds``; a
        round is not started if it would end more than half a round late."""
        out = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            out.append(one_round(len(out)))
            now = time.perf_counter()
            if len(out) >= min_rounds and now + (now - r0) / 2 >= t0 + seconds:
                return out

    def setup_probes(self) -> list[measure.Measured]:
        """A fresh interpreter that imports the package, parses the config
        and builds the workload's first Simulation; after one unmeasured
        warm-up."""
        if self.w.jobs:
            sched, lam, slots = min(self.system["schedulers"]), self.system["lambda_grid"][0], None
        else:
            sched, lam, slots = SCHEDULERS[0], self.w.kernel_lam, self.w.kernel_slots
        args = [CHILD, "setup", self.w.config, sched, repr(lam), str(self.seeds[0])]
        args += ["--slots", str(slots)] if slots else []
        return [require(run_child(args, f"setup-{i}"), f"setup-{i}")
                for i in range(SETUP_REPEATS + 1)][1:]

    def untraced(self, seconds: float) -> dict:
        setup = self.setup_probes()

        def one_round(i):
            r = {"kernel": self.kernel(f"kernel-{i}")}
            if self.w.jobs:
                r["sweep"] = self.sweep(f"sweep-{i}")
            return r

        rounds = self.rounds(seconds, one_round)
        main = [r["sweep"] if self.w.jobs else r["kernel"] for r in rounds]
        # (nominal, raw) samples; times are in nominal seconds (see measure.py)
        samples = {
            "setup_s": [(p.nominal(), p.wall()) for p in setup],
            "wall_s": [(m["child"].nominal(), m["child"].wall()) for m in main],
            "cpu_s": [(m["child"].cpu * m["child"].nominal() / m["child"].wall(), m["child"].cpu)
                      for m in main],
            "slots_per_s": [(m["slots"] / m["child"].nominal(), m["slots"] / m["child"].wall())
                            for m in main],
        }
        for k, s in enumerate(SCHEDULERS):
            samples[f"slots_per_s.{s}"] = [
                (run["slots"] / r["kernel"]["child"].nominal(run["start"], run["end"]),
                 run["slots"] / r["kernel"]["child"].wall(run["start"], run["end"]))
                for r in rounds for run in [r["kernel"]["runs"][k]]]
        samples["peak_rss_mb"] = [(m["child"].rss_mb, m["child"].rss_mb) for m in main]
        metrics = {}
        for name, pairs in samples.items():
            metrics[name] = statistics.median(v for v, _ in pairs)
            print(f"{name:32s} raw median {statistics.median(raw for _, raw in pairs):12.6g}"
                  f" of {len(pairs)} samples")
        self.check_kernel_rounds([r["kernel"] for r in rounds])
        if self.w.jobs:
            self.check_sweep_rounds([r["sweep"] for r in rounds])
            self.check_sweep_points(rounds[0]["sweep"]["rows"])
        print(f"{self.name}: {len(rounds)} rounds, setup probes {len(setup)}")
        return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}

    def traced(self, seconds: float) -> dict:
        # The traced process times its own spans, so neither run of a pair
        # is paused for calibration: each is one slice between two.
        def one_round(i):
            plain = self.main_op(f"plain-{i}", pause=False)
            trace_dir = WORK / f"trace-{i}"
            trace_dir.mkdir()
            return plain, self.main_op(f"traced-{i}", trace_dir, pause=False), trace_dir

        pairs = self.rounds(seconds, one_round, min_rounds=1)
        layers = [layer_metrics(d, max(self.w.jobs, 1),
                                t["child"].nominal() / t["child"].wall()) for _, t, d in pairs]
        counts = [k for k, u in PER_LAYER.items() if u == "count" or k.endswith("peak_backlog")]
        for layer in layers[1:]:
            for k in counts:
                if layer[k] != layers[0][k]:
                    self.failures.append(f"trace: {k} {layer[k]} != {layers[0][k]} between rounds")
        metrics = {k: _median_or_none([layer[k] for layer in layers]) for k in layers[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(t["child"].nominal() for _, t, _ in pairs)
            / statistics.median(p["child"].nominal() for p, _, _ in pairs))
        metrics["trace.wrapper_ns"] = wrapper_cost_nominal_ns()
        fifo = run_child([CHILD, "fifo"], "fifo")
        metrics["queueing.fifo_bytes_per_packet"] = (
            json.loads(fifo.stdout.splitlines()[-1])["bytes_per_packet"] if fifo.code == 0 else None)
        self.check_traced(pairs, layers[0])
        print(f"{self.name}: {len(pairs)} untraced/traced pairs")
        absent = [k for k in PER_LAYER if metrics.get(k) is None]
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        return {k: (0.0 if metrics.get(k) is None else metrics[k], unit)
                for k, unit in PER_LAYER.items()}

    # --- checks -------------------------------------------------------------

    def reference_run(self, scheduler: str, lam: float, seed: int, fixed_slots: int | None):
        if fixed_slots:
            return reference.simulate(self.system, scheduler, lam, seed, fixed_slots, 0.0)
        return reference.simulate(self.system, scheduler, lam, seed, self.max_slots,
                                  self.system["epsilon"])

    def check_kernel_rounds(self, rounds: list[dict]) -> None:
        """Every fixed-horizon run against the reference loop; later rounds
        must repeat the first exactly."""
        w = self.w
        first = rounds[0]["runs"]
        for run in first:
            ref = self.reference_run(run["scheduler"], w.kernel_lam, self.seeds[0], w.kernel_slots)
            self.failures += checks.check_kernel_run(
                f"kernel {run['scheduler']} lambda={w.kernel_lam}", run, ref)
        for r in rounds[1:]:
            if _without_time(r["runs"]) != _without_time(first):
                self.failures.append("kernel: a later round differs from the first")

    def check_sweep_rounds(self, sweeps: list[dict]) -> None:
        self.failures += checks.check_sweep(
            sweeps[0]["out"], self.system, self.seeds, self.max_slots, self.w.budget_separates)
        if any(s["digest"] != sweeps[0]["digest"] for s in sweeps[1:]):
            self.failures.append("sweep: rows.csv differs between rounds")

    def check_sweep_points(self, rows: list[dict]) -> None:
        """At the highest load where every scheduler converged on the first
        seed: the row, the program's own terminal state and the reference
        loop must agree."""
        seed = self.seeds[0]
        conv: dict[float, set[str]] = {}
        for r in rows:
            if r["seed"] == seed and r["converged"]:
                conv.setdefault(r["lambda"], set()).add(r["scheduler"])
        every = [lam for lam, s in conv.items() if s == set(self.system["schedulers"])]
        if not every:
            self.failures.append("sweep: no load where every scheduler converged")
            return
        lam = max(every)
        tag = "sweep-points"
        child = require(run_child(kernel_args(self.w.config, lam, seed, None,
                                              self.system["schedulers"]), tag), tag)
        by_sched = {r["scheduler"]: r for r in rows if r["lambda"] == lam and r["seed"] == seed}
        for run in json.loads(child.stdout.splitlines()[-1]):
            label = f"sweep {run['scheduler']} lambda={lam} seed={seed}"
            row = by_sched[run["scheduler"]]
            self.failures += checks.compare(label + " (rows.csv vs library)", row, run,
                                            ("slots", "converged", "stability_metric",
                                             "interference_avg", "delays"))
            ref = self.reference_run(run["scheduler"], lam, seed, None)
            self.failures += checks.check_kernel_run(label, run, ref)

    def check_traced(self, pairs, layer: dict) -> None:
        """Tracing must not change the simulation: the traced outputs equal
        the untraced ones, and the traced counts equal the reference loop's."""
        plain, traced, _ = pairs[0]
        if self.w.jobs:
            if traced["digest"] != plain["digest"]:
                self.failures.append("trace: traced rows.csv differs from the untraced one")
            refs = []
            for r in traced["rows"]:
                ref = self.reference_run(r["scheduler"], r["lambda"], r["seed"], None)
                self.failures += checks.compare(
                    f"sweep {r['scheduler']} lambda={r['lambda']} seed={r['seed']}", r, ref,
                    ("slots", "converged", "stability_metric", "interference_avg", "delays"))
                refs.append(ref)
        else:
            if _without_time(traced["runs"]) != _without_time(plain["runs"]):
                self.failures.append("trace: traced kernel runs differ from the untraced ones")
            refs = [self.reference_run(r["scheduler"], self.w.kernel_lam, self.seeds[0],
                                       self.w.kernel_slots) for r in traced["runs"]]
        want = {
            "engine.slots": sum(r["slots"] for r in refs),
            "queueing.arrivals": sum(sum(r["arrivals"]) for r in refs),
            "queueing.departures": sum(sum(r["departures"]) for r in refs),
            "schedulers.idle_slots": sum(r["idle_slots"] for r in refs),
        }
        for k, v in want.items():
            if layer[k] is not None and layer[k] != v:
                self.failures.append(f"trace: {k} {layer[k]} != reference {v}")


def _without_time(runs: list[dict]) -> list[dict]:
    return [{k: v for k, v in run.items() if k not in ("start", "end")} for run in runs]


def wrapper_cost_nominal_ns() -> float:
    """tracer.wrapper_cost_ns() on the first CPU, in nominal nanoseconds."""
    cpu = CPUS[:1]
    mine = os.sched_getaffinity(0)
    before = measure.calibrate(cpu)
    os.sched_setaffinity(0, set(cpu))
    try:
        cost = tracer.wrapper_cost_ns()
    finally:
        os.sched_setaffinity(0, mine)
    return cost * measure.NOMINAL_S / ((before + measure.calibrate(cpu)) / 2)


def _median_or_none(values):
    return None if any(v is None for v in values) else statistics.median(values)


def layer_metrics(trace_dir: Path, jobs: int, scale: float) -> dict:
    """Per-layer metrics from every process's trace dump in ``trace_dir``,
    times multiplied by ``scale``; None marks a metric whose traced function
    does not exist or never ran."""
    stats: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    spans: list = []
    for path in sorted(trace_dir.glob("trace-*.json")):
        dump = json.loads(path.read_text())
        for name, values in dump["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for j, v in enumerate(values):
                acc[j] += v
        for name, v in dump["counters"].items():
            merge = max if name.endswith("peak_backlog") else int.__add__
            counters[name] = merge(counters.get(name, 0), v)
        spans += [s for s in dump["spans"] if s is not None]

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats) or None

    def per_call(names, field, unit):
        c = calls(*names)
        return c and sum(stats[n][field] for n in names if n in stats) / c / unit

    def counter(name, source):
        return counters.get(name, 0) if calls(source) else None

    decide = ("schedulers.decide_proposed", "schedulers.decide_max_weight")
    blocks = ("channels.sample_block.rayleigh", "channels.sample_block.deterministic")
    points = [(s[2] - s[1]) / 1e9 for s in spans if s[0] == "sweep.run_point"]
    fan_out = [(s[2] - s[1]) / 1e9 for s in spans if s[0] == "sweep.sweep_results"]
    output = ("sweep.write_rows", "sweep.emit_figures", "sweep.file_sha256")
    peeks = calls("queueing.peek_departures")
    points_run = calls("sweep.run_point")
    per_point_bytes = points_run and counters.get("sweep.pickle_bytes", 0) / points_run
    import_ms = json.loads((trace_dir / "import.json").read_text())["import_ms"]
    metrics = {
        "engine.run_slot.self_ns": per_call(["engine.run_slot"], 2, 1),
        "engine.init_us": per_call(["engine.init"], 1, 1e3),
        "engine.slots": calls("engine.run_slot"),
        "schedulers.decide.self_ns": per_call(decide, 2, 1),
        "schedulers.idle_slots": counters.get("schedulers.idle_slots", 0) if calls(*decide) else None,
        "schedulers.peek_useful_ratio": peeks and (calls("queueing.commit_departures") or 0) / peeks,
        "queueing.draw_arrivals.ns": per_call(["queueing.draw_arrivals"], 1, 1),
        "queueing.peek_departures.ns": per_call(["queueing.peek_departures"], 1, 1),
        "queueing.commit_departures.ns": per_call(["queueing.commit_departures"], 1, 1),
        "queueing.arrivals": counter("queueing.arrivals", "queueing.draw_arrivals"),
        "queueing.departures": counter("queueing.departures", "queueing.commit_departures"),
        "queueing.peak_backlog": counter("queueing.peak_backlog", "queueing.draw_arrivals"),
        "channels.sample_slot.ns": per_call(["channels.sample_slot"], 1, 1),
        "channels.sample_block.us": per_call(blocks, 1, 1e3),
        "channels.sample_block.calls": calls(*blocks),
        "streams.substream.us": per_call(["streams.substream"], 1, 1e3),
        "streams.substream.calls": calls("streams.substream"),
        "streams.uniform.ns": per_call(["streams.uniform"], 1, 1),
        "virtual_queues.delay_update.ns": per_call(["virtual_queues.delay_update"], 1, 1),
        "virtual_queues.interference_update.ns": per_call(["virtual_queues.interference_update"], 1, 1),
        "virtual_queues.stability_metric.calls": calls("virtual_queues.stability_metric"),
        "sweep.point_s.p50": statistics.median(points) if points else None,
        "sweep.point_s.max": max(points) if points else None,
        "sweep.parallel_efficiency": sum(points) / (jobs * fan_out[0]) if points and fan_out else None,
        "sweep.output_ms": sum(stats[n][1] for n in output if n in stats) / 1e6 if calls(*output) else None,
        "sweep.pickle_bytes_per_point": per_point_bytes,
        "config.load_spec_ms": per_call(["config.load_spec"], 1, 1e6),
        "cli.import_ms": import_ms,
    }
    for name, value in metrics.items():
        if value is not None and PER_LAYER[name] in TIME_UNITS:
            metrics[name] = value * scale
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "crsched" / "__init__.py").is_file():
        print(f"error: no crsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    bench = Bench(args.workload, args.seed)
    try:
        metrics = bench.traced(args.seconds) if args.trace else bench.untraced(args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for failure in bench.failures:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
