"""Processes that bench/run.py starts and measures from outside.

    child.py setup CONFIG SCHEDULER LAMBDA SEED [--slots N]
        import the package, parse CONFIG and build the first Simulation
    child.py kernel CONFIG LAMBDA SEED --schedulers a,b [--slots N] [--trace DIR]
        run one point per scheduler through Simulation.run_until_converged
        and print one JSON line of terminal state and of perf_counter stamps
        around each run; with --slots the horizon is fixed (epsilon = 0,
        max_slots = N)
    child.py cli TRACE_DIR ARGS...
        run ``crsched`` with ARGS under the tracer, dumping into TRACE_DIR
    child.py fifo
        bytes held per queued packet, from a tracemalloc pass

Every mode first imports crsched.cli (the whole package) and insists that it
came from the checkout's own ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package() -> float:
    """Import the whole package; return the import time in seconds."""
    t0 = time.perf_counter()
    import crsched.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    import crsched

    if SRC not in Path(crsched.__file__).resolve().parents:
        sys.exit(f"crsched was imported from {crsched.__file__}, not from {SRC}")
    return elapsed


def point(config_path: str, scheduler: str, lam: float, seed: int, slots: int | None):
    from dataclasses import replace

    from crsched.config import load_spec, parse_scheduler
    from crsched.sweep import point_config

    spec = load_spec(config_path)
    kind = replace(parse_scheduler(scheduler), phi_mode=spec.schedulers[0].phi_mode)
    cfg = point_config(spec, kind, lam, seed)
    if slots is not None:
        cfg = replace(cfg, epsilon=0.0, max_slots=slots)
    return cfg


def cmd_setup(args) -> None:
    from crsched.engine import Simulation

    cfg = point(args.config, args.scheduler, args.lam, args.seed, args.slots)
    Simulation(cfg)


def cmd_kernel(args) -> None:
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.start(args.trace)
    from crsched.engine import Simulation

    runs = []
    for scheduler in args.schedulers.split(","):
        cfg = point(args.config, scheduler, args.lam, args.seed, args.slots)
        start = time.perf_counter()
        sim = Simulation(cfg)
        res = sim.run_until_converged()
        end = time.perf_counter()
        runs.append({
            "scheduler": scheduler,
            "start": start,
            "end": end,
            "slots": res.slots,
            "converged": res.converged,
            "stability_metric": res.stability_metric,
            "interference_avg": res.interference_avg,
            "delays": list(res.avg_delays),
            "terminal_q": list(res.terminal_q),
            "terminal_x": res.terminal_x,
            "terminal_y": list(res.terminal_y),
            "arrivals": [su.queue.cumulative_arrivals for su in sim.sus],
            "departures": [su.queue.cumulative_departures for su in sim.sus],
            "note": res.note,
        })
    if tracer is not None:
        tracer.dump()
    print(json.dumps(runs))


def cmd_cli(args) -> None:
    import tracer as tracing

    import crsched.cli

    tracer = tracing.start(args.trace_dir)
    code = crsched.cli.main(args.cli_args)
    tracer.dump()
    sys.exit(code)


def cmd_fifo(args) -> None:
    import tracemalloc

    from crsched.queueing import Bernoulli, SuQueue

    class Always:
        def random(self):
            return 0.0

    packets = 100_000
    queue = SuQueue(Bernoulli(1.0))
    source = Always()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for slot in range(packets):
        queue.draw_arrivals(slot, source)
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    print(json.dumps({"bytes_per_packet": held / queue.backlog}))


def main() -> None:
    import_ms = import_package() * 1e3
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("config")
    p.add_argument("scheduler")
    p.add_argument("lam", type=float)
    p.add_argument("seed", type=int)
    p.add_argument("--slots", type=int)
    p = sub.add_parser("kernel")
    p.add_argument("config")
    p.add_argument("lam", type=float)
    p.add_argument("seed", type=int)
    p.add_argument("--schedulers", required=True)
    p.add_argument("--slots", type=int)
    p.add_argument("--trace")
    p = sub.add_parser("cli")
    p.add_argument("trace_dir")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    sub.add_parser("fifo")
    args = parser.parse_args()
    if getattr(args, "trace", None) or args.mode == "cli":
        trace_dir = args.trace if args.mode == "kernel" else args.trace_dir
        with open(Path(trace_dir) / "import.json", "w") as f:
            json.dump({"import_ms": import_ms}, f)
    {"setup": cmd_setup, "kernel": cmd_kernel, "cli": cmd_cli, "fifo": cmd_fifo}[args.mode](args)


if __name__ == "__main__":
    main()
