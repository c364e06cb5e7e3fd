"""Load-sweep orchestration and plot-data emission.

One run per (scheduler, lambda, seed), every user driven at the same
arrival rate. The rules of one (lambda, seed) run together, on one set of
draws (engine.run_lockstep), as one task; tasks run heaviest load first.
Rows are keyed and ordered by the triple, so output is independent of
execution order and parallelism degree. All numeric cells
are written with full round-trip precision (repr), which makes reruns
byte-comparable.

rows.csv schema, version 1:
    scheduler, lambda, seed, converged, slots, stability_metric,
    interference_avg, su1_delay ... suN_delay, note
Empty delay cells mean no packet departed (average undefined, not zero).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .config import ExperimentSpec, file_sha256  # file_sha256: digests of rows.csv and configs
from .engine import SCHEDULER_NAMES, RunResult, SchedulerKind, SimConfig, run_lockstep, simulations

SCHEMA_VERSION = 1

ROWS_FILENAME = "rows.csv"
MANIFEST_FILENAME = "manifest.json"
PLOT_STUB_FILENAME = "plot_figures.py"

# figure name -> (quantity, scheduler ids plotted)
FIGURES = {
    "fig1.csv": ("delay", ("proposed-nonidling",)),
    "fig2.csv": ("interference", ("proposed-nonidling", "maxweight")),
    "fig3.csv": ("delay", ("proposed", "maxweight")),
    "fig4.csv": ("interference", ("proposed", "maxweight")),
}


class SweepRow(NamedTuple):
    scheduler: str
    lam: float
    seed: int
    converged: bool
    slots: int
    stability_metric: float
    interference_avg: float
    delays: tuple[float | None, ...]
    note: str = ""


def point_config(spec: ExperimentSpec, scheduler, lam: float, seed: int) -> SimConfig:
    """The base config with every user's arrival rate set to lam."""
    sus = tuple(
        replace(su, arrivals=su.arrivals.with_rate(lam)) for su in spec.base.sus
    )
    return replace(spec.base, sus=sus, scheduler=scheduler, seed=seed)


def sweep_points(spec: ExperimentSpec) -> list[tuple[str, float, int]]:
    return sorted(
        (sched.kind, lam, seed)
        for sched in spec.schedulers
        for lam in spec.lambda_grid
        for seed in spec.seeds
    )


def run_rules(config: SimConfig, kinds: list[SchedulerKind]) -> list[RunResult]:
    """The sweep cells of every rule in kinds at config's (lambda, seed),
    in that order, run in lockstep on one set of draws; each result equals
    that of Simulation(config).run_until_converged() for that rule. An
    infeasible-load abort returns as a noted result."""
    return run_lockstep(simulations(config, kinds))


def sweep_results(
    spec: ExperimentSpec, jobs: int | None = None, progress=None
) -> list[tuple[tuple[str, float, int], RunResult]]:
    """All sweep cells in deterministic (scheduler, lambda, seed) order, run
    in ``jobs`` processes (None: one per CPU this process may run on).

    Each task is one (lambda, seed) with every rule. Tasks run in
    descending lambda, then ascending seed: the heaviest loads run longest,
    so each process ends on its lightest. ``progress`` sees each cell as
    its task finishes, in that order, the rules of a task in scheduler
    order, whatever ``jobs`` is. Workers are forked from this process, so a
    caller that runs threads of its own should pass jobs=1; where the
    platform has no ``os.fork`` the sweep runs serially."""
    if jobs is None:
        # os.cpu_count() counts every CPU of the host, also those this
        # process may not run on; it stands in where affinity is unknown.
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:
            jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    points = sweep_points(spec)
    kinds = sorted(spec.schedulers, key=lambda sched: sched.kind)
    tasks = [(lam, seed) for lam in sorted(spec.lambda_grid, reverse=True) for seed in sorted(spec.seeds)]
    configs = [point_config(spec, kinds[0], lam, seed) for lam, seed in tasks]
    task_results = _forked(configs, kinds, min(jobs, len(configs)) if hasattr(os, "fork") else 1)
    done = {}
    try:
        for (lam, seed), results in zip(tasks, task_results):
            for sched, result in zip(kinds, results):
                point = (sched.kind, lam, seed)
                done[point] = result
                if progress is not None:
                    progress(point, result, len(points))
    finally:
        # Also where the loop stops early, as on an interrupt in progress.
        task_results.close()
    return [(point, done[point]) for point in points]


def _forked(configs: list[SimConfig], kinds: list[SchedulerKind], workers: int):
    """run_rules of each config, in order, from this process and
    ``workers`` - 1 forked ones: config k runs in worker k mod ``workers``,
    this process being worker 0. One worker forks nothing: this process
    runs every config.

    This process builds its first group before it forks, which imports
    numpy.random and compiles every rule's kernel once for all workers.
    Each worker pickles one (ok, results or exception and its traceback)
    pair per config into its own pipe and ends with os._exit, so it never
    returns into the caller. A worker's exception is raised at its
    config's turn, caused by a RuntimeError that holds its traceback. Closing
    the generator, however it stops, kills and reaps every worker."""
    first = simulations(configs[0], kinds)
    pipes = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    os.close(read_fd)
                    _work(configs[w::workers], kinds, write_fd)
                finally:
                    os._exit(0)
            os.close(write_fd)
            pipes.append((pid, os.fdopen(read_fd, "rb")))
        for k, config in enumerate(configs):
            if k == 0:
                # Dropped once run, so that its state does not outlive its task.
                results, first = run_lockstep(first), None
                yield results
                continue
            if k % workers == 0:
                yield run_rules(config, kinds)
                continue
            pid, pipe = pipes[k % workers - 1]
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                raise RuntimeError(f"sweep worker {pid} ended before returning task {k}") from None
            if not ok:
                err, text = value
                raise err from RuntimeError(f"in sweep worker {pid}:\n{text}")
            yield value
    finally:
        for pid, pipe in pipes:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            pipe.close()


def _work(configs: list[SimConfig], kinds: list[SchedulerKind], fd: int) -> None:
    """A forked worker's share: run_rules of each config, each outcome
    pickled into fd as it ends; the first exception ends the share."""
    with os.fdopen(fd, "wb") as out:
        for config in configs:
            try:
                outcome = (True, run_rules(config, kinds))
            except BaseException as err:  # sent to the invoking process, which raises it
                import traceback  # only a failing worker needs it

                outcome = (False, (err, traceback.format_exc()))
            # Pickled whole before any byte is written: an outcome that does
            # not pickle ends the share with nothing half sent.
            out.write(pickle.dumps(outcome))
            out.flush()
            if not outcome[0]:
                return


def rows_from_results(results) -> list[SweepRow]:
    return [
        SweepRow(
            scheduler=k,
            lam=lam,
            seed=seed,
            converged=res.converged,
            slots=res.slots,
            stability_metric=res.stability_metric,
            interference_avg=res.interference_avg,
            delays=res.avg_delays,
            note=res.note,
        )
        for (k, lam, seed), res in results
    ]


def run_sweep(spec: ExperimentSpec, jobs: int | None = None, progress=None) -> list[SweepRow]:
    """Execute the sweep and return its rows; aborted cells carry a note."""
    return rows_from_results(sweep_results(spec, jobs=jobs, progress=progress))


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def rows_header(n_sus: int) -> list[str]:
    return (
        ["scheduler", "lambda", "seed", "converged", "slots", "stability_metric",
         "interference_avg"]
        + [f"su{k}_delay" for k in range(1, n_sus + 1)]
        + ["note"]
    )


def write_rows(rows: list[SweepRow], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    import csv  # here and in the other row writers and readers: a run's set-up never needs it

    n_sus = len(rows[0].delays)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(rows_header(n_sus))
        for r in rows:
            w.writerow(
                [r.scheduler, repr(r.lam), r.seed, str(r.converged).lower(), r.slots,
                 repr(r.stability_metric), repr(r.interference_avg)]
                + [_cell(d) for d in r.delays]
                + [r.note]
            )


def _parse_row(rec: list[str], n_sus: int) -> SweepRow:
    if len(rec) != n_sus + 8:
        raise ValueError(f"expected {n_sus + 8} fields, got {len(rec)}")
    fixed, delays, note = rec[:7], rec[7:7 + n_sus], rec[7 + n_sus]
    if fixed[0] not in SCHEDULER_NAMES:
        raise ValueError(f"unknown scheduler {fixed[0]!r}; "
                         f"expected one of {', '.join(SCHEDULER_NAMES)}")
    if fixed[3] not in ("true", "false"):
        raise ValueError(f"converged must be true or false, got {fixed[3]!r}")
    lam = float(fixed[1])
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {fixed[1]!r}")
    return SweepRow(
        scheduler=fixed[0],
        lam=lam,
        seed=int(fixed[2]),
        converged=fixed[3] == "true",
        slots=int(fixed[4]),
        stability_metric=float(fixed[5]),
        interference_avg=float(fixed[6]),
        delays=tuple(None if d == "" else float(d) for d in delays),
        note=note,
    )


def read_rows(path) -> list[SweepRow]:
    """The rows of a rows.csv; a malformed file, one with no rows, one that
    names a scheduler no sweep runs, or one that repeats a (scheduler,
    lambda, seed), raises ValueError naming the file."""
    import csv
    import io

    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text: {err.reason}, "
                         f"byte {data[err.start]:#04x} at offset {err.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))

    def records():
        # The csv module's own errors, such as a field over its size limit,
        # are reported at their line too.
        try:
            yield from reader
        except csv.Error as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None

    lines = records()
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{path}:1: empty file, expected the rows header")
    n_sus = sum(1 for h in header if h.endswith("_delay"))
    if header != rows_header(n_sus):
        raise ValueError(f"{path}:1: unrecognized rows schema: {header}")
    rows = []
    first_line: dict[tuple[str, float, int], int] = {}
    for rec in lines:
        try:
            row = _parse_row(rec, n_sus)
            first = first_line.setdefault((row.scheduler, row.lam, row.seed), reader.line_num)
            if first != reader.line_num:
                raise ValueError(f"scheduler {row.scheduler}, lambda {row.lam!r}, seed {row.seed} "
                                 f"repeats line {first}")
        except ValueError as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from err
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return rows


def _series_mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


_PLOT_STUB = '''\
"""Render the emitted figure CSVs as line charts (needs matplotlib)."""

import csv
import sys
from pathlib import Path

HERE = Path(__file__).parent
FIGURES = {figures}

try:
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is required to render the figures")

for name, ylabel in FIGURES:
    path = HERE / name
    if not path.exists():
        continue
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        data = [[float(c) if c else None for c in rec] for rec in reader]
    xs = [rec[0] for rec in data]
    plt.figure()
    for col, series in enumerate(header[1:], start=1):
        ys = [rec[col] for rec in data]
        pts = [(x, y) for x, y in zip(xs, ys) if y is not None]
        if pts:
            plt.plot(*zip(*pts), marker="o", label=series)
    plt.xlabel("arrival rate (packets/slot)")
    plt.ylabel(ylabel)
    plt.legend()
    plt.grid(True)
    plt.savefig(HERE / (path.stem + ".png"), dpi=150)
    print("wrote", path.stem + ".png")
'''


def emit_figures(
    rows: list[SweepRow],
    output_dir,
    config_sha256: str | None = None,
    rows_sha256: str | None = None,
    overrides: dict[str, str] | None = None,
) -> dict:
    """Write per-figure plot CSVs, a plot script stub, and manifest.json.

    ``overrides`` maps each config key a run flag replaced, as
    "section.key", to the value given; the manifest records it only when
    it is non-empty, so a run from the file alone keeps the same manifest.

    Each figure holds one line per lambda; cells average over seeds and
    are left empty where undefined. A figure whose schedulers produced no
    rows at all is omitted and noted in the manifest.
    """
    import csv

    if not rows:
        raise ValueError("no rows to plot")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_sus = len(rows[0].delays)
    lambdas = sorted({r.lam for r in rows})
    by_cell: dict[tuple[str, float], list[SweepRow]] = {}
    for r in sorted(rows, key=lambda r: (r.scheduler, r.lam, r.seed)):
        by_cell.setdefault((r.scheduler, r.lam), []).append(r)
    present = {r.scheduler for r in rows}

    manifest_figures = {}
    for name, (quantity, wanted) in FIGURES.items():
        scheds = [s for s in wanted if s in present]
        if not scheds:
            manifest_figures[name] = (
                "omitted (no rows for schedulers: " + ", ".join(wanted) + ")"
            )
            continue
        # Each column: its scheduler, its header's suffix and its value in a row.
        if quantity == "delay":
            values = [(f"su{k + 1}_delay", lambda r, k=k: r.delays[k]) for k in range(n_sus)]
        else:
            values = [("interference", lambda r: r.interference_avg)]
        columns = [(s, suffix, value) for s in scheds for suffix, value in values]
        with open(out / name, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["lambda"] + [f"{s.replace('-', '_')}_{suffix}" for s, suffix, _ in columns])
            for lam in lambdas:
                rec = [repr(lam)]
                for s, _, value in columns:
                    vals = [v for v in map(value, by_cell.get((s, lam), [])) if v is not None]
                    rec.append(_cell(_series_mean(vals)))
                w.writerow(rec)
        manifest_figures[name] = "written"

    ylabel = {"delay": "average delay (slots)", "interference": "average interference"}
    stub_figures = [(name, ylabel[FIGURES[name][0]]) for name, state in manifest_figures.items()
                    if state == "written"]
    (out / PLOT_STUB_FILENAME).write_text(_PLOT_STUB.format(figures=repr(stub_figures)))

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config_sha256,
        "rows_sha256": rows_sha256,
        "seeds": sorted({r.seed for r in rows}),
        "schedulers": sorted(present),
        "lambda_grid": lambdas,
        "figures": manifest_figures,
        "plot_stub": PLOT_STUB_FILENAME,
    }
    if overrides:
        manifest["overrides"] = overrides
    (out / MANIFEST_FILENAME).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
