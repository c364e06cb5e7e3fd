"""Load-sweep orchestration and plot-data emission.

One run per (scheduler, lambda, seed), every user driven at the same
arrival rate. Rows are keyed and ordered by that triple, so output is
independent of execution order and parallelism degree. All numeric cells
are written with full round-trip precision (repr), which makes reruns
byte-comparable.

rows.csv schema, version 1:
    scheduler, lambda, seed, converged, slots, stability_metric,
    interference_avg, su1_delay ... suN_delay, note
Empty delay cells mean no packet departed (average undefined, not zero).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .config import ExperimentSpec, file_sha256  # file_sha256: digests of rows.csv and configs
from .engine import RunResult, SimConfig, Simulation

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


def run_point(config: SimConfig) -> RunResult:
    """One sweep cell; an infeasible-load abort returns as a noted result."""
    return Simulation(config).run_until_converged()


def sweep_results(
    spec: ExperimentSpec, jobs: int | None = None, progress=None
) -> list[tuple[tuple[str, float, int], RunResult]]:
    """All sweep cells in deterministic (scheduler, lambda, seed) order, run
    in ``jobs`` processes (None: one per CPU this process may run on)."""
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
    kinds = {sched.kind: sched for sched in spec.schedulers}
    configs = [point_config(spec, kinds[k], lam, seed) for k, lam, seed in points]

    def collect(results):
        out = []
        for point, result in zip(points, results):
            out.append((point, result))
            if progress is not None:
                progress(point, result, len(points))
        return out

    if jobs == 1 or len(configs) <= 1:
        return collect(map(run_point, configs))
    # Imported here: the pool's modules cost a serial run start-up time and memory.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return collect(pool.map(run_point, configs))


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
    if fixed[3] not in ("true", "false"):
        raise ValueError(f"converged must be true or false, got {fixed[3]!r}")
    return SweepRow(
        scheduler=fixed[0],
        lam=float(fixed[1]),
        seed=int(fixed[2]),
        converged=fixed[3] == "true",
        slots=int(fixed[4]),
        stability_metric=float(fixed[5]),
        interference_avg=float(fixed[6]),
        delays=tuple(None if d == "" else float(d) for d in delays),
        note=note,
    )


def read_rows(path) -> list[SweepRow]:
    """The rows of a rows.csv; a malformed file raises ValueError naming
    the file and line."""
    import csv

    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}:1: empty file, expected the rows header")
        n_sus = sum(1 for h in header if h.endswith("_delay"))
        if header != rows_header(n_sus):
            raise ValueError(f"{path}:1: unrecognized rows schema: {header}")
        rows = []
        for rec in reader:
            try:
                rows.append(_parse_row(rec, n_sus))
            except ValueError as err:
                raise ValueError(f"{path}:{reader.line_num}: {err}") from err
    return rows


def _series_mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _column_id(scheduler: str) -> str:
    return scheduler.replace("-", "_")

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
) -> dict:
    """Write per-figure plot CSVs, a plot script stub, and manifest.json.

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
    written = []
    for name, (quantity, wanted) in FIGURES.items():
        scheds = [s for s in wanted if s in present]
        if not scheds:
            manifest_figures[name] = (
                "omitted (no rows for schedulers: " + ", ".join(wanted) + ")"
            )
            continue
        header = ["lambda"]
        for s in scheds:
            cid = _column_id(s)
            if quantity == "delay":
                header += [f"{cid}_su{k}_delay" for k in range(1, n_sus + 1)]
            else:
                header.append(f"{cid}_interference")
        with open(out / name, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            for lam in lambdas:
                rec = [repr(lam)]
                for s in scheds:
                    cell_rows = by_cell.get((s, lam), [])
                    if quantity == "delay":
                        for k in range(n_sus):
                            vals = [r.delays[k] for r in cell_rows if r.delays[k] is not None]
                            rec.append(_cell(_series_mean(vals)))
                    else:
                        vals = [r.interference_avg for r in cell_rows]
                        rec.append(_cell(_series_mean(vals)))
                w.writerow(rec)
        manifest_figures[name] = "written"
        written.append(name)

    ylabel = {"delay": "average delay (slots)", "interference": "average interference"}
    stub_figures = [
        (name, ylabel[FIGURES[name][0]]) for name in FIGURES if name in written
    ]
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
    (out / MANIFEST_FILENAME).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
