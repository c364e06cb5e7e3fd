"""Output checks, from properties the method must have rather than from a
stored copy of earlier output. Each check returns a list of failures."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
EXACT = ("slots", "converged", "terminal_q", "arrivals", "departures")
CLOSE = ("stability_metric", "interference_avg", "terminal_x", "terminal_y", "delays")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        r["lambda"] = float(r["lambda"])
        r["seed"] = int(r["seed"])
        r["slots"] = int(r["slots"])
        r["converged"] = r["converged"] == "true"
        r["stability_metric"] = float(r["stability_metric"])
        r["interference_avg"] = float(r["interference_avg"])
        n = sum(1 for k in r if k.endswith("_delay"))
        r["delays"] = [None if r[f"su{k}_delay"] == "" else float(r[f"su{k}_delay"])
                       for k in range(1, n + 1)]
    return rows


def _close(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare(label: str, got: dict, want: dict, fields) -> list[str]:
    """``fields`` present in both: exact for counts, 1e-9 relative for floats."""
    out = []
    for k in fields:
        ok = got[k] == want[k] if k in EXACT else _close(got[k], want[k])
        if not ok:
            out.append(f"{label}: {k} {got[k]!r} != reference {want[k]!r}")
    return out


def check_kernel_run(label: str, run: dict, ref: dict) -> list[str]:
    out = compare(label, run, ref, EXACT + CLOSE)
    if run["note"]:
        out.append(f"{label}: aborted ({run['note']})")
    backlog = [a - d for a, d in zip(run["arrivals"], run["departures"])]
    if backlog != run["terminal_q"]:
        out.append(f"{label}: arrivals - departures {backlog} != backlog {run['terminal_q']}")
    return out


def check_sweep(out_dir: Path, system: dict, seeds: list[int], max_slots: int,
                budget_separates: bool) -> list[str]:
    """rows.csv, the figure CSVs and manifest.json of one sweep."""
    rows = read_rows(out_dir / "rows.csv")
    fails = []
    expected = sorted((s, lam, seed) for s in system["schedulers"]
                      for lam in system["lambda_grid"] for seed in seeds)
    got = [(r["scheduler"], r["lambda"], r["seed"]) for r in rows]
    if got != expected:
        fails.append(f"grid: rows {got[:3]}... are not the sorted grid {expected[:3]}...")
    eps = system["epsilon"]
    check = system["check_interval"]
    n = len(system["sus"])
    i_avg = system["i_avg"]
    for r in rows:
        at = f"{r['scheduler']} lambda={r['lambda']} seed={r['seed']}"
        if r["note"]:
            fails.append(f"{at}: aborted ({r['note']})")
        if r["slots"] % check or r["slots"] > max_slots:
            fails.append(f"{at}: {r['slots']} slots is not a check multiple <= {max_slots}")
        if r["converged"] and not r["stability_metric"] < eps:
            fails.append(f"{at}: converged with metric {r['stability_metric']} >= {eps}")
        if not r["converged"] and (r["slots"] != max_slots or r["stability_metric"] < eps):
            fails.append(f"{at}: capped at {r['slots']} slots with metric {r['stability_metric']}")
        if any(d is not None and d < 1.0 for d in r["delays"]):
            fails.append(f"{at}: delay below one slot {r['delays']}")
        # X(T) >= sum_t (I(t) - I_avg), and X(T) / T <= (N + 1) * metric.
        if r["converged"] and r["interference_avg"] > i_avg + (n + 1) * eps:
            fails.append(f"{at}: interference {r['interference_avg']} exceeds I_avg + (N+1) eps")
    if budget_separates:
        top = max(system["lambda_grid"])
        for r in rows:
            at = f"{r['scheduler']} lambda={r['lambda']} seed={r['seed']}"
            idling = r["scheduler"] == "proposed"
            if idling and r["interference_avg"] > 1.05 * i_avg:
                fails.append(f"{at}: idling policy over its budget ({r['interference_avg']})")
            if not idling and r["lambda"] == top and not r["interference_avg"] > i_avg:
                fails.append(f"{at}: non-idling policy within the budget at top load")
    fails += _check_figures(out_dir, rows)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digest = hashlib.sha256((out_dir / "rows.csv").read_bytes()).hexdigest()
    if manifest["rows_sha256"] != digest:
        fails.append("manifest rows_sha256 does not match rows.csv")
    return fails


def _mean(values):
    return sum(values) / len(values) if values else None


def _check_figures(out_dir: Path, rows: list[dict]) -> list[str]:
    """Every written figure cell is the seed mean recomputed from rows.csv."""
    fails = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    written = [name for name, state in manifest["figures"].items() if state == "written"]
    if not written:
        fails.append("no figure written")
    cells: dict[tuple[str, float], list[dict]] = {}
    for r in sorted(rows, key=lambda r: (r["scheduler"], r["lambda"], r["seed"])):
        cells.setdefault((r["scheduler"], r["lambda"]), []).append(r)
    lambdas = sorted({r["lambda"] for r in rows})
    for name in written:
        with open(out_dir / name, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            table = list(reader)
        if [float(rec[0]) for rec in table] != lambdas:
            fails.append(f"{name}: lambda column is not the grid")
            continue
        for col, column in enumerate(header[1:], start=1):
            # Columns are <scheduler>_interference or <scheduler>_su<k>_delay,
            # with the scheduler's dashes written as underscores.
            if column.endswith("_interference"):
                cid, k = column.removesuffix("_interference"), None
            else:
                cid, _, su = column.removesuffix("_delay").rpartition("_su")
                k = int(su) - 1
            scheduler = cid.replace("_", "-")
            for rec in table:
                group = cells.get((scheduler, float(rec[0])), [])
                if k is None:
                    want = _mean([r["interference_avg"] for r in group])
                else:
                    want = _mean([r["delays"][k] for r in group if r["delays"][k] is not None])
                cell = None if rec[col] == "" else float(rec[col])
                if cell != want:
                    fails.append(f"{name} {column} lambda={rec[0]}: {cell} != seed mean {want}")
    return fails
