"""Command-line entry points.

crsched run --config table1.cfg [--schedulers a,b] [--lambda-min ... ]
crsched figures --rows results/rows.csv --out results

Each OVERRIDES flag of ``run`` replaces a config key through ``load_spec``,
under the file's own rules; an error in its value names the flag. The flags
given are recorded, as typed, under ``overrides`` in manifest.json.

Output directory precedence: --out flag, then the CRSCHED_OUT environment
variable, then the config's output_dir, then ./results.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentSpec, load_spec
from .sweep import (
    ROWS_FILENAME,
    emit_figures,
    file_sha256,
    read_rows,
    run_sweep,
    write_rows,
)

OUT_ENV_VAR = "CRSCHED_OUT"

# (section, key) of a config value -> the run flag that overrides it
OVERRIDES = {
    ("sweep", "schedulers"): "--schedulers",
    ("sweep", "lambda_min"): "--lambda-min",
    ("sweep", "lambda_max"): "--lambda-max",
    ("sweep", "lambda_step"): "--lambda-step",
    ("sweep", "seeds"): "--seed",
    ("system", "max_slots"): "--max-slots",
    ("system", "epsilon"): "--epsilon",
    ("system", "phi_mode"): "--phi-mode",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsched",
        description="Delay- and interference-constrained uplink scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a lambda sweep and emit CSV outputs",
                         epilog="The three --lambda-* flags go together.")
    run.add_argument("--config", required=True, help="experiment config file")
    for (section, key), flag in OVERRIDES.items():
        run.add_argument(flag, dest=flag, metavar=key.upper(), help=f"overrides [{section}] {key}")
    run.add_argument("--out", help="output directory")
    run.add_argument("--jobs", type=int, help="parallel runs, at least 1 (default: the CPUs this process may use)")

    figures = sub.add_parser("figures", help="re-emit figure CSVs from a rows.csv")
    figures.add_argument("--rows", required=True, help="rows.csv from a previous run")
    figures.add_argument("--out", help="output directory")
    return parser


def _load_spec(args) -> tuple[ExperimentSpec, dict]:
    """The config with the given flags applied as overrides, and those
    overrides, keyed by (section, key)."""
    flags = vars(args)
    grid_given = [flags[flag] is not None for flag in ("--lambda-min", "--lambda-max", "--lambda-step")]
    if any(grid_given) and not all(grid_given):
        raise ValueError("--lambda-min, --lambda-max and --lambda-step go together")
    overrides = {key: flags[flag] for key, flag in OVERRIDES.items() if flags[flag] is not None}
    try:
        return load_spec(args.config, overrides), overrides
    except ConfigError as err:
        if err.override is None:
            raise
        raise ValueError(f"{OVERRIDES[err.override]}: {err.message}") from None


def _resolve_out(flag: str | None, spec_dir: str | None) -> Path:
    return Path(flag or os.environ.get(OUT_ENV_VAR) or spec_dir or "results")


def _cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs: must be at least 1, got {args.jobs}")
    spec, overrides = _load_spec(args)
    out = _resolve_out(args.out, spec.output_dir)

    def progress(point, result, total):
        progress.done += 1
        kind, lam, seed = point
        state = "aborted" if result.note else ("converged" if result.converged else "capped")
        print(
            f"[{progress.done:>{len(str(total))}}/{total}] {kind} lambda={lam:g} "
            f"seed={seed}: {state} slots={result.slots} metric={result.stability_metric:.3g}",
            flush=True,
        )

    progress.done = 0
    # An unusable output path fails here, before any point has run.
    out.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(spec, jobs=args.jobs, progress=progress)
    rows_path = out / ROWS_FILENAME
    write_rows(rows, rows_path)
    emit_figures(
        rows,
        out,
        config_sha256=spec.source_sha256,
        rows_sha256=file_sha256(rows_path),
        overrides={f"{section}.{key}": value for (section, key), value in overrides.items()},
    )
    aborted = [r for r in rows if r.note]
    print(f"wrote {rows_path} ({len(rows)} rows) and figures to {out}")
    if aborted:
        for r in aborted:
            print(
                f"aborted: {r.scheduler} lambda={r.lam:g} seed={r.seed}: {r.note}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_figures(args) -> int:
    rows = read_rows(args.rows)
    out = _resolve_out(args.out, None)
    emit_figures(rows, out, rows_sha256=file_sha256(args.rows))
    print(f"wrote figures to {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_figures(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
