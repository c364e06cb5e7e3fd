"""Discrete-time simulator of delay- and interference-constrained uplink
scheduling in a shared-spectrum cell.

Unlicensed users share one uplink channel under a licensed user's
time-average interference budget and per-user delay bounds. The scheduler
picks at most one backlogged user per slot; constraint pressure is carried
by nonnegative accumulators (one per delay bound, one for interference)
that the index policy trades off against backlog each slot.
"""

from .config import load_spec, parse_scheduler
from .engine import RunResult
from .sweep import point_config, run_point, run_sweep, write_rows

__version__ = "0.1.0"

__all__ = [
    "RunResult",
    "load_spec",
    "parse_scheduler",
    "point_config",
    "run_point",
    "run_sweep",
    "write_rows",
]
