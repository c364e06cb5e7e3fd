"""Discrete-time simulator of delay- and interference-constrained uplink
scheduling in a shared-spectrum cell.

Unlicensed users share one uplink channel under a licensed user's
time-average interference budget and per-user delay bounds. The scheduler
picks at most one backlogged user per slot; constraint pressure is carried
by nonnegative accumulators (one per delay bound, one for interference)
that the index policy trades off against backlog each slot.

The names below load their module on first use, so ``import crsched``
loads no numpy.
"""

import os
from importlib import import_module

# crsched calls no BLAS routine: numpy's OpenBLAS gets one thread, not a
# spinning worker per extra CPU. A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "RunResult": "engine",
    "load_spec": "config",
    "parse_scheduler": "config",
    "point_config": "sweep",
    "run_sweep": "sweep",
    "write_rows": "sweep",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
