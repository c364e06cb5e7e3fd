"""Experiment configuration files.

INI-style schema (see also the shipped configs under ``crsched/configs``;
the trailing notes below are annotations, as a comment needs its own line):

    [system]
    n_sus = 2                 # number of users; one [suK] section each
    i_avg = 2.0               # per-slot interference budget (> 0)
    epsilon = 0.01            # convergence threshold (>= 0; 0 runs max_slots)
    max_slots = 1000000       # hard horizon per run
    check_interval = 10000    # slots between convergence checks
    phi_mode = actual         # actual | literal (index policy only)
    buffer_cap = 10000000     # optional; backlog safety cap per user

    [su1]
    d = 1.5                   # delay bound in slots (> 0)
    arrivals = bernoulli      # bernoulli | poisson cap=K
    direct = deterministic value=1.0         # or: rayleigh mean=M [cap=C]
    interference = rayleigh mean=0.4 [cap=C]

    [sweep]
    lambda_min = 0.02         # grid applied to every user's rate
    lambda_max = 0.4
    lambda_step = 0.02
    schedulers = proposed, maxweight   # distinct: proposed | proposed-nonidling | maxweight
    seeds = 1                 # comma-separated, distinct, nonnegative
    output_dir = results      # optional

A value takes one line, and ``=`` or ``:`` (the first on the line)
separates key from value; keys are case-insensitive. A line that is
indented, comes before the first section, has no separator, or repeats a
section or a key is malformed. The file is read once; its digest is taken
from the bytes that were parsed.

Each value is read once, from ``load_spec``'s ``overrides`` (``crsched run``
passes its flags there) or else from the file, under the same rules; an
error names the key's file line or the override. A value's range rule lives
in the constructor that takes it (SimConfig, SuConfig, SchedulerKind, ...):
the file reports that rule's message at the key, and checks only its own
syntax, n_sus, the lambda grid and distinct lists. Keys and sections that
are never read are rejected. The lambda grid is generated in decimal, so its
points are the cleanest floats for their spellings (0.06, not 0.060000...5).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Mapping, NamedTuple

from .channels import ChannelModel, DeterministicGain, RayleighGain
from .engine import PHI_ACTUAL, SchedulerKind, SimConfig, SuConfig
from .queueing import ArrivalProcess, Bernoulli, SettingError, TruncatedPoisson


class ConfigError(ValueError):
    """A run setting failed validation. The text starts with where the value
    came from: ``path:line``, or ``override`` for an entry of ``overrides``,
    whose (section, key) is then ``err.override``."""

    def __init__(self, path, line: int | None, message: str, override=None):
        where = "override" if override else (f"{path}:{line}" if line else str(path))
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.message = message
        self.override = override


class ExperimentSpec(NamedTuple):
    """A validated sweep: base run settings plus the axes to vary."""

    base: SimConfig
    lambda_grid: tuple[float, ...]
    schedulers: tuple[SchedulerKind, ...]
    seeds: tuple[int, ...]
    output_dir: str | None
    source_sha256: str


class _Loader:
    """Reads each setting from the overrides or the file, and records what
    it read, so that anything else in either can be rejected."""

    def __init__(self, path, overrides: Mapping[tuple[str, str], str]):
        self.path = Path(path)
        self.overrides = dict(overrides)
        self.read: set[tuple[str, str | None]] = set()
        try:
            data = self.path.read_bytes()
            text = data.decode()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(path, None, f"cannot read config: {err}") from err
        self.sha256 = hashlib.sha256(data).hexdigest()
        # (section, None) -> the header's line, (section, key) -> the key's
        # line, in file order; (section, key) -> the key's stripped value
        self.lines: dict[tuple[str, str | None], int] = {}
        self.values: dict[tuple[str, str], str] = {}
        self._scan(text)

    def _scan(self, text: str) -> None:
        """Read every [section] header and key = value (or key: value) line,
        splitting at the first = or :. Blank lines and full-line # or ;
        comments are skipped; any other line is malformed."""
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if raw[0].isspace():
                problem = "indented line; a value takes one line"
            elif line.startswith("[") and line.endswith("]"):
                section, key, problem = line[1:-1].strip(), None, None
            elif section is None:
                problem = "line before the first [section]"
            else:
                eq, colon = line.find("="), line.find(":")
                cut = eq if colon < 0 or 0 <= eq < colon else colon
                key = line[:cut].strip().lower()
                problem = None if cut > 0 else f"expected key = value, got {line!r}"
            if problem is None and (section, key) in self.lines:
                name = f"[{section}] {key}" if key else f"section [{section}]"
                problem = f"repeated {name}, first at line {self.lines[(section, key)]}"
            if problem is not None:
                raise ConfigError(self.path, lineno, f"malformed config: {problem}")
            self.lines[(section, key)] = lineno
            if key is not None:
                self.values[(section, key)] = line[cut + 1:].strip()

    def fail(self, section: str, key: str | None, message: str):
        text = f"[{section}] {key}: {message}" if key else f"[{section}]: {message}"
        if (section, key) in self.overrides:
            raise ConfigError(self.path, None, text, override=(section, key))
        line = self.lines.get((section, key)) or self.lines.get((section, None))
        raise ConfigError(self.path, line, text)

    def value(self, section: str, key: str, convert=str, default: str | None = None):
        """The key's raw value, an override before the file's, passed through
        convert; a ValueError from convert fails at the key."""
        self.read.update({(section, None), (section, key)})
        raw = self.overrides.get((section, key))
        if raw is None:
            if (section, None) not in self.lines:
                raise ConfigError(self.path, None, f"missing required section [{section}]")
            raw = self.values.get((section, key), default)
        if raw is None:
            self.fail(section, key, "missing required key")
        try:
            return convert(raw.strip())
        except ValueError as err:
            self.fail(section, key, str(err))

    def build(self, section: str, make, *args, **fields):
        """make(*args, **fields); a SettingError fails at [section] <field>,
        or at [sweep] seeds for seed and at [suK] d for delay_bound."""
        try:
            return make(*args, **fields)
        except SettingError as err:
            renamed = {"seed": ("sweep", "seeds"), "delay_bound": (section, "d")}
            self.fail(*renamed.get(err.field, (section, err.field)), str(err))

    def reject_unread(self):
        for section, key in [*self.lines, *self.overrides]:
            if (section, key) not in self.read:
                self.fail(section, key, "unknown key" if key else "unknown section")


def _number(raw, convert=float, kind="a number"):
    """raw converted to a finite value, with one message for anything else."""
    try:
        value = convert(raw)
        if math.isfinite(value):
            return value
    except (ArithmeticError, ValueError):
        pass
    raise ValueError(f"expected {kind}, got {raw!r}")


_integer = partial(_number, convert=int, kind="an integer")
_decimal = partial(_number, convert=lambda raw: Decimal(str(raw)))


def _grid_start(raw) -> Decimal:
    lo = _decimal(raw)
    if lo < 0:
        raise ValueError("lambda grid must be nonnegative")
    return lo


def _grid_step(raw) -> Decimal:
    step = _decimal(raw)
    if step <= 0:
        raise ValueError("lambda step must be positive")
    return step


def _grid_last(lo: Decimal, hi: str | Decimal, step: Decimal) -> Decimal:
    """The last point of the grid from lo up to hi, found without building it."""
    hi = _decimal(hi)
    if hi < lo:
        raise ValueError("lambda grid is empty: max below min")
    return lo + (hi - lo) // step * step


def lambda_grid(lo: str | Decimal, hi: str | Decimal, step: str | Decimal) -> tuple[float, ...]:
    """Inclusive arithmetic grid computed in decimal for clean float values."""
    step, lo = _grid_step(step), _grid_start(lo)
    hi = _grid_last(lo, hi, step)
    grid = []
    v = lo
    while v <= hi:
        grid.append(float(v))
        v += step
    return tuple(grid)


_CHANNELS = {"deterministic": (DeterministicGain, "value"), "rayleigh": (RayleighGain, "mean")}


def _parse_channel(value: str) -> ChannelModel:
    tokens = value.split()
    if not tokens:
        raise ValueError("empty channel spec")
    kind, *args = tokens
    params: dict[str, float] = {}
    for arg in args:
        name, sep, num = arg.partition("=")
        if not sep:
            raise ValueError(f"channel parameter {arg!r} is not name=value")
        params[name] = _number(num)
    if kind not in _CHANNELS:
        raise ValueError(f"unknown channel kind {kind!r} (expected deterministic or rayleigh)")
    model, required = _CHANNELS[kind]
    if required not in params:
        raise ValueError(f"{kind} channel needs {required}=")
    unknown = sorted(set(params) - {required, "cap"})
    if unknown:
        raise ValueError(f"unknown {kind} channel parameter {unknown[0]!r}")
    return model(params[required], params.get("cap"))


def _parse_arrivals(value: str) -> ArrivalProcess:
    """The arrival process at rate 0; the sweep grid sets every user's rate."""
    kind, *params = value.split() or [""]
    if kind == "bernoulli":
        if params:
            raise ValueError("bernoulli takes no parameters")
        return Bernoulli(0.0)
    if kind == "poisson":
        if len(params) != 1 or not params[0].startswith("cap="):
            raise ValueError("poisson needs exactly cap=K")
        return TruncatedPoisson(0.0, _integer(params[0][len("cap="):]))
    raise ValueError(f"unknown arrival process {kind!r} (expected bernoulli or poisson)")


def parse_scheduler(name: str) -> SchedulerKind:
    """Scheduler name as used in configs and on the command line."""
    return SchedulerKind(name.strip().lower().replace("_", "-"))


def _parse_schedulers(value: str) -> list[SchedulerKind]:
    kinds = [parse_scheduler(name) for name in value.split(",")]
    if len(set(kinds)) != len(kinds):
        raise ValueError("schedulers must be distinct")
    return kinds


def _parse_seeds(value: str) -> tuple[int, ...]:
    if not value:
        raise ValueError("need at least one seed")
    seeds = tuple(_integer(token.strip()) for token in value.split(","))
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return seeds


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_spec(path, overrides: Mapping[tuple[str, str], str] | None = None) -> ExperimentSpec:
    """Parse and fully validate an experiment config file. ``overrides`` maps
    (section, key) to a raw value, spelled as in the file, that replaces the
    file's value for that key under the same rules."""
    loader = _Loader(path, overrides or {})
    n_sus = loader.value("system", "n_sus", _integer)
    if n_sus < 1:
        loader.fail("system", "n_sus", "need at least one user")
    # An omitted run setting takes its SimConfig default.
    settings = {"i_avg": loader.value("system", "i_avg", _number)}
    for key, convert in (("epsilon", _number), ("max_slots", _integer),
                         ("check_interval", _integer), ("buffer_cap", _integer)):
        settings[key] = loader.value("system", key, convert, default=str(getattr(SimConfig, key)))
    phi_mode = loader.value("system", "phi_mode", str.lower, default=PHI_ACTUAL)

    sus = []
    for k in range(1, n_sus + 1):
        section = f"su{k}"
        d = loader.value(section, "d", _number)
        arrivals = loader.value(section, "arrivals", _parse_arrivals, default="bernoulli")
        direct = loader.value(section, "direct", _parse_channel)
        interference = loader.value(section, "interference", _parse_channel)
        sus.append(loader.build(section, SuConfig, arrivals=arrivals, delay_bound=d,
                                direct=direct, interference=interference))
    for section, key in loader.lines:
        if key is None and section.startswith("su") and section[2:].isdigit() and int(section[2:]) > n_sus:
            loader.fail(section, None, f"user section beyond n_sus = {n_sus}")

    lo = loader.value("sweep", "lambda_min", _grid_start)
    step = loader.value("sweep", "lambda_step", _grid_step)
    last = loader.value("sweep", "lambda_max", lambda hi: _grid_last(lo, hi, step))
    a_max = min(su.arrivals.a_max for su in sus)
    # Checked before the grid is built, whose length is (max - min) / step.
    if float(last) > a_max:
        loader.fail("sweep", "lambda_max", f"grid exceeds the smallest arrival cap {a_max}")
    grid = lambda_grid(lo, last, step)
    kinds = loader.value("sweep", "schedulers", _parse_schedulers)
    seeds = loader.value("sweep", "seeds", _parse_seeds)
    output_dir = loader.value("sweep", "output_dir", default="") or None
    loader.reject_unread()

    schedulers = tuple(loader.build("system", replace, kind, phi_mode=phi_mode) for kind in kinds)
    base = loader.build("system", SimConfig, sus=tuple(sus), scheduler=schedulers[0],
                        seed=seeds[0], **settings)
    for seed in seeds[1:]:  # each seed meets SimConfig's rules, not only the base's
        loader.build("system", replace, base, seed=seed)
    return ExperimentSpec(
        base=base,
        lambda_grid=grid,
        schedulers=schedulers,
        seeds=seeds,
        output_dir=output_dir,
        source_sha256=loader.sha256,
    )
