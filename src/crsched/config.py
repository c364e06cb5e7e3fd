"""Experiment configuration files.

INI-style schema (see also the shipped configs under ``crsched/configs``):

    [system]
    n_sus = 2                 # number of users; one [suK] section each
    i_avg = 2.0               # per-slot interference budget (> 0)
    epsilon = 0.01            # convergence threshold (> 0)
    max_slots = 1000000       # hard horizon per run
    check_interval = 10000    # slots between convergence checks
    phi_mode = actual         # actual | literal (index policy only)
    buffer_cap = 10000000     # optional; backlog safety cap per user

    [su1]
    d = 1.5                   # delay bound in slots (> 0)
    lambda = 0.1              # mean arrivals per slot
    arrivals = bernoulli      # bernoulli | poisson cap=K
    direct = deterministic value=1.0         # or: rayleigh mean=M [cap=C]
    interference = rayleigh mean=0.4 [cap=C]

    [sweep]
    lambda_min = 0.02         # grid applied to every user's rate
    lambda_max = 0.4
    lambda_step = 0.02
    schedulers = proposed, maxweight   # proposed | proposed-nonidling | maxweight
    seeds = 1                 # comma-separated, distinct
    output_dir = results      # optional

Values are validated with the config file's own line numbers in error
messages. The lambda grid is generated in decimal, so grid points are the
cleanest binary floats for their decimal spellings (0.06, not 0.060000...5).
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .channels import ChannelModel, DeterministicGain, RayleighGain
from .engine import PHI_ACTUAL, PHI_LITERAL, SCHEDULER_NAMES, SchedulerKind, SimConfig, SuConfig
from .queueing import ArrivalProcess, Bernoulli, TruncatedPoisson


class ConfigError(ValueError):
    """A config file failed validation; message carries file:line context."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}: " if line else f"{path}: "
        super().__init__(where + message)
        self.path = path
        self.line = line


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated sweep: base run settings plus the axes to vary."""

    base: SimConfig
    lambda_grid: tuple[float, ...]
    schedulers: tuple[SchedulerKind, ...]
    seeds: tuple[int, ...]
    output_dir: str | None
    source_path: str
    source_sha256: str


def _line_index(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) and (section, None) to 1-based line numbers."""
    index: dict[tuple[str, str | None], int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            index[(section, None)] = lineno
        elif "=" in line and section is not None:
            key = line.split("=", 1)[0].strip().lower()
            index.setdefault((section, key), lineno)
    return index


class _Loader:
    def __init__(self, path):
        self.path = Path(path)
        try:
            self.text = self.path.read_text()
        except OSError as err:
            raise ConfigError(path, None, f"cannot read config: {err}") from err
        self.lines = _line_index(self.text)
        self.parser = configparser.ConfigParser(interpolation=None)
        try:
            self.parser.read_string(self.text)
        except configparser.Error as err:
            lineno = getattr(err, "lineno", None)
            raise ConfigError(path, lineno, f"malformed config: {err.message}") from err

    def fail(self, section: str, key: str | None, message: str):
        line = self.lines.get((section, key)) or self.lines.get((section, None))
        raise ConfigError(self.path, line, f"[{section}] {key or ''}: {message}".replace("  ", " "))

    def get(self, section: str, key: str, default: str | None = None) -> str:
        if not self.parser.has_section(section):
            raise ConfigError(self.path, None, f"missing required section [{section}]")
        if not self.parser.has_option(section, key):
            if default is not None:
                return default
            self.fail(section, key, "missing required key")
        return self.parser.get(section, key).strip()

    def get_typed(self, section, key, convert, kind, default=None):
        raw = self.get(section, key, default)
        try:
            return convert(raw)
        except (ValueError, InvalidOperation):
            self.fail(section, key, f"expected {kind}, got {raw!r}")


def _parse_channel(loader: _Loader, section: str, key: str, value: str) -> ChannelModel:
    tokens = value.split()
    if not tokens:
        loader.fail(section, key, "empty channel spec")
    kind, *args = tokens
    kwargs: dict[str, float] = {}
    for arg in args:
        name, sep, num = arg.partition("=")
        if not sep:
            loader.fail(section, key, f"channel parameter {arg!r} is not name=value")
        try:
            kwargs[name] = float(num)
        except ValueError:
            loader.fail(section, key, f"channel parameter {arg!r} is not numeric")
    try:
        if kind == "deterministic":
            if "value" not in kwargs:
                loader.fail(section, key, "deterministic channel needs value=")
            return DeterministicGain(kwargs.pop("value"), kwargs.pop("cap", None))
        if kind == "rayleigh":
            if "mean" not in kwargs:
                loader.fail(section, key, "rayleigh channel needs mean=")
            return RayleighGain(kwargs.pop("mean"), kwargs.pop("cap", None))
    except ConfigError:
        raise
    except ValueError as err:
        loader.fail(section, key, str(err))
    loader.fail(section, key, f"unknown channel kind {kind!r} (expected deterministic or rayleigh)")


def _parse_arrivals(loader: _Loader, section: str, value: str, rate: float) -> ArrivalProcess:
    tokens = value.split()
    kind = tokens[0] if tokens else ""
    try:
        if kind == "bernoulli":
            if len(tokens) > 1:
                loader.fail(section, "arrivals", "bernoulli takes no parameters")
            return Bernoulli(rate)
        if kind == "poisson":
            params = dict(t.partition("=")[::2] for t in tokens[1:])
            if set(params) != {"cap"}:
                loader.fail(section, "arrivals", "poisson needs exactly cap=K")
            return TruncatedPoisson(rate, int(params["cap"]))
    except ConfigError:
        raise
    except ValueError as err:
        loader.fail(section, "arrivals", str(err))
    loader.fail(section, "arrivals", f"unknown arrival process {kind!r} (expected bernoulli or poisson)")


def parse_scheduler(name: str) -> SchedulerKind:
    """Scheduler name as used in configs and on the command line."""
    canon = name.strip().lower().replace("_", "-")
    if canon not in SCHEDULER_NAMES:
        raise ValueError(
            f"unknown scheduler name {name.strip()!r}; expected one of {', '.join(SCHEDULER_NAMES)}"
        )
    return SchedulerKind(canon)


def lambda_grid(lo: str | Decimal, hi: str | Decimal, step: str | Decimal) -> tuple[float, ...]:
    """Inclusive arithmetic grid computed in decimal for clean float values."""
    lo, hi, step = Decimal(str(lo)), Decimal(str(hi)), Decimal(str(step))
    if step <= 0:
        raise ValueError("lambda step must be positive")
    if lo < 0:
        raise ValueError("lambda grid must be nonnegative")
    if hi < lo:
        raise ValueError("lambda grid is empty: max below min")
    grid = []
    v = lo
    while v <= hi:
        grid.append(float(v))
        v += step
    return tuple(grid)


def config_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_spec(path) -> ExperimentSpec:
    """Parse and fully validate an experiment config file."""
    loader = _Loader(path)
    n_sus = loader.get_typed("system", "n_sus", int, "an integer")
    if n_sus < 1:
        loader.fail("system", "n_sus", "need at least one user")
    i_avg = loader.get_typed("system", "i_avg", float, "a number")
    if i_avg <= 0:
        loader.fail("system", "i_avg", "interference budget must be positive")
    epsilon = loader.get_typed("system", "epsilon", float, "a number", default="0.01")
    if epsilon <= 0:
        loader.fail("system", "epsilon", "epsilon must be positive")
    max_slots = loader.get_typed("system", "max_slots", int, "an integer", default="1000000")
    check_interval = loader.get_typed("system", "check_interval", int, "an integer", default="10000")
    if check_interval < 1:
        loader.fail("system", "check_interval", "check interval must be positive")
    if max_slots < check_interval:
        loader.fail("system", "max_slots", "max_slots must be at least check_interval")
    phi_mode = loader.get("system", "phi_mode", default=PHI_ACTUAL).lower()
    if phi_mode not in (PHI_ACTUAL, PHI_LITERAL):
        loader.fail("system", "phi_mode", f"expected actual or literal, got {phi_mode!r}")
    buffer_cap = loader.get_typed("system", "buffer_cap", int, "an integer", default="10000000")
    if buffer_cap < 1:
        loader.fail("system", "buffer_cap", "buffer cap must be positive")

    sus = []
    for k in range(1, n_sus + 1):
        section = f"su{k}"
        if not loader.parser.has_section(section):
            raise ConfigError(loader.path, None, f"missing required section [{section}] (n_sus = {n_sus})")
        d = loader.get_typed(section, "d", float, "a number")
        if d <= 0:
            loader.fail(section, "d", "delay bound must be positive")
        rate = loader.get_typed(section, "lambda", float, "a number", default="0.0")
        arrivals = _parse_arrivals(loader, section, loader.get(section, "arrivals", default="bernoulli"), rate)
        direct = _parse_channel(loader, section, "direct", loader.get(section, "direct"))
        interference = _parse_channel(loader, section, "interference", loader.get(section, "interference"))
        sus.append(SuConfig(arrivals=arrivals, delay_bound=d, direct=direct, interference=interference))
    extra = [
        s for s in loader.parser.sections()
        if s.startswith("su") and s[2:].isdigit() and int(s[2:]) > n_sus
    ]
    if extra:
        loader.fail(extra[0], None, f"user section beyond n_sus = {n_sus}")

    try:
        grid = lambda_grid(
            loader.get("sweep", "lambda_min"),
            loader.get("sweep", "lambda_max"),
            loader.get("sweep", "lambda_step"),
        )
    except ConfigError:
        raise
    except ValueError as err:
        loader.fail("sweep", "lambda_min", str(err))
    a_max = min(su.arrivals.a_max for su in sus)
    if grid[-1] > a_max:
        loader.fail("sweep", "lambda_max", f"grid exceeds the smallest arrival cap {a_max}")

    schedulers = []
    for name in loader.get("sweep", "schedulers").split(","):
        try:
            kind = parse_scheduler(name)
        except ValueError as err:
            loader.fail("sweep", "schedulers", str(err))
        schedulers.append(replace(kind, phi_mode=phi_mode))
    if not schedulers:
        loader.fail("sweep", "schedulers", "need at least one scheduler")

    seeds = []
    for token in loader.get("sweep", "seeds").split(","):
        token = token.strip()
        if token:
            try:
                seeds.append(int(token))
            except ValueError:
                loader.fail("sweep", "seeds", f"seed {token!r} is not an integer")
    if not seeds:
        loader.fail("sweep", "seeds", "need at least one seed")
    if len(set(seeds)) != len(seeds):
        loader.fail("sweep", "seeds", "seeds must be distinct")

    output_dir = loader.get("sweep", "output_dir", default="") or None

    base = SimConfig(
        sus=tuple(sus),
        i_avg=i_avg,
        scheduler=schedulers[0],
        epsilon=epsilon,
        max_slots=max_slots,
        check_interval=check_interval,
        seed=seeds[0],
        buffer_cap=buffer_cap,
    )
    return ExperimentSpec(
        base=base,
        lambda_grid=grid,
        schedulers=tuple(schedulers),
        seeds=tuple(seeds),
        output_dir=output_dir,
        source_path=str(loader.path),
        source_sha256=config_sha256(loader.path),
    )
