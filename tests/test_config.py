import math
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crsched.channels import DeterministicGain, RayleighGain
from crsched import cli
from crsched.cli import OVERRIDES as CLI_OVERRIDES
from crsched.config import ConfigError, _grid_last, lambda_grid, load_spec, parse_scheduler
from crsched.engine import PHI_LITERAL, SchedulerKind, SimConfig, SuConfig
from crsched.queueing import Bernoulli, TruncatedPoisson
from crsched.sweep import file_sha256

from conftest import set_key, shipped_config, two_user_sus


BASE = """\
[system]
n_sus = 2
i_avg = 2.0
epsilon = 0.01
max_slots = 100000
check_interval = 1000

[su1]
d = 1.5
arrivals = bernoulli
direct = deterministic value=1.0
interference = rayleigh mean=0.4

[su2]
d = 5.0
arrivals = bernoulli
direct = deterministic value=1.0
interference = rayleigh mean=0.2

[sweep]
lambda_min = 0.1
lambda_max = 0.3
lambda_step = 0.1
schedulers = proposed
seeds = 1
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def patched(key, value):
    """BASE with one `key = old` line replaced by `key = value`."""
    lines = []
    for line in BASE.splitlines():
        if line.split("=")[0].strip() == key:
            line = f"{key} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestShippedConfigs:
    def test_baseline_round_trips(self):
        spec = load_spec(shipped_config("table1.cfg"))
        base = spec.base
        assert len(base.sus) == 2
        assert base.i_avg == 2.0
        assert base.epsilon == 0.01
        assert base.max_slots == 1_000_000
        assert base.check_interval == 10_000
        su1, su2 = base.sus
        assert su1.delay_bound == 1.5
        assert su2.delay_bound == 5.0
        assert su1.direct == DeterministicGain(1.0)
        assert su2.direct == DeterministicGain(1.0)
        assert su1.interference == RayleighGain(0.4)
        assert su2.interference == RayleighGain(0.2)
        assert isinstance(su1.arrivals, Bernoulli)
        assert spec.lambda_grid == lambda_grid("0.02", "0.4", "0.02")
        assert len(spec.lambda_grid) == 20
        assert spec.schedulers == (SchedulerKind("proposed"), SchedulerKind("maxweight"))
        assert spec.seeds == (1,)
        assert spec.source_sha256 == file_sha256(shipped_config("table1.cfg"))

    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path):
        # Some editors start a UTF-8 file with a byte order mark; the digest
        # stays that of the bytes as read.
        plain = shipped_config("table1.cfg")
        marked = tmp_path / "table1.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        spec = load_spec(marked)
        assert without_source(spec) == without_source(load_spec(plain))
        assert spec.source_sha256 == file_sha256(marked) != file_sha256(plain)

    def test_binding_budget_variant(self):
        spec = load_spec(shipped_config("binding.cfg"))
        assert spec.base.i_avg == 0.1
        assert [k.kind for k in spec.schedulers] == [
            "proposed", "proposed-nonidling", "maxweight",
        ]


class TestLambdaGrid:
    def test_decimal_grid_yields_clean_floats(self):
        grid = lambda_grid("0.02", "0.4", "0.02")
        assert len(grid) == 20
        assert grid[2] == 0.06
        assert grid[-1] == 0.4
        assert grid == tuple(float(Decimal("0.02") * i) for i in range(1, 21))

    def test_inclusive_endpoint(self):
        assert lambda_grid("0.1", "0.3", "0.1") == (0.1, 0.2, 0.3)

    def test_single_point(self):
        assert lambda_grid("0.4", "0.4", "0.02") == (0.4,)
        # 0.1 + 1e-300 is 0.1 in 28-digit decimal: a grid summed up there never passes 0.1.
        assert lambda_grid("0.1", "0.1", "1e-300") == (0.1,)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="step must be positive"):
            lambda_grid("0.1", "0.3", "0")
        with pytest.raises(ValueError, match="empty"):
            lambda_grid("0.3", "0.1", "0.1")
        with pytest.raises(ValueError, match="nonnegative"):
            lambda_grid("-0.1", "0.3", "0.1")
        # Points that round to one float: two 1e-19 apart, and 10^29 + 1 of them.
        for hi, step in (("0.1000000000000000001", "1e-19"), ("0.2", "1e-30")):
            with pytest.raises(ValueError, match="so that its points are distinct floats"):
                lambda_grid("0.1", hi, step)


class TestParseScheduler:
    def test_accepts_underscores_and_case(self):
        assert parse_scheduler("Proposed_NonIdling") == SchedulerKind("proposed-nonidling")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler name"):
            parse_scheduler("edf")


class TestLoadSpecValidation:
    def test_base_fixture_parses(self, tmp_path):
        spec = load_spec(write_cfg(tmp_path, BASE))
        assert spec.lambda_grid == (0.1, 0.2, 0.3)
        assert spec.base.seed == 1
        assert spec.output_dir is None
        assert spec.base.scheduler == SchedulerKind("proposed")

    def test_phi_mode_applies_to_all_schedulers(self, tmp_path):
        text = BASE.replace(
            "check_interval = 1000", "check_interval = 1000\nphi_mode = literal"
        ).replace("schedulers = proposed", "schedulers = proposed, proposed-nonidling")
        spec = load_spec(write_cfg(tmp_path, text))
        assert all(k.phi_mode == PHI_LITERAL for k in spec.schedulers)

    def test_negative_delay_bound(self, tmp_path):
        path = write_cfg(tmp_path, patched("d", "-1"))
        with pytest.raises(ConfigError, match="delay bound must be positive") as exc:
            load_spec(path)
        assert exc.value.line == 9
        assert str(path) in str(exc.value)

    def test_missing_required_key(self, tmp_path):
        text = "\n".join(
            line for line in BASE.splitlines() if not line.startswith("lambda_min")
        )
        with pytest.raises(ConfigError, match="missing required key"):
            load_spec(write_cfg(tmp_path, text))

    def test_missing_user_section(self, tmp_path):
        text = BASE.replace("[su2]", "[su2_disabled]")
        with pytest.raises(ConfigError, match=r"missing required section \[su2\]"):
            load_spec(write_cfg(tmp_path, text))

    def test_extra_user_section_rejected(self, tmp_path):
        text = BASE + "\n[su3]\nd = 1.0\n"
        with pytest.raises(ConfigError, match="beyond n_sus = 2"):
            load_spec(write_cfg(tmp_path, text))

    def test_unknown_scheduler_name(self, tmp_path):
        path = write_cfg(tmp_path, patched("schedulers", "proposed, edf"))
        with pytest.raises(ConfigError, match="unknown scheduler name 'edf'") as exc:
            load_spec(path)
        assert exc.value.line == 24

    def test_unknown_channel_kind(self, tmp_path):
        path = write_cfg(tmp_path, patched("direct", "nakagami m=2"))
        with pytest.raises(ConfigError, match="unknown channel kind 'nakagami'"):
            load_spec(path)

    def test_channel_parameter_not_name_value(self, tmp_path):
        path = write_cfg(tmp_path, patched("direct", "deterministic 1.0"))
        with pytest.raises(ConfigError, match="is not name=value"):
            load_spec(path)

    def test_channel_missing_parameter(self, tmp_path):
        path = write_cfg(tmp_path, patched("interference", "rayleigh cap=2.0"))
        with pytest.raises(ConfigError, match="rayleigh channel needs mean="):
            load_spec(path)

    @pytest.mark.parametrize("key, value, name, line", [
        ("direct", "deterministic value=1.0 value=3.0", "value", 11),
        ("interference", "rayleigh mean=1 cap=3 cap=5", "cap", 12),
    ])
    def test_repeated_channel_parameter_rejected_at_its_line(self, tmp_path, key, value, name, line):
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, patched(key, value)))
        assert exc.value.line == line
        assert exc.value.message == f"[su1] {key}: repeated channel parameter {name!r}"

    @pytest.mark.parametrize("key, value, line, message", [
        ("direct", "", 11, "empty channel spec"),
        ("arrivals", "bernoulli cap=1", 10, "bernoulli takes no parameters"),
        ("arrivals", "poisson", 10, "poisson needs exactly cap=K"),
        ("arrivals", "poisson 3", 10, "poisson needs exactly cap=K"),
        ("arrivals", "uniform", 10, "unknown arrival process 'uniform' (expected bernoulli or poisson)"),
    ])
    def test_malformed_spec_rejected_at_its_line(self, tmp_path, key, value, line, message):
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, patched(key, value)))
        assert exc.value.line == line
        assert exc.value.message == f"[su1] {key}: {message}"

    def test_nonpositive_rayleigh_mean_carries_line(self, tmp_path):
        path = write_cfg(tmp_path, patched("interference", "rayleigh mean=0"))
        with pytest.raises(ConfigError, match="rayleigh mean must be positive") as exc:
            load_spec(path)
        assert exc.value.line == 12

    def test_empty_grid(self, tmp_path):
        path = write_cfg(tmp_path, patched("lambda_max", "0.05"))
        with pytest.raises(ConfigError, match="empty"):
            load_spec(path)

    def test_nonpositive_step(self, tmp_path):
        path = write_cfg(tmp_path, patched("lambda_step", "0"))
        with pytest.raises(ConfigError, match="step must be positive"):
            load_spec(path)

    def test_grid_above_arrival_cap(self, tmp_path):
        path = write_cfg(tmp_path, patched("lambda_max", "1.2"))
        with pytest.raises(ConfigError, match="exceeds the smallest arrival cap 1"):
            load_spec(path)

    def test_grid_above_arrival_cap_is_found_before_building_it(self, tmp_path, monkeypatch):
        # A 2-million-point grid is refused from its last point alone.
        def no_grid(*args):
            raise AssertionError("lambda_grid called")

        monkeypatch.setattr("crsched.config.lambda_grid", no_grid)
        text = patched("lambda_max", "2000").replace("lambda_step = 0.1", "lambda_step = 0.001")
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, text))
        assert exc.value.line == 22
        assert exc.value.message == "[sweep] lambda_max: grid exceeds the smallest arrival cap 1"

    def test_grid_of_too_many_points_is_refused_before_building_it(self, tmp_path, monkeypatch, capsys):
        # 10^15 + 1 distinct floats, all within the Bernoulli cap: refused by
        # their count, in the file and as flags, with one message.
        def no_grid(*args):
            raise AssertionError("lambda_grid called")

        monkeypatch.setattr("crsched.config.lambda_grid", no_grid)
        text = set_key(set_key(set_key(BASE, "sweep", "lambda_min", "0"), "sweep", "lambda_max", "1"),
                       "sweep", "lambda_step", "1e-15")
        message = f"[sweep] lambda_step: lambda grid has {10**15 + 1} points, more than the 1000000 allowed"
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, text))
        assert exc.value.line == 23
        assert exc.value.message == message
        code = cli.main(["run", "--config", str(write_cfg(tmp_path, BASE)), "--out", str(tmp_path / "o"),
                         "--lambda-min", "0", "--lambda-max", "1", "--lambda-step", "1e-15"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --lambda-step: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lo, hi, step", [
        ("0.1", "0.3", "0.1"), ("0.02", "0.4", "0.02"), ("0.05", "0.35", "0.1"),
        ("0", "0.99", "0.05"), ("0.4", "0.4", "0.02"), ("0.3", "1.0", "0.7"),
    ])
    def test_grid_ends_at_its_computed_last_point(self, lo, hi, step):
        last = _grid_last(Decimal(lo), hi, Decimal(step))
        assert lambda_grid(lo, hi, step)[-1] == float(last)
        assert lambda_grid(lo, last, step) == lambda_grid(lo, hi, step)

    def test_poisson_arrivals_raise_the_cap(self, tmp_path):
        text = patched("lambda_max", "1.2").replace(
            "arrivals = bernoulli", "arrivals = poisson cap=3"
        )
        spec = load_spec(write_cfg(tmp_path, text))
        assert all(isinstance(su.arrivals, TruncatedPoisson) for su in spec.base.sus)
        assert spec.lambda_grid[-1] == pytest.approx(1.2)

    def test_poisson_pmf_that_overflows_a_float_rejected_at_arrivals(self, tmp_path):
        # 171! does not fit a float, so no rate makes the pmf up to cap 200.
        path = write_cfg(tmp_path, patched("arrivals", "poisson cap=200"))
        with pytest.raises(ConfigError) as exc:
            load_spec(path)
        assert exc.value.line == 10
        assert exc.value.message == (
            "[su1] arrivals: poisson cap 200 is too large at rate 0.0: its pmf overflows a float")

    def test_poisson_pmf_that_overflows_at_the_top_rate_rejected_at_lambda_max(self, tmp_path):
        # Cap 160 is fine at rate 0 but not at 150, where 150.0**160 overflows.
        text = patched("lambda_max", "150").replace("arrivals = bernoulli", "arrivals = poisson cap=160")
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, text))
        assert exc.value.line == 22
        assert exc.value.message == (
            "[sweep] lambda_max: poisson cap 160 is too large at rate 150.0: its pmf overflows a float")

    def test_duplicate_seeds(self, tmp_path):
        path = write_cfg(tmp_path, patched("seeds", "1, 2, 1"))
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            load_spec(path)

    @pytest.mark.parametrize("names", [
        "proposed, proposed", "maxweight, Proposed_NonIdling, proposed-nonidling",
    ])
    def test_duplicate_schedulers(self, tmp_path, names):
        path = write_cfg(tmp_path, patched("schedulers", names))
        with pytest.raises(ConfigError) as exc:
            load_spec(path)
        assert exc.value.line == 24
        assert exc.value.message == "[sweep] schedulers: schedulers must be distinct"

    def test_negative_seed(self, tmp_path):
        path = write_cfg(tmp_path, patched("seeds", "1, -1"))
        with pytest.raises(ConfigError) as exc:
            load_spec(path)
        assert exc.value.line == 25
        assert exc.value.message == "[sweep] seeds: seeds must be nonnegative"

    @pytest.mark.parametrize("seeds, message", [
        ("1,,2,", "expected an integer, got ''"),
        ("1,", "expected an integer, got ''"),
        (", 1", "expected an integer, got ''"),
        ("", "need at least one seed"),
    ])
    def test_empty_seeds(self, tmp_path, seeds, message):
        # An empty item is refused, as in the scheduler list, not skipped.
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, patched("seeds", seeds)))
        assert exc.value.line == 25
        assert exc.value.message == f"[sweep] seeds: {message}"

    def test_omitted_run_settings_take_simconfig_defaults(self, tmp_path):
        text = "".join(
            line for line in BASE.splitlines(keepends=True)
            if line.split("=")[0].strip() not in ("epsilon", "max_slots", "check_interval")
        )
        assert "buffer_cap" not in text
        base = load_spec(write_cfg(tmp_path, text)).base
        assert base == SimConfig(sus=base.sus, i_avg=base.i_avg, scheduler=base.scheduler,
                                 seed=base.seed)
        assert all(su.arrivals.rate == 0.0 for su in base.sus)

    def test_nonpositive_epsilon(self, tmp_path):
        path = write_cfg(tmp_path, patched("epsilon", "-0.5"))
        with pytest.raises(ConfigError, match="epsilon must be nonnegative"):
            load_spec(path)

    def test_cap_below_check_interval(self, tmp_path):
        path = write_cfg(tmp_path, patched("max_slots", "10"))
        with pytest.raises(ConfigError, match="max_slots must be at least check_interval"):
            load_spec(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_cfg(tmp_path, patched("i_avg", "plenty"))
        with pytest.raises(ConfigError, match="expected a number, got 'plenty'") as exc:
            load_spec(path)
        assert exc.value.line == 3

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("i_avg = 2.0", "i_avg"))
        with pytest.raises(ConfigError, match="malformed config"):
            load_spec(path)

    @pytest.mark.parametrize("text, line, problem", [
        pytest.param("n_sus = 2\n" + BASE, 1, "line before the first [section]",
                     id="before-section"),
        pytest.param(BASE.replace("i_avg = 2.0", "i_avg"), 3,
                     "expected key = value, got 'i_avg'", id="no-delimiter"),
        pytest.param(BASE.replace("d = 1.5", "d = 1.5\n  2.5"), 10,
                     "indented line; a value takes one line", id="continuation"),
        pytest.param(BASE + "\n[su1]\nd = 2.0\n", 27,
                     "repeated section [su1], first at line 8", id="repeated-section"),
        pytest.param(BASE.replace("d = 1.5", "d = 1.5\nD: 2.5"), 10,
                     "repeated [su1] d, first at line 9", id="repeated-key"),
    ])
    def test_malformed_line_named(self, tmp_path, text, line, problem):
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, text))
        assert exc.value.line == line
        assert exc.value.message == f"malformed config: {problem}"

    def test_colon_separated_key_carries_its_own_line(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("i_avg = 2.0", "i_avg: plenty"))
        with pytest.raises(ConfigError, match="expected a number, got 'plenty'") as exc:
            load_spec(path)
        assert exc.value.line == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_spec(tmp_path / "absent.cfg")

    def test_integer_of_any_size_is_an_integer(self, tmp_path):
        # Ints are never infinite; how large one may be is the taker's rule,
        # and SimConfig puts no cap on max_slots.
        huge = 10**400
        spec = load_spec(write_cfg(tmp_path, patched("max_slots", str(huge))))
        assert spec.base.max_slots == huge
        by_override = load_spec(write_cfg(tmp_path, BASE, name="base.cfg"),
                                {("system", "max_slots"): str(huge)})
        assert by_override.base.max_slots == huge

    def test_huge_negative_integer_meets_the_range_rule(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, patched("max_slots", f"-{10**400}")))
        assert exc.value.line == 5
        assert exc.value.message == "[system] max_slots: max_slots must be at least check_interval"


# One value for every key the command line can override.
OVERRIDES = {
    ("sweep", "schedulers"): "maxweight, proposed-nonidling",
    ("sweep", "lambda_min"): "0.05",
    ("sweep", "lambda_max"): "0.25",
    ("sweep", "lambda_step"): "0.05",
    ("sweep", "seeds"): "4, 2",
    ("system", "max_slots"): "3000",
    ("system", "epsilon"): "0",
    ("system", "phi_mode"): "literal",
}


def without_source(spec):
    return spec._replace(source_sha256="")


class TestOverrides:
    def test_overrides_equal_an_edited_file(self, tmp_path):
        edited = BASE
        for (section, key), value in OVERRIDES.items():
            edited = set_key(edited, section, key, value)
        by_override = load_spec(write_cfg(tmp_path, BASE), OVERRIDES)
        by_file = load_spec(write_cfg(tmp_path, edited, name="edited.cfg"))
        assert without_source(by_override) == without_source(by_file)
        assert by_override.lambda_grid == (0.05, 0.1, 0.15, 0.2, 0.25)
        assert by_override.seeds == (4, 2)
        assert all(k.phi_mode == PHI_LITERAL for k in by_override.schedulers)
        assert by_override.source_sha256 == file_sha256(tmp_path / "exp.cfg")

    def test_override_error_names_the_override_not_a_line(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        with pytest.raises(ConfigError) as exc:
            load_spec(path, {("system", "max_slots"): "10"})
        assert exc.value.override == ("system", "max_slots")
        assert exc.value.line is None
        assert str(exc.value) == (
            "override: [system] max_slots: max_slots must be at least check_interval"
        )

    def test_file_error_has_no_override(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, patched("seeds", "1, x")))
        assert exc.value.override is None
        assert exc.value.line == 25
        assert exc.value.message == "[sweep] seeds: expected an integer, got 'x'"

    def test_override_of_an_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[system\] epslion: unknown key") as exc:
            load_spec(write_cfg(tmp_path, BASE), {("system", "epslion"): "0.5"})
        assert exc.value.override == ("system", "epslion")


class TestUnknownNamesRejected:
    def test_misspelled_key(self, tmp_path):
        text = BASE.replace("epsilon = 0.01", "epslion = 0.5")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[system\] epslion: unknown key") as exc:
            load_spec(path)
        assert exc.value.line == 4
        assert str(exc.value).startswith(f"{path}:4: ")

    def test_user_lambda_key_rejected(self, tmp_path):
        # The sweep grid sets every user's rate; a per-user rate is unknown.
        path = write_cfg(tmp_path, BASE.replace("d = 1.5", "d = 1.5\nlambda = 7"))
        with pytest.raises(ConfigError) as exc:
            load_spec(path)
        assert exc.value.line == 10
        assert exc.value.message == "[su1] lambda: unknown key"

    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "\n[bogus]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[bogus\]: unknown section") as exc:
            load_spec(path)
        assert exc.value.line == 27

    def test_default_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[DEFAULT]\nepsilon = 0.5\n\n" + BASE)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]: unknown section") as exc:
            load_spec(path)
        assert exc.value.line == 1

    def test_unknown_channel_parameter(self, tmp_path):
        path = write_cfg(tmp_path, patched("interference", "rayleigh mean=0.4 man=2"))
        with pytest.raises(ConfigError, match="unknown rayleigh channel parameter 'man'") as exc:
            load_spec(path)
        assert exc.value.line == 12

    @pytest.mark.parametrize("key, value", [
        ("lambda_max", "inf"), ("lambda_step", "NaN"), ("i_avg", "inf"), ("epsilon", "nan"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, key, value):
        path = write_cfg(tmp_path, patched(key, value))
        with pytest.raises(ConfigError, match=f"{key}: expected a number, got '{value}'"):
            load_spec(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("build, message", [
        (lambda v: SimConfig(sus=two_user_sus(0.1), i_avg=v, scheduler=SchedulerKind("proposed")),
         "interference budget must be positive"),
        (lambda v: SimConfig(sus=two_user_sus(0.1), i_avg=1.0, scheduler=SchedulerKind("proposed"),
                             epsilon=v),
         "epsilon must be nonnegative"),
        (lambda v: replace(two_user_sus(0.1)[0], delay_bound=v), "delay bound must be positive"),
        (RayleighGain, "rayleigh mean must be positive"),
        (lambda v: RayleighGain(1.0, v), "rayleigh cap must be positive"),
        (DeterministicGain, "deterministic gain"),
        (lambda v: DeterministicGain(1.0, v), "deterministic gain"),
    ], ids=["i_avg", "epsilon", "delay_bound", "rayleigh-mean", "rayleigh-cap",
            "deterministic-value", "deterministic-cap"])
    def test_non_finite_numbers_rejected_by_constructors(self, build, message, value):
        # The library refuses what the file refuses, at construction: a NaN
        # epsilon would otherwise never stop a run, and an infinite gain
        # would fail only once the run draws it.
        with pytest.raises(ValueError, match=message):
            build(value)


def base_config(**kw) -> SimConfig:
    """SimConfig with BASE's [system] settings, kw replacing some."""
    settings = dict(sus=two_user_sus(0.1), i_avg=2.0, scheduler=SchedulerKind("proposed"),
                    max_slots=100_000, check_interval=1000)
    return SimConfig(**{**settings, **kw})


@pytest.mark.parametrize("section, key, bad, build", [
    ("system", "i_avg", "-1", lambda: base_config(i_avg=-1.0)),
    ("system", "epsilon", "-0.5", lambda: base_config(epsilon=-0.5)),
    ("system", "check_interval", "0", lambda: base_config(check_interval=0)),
    ("system", "max_slots", "10", lambda: base_config(max_slots=10)),
    ("system", "buffer_cap", "0", lambda: base_config(buffer_cap=0)),
    ("system", "phi_mode", "rounded", lambda: SchedulerKind("proposed", "rounded")),
    ("su1", "d", "-1",
     lambda: SuConfig(Bernoulli(0.0), -1.0, DeterministicGain(1.0), RayleighGain(0.4))),
    ("sweep", "seeds", "1, -1", lambda: base_config(seed=-1)),
    ("sweep", "schedulers", "proposed, edf", lambda: SchedulerKind("edf")),
    # The file counts the users itself, under SimConfig's message.
    ("system", "n_sus", "0", lambda: base_config(sus=())),
], ids=["i_avg", "epsilon", "check_interval", "max_slots", "buffer_cap", "phi_mode", "d", "seeds",
        "schedulers", "n_sus"])
def test_range_rule_reported_from_its_constructor(tmp_path, section, key, bad, build):
    """Each range rule lives in its constructor; the file and the command
    line report the constructor's own message at the key."""
    with pytest.raises(ValueError) as refused:
        build()
    message = f"[{section}] {key}: {refused.value}"
    text = set_key(BASE, section, key, bad)
    with pytest.raises(ConfigError) as exc:
        load_spec(write_cfg(tmp_path, text))
    assert exc.value.message == message
    assert exc.value.line == text.splitlines().index(f"{key} = {bad}") + 1
    if (section, key) in CLI_OVERRIDES:
        with pytest.raises(ConfigError) as exc:
            load_spec(write_cfg(tmp_path, BASE, name="base.cfg"), {(section, key): bad})
        assert exc.value.override == (section, key)
        assert exc.value.message == message


class TestEpsilonRule:
    """epsilon = 0 (run every config to max_slots) is valid everywhere;
    a negative epsilon is refused everywhere."""

    def test_zero_accepted_in_the_file(self, tmp_path):
        assert load_spec(write_cfg(tmp_path, patched("epsilon", "0"))).base.epsilon == 0.0

    def test_zero_accepted_as_override(self, tmp_path):
        spec = load_spec(write_cfg(tmp_path, BASE), {("system", "epsilon"): "0"})
        assert spec.base.epsilon == 0.0

    def test_zero_accepted_by_simconfig(self):
        cfg = SimConfig(sus=two_user_sus(0.1), i_avg=1.0, scheduler=SchedulerKind("proposed"),
                        epsilon=0.0)
        assert cfg.epsilon == 0.0

    def test_negative_rejected_as_override(self, tmp_path):
        with pytest.raises(ConfigError, match="epsilon must be nonnegative"):
            load_spec(write_cfg(tmp_path, BASE), {("system", "epsilon"): "-0.5"})

    def test_negative_rejected_by_simconfig(self):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            SimConfig(sus=two_user_sus(0.1), i_avg=1.0, scheduler=SchedulerKind("proposed"),
                      epsilon=-0.5)


# Generated config values: numbers of every spelling, huge integers,
# non-finite values, channel and arrival specs, comma lists with empty items,
# a leading byte order mark or NUL, and short text with no line break in it.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["0", "0.1", "0.25", "1.5", "-0.5", ".5", "1e1", "1_0", "0x10", "1e-2", "2.0", "-0"]),
    st.sampled_from([10**30, -10**40, 2**63, 10**400]).map(str),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "-1e999"]),
)
NAMES = st.sampled_from(["proposed", "proposed-nonidling", "maxweight", "PROPOSED_nonidling", "edf",
                         "actual", "literal", "bernoulli", "poisson", "deterministic", "rayleigh"])
SPECS = st.builds(
    lambda kind, params: " ".join([kind, *params]),
    st.sampled_from(["deterministic", "rayleigh", "poisson", "bernoulli", "nakagami", ""]),
    st.lists(NUMBERS | st.builds("{}={}".format, st.sampled_from(["value", "mean", "cap", "m", ""]), NUMBERS),
             max_size=3))
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS), max_size=8)
ITEMS = st.one_of(NUMBERS, NAMES, SPECS, TEXT)
VALUES = st.one_of(
    ITEMS,
    st.builds(lambda items, sep: sep.join(items), st.lists(ITEMS | st.just(""), min_size=1, max_size=4),
              st.sampled_from([",", ", "])),
    st.builds("{}{}".format, st.sampled_from(["\ufeff", "\x00"]), ITEMS),
)
# Where a generated value goes: mostly a key the file reads, in its section;
# at times a known or junk key in a known or junk section.
READ_KEYS = [
    *(("system", key) for key in ("n_sus", "i_avg", "epsilon", "max_slots", "check_interval", "phi_mode",
                                  "buffer_cap")),
    *((f"su{k}", key) for k in (1, 2) for key in ("d", "arrivals", "direct", "interference")),
    *(("sweep", key) for key in ("lambda_min", "lambda_max", "lambda_step", "schedulers", "seeds", "output_dir")),
]
PLACES = st.integers(0, 3).flatmap(lambda r: st.sampled_from(READ_KEYS) if r else st.tuples(
    st.sampled_from(["system", "su1", "su3", "sweep", "SU1", ""]) | st.text("abxy_1 ]", max_size=4),
    st.sampled_from(["n_sus", "d", "lambda_max", "seeds"]) | st.text("abxy_1", min_size=1, max_size=4)))


@st.composite
def config_bytes(draw) -> bytes:
    """BASE with a few values set, mostly at keys the file reads; at times
    a junk line put in; its lines ended by LF, CRLF or CR, after an optional
    byte order mark; and at times a byte that is not UTF-8 put in."""
    text = BASE
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(PLACES)
        if f"[{section}]" not in text.splitlines():
            text += f"[{section}]\n"
        text = set_key(text, section, key, draw(VALUES))
    lines = text.splitlines()
    if draw(st.integers(0, 4)) == 2:
        lines.insert(draw(st.integers(0, len(lines))), draw(TEXT))
    data = (draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)).encode()
    if draw(st.integers(0, 9)) == 5:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@settings(max_examples=80, deadline=None)
@given(data=config_bytes())
def test_any_config_text_loads_or_fails_naming_the_file_and_line(tmp_path_factory, data):
    """load_spec returns a spec or raises ConfigError, and no other type; the
    error names the file, and the line where it has one."""
    path = tmp_path_factory.getbasetemp() / "generated.cfg"
    path.write_bytes(data)
    try:
        load_spec(path)
    except ConfigError as err:
        assert err.override is None
        if err.line is None:
            assert str(err).startswith(f"{path}: ")
        else:
            assert str(err).startswith(f"{path}:{err.line}: ")
            assert 1 <= err.line <= len(data.decode("utf-8-sig").splitlines())


BASE_GRID = {("sweep", "lambda_min"): "0.1", ("sweep", "lambda_max"): "0.3", ("sweep", "lambda_step"): "0.1"}


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(CLI_OVERRIDES)), value=VALUES)
def test_any_flag_value_behaves_as_the_same_value_in_the_file(tmp_path_factory, key, value):
    """A value the file refuses is refused at its flag with the same message;
    a value the file accepts gives the same spec. The three grid flags go
    together, so the other two are given BASE's values."""
    folder = tmp_path_factory.getbasetemp()
    base, edited = write_cfg(folder, BASE, name="flag-base.cfg"), write_cfg(folder, set_key(BASE, *key, value))
    given_keys = {**BASE_GRID, key: value} if key in BASE_GRID else {key: value}
    args = cli._build_parser().parse_args(
        ["run", "--config", str(base)] + [f"{CLI_OVERRIDES[k]}={v}" for k, v in given_keys.items()])
    try:
        by_file = load_spec(edited)
    except ConfigError as err:
        flag = next(CLI_OVERRIDES[k] for k in given_keys if err.message.startswith("[{}] {}: ".format(*k)))
        with pytest.raises(ValueError) as exc:
            cli._load_spec(args)
        assert str(exc.value) == f"{flag}: {err.message}"
    else:
        by_flag, _ = cli._load_spec(args)
        assert without_source(by_flag) == without_source(by_file)
