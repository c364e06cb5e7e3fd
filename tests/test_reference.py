"""Whole runs against the independent reference loop, with exact equality.

bench/reference.py parses the config file itself, draws every input straight
from numpy one run at a time and applies the model's recursions slot by
slot, with int(math.log2(1 + gamma)) packets per slot. It shares no code
with crsched, so agreement under == pins the engine's block filling, its
packet counts and its decision and update rules from the raw streams up.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crsched.channels import DeterministicGain, RayleighGain
from crsched.config import load_spec
from crsched.engine import SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import Bernoulli, TruncatedPoisson
from crsched.sweep import point_config

from conftest import shipped_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "table1": shipped_config("table1.cfg"),
    "binding": shipped_config("binding.cfg"),
    "fading-seeds": str(ROOT / "bench" / "fading-seeds.cfg"),
}
CHECKS = 3  # each run stops at its first converged check or after this many


def load_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_reference()


def engine_and_reference(path, scheduler, lam, seed, overrides=None):
    """One point's RunResult fields from the engine and from the reference
    loop, as two dicts keyed alike."""
    spec = load_spec(path, overrides)
    system = reference.read_system(path)
    system["literal_phi"] = spec.schedulers[0].phi_mode == "literal"
    kind = SchedulerKind(scheduler, spec.schedulers[0].phi_mode)
    cfg = replace(point_config(spec, kind, lam, seed), max_slots=CHECKS * spec.base.check_interval)
    return run_both(cfg, system, lam)


def run_both(cfg, system, lam):
    result = Simulation(cfg).run_until_converged()
    assert result.note == ""
    got = {
        "slots": result.slots,
        "converged": result.converged,
        "stability_metric": result.stability_metric,
        "interference_avg": result.interference_avg,
        "delays": list(result.avg_delays),
        "terminal_q": list(result.terminal_q),
        "terminal_x": result.terminal_x,
        "terminal_y": list(result.terminal_y),
    }
    ref = reference.simulate(system, cfg.scheduler.kind, lam, cfg.seed, cfg.max_slots, cfg.epsilon)
    return got, {k: ref[k] for k in got}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lam", [0.05, 0.2, 0.35])
@pytest.mark.parametrize("scheduler", ["proposed", "proposed-nonidling", "maxweight"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_runs_equal_the_reference_loop(config, scheduler, lam, seed):
    got, want = engine_and_reference(CONFIGS[config], scheduler, lam, seed)
    assert got == want


@pytest.mark.parametrize("scheduler", ["proposed", "proposed-nonidling"])
def test_literal_runs_equal_the_reference_loop(scheduler):
    # Faded direct links give the raw rates of literal mode a fraction.
    got, want = engine_and_reference(CONFIGS["fading-seeds"], scheduler, 0.2, 1,
                                     {("system", "phi_mode"): "literal"})
    assert got == want


gains = st.one_of(
    st.builds(DeterministicGain, st.floats(0.0, 20.0)),
    st.builds(RayleighGain, st.floats(0.01, 8.0)),
)


def reference_link(model):
    if isinstance(model, DeterministicGain):
        return ("const", model.value)
    return ("rayleigh", model.mean, model.cap)


@settings(max_examples=40, deadline=None)
@given(
    users=st.lists(st.tuples(st.floats(0.5, 6.0), st.sampled_from([None, 1, 2, 3, 4]), gains, gains),
                   min_size=1, max_size=4),
    lam=st.floats(0.0, 1.0),
    rule=st.sampled_from([("proposed", "actual"), ("proposed", "literal"),
                          ("proposed-nonidling", "actual"), ("proposed-nonidling", "literal"),
                          ("maxweight", "actual")]),
    i_avg=st.floats(0.05, 3.0),
    check=st.integers(50, 2500),
    checks=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_random_populations_equal_the_reference_loop(users, lam, rule, i_avg, check, checks, seed):
    # Small random populations: Bernoulli or truncated-Poisson arrivals at
    # one shared rate, constant or faded links, any rule and phi mode, and
    # checks that fall inside input blocks and across their ends.
    sus = tuple(
        SuConfig(Bernoulli(lam) if cap is None else TruncatedPoisson(lam, cap), d, direct, interference)
        for d, cap, direct, interference in users
    )
    cfg = SimConfig(sus=sus, i_avg=i_avg, scheduler=SchedulerKind(*rule), epsilon=0.01,
                    max_slots=checks * check, check_interval=check, seed=seed)
    system = {
        "sus": [{"d": d, "poisson_cap": cap, "direct": reference_link(direct),
                 "interference": reference_link(interference)}
                for d, cap, direct, interference in users],
        "i_avg": i_avg,
        "check_interval": check,
        "literal_phi": rule[1] == "literal",
    }
    got, want = run_both(cfg, system, lam)
    assert got == want
