"""End-to-end acceptance checks over the shipped experiment configs.

Each test prints one `[criterion N] PASS/FAIL: ...` line (run pytest with
-s to see them on success) and then asserts. The full-sweep fixtures are
module-scoped, so the two sweep executions they need happen once.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from crsched import cli
from crsched.channels import DeterministicGain, RayleighGain
from crsched.config import load_spec
from crsched.engine import SchedulerKind, SimConfig, Simulation, SuConfig, margins, run_lockstep, simulations
from crsched.queueing import Bernoulli, TruncatedPoisson
from crsched.sweep import (
    MANIFEST_FILENAME,
    PLOT_STUB_FILENAME,
    ROWS_FILENAME,
    emit_figures,
    file_sha256,
    point_config,
    rows_from_results,
    sweep_results,
    write_rows,
)

from conftest import shipped_config
from oracles import (
    first_decision_mismatch,
    random_small_sim_config,
    resim_trajectories,
    truncated_poisson_stats,
)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def table1_spec():
    return load_spec(shipped_config("table1.cfg"))


@pytest.fixture(scope="module")
def binding_spec():
    return load_spec(shipped_config("binding.cfg"))


@pytest.fixture(scope="module")
def lib_results(table1_spec):
    """Full baseline sweep through the library API."""
    return sweep_results(table1_spec, jobs=1)


@pytest.fixture(scope="module")
def lib_out(table1_spec, lib_results, tmp_path_factory):
    """The library-route output directory for the determinism check."""
    out = tmp_path_factory.mktemp("lib-out")
    rows = rows_from_results(lib_results)
    rows_path = out / ROWS_FILENAME
    write_rows(rows, rows_path)
    emit_figures(
        rows,
        out,
        config_sha256=table1_spec.source_sha256,
        rows_sha256=file_sha256(rows_path),
    )
    return out


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    """The CLI-route output directory: a second, independent full sweep,
    run in two processes where the library sweep runs in one."""
    out = tmp_path_factory.mktemp("cli-out")
    code = cli.main([
        "run", "--config", shipped_config("table1.cfg"),
        "--out", str(out), "--jobs", "2",
    ])
    return out, code


@pytest.fixture(scope="module")
def binding_results(binding_spec):
    """All three policies at the top of the grid under the tight budget."""
    out = {}
    for sched in binding_spec.schedulers:
        out[sched.kind] = Simulation(point_config(binding_spec, sched, 0.4, 1)).run_until_converged()
    return out


def proposed_results(lib_results):
    return [(lam, res) for (kind, lam, _), res in lib_results if kind == "proposed"]


def test_criterion_1_constraints_hold_under_the_proposed_policy(lib_results):
    d1_bound = 1.5 * 1.10
    d2_bound = 5.0 * 1.10
    i_bound = 2.0 * 1.05
    converged = [(lam, r) for lam, r in proposed_results(lib_results) if r.converged]
    failures = []
    for lam, r in converged:
        d1, d2 = r.avg_delays
        if d1 is None or d1 > d1_bound:
            failures.append(f"lambda={lam:g} su1 delay {d1}")
        if d2 is None or d2 > d2_bound:
            failures.append(f"lambda={lam:g} su2 delay {d2}")
        if r.interference_avg > i_bound:
            failures.append(f"lambda={lam:g} interference {r.interference_avg}")
    ok = bool(converged) and not failures
    detail = (
        f"{len(converged)} converged runs; delays <= ({d1_bound:.3g}, {d2_bound:.3g}), "
        f"interference <= {i_bound:.3g}"
        + (f"; violations: {failures}" if failures else "")
    )
    assert report(1, ok, detail), detail


def test_criterion_2_stability_metric_recomputes_from_terminals(lib_results):
    checked = 0
    failures = []
    for (kind, lam, seed), r in lib_results:
        if not r.converged:
            continue
        checked += 1
        n_queues = len(r.terminal_y) + 1
        recomputed = (r.terminal_x + sum(r.terminal_y)) / (n_queues * r.slots)
        if not recomputed < 0.01:
            failures.append(f"{kind} lambda={lam:g} metric {recomputed}")
        if recomputed != r.stability_metric:
            failures.append(
                f"{kind} lambda={lam:g} reported {r.stability_metric} != {recomputed}"
            )
    ok = checked > 0 and not failures
    detail = f"{checked} converged runs recomputed exactly, all < 0.01" + (
        f"; violations: {failures}" if failures else ""
    )
    assert report(2, ok, detail), detail


def test_criterion_3_tight_budget_separates_the_policies(binding_results):
    bound = 0.1 * 1.05
    idling = binding_results["proposed"].interference_avg
    nonidling = binding_results["proposed-nonidling"].interference_avg
    maxweight = binding_results["maxweight"].interference_avg
    ok = idling <= bound and nonidling > 0.1 and maxweight > 0.1
    detail = (
        f"at lambda=0.4: idling {idling:.4f} <= {bound:.4f}; "
        f"non-idling {nonidling:.4f} > 0.1; max-weight {maxweight:.4f} > 0.1"
    )
    assert report(3, ok, detail), detail


def test_criterion_4_delay_control_beats_max_weight_for_the_tight_user(lib_results):
    by_point = {(kind, lam): r for (kind, lam, _), r in lib_results}
    prop = by_point[("proposed", 0.4)]
    mw = by_point[("maxweight", 0.4)]
    prop_d1 = prop.avg_delays[0]
    mw_d1, mw_d2 = mw.avg_delays
    ok = mw_d1 > prop_d1 and mw_d2 < mw_d1
    detail = (
        f"at lambda=0.4: max-weight su1 delay {mw_d1:.3f} > proposed {prop_d1:.3f}; "
        f"max-weight su2 delay {mw_d2:.3f} < its su1 delay"
    )
    assert report(4, ok, detail), detail


def test_criterion_5_trajectories_match_independent_resimulation():
    cases = 100
    mismatches = []
    for case_seed in range(cases):
        config, slots = random_small_sim_config(case_seed)
        trace = list(Simulation(config).observe(slots))
        bounds = [su.delay_bound for su in config.sus]
        expected = resim_trajectories(trace, bounds, config.i_avg)
        for t, (q, y, x) in zip(trace, expected):
            if t.q != q or t.y != y or t.x != x:
                mismatches.append(f"case {case_seed} slot {t.slot}")
                break
    ok = not mismatches
    detail = f"{cases - len(mismatches)}/{cases} random instances bit-identical" + (
        f"; first mismatches: {mismatches[:3]}" if mismatches else ""
    )
    assert report(5, ok, detail), detail


def test_criterion_6_decisions_minimize_the_slot_objective(table1_spec, binding_spec):
    slots = 20_000
    checked = {}
    mismatches = []
    for label, spec, kind in (
        ("idling-tight-budget", binding_spec, SchedulerKind("proposed")),
        ("non-idling-baseline", table1_spec, SchedulerKind("proposed-nonidling")),
    ):
        config = replace(
            point_config(spec, kind, 0.4, 1),
            max_slots=slots,
            check_interval=slots,
            epsilon=0.0,
        )
        trace = list(Simulation(config).observe(slots))
        mismatch = first_decision_mismatch(config, trace)
        if mismatch is not None:
            mismatches.append(f"{label} {mismatch}")
        checked[label] = len(trace)
    ok = not mismatches and all(n == slots for n in checked.values())
    detail = "every decision matched the brute-force minimizer: " + ", ".join(
        f"{label} {n} slots" for label, n in checked.items()
    ) + (f"; first mismatches: {mismatches}" if mismatches else "")
    assert report(6, ok, detail), detail


def test_criterion_7_drift_stays_under_its_bound(lib_results):
    checked = 0
    failures = []
    bad_runs = set()
    for (kind, lam, seed), r in lib_results:
        if not r.converged:
            continue
        checked += 1
        run_id = f"{kind} lambda={lam:g}"
        drift = r.drift
        if drift is None:
            failures.append(f"{run_id} missing diagnostics")
            bad_runs.add(run_id)
            continue
        if not drift.mean_drift <= drift.c_total:
            failures.append(
                f"{run_id} drift {drift.mean_drift} > C {drift.c_total}"
            )
            bad_runs.add(run_id)
        if not all(q <= drift.jensen_bound for q in drift.q_over_t):
            failures.append(
                f"{run_id} backlog/T {drift.q_over_t} "
                f"> sqrt(C/T) {drift.jensen_bound}"
            )
            bad_runs.add(run_id)
    ok = checked > 0 and not failures
    detail = (
        f"{checked} converged runs: mean drift <= C and terminal backlog/T "
        f"<= sqrt(C/T)"
    )
    if failures:
        # Known limitation, documented in README: at high load the idling
        # scheduler permanently strands SU-1 (its index stays positive once the
        # head packet outlives d_1 while Y_1 exceeds lambda), so the real queue
        # grows linearly while the virtual-queue stopping metric still
        # converges. The drift bound cannot hold on those runs.
        shown = "; ".join(failures[:4])
        detail += (
            f"; {len(failures)} violations across {len(bad_runs)} runs "
            f"(first: {shown}); all are idling-scheduler runs at lambda >= 0.18 "
            f"where SU-1 is starved (see README, Known limitation)"
        )
    assert report(7, ok, detail), detail


def test_starvation_sets_in_after_the_first_check(table1_spec):
    # Starvation is absorbing, and a row shows it only if it set in before
    # the run's first check (README, Known limitation). At lambda 0.14,
    # seed 1, the shipped run converges clean at its first check, yet run
    # on with epsilon 0 the idling rule starves SU-1 from about slot 14,100.
    # On table1's unit links a rule that sends at most one packet a slot
    # has at least the non-idling rule's total backlog on the same draws,
    # and the difference is exactly the departures it withheld.
    idling = table1_spec.schedulers[0]
    assert idling.kind == "proposed"
    cfg = point_config(table1_spec, idling, 0.14, 1)
    shipped = Simulation(cfg).run_until_converged()
    assert (shipped.converged, shipped.slots, shipped.terminal_q) == (True, 10_000, (0, 0))

    def withheld(slots: int) -> int:
        kinds = [idling, replace(idling, kind="proposed-nonidling")]
        held, sent = run_lockstep(simulations(replace(cfg, epsilon=0.0, max_slots=slots), kinds))
        return sum(held.terminal_q) - sum(sent.terminal_q)

    assert withheld(10_000) == 0
    assert withheld(15_000) >= 20  # 122 as measured


def starvation(sim: Simulation, i: int) -> str:
    """Whether user i of an idling-rule run on unit links is starved in
    sim's end state, by its margin over the most packets a slot can bring
    (engine.margins): "certified" if that margin is positive and Y_i >=
    a_max, as then each later slot adds Y_i - A >= 0 to it and the rule
    never serves the user again; "bounded" if it is positive and Y_i <
    a_max, where only the ruin bound keeps it from 0 (README, Known
    limitation); "no" otherwise."""
    a_max = [su.arrivals.a_max for su in sim.config.sus]
    if margins(sim, a_max).get(i, 0.0) <= 0.0:
        return "no"
    return "certified" if sim.y[i] >= a_max[i] else "bounded"


def test_a_certified_starvation_lasts(table1_spec):
    # Stepped only by run_slot() and observe(), which run the full kernel:
    # from the slot where SU-1's starvation is first certified, it is not
    # served in 20,000 more slots, and its margin stays positive.
    cfg = replace(point_config(table1_spec, table1_spec.schedulers[0], 0.14, 1), epsilon=0.0)
    sim = Simulation(cfg)
    while starvation(sim, 0) != "certified" and sim.slot < 20_000:
        sim.run_slot()
    assert 14_000 < sim.slot < 14_500  # 14,010 as measured
    for record in sim.observe(20_000):
        assert record.su != 0
        assert margins(sim, [1, 1])[0] > 0.0


def test_a_certified_margin_of_2_to_the_minus_40_lasts():
    # The law holds however small the margin. One arrival every slot and
    # Y = a_max = 1 keep it at 2^-40 (d = 1 - 2^-40, no interference), and
    # phi with it: above 0 in every slot, so the user is never served.
    sim = Simulation(SimConfig(
        sus=(SuConfig(Bernoulli(1.0), 1.0 - 2.0**-40, DeterministicGain(1.0), DeterministicGain(0.0)),),
        i_avg=1.0, scheduler=SchedulerKind("proposed"), epsilon=0.0))
    sim.slot, sim.y[0] = 10, 1.0
    sim.sus[0].queue.fifo.append(8.0)
    assert margins(sim, [1]) == {0: 2.0**-40} and starvation(sim, 0) == "certified"
    for record in sim.observe(2000):
        assert record.su is None
        assert margins(sim, [1]) == {0: 2.0**-40}


def test_shipped_idling_rows_end_certified_or_bounded(table1_spec):
    # table1's seed-1 proposed rows that end with SU-1 starved: Y_1 is 1,
    # 1.5 or 2 where it is certified and 0.5 where it is only bounded.
    ends = {}
    for lam in table1_spec.lambda_grid:
        sim = Simulation(point_config(table1_spec, table1_spec.schedulers[0], lam, 1))
        sim.run_until_converged()
        ends.setdefault(starvation(sim, 0), []).append(lam)
    assert ends["certified"] == [0.18, 0.2, 0.22, 0.24, 0.26, 0.28, 0.38, 0.4]
    assert ends["bounded"] == [0.3, 0.32, 0.34, 0.36]
    assert len(ends["no"]) == 8


def test_criterion_8_cli_and_library_sweeps_are_byte_identical(cli_out, lib_out):
    out, code = cli_out
    names = [ROWS_FILENAME, "fig2.csv", "fig3.csv", "fig4.csv",
             MANIFEST_FILENAME, PLOT_STUB_FILENAME]
    differing = [
        n for n in names
        if (out / n).read_bytes() != (lib_out / n).read_bytes()
    ]
    manifest = json.loads((out / MANIFEST_FILENAME).read_text())
    ok = code == 0 and not differing and manifest["figures"]["fig1.csv"].startswith("omitted")
    detail = (
        f"exit code {code}; {len(names) - len(differing)}/{len(names)} output files "
        f"byte-identical across independent executions"
        + (f"; differing: {differing}" if differing else "")
    )
    assert report(8, ok, detail), detail


def test_criterion_9_sampled_means_match_configured_means():
    n = 1_000_000
    rng = np.random.default_rng(20240817)
    failures = []
    checks = []

    for mean in (0.4, 0.2):
        draws = RayleighGain(mean).sample_block(rng, n)
        se = mean / math.sqrt(n)
        err = abs(float(draws.mean()) - mean)
        checks.append(f"fading mean {mean}: err {err:.2e} (3se {3 * se:.2e})")
        if err > 3 * se:
            failures.append(checks[-1])

    p = 0.3
    bern = Bernoulli(p)
    hits = int(bern.counts(rng.random(n)).sum())
    se = math.sqrt(p * (1 - p) / n)
    err = abs(hits / n - p)
    checks.append(f"bernoulli {p}: err {err:.2e} (3se {3 * se:.2e})")
    if err > 3 * se:
        failures.append(checks[-1])

    tp = TruncatedPoisson(0.3, 4)
    expected_mean, expected_var = truncated_poisson_stats(0.3, 4)
    total = int(tp.counts(rng.random(n)).sum())
    se = math.sqrt(expected_var / n)
    err = abs(total / n - expected_mean)
    checks.append(f"truncated poisson: err {err:.2e} (3se {3 * se:.2e})")
    if err > 3 * se:
        failures.append(checks[-1])

    ok = not failures
    detail = "; ".join(checks)
    assert report(9, ok, detail), detail
