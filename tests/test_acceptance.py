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
from crsched.channels import RayleighGain
from crsched.config import load_spec
from crsched.engine import SchedulerKind, Simulation
from crsched.queueing import Bernoulli, TruncatedPoisson
from crsched.sweep import (
    MANIFEST_FILENAME,
    PLOT_STUB_FILENAME,
    ROWS_FILENAME,
    emit_figures,
    file_sha256,
    point_config,
    rows_from_results,
    run_point,
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
        out[sched.kind] = run_point(point_config(binding_spec, sched, 0.4, 1))
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
    hits = sum(bern.draw(rng) for _ in range(n))
    se = math.sqrt(p * (1 - p) / n)
    err = abs(hits / n - p)
    checks.append(f"bernoulli {p}: err {err:.2e} (3se {3 * se:.2e})")
    if err > 3 * se:
        failures.append(checks[-1])

    tp = TruncatedPoisson(0.3, 4)
    expected_mean, expected_var = truncated_poisson_stats(0.3, 4)
    total = sum(tp.draw(rng) for _ in range(n))
    se = math.sqrt(expected_var / n)
    err = abs(total / n - expected_mean)
    checks.append(f"truncated poisson: err {err:.2e} (3se {3 * se:.2e})")
    if err > 3 * se:
        failures.append(checks[-1])

    ok = not failures
    detail = "; ".join(checks)
    assert report(9, ok, detail), detail
