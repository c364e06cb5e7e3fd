import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crsched
from crsched import cli
from crsched.config import ConfigError, load_spec
from crsched.sweep import (
    FIGURES,
    MANIFEST_FILENAME,
    PLOT_STUB_FILENAME,
    ROWS_FILENAME,
    emit_figures,
    file_sha256,
    point_config,
    read_rows,
    run_point,
    run_sweep,
    sweep_points,
    sweep_results,
    write_rows,
)

from conftest import set_key

TINY = """\
[system]
n_sus = 2
i_avg = 2.0
epsilon = 0.01
max_slots = 2000
check_interval = 500

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
lambda_min = 0.0
lambda_max = 0.2
lambda_step = 0.1
schedulers = proposed, maxweight
seeds = 1, 2
"""

# Zero direct gain: packets can never depart, so any positive load
# eventually overruns the backlog cap and aborts.
DEAD = TINY.replace(
    "check_interval = 500", "check_interval = 500\nbuffer_cap = 40"
).replace(
    "direct = deterministic value=1.0", "direct = deterministic value=0.0"
).replace("schedulers = proposed, maxweight", "schedulers = proposed")


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was built")


def fresh_python(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter on this checkout's package. Importing
    crsched here sets OPENBLAS_NUM_THREADS, so the child gets the
    environment without it, plus env."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(Path(crsched.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", script, *args], env=child_env,
                          capture_output=True, text=True, check=True)


@pytest.fixture(scope="module")
def tiny_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY)
    return load_spec(path)


@pytest.fixture(scope="module")
def tiny_rows(tiny_spec):
    return run_sweep(tiny_spec, jobs=1)


class TestSweep:
    def test_point_config_applies_rate_scheduler_and_seed(self, tiny_spec):
        cfg = point_config(tiny_spec, tiny_spec.schedulers[1], 0.2, 2)
        assert all(su.arrivals.rate == 0.2 for su in cfg.sus)
        assert cfg.scheduler == tiny_spec.schedulers[1]
        assert cfg.seed == 2
        assert cfg.max_slots == 2000

    def test_points_cover_the_grid_in_order(self, tiny_spec):
        points = sweep_points(tiny_spec)
        assert len(points) == 12
        assert points == sorted(points)
        assert points[0] == ("maxweight", 0.0, 1)
        assert points[-1] == ("proposed", 0.2, 2)

    def test_one_row_per_point(self, tiny_spec, tiny_rows):
        assert len(tiny_rows) == 12
        keys = [(r.scheduler, r.lam, r.seed) for r in tiny_rows]
        assert keys == sweep_points(tiny_spec)

    def test_no_traffic_rows_have_undefined_delays(self, tiny_rows):
        for r in tiny_rows:
            if r.lam == 0.0:
                assert r.converged
                assert r.delays == (None, None)
                assert r.interference_avg == 0.0
            else:
                assert all(d is not None for d in r.delays)

    def test_parallel_execution_matches_serial(self, tiny_spec):
        serial = sweep_results(tiny_spec, jobs=1)
        parallel = sweep_results(tiny_spec, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_nonpositive_jobs_rejected(self, tiny_spec, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            sweep_results(tiny_spec, jobs=jobs)

    def test_default_jobs_is_the_cpu_count(self, tiny_spec, monkeypatch):
        # Allowed one CPU of a larger host, the default runs serially: a
        # process pool would fail.
        monkeypatch.setattr("crsched.sweep.os.sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr("crsched.sweep.os.cpu_count", lambda: 8)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert sweep_results(tiny_spec) == sweep_results(tiny_spec, jobs=1)

    def test_default_jobs_without_affinity_is_the_host_cpu_count(self, tiny_spec, monkeypatch):
        monkeypatch.delattr("crsched.sweep.os.sched_getaffinity")
        monkeypatch.setattr("crsched.sweep.os.cpu_count", lambda: 1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert sweep_results(tiny_spec) == sweep_results(tiny_spec, jobs=1)

    def test_serial_sweep_loads_no_process_pool(self, tmp_path):
        # A fresh interpreter: this one may have loaded the pool already.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        script = (
            "import sys\n"
            "import crsched.cli\n"
            "from crsched.config import load_spec\n"
            "from crsched.sweep import sweep_results\n"
            "sweep_results(load_spec(sys.argv[1]), jobs=1)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        done = fresh_python(script, str(cfg))
        assert done.stdout == "[]\n"

    def test_package_root_loads_no_numpy(self):
        done = fresh_python(
            "import sys\n"
            "import crsched\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.stdout == "False\n"

    def test_package_root_names_resolve_on_use(self):
        done = fresh_python(
            "import crsched\n"
            "print(all(callable(getattr(crsched, name)) for name in crsched.__all__))\n"
            "try:\n"
            "    crsched.nope\n"
            "except AttributeError as err:\n"
            "    print(err)\n"
        )
        assert crsched.__all__ == ["RunResult", "load_spec", "parse_scheduler", "point_config",
                                   "run_point", "run_sweep", "write_rows"]
        assert done.stdout == "True\nmodule 'crsched' has no attribute 'nope'\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_starts_no_blas_threads(self):
        # crsched calls no BLAS routine, so numpy's OpenBLAS starts no
        # worker thread, however many CPUs the process may use: not under
        # the command line, nor in a library process that loads numpy.
        for imports in ("import crsched.cli", "import crsched; crsched.run_point"):
            done = fresh_python(
                "import os\n"
                f"{imports}\n"
                "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
            )
            assert done.stdout == "1 1\n", imports

    def test_cli_import_keeps_a_preset_blas_thread_count(self):
        done = fresh_python(
            "import os\n"
            "import crsched.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
            OPENBLAS_NUM_THREADS="2",
        )
        assert done.stdout == "2\n"

    def test_progress_callback_sees_every_point(self, tiny_spec):
        seen = []
        sweep_results(tiny_spec, jobs=1,
                      progress=lambda point, result, total: seen.append((point, total)))
        assert [p for p, _ in seen] == sweep_points(tiny_spec)
        assert all(total == 12 for _, total in seen)

    def test_aborted_point_becomes_noted_result(self, tmp_path):
        path = tmp_path / "dead.cfg"
        path.write_text(DEAD)
        spec = load_spec(path)
        result = run_point(point_config(spec, spec.schedulers[0], 0.2, 1))
        assert result.note == "infeasible-load"
        assert not result.converged


def _set_cell(column: int, value: str):
    def edit(records):
        records[1][column] = value
        return records
    return edit


# rows.csv edits -> the error after "<path>:"; the tiny sweep has 2 users,
# so a row has 10 fields, and its first row is line 2.
MALFORMED_ROWS = {
    "short-row": (lambda records: [records[0], records[1][:5]], "2: expected 10 fields, got 5"),
    "empty-file": (lambda records: [], "1: empty file, expected the rows header"),
    "converged-not-boolean": (
        _set_cell(3, "maybe"), "2: converged must be true or false, got 'maybe'"
    ),
    "lambda-not-a-number": (
        _set_cell(1, "abc"), "2: could not convert string to float: 'abc'"
    ),
    "lambda-not-finite": (_set_cell(1, "nan"), "2: lambda must be finite, got 'nan'"),
    # A repeated row would count as one more seed in its figure cell.
    "repeated-key": (
        lambda records: records + [records[1]],
        "14: scheduler maxweight, lambda 0.0, seed 1 repeats line 2",
    ),
}


class TestRowsCsv:
    def test_round_trip(self, tiny_rows, tmp_path):
        path = tmp_path / ROWS_FILENAME
        write_rows(tiny_rows, path)
        assert read_rows(path) == tiny_rows

    def test_rewrite_is_byte_identical(self, tiny_rows, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(tiny_rows, a)
        write_rows(tiny_rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_names_each_user(self, tiny_rows, tmp_path):
        path = tmp_path / ROWS_FILENAME
        write_rows(tiny_rows, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "scheduler,lambda,seed,converged,slots,stability_metric,"
            "interference_avg,su1_delay,su2_delay,note"
        )

    def test_unrecognized_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="unrecognized rows schema"):
            read_rows(path)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            write_rows([], tmp_path / "empty.csv")

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_malformed_file_exits_2_naming_the_line(self, case, tiny_rows, tmp_path, capsys):
        edit, message = MALFORMED_ROWS[case]
        path = tmp_path / ROWS_FILENAME
        write_rows(tiny_rows, path)
        with open(path, newline="") as f:
            records = list(csv.reader(f))
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(edit(records))
        code = cli.main(["figures", "--rows", str(path), "--out", str(tmp_path / "figs")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:{message}\n"

    def test_file_with_only_its_header_exits_2_naming_the_file(self, tiny_rows, tmp_path, capsys):
        path = tmp_path / ROWS_FILENAME
        write_rows(tiny_rows, path)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        code = cli.main(["figures", "--rows", str(path), "--out", str(tmp_path / "figs")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no rows after the header\n"
        assert not (tmp_path / "figs").exists()

    @pytest.mark.parametrize("line", [1, 2])
    def test_non_utf8_file_exits_2_naming_the_line(self, line, tiny_rows, tmp_path, capsys):
        path = tmp_path / ROWS_FILENAME
        write_rows(tiny_rows, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(b"".join(lines))
        code = cli.main(["figures", "--rows", str(path), "--out", str(tmp_path / "figs")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: not UTF-8 text: ")
        assert not (tmp_path / "figs").exists()


@pytest.fixture(scope="module")
def emitted(tiny_rows, tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    manifest = emit_figures(tiny_rows, out, config_sha256="cfg-hash",
                            rows_sha256="rows-hash")
    return out, manifest


class TestEmitFigures:
    def test_figures_for_missing_schedulers_are_omitted(self, emitted):
        out, manifest = emitted
        assert not (out / "fig1.csv").exists()
        assert manifest["figures"]["fig1.csv"] == (
            "omitted (no rows for schedulers: proposed-nonidling)"
        )
        for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
            assert (out / name).exists()
            assert manifest["figures"][name] == "written"

    def test_delay_figure_layout(self, emitted):
        out, _ = emitted
        lines = (out / "fig3.csv").read_text().splitlines()
        assert lines[0] == (
            "lambda,proposed_su1_delay,proposed_su2_delay,"
            "maxweight_su1_delay,maxweight_su2_delay"
        )
        assert len(lines) == 1 + 3
        # No packets depart at lambda = 0, so those averages stay empty.
        assert lines[1].split(",") == ["0.0", "", "", "", ""]
        assert all(cell for cell in lines[2].split(","))

    def test_partial_figure_keeps_present_scheduler(self, emitted):
        out, _ = emitted
        lines = (out / "fig2.csv").read_text().splitlines()
        assert lines[0] == "lambda,maxweight_interference"

    def test_interference_cells_average_over_seeds(self, emitted, tiny_rows):
        out, _ = emitted
        lines = (out / "fig4.csv").read_text().splitlines()
        rec = lines[2].split(",")
        by_seed = [r.interference_avg for r in tiny_rows
                   if r.scheduler == "proposed" and r.lam == 0.1]
        assert len(by_seed) == 2
        assert float(rec[1]) == sum(by_seed) / 2

    def test_manifest_contents(self, emitted):
        out, manifest = emitted
        on_disk = json.loads((out / MANIFEST_FILENAME).read_text())
        assert on_disk == manifest
        assert manifest["schema_version"] == 1
        assert manifest["config_sha256"] == "cfg-hash"
        assert manifest["rows_sha256"] == "rows-hash"
        assert manifest["seeds"] == [1, 2]
        assert manifest["schedulers"] == ["maxweight", "proposed"]
        assert manifest["lambda_grid"] == [0.0, 0.1, 0.2]
        assert manifest["plot_stub"] == PLOT_STUB_FILENAME

    def test_plot_stub_is_valid_python(self, emitted):
        out, _ = emitted
        source = (out / PLOT_STUB_FILENAME).read_text()
        compile(source, PLOT_STUB_FILENAME, "exec")
        assert "fig3.csv" in source

    def test_rerun_is_byte_identical(self, emitted, tiny_rows, tmp_path):
        out, _ = emitted
        again = tmp_path / "again"
        emit_figures(tiny_rows, again, config_sha256="cfg-hash",
                     rows_sha256="rows-hash")
        for name in ("fig2.csv", "fig3.csv", "fig4.csv",
                     MANIFEST_FILENAME, PLOT_STUB_FILENAME):
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_figure_list_is_stable(self):
        assert list(FIGURES) == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("clicfg") / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path_factory.mktemp("cliout")
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    return cfg, out, code


class TestCli:
    def test_run_succeeds_and_writes_outputs(self, cli_run):
        cfg, out, code = cli_run
        assert code == 0
        for name in (ROWS_FILENAME, "fig2.csv", "fig3.csv", "fig4.csv",
                     MANIFEST_FILENAME, PLOT_STUB_FILENAME):
            assert (out / name).exists()
        assert not (out / "fig1.csv").exists()

    def test_manifest_hashes_tie_outputs_to_inputs(self, cli_run):
        cfg, out, _ = cli_run
        manifest = json.loads((out / MANIFEST_FILENAME).read_text())
        assert manifest["config_sha256"] == file_sha256(cfg)
        assert manifest["rows_sha256"] == file_sha256(out / ROWS_FILENAME)
        assert "overrides" not in manifest

    def test_manifest_records_each_flag_as_given(self, tmp_path):
        # The config digest covers the file alone, so the flags that changed
        # the run are kept beside it, each value as typed.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--schedulers", "maxweight", "--seed", "1", "--max-slots", "1000",
                         "--phi-mode", "literal", "--epsilon", "1e-2"])
        assert code == 0
        manifest = json.loads((out / MANIFEST_FILENAME).read_text())
        assert manifest["config_sha256"] == file_sha256(cfg)
        assert manifest["overrides"] == {
            "sweep.schedulers": "maxweight", "sweep.seeds": "1", "system.max_slots": "1000",
            "system.phi_mode": "literal", "system.epsilon": "1e-2",
        }

    def test_progress_lines_cover_every_run(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--schedulers", "maxweight", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum("maxweight lambda=" in l for l in lines) == 3
        assert lines[0].startswith("[1/3] maxweight lambda=0 seed=1:")

    def test_overrides_shrink_the_sweep(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "o"
        code = cli.main([
            "run", "--config", str(cfg), "--out", str(out),
            "--schedulers", "proposed", "--seed", "3",
            "--lambda-min", "0.1", "--lambda-max", "0.1", "--lambda-step", "0.1",
        ])
        assert code == 0
        rows = read_rows(out / ROWS_FILENAME)
        assert [(r.scheduler, r.lam, r.seed) for r in rows] == [("proposed", 0.1, 3)]

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(env_dir))
        code = cli.main(["run", "--config", str(cfg),
                         "--schedulers", "maxweight", "--seed", "1",
                         "--lambda-min", "0.1", "--lambda-max", "0.1",
                         "--lambda-step", "0.1"])
        assert code == 0
        assert (env_dir / ROWS_FILENAME).exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "from-env"))
        flag_dir = tmp_path / "from-flag"
        code = cli.main(["run", "--config", str(cfg), "--out", str(flag_dir),
                         "--schedulers", "maxweight", "--seed", "1",
                         "--lambda-min", "0.1", "--lambda-max", "0.1",
                         "--lambda-step", "0.1"])
        assert code == 0
        assert (flag_dir / ROWS_FILENAME).exists()
        assert not (tmp_path / "from-env").exists()

    def test_figures_subcommand_reproduces_figures(self, cli_run, tmp_path):
        _, out, _ = cli_run
        redo = tmp_path / "redo"
        code = cli.main(["figures", "--rows", str(out / ROWS_FILENAME),
                         "--out", str(redo)])
        assert code == 0
        assert (redo / "fig3.csv").read_bytes() == (out / "fig3.csv").read_bytes()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unusable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_point(config):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr("crsched.sweep.run_point", no_point)
        code = cli.main(["run", "--config", str(cfg), "--out", str(taken), "--jobs", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_incomplete_grid_flags_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        code = cli.main(["run", "--config", str(cfg), "--lambda-min", "0.1"])
        assert code == 2
        assert "go together" in capsys.readouterr().err

    def test_aborted_runs_exit_1_and_keep_rows(self, tmp_path, capsys):
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(DEAD)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "aborted: proposed" in err
        rows = read_rows(out / ROWS_FILENAME)
        noted = [r for r in rows if r.note == "infeasible-load"]
        assert len(noted) == 4
        assert all(not r.converged for r in noted)
        assert all(r.lam > 0.0 for r in noted)


GRID_FLAGS = {"--lambda-min": "0.0", "--lambda-max": "0.2", "--lambda-step": "0.1"}


@pytest.mark.parametrize("flag, section, key, bad", [
    ("--schedulers", "sweep", "schedulers", "proposed, edf"),
    ("--schedulers", "sweep", "schedulers", ""),
    ("--schedulers", "sweep", "schedulers", "proposed, PROPOSED_nonidling, proposed-nonidling"),
    ("--lambda-min", "sweep", "lambda_min", "-0.1"),
    ("--lambda-max", "sweep", "lambda_max", "5"),
    ("--lambda-max", "sweep", "lambda_max", "inf"),
    ("--lambda-step", "sweep", "lambda_step", "0"),
    ("--lambda-step", "sweep", "lambda_step", "0.1x"),
    ("--seed", "sweep", "seeds", "1, 1"),
    ("--seed", "sweep", "seeds", "one"),
    ("--seed", "sweep", "seeds", "-1"),
    ("--seed", "sweep", "seeds", "1,"),
    ("--max-slots", "system", "max_slots", "10"),
    ("--max-slots", "system", "max_slots", "1e4"),
    ("--epsilon", "system", "epsilon", "-1"),
    ("--epsilon", "system", "epsilon", "nan"),
    ("--phi-mode", "system", "phi_mode", "rounded"),
])
def test_bad_flag_fails_as_the_same_value_in_the_file(tmp_path, capsys, flag, section, key, bad):
    """A flag's value passes the file's rules: same message, at the flag."""
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(set_key(TINY, section, key, bad))
    with pytest.raises(ConfigError) as exc:
        load_spec(bad_cfg)
    assert exc.value.line is not None
    assert exc.value.message.startswith(f"[{section}] {key}: ")

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    flags = {**GRID_FLAGS, flag: bad} if flag in GRID_FLAGS else {flag: bad}
    args = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
    for name, value in flags.items():
        args += [name, value]
    code = cli.main(args)
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag}: {exc.value.message}\n"
    assert not (tmp_path / "o").exists()


def test_pmf_overflow_at_the_flags_top_rate_fails_at_the_flag(tmp_path, capsys):
    # Poisson(150) up to cap 160 overflows a float (150.0**160): the run
    # stops at --lambda-max with the constructor's message, not a traceback.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY.replace("arrivals = bernoulli", "arrivals = poisson cap=160"))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--lambda-min", "0.0", "--lambda-max", "150", "--lambda-step", "0.1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --lambda-max: [sweep] lambda_max: poisson cap 160 is too large at rate 150.0: "
        "its pmf overflows a float\n")
    assert not (tmp_path / "o").exists()


def test_huge_integer_flag_meets_the_range_rule(tmp_path, capsys):
    # Any int is an integer; SimConfig's range rule refuses this one.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--max-slots", f"-{10**400}"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --max-slots: [system] max_slots: max_slots must be at least check_interval\n"
    )
    assert not (tmp_path / "o").exists()


def test_file_error_names_the_config_line(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY.replace("epsilon = 0.01", "epsilon = -1"))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:4: [system] epsilon: epsilon must be nonnegative\n"
    )


def test_zero_epsilon_flag_runs_to_max_slots(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--epsilon", "0",
                     "--schedulers", "maxweight", "--seed", "1", "--max-slots", "1000",
                     "--lambda-min", "0.1", "--lambda-max", "0.1", "--lambda-step", "0.1"])
    assert code == 0
    rows = read_rows(out / ROWS_FILENAME)
    assert [(r.converged, r.slots) for r in rows] == [(False, 1000)]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_flag_exits_2(tmp_path, capsys, jobs):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert code == 2
    assert capsys.readouterr().err == f"error: --jobs: must be at least 1, got {jobs}\n"
    assert not (tmp_path / "o").exists()
