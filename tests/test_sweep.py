import csv
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crsched
from crsched import cli, sweep
from crsched.config import ConfigError, load_spec
from crsched.engine import SCHEDULER_NAMES, Simulation
from crsched.sweep import (
    FIGURES,
    MANIFEST_FILENAME,
    PLOT_STUB_FILENAME,
    ROWS_FILENAME,
    emit_figures,
    file_sha256,
    point_config,
    read_rows,
    rows_header,
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


def no_fork():
    raise AssertionError("a sweep worker was forked")


def count_forks(monkeypatch, limit: int | None = None) -> list[int]:
    """Patch os.fork to record each forked pid in the returned list; past
    ``limit`` forks it fails as it does under a process limit."""
    real_fork, forks = os.fork, []

    def fork():
        if len(forks) == limit:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


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
        # fork would fail.
        monkeypatch.setattr("crsched.sweep.os.sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr("crsched.sweep.os.cpu_count", lambda: 8)
        monkeypatch.setattr(os, "fork", no_fork)
        assert sweep_results(tiny_spec) == sweep_results(tiny_spec, jobs=1)

    def test_default_jobs_without_affinity_is_the_host_cpu_count(self, tiny_spec, monkeypatch):
        monkeypatch.delattr("crsched.sweep.os.sched_getaffinity")
        monkeypatch.setattr("crsched.sweep.os.cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert sweep_results(tiny_spec) == sweep_results(tiny_spec, jobs=1)

    def test_serial_sweep_loads_no_process_pool(self, tmp_path):
        # A fresh interpreter: this one has loaded multiprocessing already.
        # A serial sweep forks nothing, and no sweep loads a pool's modules.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        script = (
            "import os, sys\n"
            "import crsched.cli\n"
            "from crsched.config import load_spec\n"
            "from crsched.sweep import sweep_results\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(1))\n"
            "spec = load_spec(sys.argv[1])\n"
            "sweep_results(spec, jobs=1)\n"
            "print(len(forks))\n"
            "sweep_results(spec, jobs=2)\n"
            "print(len(forks))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        done = fresh_python(script, str(cfg))
        assert done.stdout == "0\n1\n[]\n"

    @pytest.mark.parametrize("lam, seed, before", [(0.1, 2, 3), (0.1, 1, 2)], ids=["worker", "invoking"])
    def test_a_failing_task_raises_and_leaves_no_process(self, tiny_spec, monkeypatch, lam, seed, before):
        # At jobs=2, task k runs in process k mod 2: (0.1, 1) is task 2,
        # the invoking process's, and (0.1, 2) is task 3, the worker's,
        # which inherits the patch when it is forked. The tasks before the
        # failing one are reported, two rules each.
        real = sweep.run_rules

        def run_rules(config, kinds):
            if (config.sus[0].arrivals.rate, config.seed) == (lam, seed):
                raise ZeroDivisionError(f"task at lambda {lam}, seed {seed}")
            return real(config, kinds)

        monkeypatch.setattr(sweep, "run_rules", run_rules)
        seen = []
        with pytest.raises(ZeroDivisionError, match=f"^task at lambda {lam}, seed {seed}$"):
            sweep_results(tiny_spec, jobs=2, progress=lambda point, result, total: seen.append(point))
        assert len(seen) == 2 * before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupted_sweep_kills_its_workers(self, tiny_spec, monkeypatch):
        # The invoking process stops at its first task's report while both
        # workers still sleep in theirs: it kills them rather than wait.
        invoking, real = os.getpid(), sweep.run_rules

        def run_rules(config, kinds):
            if os.getpid() != invoking:
                time.sleep(60)
            return real(config, kinds)

        def progress(point, result, total):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep, "run_rules", run_rules)
        start = time.monotonic()
        # Kept: its traceback holds the sweep's frames, so the workers must
        # be gone before the generator that forked them is collected.
        with pytest.raises(KeyboardInterrupt) as interrupted:
            sweep_results(tiny_spec, jobs=3, progress=progress)
        assert time.monotonic() - start < 30
        assert interrupted.traceback
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_above_the_task_count_fork_one_worker_per_task_but_one(self, tiny_spec, monkeypatch):
        forks = count_forks(monkeypatch)
        # Six (lambda, seed) tasks: five workers, and the invoking process.
        assert sweep_results(tiny_spec, jobs=10) == sweep_results(tiny_spec, jobs=1)
        assert len(forks) == 5

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_a_failed_fork_raises_and_leaves_no_process_or_pipe(self, tiny_spec, monkeypatch):
        # The second fork of three fails: the first worker is reaped and
        # every pipe end is closed.
        forks = count_forks(monkeypatch, limit=1)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            sweep_results(tiny_spec, jobs=3)
        assert len(forks) == 1
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_platform_without_fork_runs_serially(self, tiny_spec, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert sweep_results(tiny_spec, jobs=2) == sweep_results(tiny_spec, jobs=1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
                                   "run_sweep", "write_rows"]
        assert done.stdout == "True\nmodule 'crsched' has no attribute 'nope'\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_starts_no_blas_threads(self):
        # crsched calls no BLAS routine, so numpy's OpenBLAS starts no
        # worker thread, however many CPUs the process may use: not under
        # the command line, nor in a library process that loads numpy.
        for imports in ("import crsched.cli", "import crsched; crsched.run_sweep"):
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
        # Points are reported as they finish: heaviest load first, then by
        # seed, and the rules of one (lambda, seed) in scheduler order.
        seen = []
        sweep_results(tiny_spec, jobs=1,
                      progress=lambda point, result, total: seen.append((point, total)))
        order = [(kind, lam, seed) for lam in (0.2, 0.1, 0.0) for seed in (1, 2)
                 for kind in ("maxweight", "proposed")]
        assert sorted(order) == sweep_points(tiny_spec)
        assert [p for p, _ in seen] == order
        assert all(total == 12 for _, total in seen)

    def test_aborted_point_becomes_noted_result(self, tmp_path):
        path = tmp_path / "dead.cfg"
        path.write_text(DEAD)
        spec = load_spec(path)
        result = Simulation(point_config(spec, spec.schedulers[0], 0.2, 1)).run_until_converged()
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
    # A row under an unknown name would fall out of every figure.
    "unknown-scheduler": (
        _set_cell(0, "foo"),
        "2: unknown scheduler 'foo'; expected one of proposed, proposed-nonidling, maxweight",
    ),
    # A repeated row would count as one more seed in its figure cell.
    "repeated-key": (
        lambda records: records + [records[1]],
        "14: scheduler maxweight, lambda 0.0, seed 1 repeats line 2",
    ),
    # The csv module refuses a field over 131,072 characters.
    "oversized-header-field": (
        lambda records: [records[0][:-1] + ["x" * 200_000]] + records[1:],
        "1: field larger than field limit (131072)",
    ),
    "oversized-delay-cell": (_set_cell(7, "1" * 200_000), "2: field larger than field limit (131072)"),
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

    def test_every_scheduler_name_loads(self, tiny_rows, tmp_path):
        rows = [tiny_rows[0]._replace(scheduler=name) for name in SCHEDULER_NAMES]
        path = tmp_path / ROWS_FILENAME
        write_rows(rows, path)
        assert read_rows(path) == rows

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


# A rows.csv record: a valid one with up to three cells replaced or cut.
CELLS = st.one_of(
    st.sampled_from([*SCHEDULER_NAMES, "edf", "true", "false", "", "0.1", "nan", "inf", "-1", "1e999", "10",
                     "1.5", "x", "infeasible-load", '"', '""', "a,b", "\r", "\n", "\x00", "\ufeff0.1"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)


@st.composite
def rows_bytes(draw) -> bytes:
    """At times bytes of any kind; else the header for 0 to 3 users (at
    times cut or junk) and one to four records, each a valid row with cells
    replaced or cut, with at times a byte that is not UTF-8 put in."""
    if draw(st.integers(0, 9)) == 5:
        return draw(st.binary(max_size=40))
    n_sus = draw(st.integers(0, 3))
    header = rows_header(n_sus)
    records = [draw(st.sampled_from([header[:-1], ["lambda"]])) if draw(st.integers(0, 4)) == 2 else header]
    for _ in range(draw(st.integers(1, 4))):
        record = ["maxweight", "0.1", "1", "true", "10", "0.5", "0.25", *["1.5"] * n_sus, ""]
        for _ in range(draw(st.integers(0, 3))):
            record[draw(st.integers(0, len(record) - 1))] = draw(CELLS)
        records.append(record[:draw(st.integers(0, len(record) + 1))] if draw(st.booleans()) else record)
    data = draw(st.sampled_from(["\n", "\r\n"])).join(",".join(record) for record in records).encode()
    if draw(st.integers(0, 9)) == 5:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=80, deadline=None)
@given(data=rows_bytes())
def test_any_rows_file_reads_or_fails_naming_the_file(tmp_path_factory, data):
    """read_rows returns rows or raises a ValueError that starts with the
    file's name and a colon, and no other type."""
    path = tmp_path_factory.getbasetemp() / "generated-rows.csv"
    path.write_bytes(data)
    try:
        assert read_rows(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}:")


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

    def test_no_rows_to_plot(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            emit_figures([], tmp_path / "figs")
        assert str(exc.value) == "no rows to plot"
        assert not (tmp_path / "figs").exists()

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
    @pytest.mark.parametrize("command", ["run", "figures"])
    def test_in_process_command_leaves_the_heap_unfrozen(self, command, cli_run, tmp_path):
        # main(argv) returns to a caller that goes on running, such as this
        # test session, whose collector must keep collecting.
        cfg, out, _ = cli_run
        args = {
            "run": ["run", "--config", str(cfg), "--jobs", "1"],
            "figures": ["figures", "--rows", str(out / ROWS_FILENAME)],
        }[command]
        frozen = gc.get_freeze_count()
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_cli_import_leaves_the_collector_as_it_found_it(self):
        done = fresh_python(
            "import gc\n"
            "def state():\n"
            "    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
            "before = state()\n"
            "import crsched.cli\n"
            "print(state() == before, before[2])\n"
        )
        assert done.stdout == "True 0\n"

    def test_module_entry_freezes_the_heap_and_writes_the_same_rows(self, cli_run, tmp_path):
        # As python -m crsched.cli, crsched owns the process, so main freezes
        # the heap before interpreter shutdown. The first atexit hook
        # registered runs last, after main has returned.
        cfg, out, _ = cli_run
        entry = tmp_path / "entry"
        done = fresh_python(
            "import atexit, gc, runpy\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "runpy.run_module('crsched.cli', run_name='__main__')\n",
            "run", "--config", str(cfg), "--out", str(entry), "--jobs", "1",
        )
        assert done.stdout.endswith(f"wrote {entry / ROWS_FILENAME} (12 rows) and figures to {entry}\n"
                                    "frozen True\n")
        assert (entry / ROWS_FILENAME).read_bytes() == (out / ROWS_FILENAME).read_bytes()

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
        assert len(lines) == 4 and lines[3].startswith("wrote ")
        assert [line.split(":")[0] for line in lines[:3]] == [
            "[1/3] maxweight lambda=0.2 seed=1",
            "[2/3] maxweight lambda=0.1 seed=1",
            "[3/3] maxweight lambda=0 seed=1",
        ]

    def test_progress_lines_do_not_depend_on_jobs(self, tmp_path, capsys):
        # Tasks report in their fixed order, whichever process ran them, so
        # a parallel sweep prints what a serial run prints, line for line.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = {}
        for jobs in ("1", "2", "3"):
            code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs])
            assert code == 0
            out[jobs] = capsys.readouterr().out
        assert out["1"] == out["2"] == out["3"]
        assert len(out["1"].splitlines()) == 13

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

        def no_point(config, kinds):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr("crsched.sweep.run_rules", no_point)
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
    ("--lambda-step", "sweep", "lambda_step", "1e-999999999"),
    # Grids whose points are not distinct floats, refused before they are
    # built: 10^29 + 1 points, past 28-digit decimal, and two points that
    # round to one float.
    ("--lambda-step", "sweep", "lambda_step", {"--lambda-min": "0.1", "--lambda-max": "0.2",
                                               "--lambda-step": "1e-30"}),
    ("--lambda-step", "sweep", "lambda_step", {"--lambda-min": "0.1", "--lambda-max": "0.1000000000000000001",
                                               "--lambda-step": "1e-19"}),
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
    """A flag's value passes the file's rules: same message, at the flag.
    A grid row gives all three grid values, as flags or keys."""
    values = bad if isinstance(bad, dict) else {flag: bad}
    text = TINY
    for name, value in values.items():
        text = set_key(text, section, key if name == flag else name[2:].replace("-", "_"), value)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_spec(bad_cfg)
    assert exc.value.line is not None
    assert exc.value.message.startswith(f"[{section}] {key}: ")

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    flags = {**GRID_FLAGS, **values} if flag in GRID_FLAGS else values
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
