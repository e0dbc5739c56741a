import errno
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mvcreg._pool
import mvcreg.concentrations
import mvcreg.dataio
import mvcreg.estimator
import mvcreg.moments
import mvcreg.montecarlo
import mvcreg.simgen
from mvcreg import (
    ConcentrationMatrix,
    Dataset,
    compute_weights,
    fit_all,
    generate,
    plug_in_covariance,
    reference_study_config,
    run_study,
)
from mvcreg.cli import main
from mvcreg.dataio import read_csv, render_weights_csv, write_csv
from mvcreg.simgen import with_n_obs, with_seed
from conftest import children_left, dirichlet_design

SMOKE_CONFIG = {
    "n_obs": 100,
    "components": [
        {
            "regressors": [
                {"kind": "constant"},
                {"kind": "gaussian", "mean": 1.0, "sd": 1.0},
            ],
            "error_sd": 0.01,
            "coefficients": [3.0, 0.5],
        },
        {
            "regressors": [
                {"kind": "constant"},
                {"kind": "gaussian", "mean": 2.0, "sd": 1.5},
            ],
            "error_sd": 0.05,
            "coefficients": [-2.0, 1.0],
        },
    ],
    "seed": 7,
    "rep_count": 2,
}


def forbid_everywhere(monkeypatch, original, message):
    """Make every mvcreg binding of the function ``original`` raise; return the modules patched."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "mvcreg" and not name.startswith("mvcreg."):
            continue
        if getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, forbidden)
            patched.add(name)
    return patched


@pytest.fixture
def smoke_config_path(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(SMOKE_CONFIG))
    return path


@pytest.fixture
def dataset_csv(tmp_path):
    config, _ = reference_study_config()
    sim = generate(with_seed(with_n_obs(config, 400), 23))
    path = tmp_path / "data.csv"
    write_csv(path, sim.data, sim.p)
    return path


class TestSimulate:
    def test_writes_csv(self, tmp_path, smoke_config_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "-i", str(smoke_config_path), "-o", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "y,x1,x2,p1,p2"

    def test_deterministic(self, tmp_path, smoke_config_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "-i", str(smoke_config_path), "-o", str(a)]) == 0
        assert main(["simulate", "-i", str(smoke_config_path), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, smoke_config_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "-i", str(smoke_config_path), "-o", str(a)])
        main(["simulate", "-i", str(smoke_config_path), "--seed", "8", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bundled_default_config(self, tmp_path):
        out = tmp_path / "ref.csv"
        assert main(["simulate", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5001

    @pytest.mark.parametrize("n_obs", [1, 2])
    def test_too_few_observations_exit_2(self, tmp_path, capsys, n_obs):
        # d = 2 regressors and M = 2 components need at least 3 observations
        path = tmp_path / "small.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, n_obs=n_obs)))
        assert main(["simulate", "-i", str(path), "-o", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("mvcreg: config-error: n_obs:")


def _explicit_off_simplex(raw):
    values = [[0.5, 0.5]] * raw["n_obs"]
    values[4] = [0.4, 0.7]
    raw["concentrations"] = {"model": "explicit", "values": values}
    return "concentrations.values"


@pytest.mark.parametrize("command", ["simulate", "study"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda raw: raw["components"][0]["regressors"][1].update(mean=float("nan"))
        or "components[0].regressors[1].mean",
        lambda raw: raw["components"][1].update(coefficients=[float("inf"), 1.0])
        or "components[1].coefficients[0]",
        lambda raw: raw["components"][1]["regressors"][1].update(sd=float("inf"))
        or "components[1].regressors[1].sd",
        lambda raw: raw["components"][0].update(error_sd=float("inf"))
        or "components[0].error_sd",
        lambda raw: raw["components"][0]["regressors"][1].update(mean=10**400)
        or "components[0].regressors[1].mean",
        _explicit_off_simplex,
    ],
    ids=["mean-nan", "coefficient-inf", "sd-inf", "error-sd-inf", "mean-huge-int", "row-sum"],
)
def test_bad_numbers_in_config_exit_2(tmp_path, capsys, command, edit):
    raw = json.loads(json.dumps(SMOKE_CONFIG))
    field = edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity are JSON extensions Python reads
    assert main([command, "-i", str(path), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"mvcreg: config-error: {field}:")


@pytest.fixture
def overflow_config_path(tmp_path):
    # finite numbers whose products overflow: 1e308 * (1 + x) for x > 0.8
    raw = json.loads(json.dumps(SMOKE_CONFIG))
    raw["components"][0]["coefficients"] = [1e308, 1e308]
    raw["rep_count"] = 6
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    return path


def test_overflowing_draw_simulate_exit_2(tmp_path, capsys, overflow_config_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "-i", str(overflow_config_path), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mvcreg: config-error: components:")


_POOLED_STUDY = """
import sys
import mvcreg._pool
from mvcreg.cli import main

mvcreg._pool.worker_count = lambda tasks: 2  # the pool path on any host
sys.exit(main(sys.argv[1:]))
"""


def test_overflowing_draw_study_exit_2(overflow_config_path):
    # the analytic limit overflows too, so the parent refuses the config
    # before it starts a worker; the run has a timeout in case it does not
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.moments.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _POOLED_STUDY, "study", "-i", str(overflow_config_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    # the diagnostic alone, with no numpy warning before it
    (line,) = out.stderr.splitlines()
    assert line.startswith("mvcreg: config-error: components:")
    assert out.stdout == ""


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("fit", "--xtx-tol", "nan"),
        ("fit", "--xtx-tol", "0"),
        ("fit", "--gamma-tol", "nan"),
        ("fit", "--gamma-tol", "-1e8"),
        ("weights", "--gamma-tol", "nan"),
        ("study", "--rel-tol", "nan"),
        ("study", "--rel-tol", "0"),
    ],
)
def test_bad_tolerance_exit_2(
    tmp_path, capsys, dataset_csv, smoke_config_path, command, flag, value
):
    source = smoke_config_path if command == "study" else dataset_csv
    out = tmp_path / "out"
    assert main([command, f"{flag}={value}", "-i", str(source), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mvcreg: config-error: {flag}: must be positive, got {float(value)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, fmt", [("fit", "json"), ("weights", "csv"), ("simulate", "csv"), ("study", "table")]
)
def test_unwritable_output_exit_2(tmp_path, capsys, dataset_csv, smoke_config_path, command, fmt):
    # a directory that does not exist: one diagnostic line, no traceback
    source = smoke_config_path if command in ("simulate", "study") else dataset_csv
    out = tmp_path / "missing" / "out"
    assert main([command, "-i", str(source), "-o", str(out), "--format", fmt]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"mvcreg: config-error: --output: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("via", ["output", "stdout"])
def test_full_device_is_one_diagnostic(via):
    # every write to /dev/full fails with ENOSPC: one diagnostic line and
    # exit 2, with nothing more from the flush of stdout at exit
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.moments.__file__).parents[1]))
    argv = [sys.executable, "-m", "mvcreg.cli", "simulate"]
    with open("/dev/full", "wb") as full:
        if via == "output":
            out = subprocess.run([*argv, "-o", "/dev/full"], env=env, capture_output=True)
        else:
            out = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE)
    name = "/dev/full" if via == "output" else "standard output"
    assert (out.returncode, out.stderr.decode()) == (
        2,
        f"mvcreg: config-error: --output: cannot write {name}: No space left on device\n",
    )


def test_full_disk_leaves_existing_output(tmp_path, capsys, smoke_config_path, monkeypatch):
    # a write that fails part way leaves the file as it was and no temporary
    # file beside it
    def fill_disk(fh, data, p):
        fh.write("y,x1,x2,p1,p2\n")
        fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(mvcreg.dataio, "write_csv", fill_disk)
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    assert main(["simulate", "-i", str(smoke_config_path), "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        f"mvcreg: config-error: --output: cannot write {out}: No space left on device\n",
    )
    assert out.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "smoke.json"]


def test_failed_command_leaves_existing_output(tmp_path, capsys, dataset_csv):
    # the output is opened after the work, so a refused input truncates nothing
    out = tmp_path / "fit.json"
    out.write_text("kept\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1,p1\n1.0,oops,1.0\n")
    assert main(["fit", "-i", str(bad), "-o", str(out)]) == 2
    assert out.read_text() == "kept\n"


def _edited_csv(text: str) -> str:
    """``text`` with a blank line after each full row block, CRLF line endings
    and no final newline."""
    header, *rows = text.splitlines()
    chunk = mvcreg.dataio._CHUNK_ROWS
    for at in range(len(rows) // chunk * chunk, 0, -chunk):
        rows.insert(at, "")
    return "\r\n".join([header, *rows])


def _processes_naming(text: str) -> list[int]:
    """Ids of the running processes whose command line contains ``text``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if text.encode() in fh.read():
                    found.append(int(entry))
        except (OSError, ValueError):  # not a process, or one that has exited
            continue
    return found


_FORCED_POOL = """
import json, sys
import mvcreg._pool, mvcreg.dataio
from mvcreg.cli import main

mvcreg._pool.worker_count = lambda tasks: 2  # the pool path on any host,
mvcreg.dataio._POOL_MIN_CELLS = 0  # at any size
forks = []
fork = mvcreg._pool._fork
mvcreg._pool._fork = lambda *args: forks.append(1) or fork(*args)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, len(forks), sorted(sys.modules)]), file=sys.stderr)
"""


def run_forced_pool(commands, stdout) -> tuple[list[int], int, set[str]]:
    """Run ``commands`` through ``main`` in a fresh interpreter whose pools
    fork two workers at any size; the exit codes, the workers forked and
    the modules and packages loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.moments.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _FORCED_POOL, json.dumps(commands)],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    codes, forks, modules = json.loads(out.stderr.splitlines()[-1])
    return codes, forks, set(modules) | {m.split(".")[0] for m in modules}

_render_rows = mvcreg.dataio._render_rows
_replicate = mvcreg.montecarlo._replicate


def render_then_die(columns, start):
    """A render task whose worker dies at the second chunk."""
    if start >= mvcreg.dataio._CHUNK_ROWS:
        os._exit(1)
    return _render_rows(columns, start)


def replicate_then_die(plan, basis, xtx_tol, seed, reps):
    """A study task whose worker dies on any range but the first."""
    if reps.start > 0:
        os._exit(1)
    return _replicate(plan, basis, xtx_tol, seed, reps)


class TestIoPool:
    #: three full row blocks and a ragged last one
    N = 3 * mvcreg.dataio._CHUNK_ROWS + 5

    @pytest.fixture
    def io_config(self, tmp_path):
        raw = dict(SMOKE_CONFIG, n_obs=self.N)
        raw.pop("rep_count")
        path = tmp_path / "io.json"
        path.write_text(json.dumps(raw))
        return path

    @staticmethod
    def outputs(config: Path, work: Path) -> dict[str, bytes]:
        """``simulate``'s CSV, and the ``fit`` JSON and ``weights`` CSV of it edited."""
        work.mkdir()
        sim, edited = work / "sim.csv", work / "edited.csv"
        assert main(["simulate", "-i", str(config), "--seed", "3", "-o", str(sim)]) == 0
        edited.write_bytes(_edited_csv(sim.read_text()).encode("utf-8"))
        assert main(["fit", "-i", str(edited), "-o", str(work / "fit.json")]) == 0
        weights = ["weights", "-i", str(edited), "--format", "csv", "-o", str(work / "a.csv")]
        assert main(weights) == 0
        return {name: (work / name).read_bytes() for name in ("sim.csv", "fit.json", "a.csv")}

    def test_worker_count_does_not_change_bytes(self, tmp_path, io_config, io_pools, monkeypatch):
        def no_row_wise(*args):
            raise AssertionError("a well-formed CSV took the row-wise path")

        monkeypatch.setattr(mvcreg.dataio, "_parse_rows", no_row_wise)
        serial = self.outputs(io_config, tmp_path / "serial")
        assert io_pools.started == []  # below the crossover
        for workers in (1, 2, 3):
            io_pools.force(workers)
            assert self.outputs(io_config, tmp_path / f"w{workers}") == serial, workers
        # simulate renders, fit parses, weights parses and renders
        assert io_pools.started == [2] * 4 + [3] * 4

    def test_cpu_count_does_not_change_bytes(self, tmp_path, io_config, fresh_python):
        # fresh interpreters, one pinned to a single CPU, so it renders and
        # parses serially, and one left on every CPU
        code = (
            "import hashlib, os, sys\n"
            "from pathlib import Path\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import mvcreg.dataio\n"
            "from mvcreg._pool import worker_count\n"
            "from test_cli import TestIoPool\n"
            "mvcreg.dataio._POOL_MIN_CELLS = 0  # the pool path at this small N\n"
            "print(worker_count(24))\n"
            "for name, data in TestIoPool.outputs(Path(sys.argv[2]), Path(sys.argv[3])).items():\n"
            "    print(name, hashlib.sha256(data).hexdigest())\n"
        )
        serial = self.outputs(io_config, tmp_path / "serial")
        digests = "".join(f"{k} {hashlib.sha256(v).hexdigest()}\n" for k, v in serial.items())
        all_cpus = min(len(os.sched_getaffinity(0)), 24)
        for pin, workers in (("pin", 1), ("all", all_cpus)):
            args = ["-c", code, pin, str(io_config), str(tmp_path / pin)]
            assert fresh_python(args, 1).decode() == f"{workers}\n{digests}", pin

    def test_pooled_simulate_to_stdout_writes_one_header(self, tmp_path, io_config):
        # stdout is a file, so the header waits in the buffer when the render
        # workers fork; they end without flushing it
        serial, out = tmp_path / "serial.csv", tmp_path / "stdout.csv"
        assert main(["simulate", "-i", str(io_config), "-o", str(serial)]) == 0
        with open(out, "wb") as fh:
            codes, forks, _ = run_forced_pool([["simulate", "-i", str(io_config)]], fh)
        assert (codes, forks) == ([0], 2)
        text = out.read_bytes()
        assert text.count(b"y,x1") == 1
        assert text == serial.read_bytes()

    def test_pooled_commands_load_no_multiprocessing(self, tmp_path, io_config, smoke_config_path):
        sim, fit, study = (str(tmp_path / name) for name in ("sim.csv", "fit.json", "study.json"))
        codes, forks, loaded = run_forced_pool(
            [
                ["simulate", "-i", str(io_config), "-o", sim],
                ["fit", "-i", sim, "-o", fit],
                ["study", "-i", str(smoke_config_path), "-o", study],
            ],
            subprocess.DEVNULL,
        )
        assert (codes, forks) == ([0, 0, 0], 6)
        assert loaded.isdisjoint({"multiprocessing", "concurrent"}), loaded

    @pytest.mark.skipif(sys.platform != "linux", reason="looks for leftover workers in /proc")
    def test_simulate_into_a_closed_pipe_exits_cleanly(self, tmp_path):
        # `mvcreg simulate | head -2` at a size the workers render: the
        # closed pipe reaches the pool's shutdown, and the command exits 0
        # with nothing on stderr and no worker left behind
        raw = dict(SMOKE_CONFIG, n_obs=500000)
        raw.pop("rep_count")
        config, err = tmp_path / "closed-pipe.json", tmp_path / "stderr"
        config.write_text(json.dumps(raw))
        env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.moments.__file__).parents[1]))
        argv = [sys.executable, "-m", "mvcreg.cli", "simulate", "--seed", "1", "--input", str(config)]
        with open(err, "wb") as err_fh:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err_fh)
        try:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert head[0] == b"y,x1,x2,p1,p2\n" and head[1].count(b",") == 4
        assert (code, err.read_text()) == (0, "")
        assert _processes_naming(str(config)) == []

    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_lost_worker_is_one_diagnostic(
        self, tmp_path, capsys, io_config, smoke_config_path, io_pools, monkeypatch, command
    ):
        # a worker that dies mid-command: exit 1 with one diagnostic line, the
        # existing output as it was, no temporary file and no worker left
        io_pools.force(2)
        monkeypatch.setattr(mvcreg.dataio, "_render_rows", render_then_die)
        monkeypatch.setattr(mvcreg.montecarlo, "_replicate", replicate_then_die)
        work = tmp_path / "work"
        work.mkdir()
        out = work / "out"
        out.write_bytes(b"kept\n")
        source = io_config if command == "simulate" else smoke_config_path
        assert main([command, "-i", str(source), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("mvcreg: worker-lost: ")
        assert "Traceback" not in captured.err + captured.out
        assert out.read_bytes() == b"kept\n"
        assert sorted(os.listdir(work)) == ["out"]
        assert children_left() is None


def test_output_is_replaced_whole_with_the_mode_open_gives(tmp_path, smoke_config_path):
    # a new file gets 0o666 less the umask, a replaced one keeps its mode,
    # and a target that is not a regular file is written as it is
    umask = os.umask(0o022)
    os.umask(umask)
    created, kept = tmp_path / "created.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    for out in (created, kept, os.devnull):
        assert main(["simulate", "-i", str(smoke_config_path), "-o", str(out)]) == 0
    assert created.read_bytes() == kept.read_bytes()
    assert created.stat().st_mode & 0o777 == 0o666 & ~umask
    assert kept.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["created.csv", "kept.csv", "smoke.json"]


class TestFit:
    def test_round_trip_matches_library(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "-i", str(dataset_csv), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        data, p = read_csv(dataset_csv)
        fit = fit_all(data, p)
        np.testing.assert_array_equal(np.array(doc["coefficients"]), fit.coefficients)

    def test_estimates_near_truth(self, tmp_path, dataset_csv):
        out = tmp_path / "fit.json"
        main(["fit", "-i", str(dataset_csv), "-o", str(out)])
        doc = json.loads(out.read_text())
        b = np.array(doc["coefficients"])
        se = np.array(doc["std_errors"])
        truth = np.array([[3.0, 0.5], [-2.0, 1.0]])
        assert np.all(np.abs(b - truth) <= 3.0 * se + 1e-9)

    def test_noiseless_single_component(self, tmp_path, capsys):
        x = np.arange(1.0, 21.0)
        rows = ["y,x1,p1"] + [f"{2.0 * v},{v},1.0" for v in x]
        path = tmp_path / "line.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "-i", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coefficients"][0][0] == pytest.approx(2.0, abs=1e-10)
        assert doc["std_errors"][0][0] == pytest.approx(0.0, abs=1e-10)

    def test_intercept_flag_prepends_column(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        y = 1.5 + 2.0 * x + 0.01 * rng.normal(size=30)
        rows = ["y,x1,p1"] + [f"{float(yi)!r},{float(xi)!r},1.0" for yi, xi in zip(y, x)]
        path = tmp_path / "int.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "-i", str(path), "--intercept"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coefficients"][0][0] == pytest.approx(1.5, abs=0.02)
        assert doc["coefficients"][0][1] == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_too_few_rows_exit_2(self, tmp_path, capsys, intercept):
        # N = d + 1 rows are enough for x alone, not with the column of ones
        rows = ["y,x1,p1,p2", "1.0,2.0,0.5,0.5", "2.0,3.0,0.25,0.75"][: 3 if intercept else 2]
        path = tmp_path / "short.csv"
        path.write_text("\n".join(rows) + "\n")
        flags = ["--intercept"] if intercept else []
        assert main(["fit", "-i", str(path), *flags]) == 2
        n, d = (2, 2) if intercept else (1, 1)
        assert capsys.readouterr() == (
            "",
            f"mvcreg: data-format: {path}: need more observations than regressors "
            f"(N={n}, d={d})\n",
        )

    def test_clamp_warnings_reported_once(self, tmp_path, capsys):
        # seed 12345 of the bundled design clamps a plug-in error variance;
        # every target's covariance carries that note, the report only once
        config, _ = reference_study_config()
        sim = generate(with_seed(config, 12345))
        path = tmp_path / "clamp.csv"
        write_csv(path, sim.data, sim.p)
        assert main(["fit", "-i", str(path)]) == 0
        captured = capsys.readouterr()
        notes = json.loads(captured.out)["warnings"]
        clamps = [note for note in notes if "clamped to 0" in note]
        assert clamps
        assert len(set(notes)) == len(notes)
        stderr_notes = [
            line.removeprefix("mvcreg: warning: ") for line in captured.err.splitlines()
        ]
        assert stderr_notes == notes
        assert notes[: len(clamps)] == clamps
        assert clamps == sorted(clamps, key=lambda note: int(note.split()[3]))

    def test_fit_never_builds_the_fourth_moment_tensor(
        self, dataset_csv, monkeypatch
    ):
        patched = forbid_everywhere(
            monkeypatch,
            mvcreg.moments.weighted_fourth_moment,
            "mvcreg fit built the d^4 fourth-moment tensor",
        )
        assert {"mvcreg", "mvcreg.moments"} <= patched
        assert main(["fit", "-i", str(dataset_csv)]) == 0

    def test_fit_and_study_never_build_the_weight_matrix(self, tmp_path, monkeypatch):
        # fit and study work from concentration-weighted sums and the M x M
        # inverse Gramian; only `mvcreg weights` builds the N x M weights
        patched = forbid_everywhere(
            monkeypatch, mvcreg.concentrations.compute_weights, "built the weight matrix"
        )
        assert {"mvcreg", "mvcreg.concentrations", "mvcreg.cli"} <= patched
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(3), size=300)
        x = rng.normal(size=(300, 2))
        y = x @ [1.0, -1.0] + rng.normal(size=300)
        path = tmp_path / "dirichlet.csv"
        write_csv(path, mvcreg.moments.Dataset(y=y, x=x), mvcreg.ConcentrationMatrix(p))
        assert main(["fit", "-i", str(path), "--intercept", "-o", str(tmp_path / "fit.json")]) == 0

        # nor does a replication rebuild its grid point's Gramian or inverse:
        # the study builds each once, in the parent
        parent, built = os.getpid(), Counter()

        def per_grid_point(original):
            def counted(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError("a replication rebuilt its grid point's Gramian")
                built[original.__name__] += 1
                return original(*args, **kwargs)

            return counted

        for name in ("build_gramian", "invert_gramian"):
            monkeypatch.setattr(
                mvcreg.estimator, name, per_grid_point(getattr(mvcreg.estimator, name))
            )
        t = np.arange(1, 101) / 100
        rows = np.column_stack([1.0 - t, t]).tolist()
        ramp = mvcreg.simgen.simulation_config_from_dict(SMOKE_CONFIG)
        explicit = mvcreg.simgen.simulation_config_from_dict(
            dict(SMOKE_CONFIG, concentrations={"model": "explicit", "values": rows})
        )
        for workers in (1, 2):
            monkeypatch.setattr(mvcreg._pool, "worker_count", lambda _, w=workers: w)
            for config in (ramp, explicit):
                built.clear()
                assert run_study(config, rep_count=4).points[0].failures == 0
                assert built == {"build_gramian": 1, "invert_gramian": 1}, workers

    def test_cli_import_does_not_load_scipy(self, dataset_csv, tmp_path):
        # a fresh interpreter per run, so modules loaded by other tests or by
        # another command do not count; no run loads scipy or the study's
        # pool, which only a pooled study imports, and each command loads
        # only the modules it runs
        src = str(Path(mvcreg.moments.__file__).parents[1])
        code = (
            "import json, sys, mvcreg.cli\n"
            "codes = [mvcreg.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(sys.modules)]))"
        )
        data, out = str(dataset_csv), str(tmp_path / "out")
        fit_only = {"mvcreg.covariance", "mvcreg.estimator"}
        runs = {
            "import": ([], {"mvcreg.simgen", "mvcreg.montecarlo"} | fit_only),
            "fit": ([["fit", "-i", data, "-o", out]], {"mvcreg.simgen", "mvcreg.montecarlo"}),
            "weights": (
                [["weights", "-i", data, "-o", out]],
                {"mvcreg.simgen", "mvcreg.montecarlo"} | fit_only,
            ),
            "simulate": ([["simulate", "-o", out]], {"mvcreg.montecarlo"} | fit_only),
        }
        env = dict(os.environ, PYTHONPATH=src)
        for run, (commands, unloaded) in runs.items():
            result = subprocess.run(
                [sys.executable, "-c", code, json.dumps(commands)],
                env=env, capture_output=True, text=True, check=True,
            )
            codes, modules = json.loads(result.stdout)
            assert codes == [0] * len(commands), run
            loaded = set(modules) | {m.split(".")[0] for m in modules}
            assert "mvcreg.cli" in loaded
            unloaded |= {"scipy", "multiprocessing", "concurrent"}
            assert loaded.isdisjoint(unloaded), (run, loaded & unloaded)

    def test_chunked_fit_bytes_do_not_depend_on_blas_threads(self, tmp_path, fresh_python):
        # more than two row blocks of the normal-equation sums and of the
        # plug-in covariance's weight co-moments and quartic; the wide design
        # (M=6, d=7) makes the co-moment and quartic products big enough for
        # BLAS to split them over two threads
        n = 2 * mvcreg.moments._CHUNK_ROWS + 1000
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, n), 5))
        designs = {"tall": (sim.data, sim.p), "wide": dirichlet_design(11, 6, 7, n=n)}
        for name, (data, p) in designs.items():
            data_path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            write_csv(data_path, data, p)
            assert main(["fit", "-i", str(data_path), "-o", str(out)]) == 0
            assert json.loads(out.read_text())["plug_in_cov"]
            args = ["-m", "mvcreg.cli", "fit", "-i", str(data_path)]
            for blas_threads in (1, 2):
                assert fresh_python(args, blas_threads) == out.read_bytes(), (name, blas_threads)

    def test_standard_errors_are_the_covariance_results(self, dataset_csv, capsys):
        # the JSON std_errors and the table's se rows print the plug-in
        # covariances' own std_errors
        data, p = read_csv(dataset_csv)
        cov = plug_in_covariance(data, p, fit_all(data, p))
        assert main(["fit", "-i", str(dataset_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["std_errors"]) == len(cov.std_errors) == 2
        assert np.array(doc["std_errors"]).tobytes() == cov.std_errors.tobytes()
        assert main(["fit", "-i", str(dataset_csv), "--format", "table"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[1:] for row in rows if row[0] == "se"] == [
            [f"{se:.4f}" for se in row] for row in cov.std_errors
        ]

    def test_table_format(self, dataset_csv, capsys):
        assert main(["fit", "-i", str(dataset_csv), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "component" in out and "det(Gamma)" in out

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,p1\n1.0,nope,1.0\n")
        assert main(["fit", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mvcreg: data-format:")

    @pytest.mark.parametrize("command", ["fit", "weights"])
    def test_cr_only_line_endings_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"y,x1,p1\r1.0,2.0,1.0\r4.0,3.0,1.0\r")
        assert main([command, "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mvcreg: data-format: {path}: line 1:")

    @pytest.mark.parametrize("command", ["fit", "weights"])
    def test_non_utf8_byte_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,x1,p1\n1.0,2.0,1.0\n4.0,3.0,1.0\n\xe9,1.0,1.0\n")
        assert main([command, "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mvcreg: data-format: {path}: not UTF-8 text")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("command", ["fit", "weights"])
    def test_piped_input_exit_2(self, dataset_csv, command):
        # each block of lines reopens the input and seeks to it, which a pipe cannot do
        env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.moments.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "mvcreg.cli", command, "-i", "/dev/stdin"],
            input=dataset_csv.read_bytes(), env=env, capture_output=True, timeout=60,
        )
        assert out.returncode == 2, out.stderr
        (line,) = out.stderr.decode().splitlines()  # the diagnostic alone, no traceback
        assert line == (
            "mvcreg: data-format: cannot read /dev/stdin: a regular file is needed, not a pipe"
        )
        assert out.stdout == b""

    @pytest.mark.parametrize("command", ["fit", "weights"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, dataset_csv, command):
        # as spreadsheet programs save "CSV UTF-8"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + dataset_csv.read_bytes())
        assert main([command, "-i", str(dataset_csv)]) == 0
        expected = capsys.readouterr()
        assert main([command, "-i", str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_duplicate_concentrations_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = ["y,x1,p1,p2"]
        for _ in range(20):
            rows.append(f"{rng.normal()!r},{rng.normal()!r},0.5,0.5")
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "-i", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("mvcreg: singular-gramian:")
        assert "identifiability" in err

    def test_many_components_with_tiny_determinant_fit(self, tmp_path, capsys):
        # uniform Dirichlet rows at M=6: det(Gamma) ~ 1e-9 but cond ~ 7
        rng = np.random.default_rng(6)
        n, n_comp = 2000, 6
        p = rng.dirichlet(np.ones(n_comp), size=n)
        x = rng.normal(size=n)
        y = 1.0 + x + rng.normal(size=n)
        rows = ["y,x1," + ",".join(f"p{k + 1}" for k in range(n_comp))]
        rows += [",".join(repr(float(v)) for v in (y[j], x[j], *p[j])) for j in range(n)]
        path = tmp_path / "dirichlet6.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "-i", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["det_gamma"] < 1e-8
        assert doc["errors"] == {}

    def test_collinear_regressors_exit_4(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = ["y,x1,x2,p1"]
        for _ in range(20):
            x = rng.normal()
            rows.append(f"{rng.normal()!r},{x!r},{2 * x!r},1.0")
        path = tmp_path / "coll.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "-i", str(path)]) == 4
        err = capsys.readouterr().err
        assert "singular-normal-matrix" in err
        assert "nonsingular" in err

    def test_xtx_tol_is_the_only_condition_gate(self, tmp_path, capsys):
        # x2 = x1 + 1e-7 noise: cond(X'AX) near 1e14 passes --xtx-tol 1e20,
        # and the plug-in covariance of those matrices adds no gate of its own
        rng = np.random.default_rng(3)
        n = 2000
        t = np.arange(1, n + 1) / n
        x1 = rng.normal(size=n)
        x = np.column_stack([x1, x1 + 1e-7 * rng.normal(size=n)])
        y = x @ [1.0, 1.0] + 0.1 * rng.normal(size=n)
        path = tmp_path / "near-collinear.csv"
        write_csv(path, Dataset(y=y, x=x), ConcentrationMatrix(np.column_stack([t, 1 - t])))
        assert main(["fit", "-i", str(path), "--xtx-tol", "1e20"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["errors"] == {} and min(doc["xtx_condition"]) > 1e12
        assert np.isfinite(doc["coefficients"]).all()
        assert np.isfinite(doc["std_errors"]).all()
        assert "singular-d" not in err


class TestWeights:
    def test_two_row_identity(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        path.write_text("y,x1,p1,p2\n1.0,1.0,1.0,0.0\n4.0,2.0,0.0,1.0\n")
        assert main(["weights", "-i", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["weights"], [[2.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_single_column_of_ones(self, tmp_path, capsys):
        rows = ["y,x1,p1"] + [f"{float(i)},{float(i)},1.0" for i in range(1, 6)]
        path = tmp_path / "ones.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["weights", "-i", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.array(doc["weights"]).tolist() == [[1.0]] * 5

    def test_ramp_biorthogonality_reported(self, tmp_path, capsys):
        config, _ = reference_study_config()
        sim = generate(with_n_obs(config, 1000))
        path = tmp_path / "ramp.csv"
        write_csv(path, sim.data, sim.p)
        assert main(["weights", "-i", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["biorthogonality"], np.eye(2), atol=1e-10)

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        path.write_text("y,x1,p1,p2\n1.0,1.0,1.0,0.0\n4.0,2.0,0.0,1.0\n")
        assert main(["weights", "-i", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a1,a2"
        assert lines[1] == "2.0,0.0"

    def test_csv_is_streamed_with_the_rendered_bytes(self, tmp_path, capsys, monkeypatch):
        # more than two chunks of rows, written without joining the whole text
        n = 2 * mvcreg.dataio._CHUNK_ROWS + 3
        config, _ = reference_study_config()
        sim = generate(with_n_obs(config, n))
        path, out = tmp_path / "ramp.csv", tmp_path / "a.csv"
        write_csv(path, sim.data, sim.p)
        expected = render_weights_csv(compute_weights(sim.p))

        def whole_text(*args, **kwargs):
            raise AssertionError("mvcreg weights joined the whole CSV text")

        monkeypatch.setattr(mvcreg.dataio, "render_weights_csv", whole_text)
        assert main(["weights", "-i", str(path), "--format", "csv", "-o", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        assert main(["weights", "-i", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected


class TestStudy:
    def test_smoke_config_completes(self, smoke_config_path, capsys):
        assert main(["study", "-i", str(smoke_config_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "comparison" not in doc
        assert doc["points"][0]["rep_count"] == 2

    def test_table_output(self, smoke_config_path, capsys):
        assert main(["study", "-i", str(smoke_config_path), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "component 1" in out and "inf" in out

    def test_missing_component_spec_exit_2(self, tmp_path, capsys):
        raw = dict(SMOKE_CONFIG, n_components=2, components=SMOKE_CONFIG["components"][:1])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        assert main(["study", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mvcreg: config-error:")
        assert "components" in err

    def test_grid_entry_too_small_exit_2(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, n_grid=[2, 500])))
        assert main(["study", "-i", str(path)]) == 2
        assert capsys.readouterr().err.startswith("mvcreg: config-error: n_grid: is 2;")

    def test_identical_concentration_columns_exit_3(self, tmp_path, capsys, monkeypatch):
        # the concentrations are not identifiable: refused before any draw
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", no_draw)
        raw = dict(SMOKE_CONFIG, n_obs=40)
        raw["concentrations"] = {"model": "explicit", "values": [[0.5, 0.5]] * 40}
        path = tmp_path / "identical.json"
        path.write_text(json.dumps(raw))
        assert main(["study", "-i", str(path)]) == 3
        assert capsys.readouterr().err.startswith("mvcreg: singular-gramian:")

    def test_singular_d_exit_4(self, tmp_path, capsys, monkeypatch):
        # two constant regressors: D is exactly singular, so the analytic
        # limit is undefined and the study stops before any draw
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", no_draw)
        raw = json.loads(json.dumps(SMOKE_CONFIG))
        for component in raw["components"]:
            component["regressors"] = [{"kind": "constant"}, {"kind": "constant"}]
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(raw))
        assert main(["study", "-i", str(path)]) == 4
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith("mvcreg: singular-d: second-moment matrix D for component index 0")
        assert line.endswith("(condition number inf)")
        assert out == ""

    def test_unenforceable_tolerance_exit_5(self, smoke_config_path, capsys):
        code = main(
            ["study", "-i", str(smoke_config_path), "--reps", "40", "--rel-tol", "1e-9"]
        )
        assert code == 5
        assert "comparison-failure" in capsys.readouterr().err

    def test_reps_override(self, smoke_config_path, capsys):
        assert main(["study", "-i", str(smoke_config_path), "--reps", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0]["rep_count"] == 5

    def test_rep_count_required_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", no_draw)
        raw = {key: value for key, value in SMOKE_CONFIG.items() if key != "rep_count"}
        path = tmp_path / "no_reps.json"
        path.write_text(json.dumps(raw))
        assert main(["study", "-i", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "mvcreg: config-error: rep_count: not set in the config and no override given\n",
        )

    def test_reps_override_wins_over_config(self, tmp_path, capsys):
        # --reps replaces the config's rep_count; its n_grid is kept
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, rep_count=50, n_grid=[80])))
        assert main(["study", "-i", str(path), "--reps", "8"]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert (point["n_obs"], point["rep_count"]) == (80, 8)

    def test_duplicate_grid_entries_exit_2(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, n_grid=[100, 60, 100])))
        assert main(["study", "-i", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "mvcreg: config-error: n_grid: entries must be distinct\n",
        )

    def test_byte_identical_reports(self, tmp_path, smoke_config_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["study", "-i", str(smoke_config_path), "--reps", "6"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_env_does_not_change_bytes(self, tmp_path, smoke_config_path, fresh_python):
        out = tmp_path / "a.json"
        args = ["study", "-i", str(smoke_config_path), "--reps", "6"]
        assert main(args + ["-o", str(out)]) == 0
        for blas_threads in (1, 2):
            assert fresh_python(["-m", "mvcreg.cli", *args], blas_threads) == out.read_bytes()


def test_csv_round_trip_fit_matches_in_memory(tmp_path):
    # simulate -> CSV -> fit must agree bit-for-bit with the in-memory path
    config, _ = reference_study_config()
    sim = generate(with_seed(with_n_obs(config, 300), 99))
    fit = fit_all(sim.data, sim.p)
    raw = dict(SMOKE_CONFIG, n_obs=300, seed=99)
    raw.pop("rep_count")
    config_path = tmp_path / "rt.json"
    config_path.write_text(json.dumps(raw))
    csv_path = tmp_path / "rt.csv"
    out_path = tmp_path / "rt.json.out"
    assert main(["simulate", "-i", str(config_path), "-o", str(csv_path)]) == 0
    assert main(["fit", "-i", str(csv_path), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert np.array(doc["coefficients"]).tolist() == fit.coefficients.tolist()


_PEAK_GROWTH = """
import sys
import mvcreg.cli

def peak_kib():
    # VmHWM is this process's own peak; ru_maxrss can carry the forking parent's
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

base = peak_kib()
code = mvcreg.cli.main(sys.argv[1:])
print(code, (peak_kib() - base) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_simulate_and_fit_peak_memory(tmp_path):
    # Each command runs in a fresh interpreter; its peak RSS above the
    # interpreter with mvcreg.cli imported is measured against the bytes of
    # the N x (1 + d + M) table it writes or reads.  With every N-sized array
    # held once, simulate grows by ~2.6 tables and fit by ~1.9 at this N;
    # copying each array at every layer took 4.6 and 2.6.
    n = 200000
    table_mib = n * (1 + 2 + 2) * 8 / 2**20
    config_path, csv_path = tmp_path / "tall.json", tmp_path / "tall.csv"
    raw = dict(SMOKE_CONFIG, n_obs=n)
    raw.pop("rep_count")
    config_path.write_text(json.dumps(raw))
    src = str(Path(mvcreg.moments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    commands = {
        "simulate": (["simulate", "-i", str(config_path), "-o", str(csv_path)], 3.4),
        "fit": (["fit", "-i", str(csv_path), "-o", str(tmp_path / "fit.json")], 2.4),
    }
    for name, (argv, tables) in commands.items():
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_GROWTH, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        code, growth_mib = out.stdout.split()
        assert code == "0", out.stderr
        assert float(growth_mib) <= tables * table_mib, (name, growth_mib)
