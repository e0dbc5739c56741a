"""mvcreg benchmark: run one workload through the real CLI and report metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {study-ref,fit-wide,roundtrip-tall}
                             --seed N --seconds S --trace {0,1}

The workload's inputs are made from ``--seed``.  Each command runs as
``python -m mvcreg.cli ...`` with ``src`` on ``PYTHONPATH``, one client in a
closed loop: the next command starts when the previous one has exited.
Walls are taken around each subprocess and its peak RSS is read with
``os.wait4``.  Every output is checked (``reference.py``), and outputs must be
byte-identical across the repetitions of a run.

``--trace 0`` repeats the workload's cycle for about ``--seconds`` (at least
twice) and reports the end-to-end metrics.  ``--trace 1`` runs one cycle as
subprocesses, then in one process a warm-up cycle, an untraced cycle and a
traced cycle (``traced.py``), and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and
the environment record are written under ``.bench_out/``.

This process imports nothing beyond the standard library: a child's peak RSS
includes the parent's at the time of the fork, so the parent stays small and
numpy work happens in helper processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: set-ups per run; setup_s is their median
SETUPS = 9
#: every process this run starts is killed once the run has lasted this long
DEADLINE_S = 170.0

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: traced functions reported per layer, as ``<module>.<function>``
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.cmd_fit",
    "cli.cmd_simulate",
    "cli.cmd_study",
    "dataio.read_csv",
    "dataio.parse_csv_text",
    "dataio.render_csv",
    "dataio.dumps",
    "simgen.generate",
    "simgen.true_component_moments",
    "simgen.limit_co_moments",
    "concentrations.build_gramian",
    "concentrations.compute_weights",
    "concentrations.weight_co_moments",
    "estimator.fit_all",
    "moments.component_regression_moments",
    "moments.weighted_fourth_moment",
    "covariance.plug_in_covariance",
    "covariance.analytic_sigma",
    "montecarlo.run_study",
    "montecarlo.compare_report",
)

#: per-layer metrics that are not a function's calls/total_s/self_s:
#: name -> (unit, better)
LAYER_COUNTERS = {
    "moments.weighted_fourth_moment.flops_computed": ("flop", "lower"),
    "moments.component_regression_moments.flops_computed": ("flop", "lower"),
    "dataio.parse_csv_text.bytes": ("B", "lower"),
    "dataio.render_csv.bytes": ("B", "lower"),
    "montecarlo.run_study.reps": ("count", "higher"),
    "montecarlo.run_study.failed_reps": ("count", "lower"),
    "concentrations.build_gramian.calls_per_rep": ("calls/rep", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = ("count", "lower")
        units[f"{fn}.total_s"] = ("s", "lower")
        units[f"{fn}.self_s"] = ("s", "lower")
    units.update(LAYER_COUNTERS)
    return units


class Run:
    """State of one benchmark run: its directories, deadline and findings."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.problems: list[str] = []
        self.environment: dict = {}
        #: walls of ``inputs.py``, the benchmark's own part of a set-up
        self.input_walls: list[float] = []
        #: walls of ``python -m mvcreg.cli --help``: interpreter start and imports
        self.startups: list[float] = []
        src = os.path.join(ROOT, "src")
        old = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def spawn(self, argv: list[str], stdout_path: str) -> dict:
        """Run a process to completion; its wall, exit code and peak RSS."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.child_env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def cli(self, cmd: workloads.Command) -> dict:
        if cmd.output is not None and os.path.exists(cmd.output):
            os.remove(cmd.output)  # every repetition creates its file afresh
        rec = self.spawn([sys.executable, "-m", "mvcreg.cli", *cmd.argv], cmd.stdout)
        rec["cmd"] = cmd
        return rec

    def helper(self, script: str, *args) -> dict | None:
        """Run a helper script; its JSON result, or None and a problem noted."""
        log = os.path.join(self.work, f"{script}.log")
        rec = self.spawn([sys.executable, os.path.join(HERE, script), *map(str, args)], log)
        with open(log, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if rec["rc"] != 0 or not lines:
            with open(log + ".err", encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            self.problems.append(f"{script} {' '.join(map(str, args))} exited {rec['rc']}: {tail}")
            return None
        return json.loads(lines[-1])


def digest(path: str | None) -> str | None:
    if path is None:
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def set_up(run: Run) -> float:
    """Make the inputs and warm up once; the wall it took."""
    start = time.perf_counter()
    info = run.helper("inputs.py", run.workload, run.seed, run.work)
    made = time.perf_counter()
    warm = run.spawn([sys.executable, "-m", "mvcreg.cli", "--help"], os.path.join(run.work, "warmup.out"))
    wall = time.perf_counter() - start
    run.input_walls.append(made - start)
    run.startups.append(warm["wall_s"])
    if info is None or warm["rc"] != 0:
        run.problems.append("set-up failed")
    else:
        run.environment = info["env"]
    return wall


def measure(run: Run, seconds: float, at_least: int) -> tuple[list[float], list[list[dict]]]:
    """Set-up walls and the cycles' command records.

    The cycle repeats while another one fits in ``seconds`` of command time,
    at least ``at_least`` times.  The set-ups after the first run between
    cycles, so that their median samples the whole run and not only its start.
    """
    setups = [set_up(run)]
    cycles: list[list[dict]] = []
    spent = 0.0
    while True:
        cmds = workloads.commands(run.workload, run.seed, run.work, f"c{len(cycles)}")
        cycles.append([run.cli(cmd) for cmd in cmds])
        spent += sum(rec["wall_s"] for rec in cycles[-1])
        if len(setups) < SETUPS:
            setups.append(set_up(run))
        if len(cycles) >= at_least and spent * (len(cycles) + 1) / len(cycles) > seconds:
            break
    while len(setups) < SETUPS:
        setups.append(set_up(run))
    return setups, cycles


def check_outputs(run: Run, cycles: list[list[dict]]) -> tuple[int, int]:
    """Check every command's output; operations attempted and failed."""
    verdicts: dict[tuple, int | None] = {}  # (command, digests) -> failed ops or None
    first: dict[str, tuple] = {}
    attempted = failed = 0
    for cycle in cycles:
        for rec in cycle:
            cmd = rec["cmd"]
            attempted += cmd.ops
            if rec["rc"] != 0:
                run.problems.append(f"{cmd.name} exited {rec['rc']}")
                failed += cmd.ops
                continue
            key = (cmd.name, digest(cmd.stdout), digest(cmd.output))
            first.setdefault(cmd.name, key)
            if key != first[cmd.name]:
                run.problems.append(f"{cmd.name} output bytes differ between repetitions")
                failed += cmd.ops
                continue
            if key not in verdicts:
                verdicts[key] = reference_verdict(run, cmd, cycle)
            failed += cmd.ops if verdicts[key] is None else verdicts[key]
    return attempted, failed


def reference_verdict(run: Run, cmd: workloads.Command, cycle: list[dict]) -> int | None:
    """Failed operations the output holds, or None when all of them failed."""
    if cmd.name == "study":
        result = run.helper("reference.py", "study", cmd.stdout, cmd.ops)
        if result is None:
            return None
        run.problems += result["problems"]
        if result["failed_reps"]:
            run.problems.append(f"{result['failed_reps']} study replications failed")
        return None if result["problems"] else result["failed_reps"]
    if cmd.name == "fit":
        if run.workload == "fit-wide":
            args = (workloads.wide_csv(run.work), cmd.stdout, "--intercept")
        else:
            # the simulated data must also fit back to the design's coefficients
            args = (cycle[0]["cmd"].output, cmd.stdout, "--design", workloads.tall_config(run.work))
        result = run.helper("reference.py", "fit", *args)
    else:  # simulate
        result = run.helper("reference.py", "simulated", cmd.output, workloads.tall_config(run.work))
    if result is None or result["problems"]:
        run.problems += result["problems"] if result else []
        return None
    return 0


def report_cycles(run: Run, setups: list[float], cycles: list[list[dict]]) -> dict:
    """Print the per-command figures and return the end-to-end metrics."""
    shape = workloads.shape(run.workload)
    print(
        f"setup_s: median {median(setups):.4f} s over {len(setups)} set-ups; of which "
        f"inputs.py median {median(run.input_walls):.4f} s (benchmark), "
        f"mvcreg --help median {median(run.startups):.4f} s (program)"
    )
    for i, cmd in enumerate(c["cmd"] for c in cycles[0]):
        walls = [cycle[i]["wall_s"] for cycle in cycles]
        rss = [cycle[i]["rss_mb"] for cycle in cycles]
        cpu = [cycle[i]["cpu_s"] for cycle in cycles]
        items, unit = (shape["reps"], "reps/s") if cmd.name == "study" else (shape["N"], "rows/s")
        rate = "reps_per_s" if cmd.name == "study" else "rows_per_s"
        print(
            f"{cmd.name}_wall_s: median {median(walls):.4f} s, max {max(walls):.4f} s, "
            f"n={len(walls)}; cpu median {median(cpu):.4f} s"
        )
        print(f"{cmd.name}_{rate}: median {items / median(walls):.1f} {unit}")
        print(f"{cmd.name}_peak_rss_mb: median {median(rss):.1f} MiB, max {max(rss):.1f} MiB")
    walls = [sum(r["wall_s"] for r in cycle) for cycle in cycles]
    items = shape.get("reps", shape["N"])
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "items_per_s": median([items / w for w in walls]),
        "peak_rss_mb": median([max(r["rss_mb"] for r in cycle) for cycle in cycles]),
    }


def traced_metrics(run: Run) -> tuple[dict, int, int]:
    """In-process cycles, warm-up, untraced and traced; per-layer metrics and op counts."""
    spans = os.path.join(OUT_DIR, f"spans-{run.workload}-seed{run.seed}.json")
    result = run.helper("traced.py", run.workload, run.seed, run.work, spans)
    cmds = workloads.commands(run.workload, run.seed, run.work, "c0")
    ops = 3 * sum(cmd.ops for cmd in cmds)
    if result is None:
        return {}, ops, ops
    failed = 0
    expected = {c.name: (digest(c.stdout), digest(c.output)) for c in cmds}
    for (name, stdout, output), code in zip(result["outputs"], result["exit_codes"]):
        if code != 0 or (digest(stdout), digest(output)) != expected[name]:
            run.problems.append(f"in-process {name} differs from the subprocess run")
            failed += next(c.ops for c in cmds if c.name == name)
    if result["hook_errors"]:
        run.problems += result["hook_errors"]

    functions, counters = result["functions"], result["counters"]
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        row = functions.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{fn}.{key}"] = row[key]
    for name in LAYER_COUNTERS:
        metrics[name] = counters.get(name, 0)
    reps = counters.get("montecarlo.run_study.reps", 0)
    gramians = metrics["concentrations.build_gramian.calls"]
    metrics["concentrations.build_gramian.calls_per_rep"] = gramians / reps if reps else 0.0
    metrics["cli.startup_s"] = median(run.startups)
    metrics["trace.overhead_s"] = result["traced_wall_s"] - result["plain_wall_s"]

    print(f"in-process cycle {result['plain_wall_s']:.4f} s untraced, "
          f"{result['traced_wall_s']:.4f} s traced; spans in {os.path.relpath(spans, ROOT)}")
    print(f"{'function':<44}{'calls':>9}{'total_s':>11}{'self_s':>11}")
    for name, row in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<44}{row['calls']:>9}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
    for name in LAYER_COUNTERS:
        print(f"{name}: {metrics[name]}")
    return metrics, ops, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mvcreg", "cli.py")):
        print(f"perfbench: no mvcreg sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = Run(args.workload, args.seed, work)
    try:
        # a traced run times one cycle; the traced in-process runs follow it
        seconds = 0.0 if args.trace else args.seconds
        setups, cycles = measure(run, seconds, at_least=1 if args.trace else 2)
        env = dict(run.environment, seed=args.seed, workload=args.workload)
        env.update(workloads.shape(args.workload))
        with open(os.path.join(OUT_DIR, f"env-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(env, fh, indent=1)
        print(f"workload {args.workload}, seed {args.seed}, closed loop with one client")
        print("environment: " + json.dumps(env))
        cycle_metrics = report_cycles(run, setups, cycles)
        attempted, failed = check_outputs(run, cycles)
        if args.trace:
            metrics, ops, bad = traced_metrics(run)
            attempted, failed = attempted + ops, failed + bad
            units = {name: unit for name, (unit, _) in per_layer_units().items()}
        else:
            metrics, units = cycle_metrics, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
