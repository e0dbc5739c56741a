"""In-process runs of a workload's cycle: a warm-up, then untraced and traced.

Usage: ``python3 perfbench/traced.py WORKLOAD SEED WORKDIR SPANS_JSON``
(with ``src`` on ``PYTHONPATH``).

Calls ``mvcreg.cli.main`` with each command's arguments, as the console
script would.  The warm-up cycle pays the one-time costs (lazy imports, first
touches of memory) so that the untraced and traced runs after it differ only
by the tracing; in a traced run every public mvcreg function is wrapped by
the tracer.  Prints one JSON object: the untraced and traced walls of the
cycle, the per-function span summary, the counters, and every output file so
the caller can compare their bytes with the subprocess runs.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import tracer
import workloads


def run_command(cli, cmd: workloads.Command) -> tuple[float, int]:
    """Run one command as the console script would; wall seconds and exit code."""
    with open(cmd.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(list(cmd.argv))
        return time.perf_counter() - start, code


def main(argv: list[str]) -> int:
    workload, seed, work, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    import mvcreg.cli

    warm = workloads.commands(workload, seed, work, "warmup")
    codes = [run_command(mvcreg.cli, cmd)[1] for cmd in warm]

    rec = tracer.Tracer()
    plain = workloads.commands(workload, seed, work, "inproc")
    traced = workloads.commands(workload, seed, work, "traced")
    plain_wall = traced_wall = 0.0
    # each command runs untraced and then traced right after it, so that both
    # see the machine in the same state as far as possible
    for cmd_plain, cmd_traced in zip(plain, traced):
        wall, code = run_command(mvcreg.cli, cmd_plain)
        plain_wall += wall
        codes.append(code)
        uninstall = tracer.install(rec, "mvcreg")
        try:
            wall, code = run_command(mvcreg.cli, cmd_traced)
        finally:
            uninstall()
        traced_wall += wall
        codes.append(code)
    rec.write(spans_path)
    outputs = [(c.name, c.stdout, c.output) for c in warm + plain + traced]
    print(
        json.dumps(
            {
                "plain_wall_s": plain_wall,
                "traced_wall_s": traced_wall,
                "exit_codes": codes,
                "outputs": outputs,
                "functions": rec.summary(),
                "counters": rec.counters,
                "hook_errors": rec.hook_errors,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
