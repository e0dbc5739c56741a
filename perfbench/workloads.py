"""The benchmark's workloads: which mvcreg commands one closed-loop cycle runs.

Each workload is a fixed sequence of CLI commands.  One client runs them in
order and starts the next command only when the previous one has exited.
The same argument lists drive the timed subprocess runs and the in-process
traced run, so both measure the same work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: ``mvcreg study`` on the bundled reference design; the tolerance makes the
#: command itself check the estimator against its analytic limit
STUDY_REL_TOL = "0.15"
#: bundled reference design: M=2, d=2 (constant and one Gaussian regressor),
#: grid 500/1000/2000/5000 with 2000 replications at each point
STUDY_REPS = 4 * 2000

#: analyst-style fit whose cost is dominated by the plug-in covariance
WIDE_N, WIDE_M, WIDE_D = 20000, 4, 6
#: the reference design drawn large and read back: CSV write then read
TALL_N = 500000

WORKLOADS = ("study-ref", "fit-wide", "roundtrip-tall")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a cycle.

    ``argv`` follows ``mvcreg``; ``stdout`` is where its standard output
    goes, ``output`` a file the command writes itself, and ``ops`` how many
    operations it holds for the failure count.
    """

    name: str
    argv: tuple[str, ...]
    stdout: str
    output: str | None
    ops: int


def shape(workload: str) -> dict[str, int]:
    """N, M and d of the data a workload's commands handle (largest grid N for the study)."""
    if workload == "study-ref":
        return {"N": 5000, "M": 2, "d": 2, "reps": STUDY_REPS}
    if workload == "fit-wide":
        return {"N": WIDE_N, "M": WIDE_M, "d": WIDE_D}
    return {"N": TALL_N, "M": 2, "d": 2}


def wide_csv(work: str) -> str:
    return os.path.join(work, "wide.csv")


def tall_config(work: str) -> str:
    return os.path.join(work, "tall.json")


def commands(workload: str, seed: int, work: str, tag: str) -> list[Command]:
    """The cycle of ``workload``; ``tag`` keeps output files of different runs apart."""

    def out(name: str) -> str:
        return os.path.join(work, f"{tag}-{name}")

    if workload == "study-ref":
        argv = ("study", "--rel-tol", STUDY_REL_TOL, "--seed", str(seed))
        return [Command("study", argv, out("study.json"), None, STUDY_REPS)]
    if workload == "fit-wide":
        argv = ("fit", "--input", wide_csv(work), "--intercept")
        return [Command("fit", argv, out("fit.json"), None, 1)]
    if workload == "roundtrip-tall":
        csv_path = out("tall.csv")
        simulate = ("simulate", "--input", tall_config(work), "--seed", str(seed), "--output", csv_path)
        return [
            Command("simulate", simulate, out("simulate.out"), csv_path, 1),
            Command("fit", ("fit", "--input", csv_path), out("fit.json"), None, 1),
        ]
    raise KeyError(workload)
