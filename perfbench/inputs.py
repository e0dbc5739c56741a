"""Make a workload's inputs from the benchmark seed, and record the environment.

Usage: ``python3 perfbench/inputs.py WORKLOAD SEED WORKDIR``

Writes the inputs into WORKDIR and prints one JSON object with the files
written and the environment: core count, library versions, the BLAS numpy
was built against and the thread-related variables as found (none is set or
changed here).
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import sys

import numpy as np

import workloads

THREAD_VARS = (
    "MVCREG_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: fit-wide design: per-component regressor means (5 Gaussian regressors, unit
#: sd), coefficients (intercept first) and error sd; Dirichlet(1) rows
_WIDE_MEANS = np.array(
    [
        [0.0, 1.0, -1.0, 0.5, 2.0],
        [1.0, -0.5, 0.0, 1.5, -1.0],
        [-1.0, 0.5, 1.0, -1.5, 0.0],
        [0.5, 2.0, -0.5, 0.0, 1.0],
    ]
)
_WIDE_COEF = np.array(
    [
        [1.0, 0.5, -1.0, 2.0, 0.25, -0.5],
        [-2.0, 1.5, 0.5, -0.75, 1.0, 0.3],
        [0.5, -1.0, 1.25, 0.6, -2.0, 1.0],
        [3.0, 0.2, -0.4, 1.0, 0.8, -1.5],
    ]
)
_WIDE_ERROR_SD = np.array([0.5, 1.0, 0.25, 0.75])


def wide_dataset(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y (N), regressors without the intercept column (N x 5), p (N x M)."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, n_comp = workloads.WIDE_N, workloads.WIDE_M
    p = rng.dirichlet(np.ones(n_comp), size=n)
    labels = np.minimum((p.cumsum(axis=1) <= rng.random((n, 1))).sum(axis=1), n_comp - 1)
    x = _WIDE_MEANS[labels] + rng.standard_normal((n, workloads.WIDE_D - 1))
    coef = _WIDE_COEF[labels]
    y = coef[:, 0] + np.einsum("ji,ji->j", x, coef[:, 1:])
    y += _WIDE_ERROR_SD[labels] * rng.standard_normal(n)
    return y, x, p


def render_csv(y: np.ndarray, x: np.ndarray, p: np.ndarray) -> str:
    """``y,x1..xd,p1..pM`` with ``repr`` floats, so parsing restores the exact arrays."""
    header = ["y"] + [f"x{i + 1}" for i in range(x.shape[1])]
    header += [f"p{k + 1}" for k in range(p.shape[1])]
    rows = np.column_stack([y, x, p]).tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, root: str, work: str) -> list[str]:
    if workload == "fit-wide":
        path = workloads.wide_csv(work)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_csv(*wide_dataset(seed)))
        return [path]
    if workload == "roundtrip-tall":
        bundled = os.path.join(root, "src", "mvcreg", "configs", "reference_study.json")
        with open(bundled, encoding="utf-8") as fh:
            config = json.load(fh)
        config["n_obs"] = workloads.TALL_N
        path = workloads.tall_config(work)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        return [path]
    return []  # study-ref runs the bundled design; the seed goes on its command line


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), argv[2]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = write_inputs(workload, seed, root, work)
    print(json.dumps({"files": files, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
