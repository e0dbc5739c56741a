import ctypes
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import mvcreg
import mvcreg._pool
import mvcreg.dataio
from mvcreg import ConcentrationMatrix, Dataset, generate, reference_study_config, run_study
from mvcreg.dataio import write_csv
from mvcreg.simgen import simulation_config_from_dict, with_seed

hypothesis.settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=40
)
hypothesis.settings.load_profile("ci")

_REF_CACHE = {}


def children_left() -> str | None:
    """What is left of this process's children: None when there is none,
    else each one that has ended and is not reaped, and whether one still runs.

    Asks the operating system, so it sees every child, however started; it
    reaps the ones it reports as ended.
    """
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            break
        if not pid:
            left.append("a child still running")
            break
        left.append(f"child {pid} not reaped")
    return ", ".join(left) or None


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    left = children_left()
    assert left is None, f"a child process outlived the test: {left}"


@pytest.fixture(scope="session")
def ref_config():
    config, options = reference_study_config()
    return config


@pytest.fixture(scope="session")
def ref_options():
    config, options = reference_study_config()
    return options


@pytest.fixture(scope="session")
def ref_report(ref_config):
    # shared across the distribution checks; the expensive fixture of the suite
    if "report" not in _REF_CACHE:
        start = time.perf_counter()
        _REF_CACHE["report"] = run_study(
            ref_config, rep_count=2000, n_grid=(500, 1000, 2000, 5000)
        )
        _REF_CACHE["elapsed"] = time.perf_counter() - start
    return _REF_CACHE["report"]


@pytest.fixture(scope="session")
def ref_report_elapsed(ref_report):
    """Wall-clock seconds the shared full-grid study took to run."""
    return _REF_CACHE["elapsed"]


def openblas_core() -> str | None:
    """The OpenBLAS kernel numpy's BLAS runs in this process, such as ``SkylakeX``.

    A DYNAMIC_ARCH OpenBLAS picks its kernel at run time, from the CPU or
    from ``OPENBLAS_CORETYPE``.  Read through ctypes from the OpenBLAS that
    numpy bundles (in ``numpy.libs`` beside the package, or ``.dylibs``
    inside it); None where numpy bundles none.
    """
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def random_stochastic_rows(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Row-stochastic matrix with rows mixing sparse and diffuse profiles."""
    alpha = rng.choice([0.15, 0.5, 2.0])
    return rng.dirichlet(np.full(m, alpha), size=n)


def dirichlet_design(seed, n_comp, d, n=300):
    """Mixture sample with Dirichlet(1) concentrations: intercept plus d-1 regressors."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_comp), size=n)
    labels = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    labels = np.minimum(labels, n_comp - 1)  # guard the cumsum's last rounding
    x = np.column_stack([np.ones(n), rng.normal(size=(n, d - 1)) + labels[:, None]])
    coef = rng.normal(size=(n_comp, d))
    noise = rng.uniform(0.1, 1.0, size=n_comp)[labels] * rng.normal(size=n)
    y = np.einsum("ji,ji->j", x, coef[labels]) + noise
    return Dataset(y=y, x=x), ConcentrationMatrix(p)


def overflowing_inputs(folder: Path) -> dict[str, Path]:
    """Two CSVs of finite cells, written into ``folder``, whose fit overflows
    the float range, by the kind of sum that overflows.

    ``sums``: the bundled design at N=100, with component 0's Gaussian
    regressor at mean and sd 1e200, drawn as ``simulate --seed 1`` draws it;
    its normal-equation sums overflow.  ``plug-in``: y near 1e300 on a
    two-component linear ramp, N=200; its fit is finite, its plug-in
    covariance is not.
    """
    bundled = Path(mvcreg.__file__).parent / "configs" / "reference_study.json"
    raw = json.loads(bundled.read_text(encoding="utf-8"))
    raw["n_obs"] = 100
    raw["components"][0]["regressors"][1] = {"kind": "gaussian", "mean": 1e200, "sd": 1e200}
    sim = generate(with_seed(simulation_config_from_dict(raw), 1))
    write_csv(folder / "sums.csv", sim.data, sim.p)
    rng = np.random.default_rng(0)
    u = (np.arange(200) + 0.5) / 200
    x = rng.normal(size=200)
    y = 1e300 * (1.0 + 0.5 * x + 0.1 * rng.normal(size=200))
    write_csv(
        folder / "plug-in.csv",
        Dataset(y=y, x=x[:, None]),
        ConcentrationMatrix(np.column_stack([u, 1.0 - u])),
    )
    return {"sums": folder / "sums.csv", "plug-in": folder / "plug-in.csv"}


@pytest.fixture
def stochastic_rows():
    return random_stochastic_rows


@pytest.fixture
def fresh_python():
    """Run ``python <args>`` in a new interpreter with a set BLAS thread count.

    Returns its standard output as bytes; a nonzero exit fails the test.
    """
    src = str(Path(mvcreg.__file__).parents[1])

    def run(args, blas_threads: int) -> bytes:
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(blas_threads))
        out = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, check=True
        )
        return out.stdout

    return run


class IoPools:
    """The pools started by CSV render and parse, the fit's row sums and
    ``fit --intercept``, and a switch that makes them pool any size."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        #: worker count of each pool started (more than one worker), in start order
        self.started = []
        ordered_map = mvcreg._pool.ordered_map

        def recording(workers, fn, *iterables):
            if workers > 1:
                self.started.append(workers)
            return ordered_map(workers, fn, *iterables)

        monkeypatch.setattr(mvcreg._pool, "ordered_map", recording)

    def force(self, workers: int) -> None:
        """Pool the work over the rows of a table of any size in ``workers`` processes."""
        self._monkeypatch.setattr(mvcreg._pool, "_POOL_MIN_CELLS", 0)
        self._monkeypatch.setattr(mvcreg._pool, "worker_count", lambda blocks: workers)


@pytest.fixture
def io_pools(monkeypatch):
    return IoPools(monkeypatch)
