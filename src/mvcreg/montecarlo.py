"""Replication studies of the mixture estimator.

Runs many seeded replications of generate-then-fit over a grid of sample
sizes, summarizes the empirical distribution of the estimates, and puts the
closed-form asymptotic covariance next to it.  Every replication derives its
own seed from (base seed, sample size, replication index), so the report is
reproducible replication by replication, and ``generate`` with that seed
redraws any one replication's dataset.

The concentrations are a deterministic function of the sample size, so each
grid point builds them, their Gramian, its M x M inverse and the fit basis
once, and sends the basis to the workers with the draw plan.  A worker
draws consecutive replications as one stack of at most ``_CHUNK_ROWS`` rows
(``draw_stack``), forms their normal equations with one call per basis
column (``normal_equations``), and solves a group of stacks at once
(``solve_normal_equations``).  These are the stages of ``fit_all``,
and each works one replication at a time in the same way, so a
replication's estimate has the bytes ``fit_all`` gives for the dataset
``generate`` draws with its seed, whatever it is stacked with.  No N x M
weight matrix is built or sent to a worker.

The replications run in worker processes, one per usable CPU, forked once
per study.  Each grid point is split into one contiguous range of
replication indices per worker, every grid point is queued at once, and the
estimates are gathered back in replication order, so the report is
byte-identical to a serial run whatever the worker count.  With one CPU, where
``fork`` is not available, or inside a daemonic process, the replications
run in the calling process.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .concentrations import DEFAULT_GAMMA_TOL
from .covariance import analytic_sigma
from .errors import ConfigError, ExcessiveFailures, SingularGramian, SingularNormalMatrix
from .estimator import DEFAULT_XTX_TOL, fit_basis, normal_equations, solve_normal_equations
from .moments import _CHUNK_ROWS
from .simgen import (
    SimulationConfig,
    StudyOptions,
    derive_seed,
    draw_stack,
    limit_co_moments,
    plan_draws,
    true_component_moments,
    with_n_obs,
)


@dataclass(frozen=True)
class GridPointSummary:
    """Empirical summary of one sample size in a replication study."""

    n_obs: int
    rep_count: int
    failures: int
    #: (M, d) mean of the per-replication coefficient estimates
    mean_b: np.ndarray
    #: (M, d, d) empirical covariance of sqrt(N) * b_hat, one slab per component
    scaled_cov: np.ndarray
    #: (kept_reps, M, d) raw estimates when requested, else None
    estimates: np.ndarray | None = None
    #: failed replications by error code, in code order
    failure_codes: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mean_b", "scaled_cov", "estimates"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.array(value, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MonteCarloReport:
    """Full study output: one summary per grid point plus the limit row."""

    seed: int
    #: (M, d) data-generating coefficients
    true_b: np.ndarray
    #: (M, d, d) asymptotic covariance of sqrt(N) * b_hat per component
    analytic_v: np.ndarray
    points: tuple[GridPointSummary, ...]

    def __post_init__(self):
        for name in ("true_b", "analytic_v"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def n_components(self) -> int:
        return self.true_b.shape[0]

    @property
    def largest(self) -> GridPointSummary:
        return self.points[-1]


def _replicate(plan, basis, xtx_tol: float, seed: int, reps: range) -> list:
    """Outcome of each replication in ``reps`` of the grid point ``plan`` draws.

    The outcome is the coefficient estimate of a replication that fitted,
    else the error code of its failure.  Consecutive replications are drawn
    and their normal equations formed as one stack of at most ``_CHUNK_ROWS``
    rows (one replication when N is larger), and a group of stacks is
    solved at once.  A replication's bytes do not depend on its stack, its
    group or its range.
    """
    n_comp, d = plan.means.shape
    stack = max(1, _CHUNK_ROWS // plan.n_obs)
    # a group's equations, M d (d + 1) floats per replication, take no more
    # memory than _CHUNK_ROWS drawn rows of d + 1 floats, unless the group
    # is one stack
    group = stack * max(1, _CHUNK_ROWS // (n_comp * d * stack))
    outcomes = []
    for start in range(0, len(reps), group):
        members = reps[start : start + group]
        normal = np.empty((len(members), n_comp, d, d))
        rhs = np.empty((len(members), n_comp, d))
        for lo in range(0, len(members), stack):
            seeds = [derive_seed(seed, plan.n_obs, rep) for rep in members[lo : lo + stack]]
            normal[lo : lo + stack], rhs[lo : lo + stack] = normal_equations(
                draw_stack(plan, seeds), basis
            )
        coefficients, _, _, failed = solve_normal_equations(normal, rhs, xtx_tol)
        outcomes += [
            SingularNormalMatrix.code if fail.any() else coef
            for coef, fail in zip(coefficients, failed)
        ]
    return outcomes


def _worker_count(rep_count: int) -> int:
    """Worker processes for a study: one per usable CPU, at most one per replication."""
    # without an affinity call (macOS, Windows) the study stays in one
    # process: macOS lists fork but its system libraries are not fork-safe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus == 1:
        return 1
    import multiprocessing  # here, so that importing the package stays fast

    # a daemonic process, such as a multiprocessing.Pool worker, may not
    # start processes of its own
    if multiprocessing.current_process().daemon:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(cpus, rep_count)


@contextlib.contextmanager
def _replication_runner(rep_count: int):
    """Yield ``submit(*args)``, which starts ``_replicate(*args, reps)`` for
    replications 0 to ``rep_count - 1`` and returns a function that waits for
    their outcomes, in replication order.

    With more than one worker the ranges queue in a pool that is forked on
    the first submit; exit drops what is still queued and joins the workers,
    also when the study raises.
    """
    workers = _worker_count(rep_count)
    if workers == 1:
        yield lambda *args: lambda: _replicate(*args, range(rep_count))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [rep_count * k // workers for k in range(workers + 1)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))

    def submit(*args):
        futures = [
            pool.submit(_replicate, *args, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
        ]
        return lambda: [outcome for future in futures for outcome in future.result()]

    try:
        yield submit
    finally:
        pool.shutdown(cancel_futures=True)


def _submit_grid_point(
    submit, config: SimulationConfig, n_obs: int, rep_count: int, gamma_tol: float, xtx_tol: float
):
    """Start the replications at ``n_obs``; return a function that waits for
    their outcomes, as ``_replicate`` gives them.

    A Gramian refused by the ``gamma_tol`` gate fails every replication of
    the grid point at once.
    """
    plan = plan_draws(with_n_obs(config, n_obs))
    try:
        basis = fit_basis(plan.p, gamma_tol)
    except SingularGramian:
        return lambda: [SingularGramian.code] * rep_count
    return submit(plan, basis, xtx_tol, config.seed)


def _analytic_limit(config: SimulationConfig) -> np.ndarray:
    """The analytic covariance of every component, M x d x d.

    Finite config numbers can still overflow here (coefficients of 1e200,
    say); such a config is refused with a ``ConfigError`` on ``components``,
    before any replication is drawn, instead of with numpy's warnings and a
    NaN limit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        moments = true_component_moments(config)
        analytic = np.stack(
            [
                analytic_sigma(moments, limit_co_moments(config, m), m).v
                for m in range(config.n_components)
            ]
        )
    if not np.isfinite(analytic).all():
        raise ConfigError(
            "components",
            "the analytic covariance overflows the float range; the coefficients, "
            "means or sds are too large",
        )
    return analytic


def _summarize(n_obs: int, outcomes: list, keep_estimates: bool) -> GridPointSummary:
    """Summary of one grid point from its replications' outcomes, in replication order.

    Raises ``ExcessiveFailures`` when more than half of them failed or fewer
    than two fitted, the least the empirical covariance needs.
    """
    rep_count = len(outcomes)
    kept = [b for b in outcomes if not isinstance(b, str)]
    failures = rep_count - len(kept)
    if failures * 2 > rep_count or len(kept) < 2:
        raise ExcessiveFailures(n_obs, failures, rep_count)
    estimates = np.stack(kept)
    mean_b = estimates.mean(axis=0)
    centered = estimates - mean_b
    scaled_cov = n_obs * np.einsum("rmi,rmk->mik", centered, centered) / (len(kept) - 1)
    codes = Counter(code for code in outcomes if isinstance(code, str))
    return GridPointSummary(
        n_obs=n_obs,
        rep_count=rep_count,
        failures=failures,
        mean_b=mean_b,
        scaled_cov=scaled_cov,
        estimates=estimates if keep_estimates else None,
        failure_codes=dict(sorted(codes.items())),
    )


def run_study(
    config: SimulationConfig,
    rep_count: int,
    n_grid: tuple[int, ...] | None = None,
    gamma_tol: float = DEFAULT_GAMMA_TOL,
    xtx_tol: float = DEFAULT_XTX_TOL,
    keep_estimates: bool = False,
) -> MonteCarloReport:
    """Run the replication study and summarize each grid point.

    Grid points are processed in increasing sample size.  Replications that
    fail to fit (singular Gramian or normal matrix) are dropped and counted
    by error code; a grid point where more than half fail aborts the study,
    since its summary would say nothing.  A config whose analytic covariance
    overflows the float range is refused before any replication is drawn.

    The empirical covariance is of the scaled estimate sqrt(N) * b_hat, with
    the 1/(R-1) normalization, so it is directly comparable to the analytic
    limit covariance.
    """
    if rep_count < 2:
        raise ConfigError("rep_count", "must be at least 2")
    grid = tuple(sorted(n_grid)) if n_grid else (config.n_obs,)

    analytic = _analytic_limit(config)
    with _replication_runner(rep_count) as submit:
        # every grid point is queued before the first is gathered, so the
        # workers do not wait for the parent between grid points
        pending = [
            (n_obs, _submit_grid_point(submit, config, n_obs, rep_count, gamma_tol, xtx_tol))
            for n_obs in grid
        ]
        points = [_summarize(n_obs, gather(), keep_estimates) for n_obs, gather in pending]
    return MonteCarloReport(
        seed=config.seed,
        true_b=config.true_coefficients,
        analytic_v=analytic,
        points=tuple(points),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Largest-grid-point check of the study against the analytic limit."""

    n_obs: int
    rel_tol: float
    mean_abs_tol: float
    worst_cov_rel: float
    worst_mean_abs: float
    cov_failures: tuple[str, ...]
    mean_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.cov_failures and not self.mean_failures


def compare_report(
    report: MonteCarloReport, rel_tol: float, mean_abs_tol: float = 0.05
) -> ComparisonReport:
    """Check the largest grid point against the analytic limit.

    Covariance entries must match the analytic values to ``rel_tol``
    relative error; an analytic entry smaller than 5% of the largest entry of
    its matrix is judged against that 5% scale instead, so structural zeros
    do not demand infinite precision.  Coefficient means must match the truth
    to ``mean_abs_tol`` absolutely.  A NaN error is the worst error: it
    fails its entry and carries into ``worst_cov_rel`` or ``worst_mean_abs``.
    """
    point = report.largest
    cov_failures = []
    mean_failures = []
    worst_rel = 0.0
    worst_abs = 0.0
    for m in range(report.n_components):
        vhat = point.scaled_cov[m]
        v = report.analytic_v[m]
        scale_floor = 0.05 * np.abs(v).max()
        d = v.shape[0]
        for i in range(d):
            for k in range(i, d):
                err = abs(vhat[i, k] - v[i, k])
                denom = max(abs(v[i, k]), scale_floor)
                if denom == 0.0:
                    rel = 0.0 if err == 0.0 else float("inf")
                else:
                    rel = err / denom
                worst_rel = float(np.maximum(worst_rel, rel))  # max() would drop a NaN
                if not rel <= rel_tol:
                    # 1-based labels, matching the report table headings
                    cov_failures.append(
                        f"component {m + 1} cov[{i + 1},{k + 1}]: empirical "
                        f"{vhat[i, k]:.4f} vs analytic {v[i, k]:.4f} "
                        f"(rel err {rel:.3f} > {rel_tol})"
                    )
        for i in range(d):
            err = abs(point.mean_b[m, i] - report.true_b[m, i])
            worst_abs = float(np.maximum(worst_abs, err))
            if not err <= mean_abs_tol:
                mean_failures.append(
                    f"component {m + 1} mean b[{i + 1}]: {point.mean_b[m, i]:.4f} vs "
                    f"true {report.true_b[m, i]:.4f} (abs err {err:.4f} > {mean_abs_tol})"
                )
    return ComparisonReport(
        n_obs=point.n_obs,
        rel_tol=rel_tol,
        mean_abs_tol=mean_abs_tol,
        worst_cov_rel=worst_rel,
        worst_mean_abs=worst_abs,
        cov_failures=tuple(cov_failures),
        mean_failures=tuple(mean_failures),
    )


def study_from_options(
    config: SimulationConfig,
    options: StudyOptions,
    rep_count: int | None = None,
    keep_estimates: bool = False,
) -> MonteCarloReport:
    """Run a study with settings merged from config-file options and overrides."""
    reps = rep_count if rep_count is not None else options.rep_count
    if reps is None:
        raise ConfigError("rep_count", "not set in the config and no override given")
    return run_study(
        config,
        rep_count=reps,
        n_grid=options.n_grid,
        keep_estimates=keep_estimates,
    )
