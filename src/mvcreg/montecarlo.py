"""Replication studies of the mixture estimator.

Runs many seeded replications of generate-then-fit over a grid of sample
sizes, summarizes the empirical distribution of the estimates, and puts the
closed-form asymptotic covariance next to it.  Every replication derives its
own seed from (base seed, sample size, replication index), so the report is
reproducible replication by replication, and ``generate`` with that seed
redraws any one replication's dataset.

The concentrations are a deterministic function of the sample size, so each
grid point builds them, their Gramian and its M x M inverse once, then draws
and fits every replication against them through the same ``fit_all`` that
``mvcreg fit`` uses.  No N x M weight matrix is built or sent to a worker.

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

from .concentrations import DEFAULT_GAMMA_TOL, build_gramian, invert_gramian
from .covariance import analytic_sigma
from .errors import ConfigError, ExcessiveFailures, SingularGramian
from .estimator import DEFAULT_XTX_TOL, fit_all
from .simgen import (
    SimulationConfig,
    StudyOptions,
    derive_seed,
    draw,
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


def _replicate(plan, gramian, gamma_inverse, xtx_tol: float, seed: int, reps: range) -> list:
    """Outcome of each replication in ``reps`` of the grid point ``plan`` draws.

    The outcome is the coefficient estimate of a replication that fitted,
    else the error code of its first failed component.
    """
    outcomes = []
    for rep in reps:
        sim = draw(plan, derive_seed(seed, plan.n_obs, rep))
        fit = fit_all(
            sim.data, plan.p, xtx_tol=xtx_tol, gramian=gramian, gamma_inverse=gamma_inverse
        )
        outcomes.append(next(iter(fit.errors.values())).code if fit.errors else fit.coefficients)
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
        gramian = build_gramian(plan.p)
        gamma_inverse = invert_gramian(gramian, gamma_tol)
    except SingularGramian:
        return lambda: [SingularGramian.code] * rep_count
    return submit(plan, gramian, gamma_inverse, xtx_tol, config.seed)


def _summarize(n_obs: int, outcomes: list, keep_estimates: bool) -> GridPointSummary:
    """Summary of one grid point from its replications' outcomes, in replication order."""
    rep_count = len(outcomes)
    kept = [b for b in outcomes if not isinstance(b, str)]
    failures = rep_count - len(kept)
    if failures * 2 > rep_count:
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
    since its summary would say nothing.

    The empirical covariance is of the scaled estimate sqrt(N) * b_hat, with
    the 1/(R-1) normalization, so it is directly comparable to the analytic
    limit covariance.
    """
    if rep_count < 2:
        raise ConfigError("rep_count", "must be at least 2")
    grid = tuple(sorted(n_grid)) if n_grid else (config.n_obs,)

    moments = true_component_moments(config)
    analytic = np.stack(
        [
            analytic_sigma(moments, limit_co_moments(config, m), m).v
            for m in range(config.n_components)
        ]
    )

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
