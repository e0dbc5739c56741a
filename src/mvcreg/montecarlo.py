"""Replication studies of the mixture estimator.

Runs many seeded replications of generate-then-fit over a grid of sample
sizes, summarizes the empirical distribution of the estimates, and puts the
closed-form asymptotic covariance next to it.  Every replication derives its
own seed from (base seed, sample size, replication index), so the report is
reproducible replication by replication, and ``generate`` with that seed
redraws any one replication's dataset.

The concentrations are a deterministic function of the sample size, so each
grid point builds them, their Gramian, its M x M inverse and the fit basis
once, and sends the basis to the workers with the draw plan.  A task
derives the seeds and Philox keys of its whole range of replications in one
vectorised pass (``derive_seeds``, ``philox_keys``), with numpy's
``SeedSequence`` values, and draws every stream from one generator re-keyed
for it, so no generator is seeded per replication.  It draws consecutive
replications as one stack of at most ``_CHUNK_ROWS`` rows (``draw_stack``),
forms their normal equations with one call per basis column
(``normal_equations``), and solves a group of stacks at once
(``solve_normal_equations``).  These are the stages of ``fit_all``,
and each works one replication at a time in the same way, so a
replication's estimate has the bytes ``fit_all`` gives for the dataset
``generate`` draws with its seed, whatever it is stacked with.  No N x M
weight matrix is built or sent to a worker.

The replications run in the worker processes of ``_pool``, one per usable
CPU, forked once per study.  The study is one flat list of tasks, one per
contiguous range of replication indices per worker and grid point; worker
k runs task k of every grid point, and the pool's ordered map yields the
results in task order.  A task's result is two arrays, the coefficients of
its replications and the mask of those that failed, so a grid point's
arrays are its tasks' arrays joined in replication order, and the report
is byte-identical to a serial run whatever the worker count.  With one
worker (one CPU, no ``fork``, or a daemonic caller) the same map runs the
tasks in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from . import _pool
from ._arrays import freeze
from .covariance import analytic_sigma
from .errors import ConfigError, ExcessiveFailures, SingularNormalMatrix
from .estimator import DEFAULT_XTX_TOL, fit_basis, normal_equations, solve_normal_equations
from .moments import _CHUNK_ROWS
from .simgen import (
    SimulationConfig,
    StudyOptions,
    derive_seeds,
    draw_stack,
    limit_co_moments,
    philox_keys,
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
    #: (kept_reps, M, d) estimates of the replications that fitted, in replication order
    estimates: np.ndarray
    #: failed replications by error code, in code order
    failure_codes: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        freeze(self, "mean_b", "scaled_cov", "estimates")


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
        freeze(self, "true_b", "analytic_v")
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def largest(self) -> GridPointSummary:
        return self.points[-1]


def _replicate(
    plan, basis, xtx_tol: float, seed: int, reps: range
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and failures of replications ``reps`` of the grid point ``plan`` draws.

    Returns the R x M x d coefficient estimates, NaN where a component
    failed, and the length-R mask of replications with a failed component.
    The Philox keys of the whole range are derived in one vectorised pass,
    and one generator is re-keyed for every replication.  Consecutive
    replications are drawn and their normal equations formed as one stack
    of at most ``_CHUNK_ROWS`` rows (one replication when N is larger), and
    a group of stacks is solved at once into its slice of both arrays.  A
    replication's bytes do not depend on its stack, its group or its range.
    """
    n_comp, d = plan.means.shape
    stack = max(1, _CHUNK_ROWS // plan.n_obs)
    # a group's equations, M d (d + 1) floats per replication, take no more
    # memory than _CHUNK_ROWS drawn rows of d + 1 floats, unless the group
    # is one stack
    group = stack * max(1, _CHUNK_ROWS // (n_comp * d * stack))
    keys = philox_keys(derive_seeds(seed, plan.n_obs, reps))
    rng = np.random.Generator(np.random.Philox())  # re-keyed for every replication
    coefficients = np.empty((len(reps), n_comp, d))
    failed = np.empty(len(reps), dtype=bool)
    for start in range(0, len(reps), group):
        members = keys[start : start + group]
        normal = np.empty((len(members), n_comp, d, d))
        rhs = np.empty((len(members), n_comp, d))
        for lo in range(0, len(members), stack):
            normal[lo : lo + stack], rhs[lo : lo + stack] = normal_equations(
                draw_stack(plan, members[lo : lo + stack], rng), basis
            )
        done = slice(start, start + len(members))
        coefficients[done], _, _, fails = solve_normal_equations(normal, rhs, xtx_tol)
        failed[done] = fails.any(axis=1)
    return coefficients, failed


def _analytic_limit(config: SimulationConfig) -> np.ndarray:
    """The analytic covariance of every component, M x d x d.

    Finite config numbers can still overflow here (coefficients of 1e200,
    say); such a config is refused with a ``ConfigError`` on ``components``,
    before any replication is drawn, instead of with numpy's warnings and a
    NaN limit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = analytic_sigma(true_component_moments(config), limit_co_moments(config)).v
    if not np.isfinite(analytic).all():
        raise ConfigError(
            "components",
            "the analytic covariance overflows the float range; the coefficients, "
            "means or sds are too large",
        )
    return analytic


def _summarize(n_obs: int, coefficients: np.ndarray, failed: np.ndarray) -> GridPointSummary:
    """Summary of one grid point from its replications' coefficients and failure mask.

    Raises ``ExcessiveFailures`` when more than half of the replications
    failed or fewer than two fitted, the least the empirical covariance needs.
    """
    rep_count = len(failed)
    failures = int(np.count_nonzero(failed))
    if failures * 2 > rep_count or rep_count - failures < 2:
        raise ExcessiveFailures(n_obs, failures, rep_count)
    estimates = coefficients[~failed]
    estimates.flags.writeable = False  # handed over to GridPointSummary
    mean_b = estimates.mean(axis=0)
    centered = estimates - mean_b
    scaled_cov = n_obs * np.einsum("rmi,rmk->mik", centered, centered) / (len(estimates) - 1)
    return GridPointSummary(
        n_obs=n_obs,
        rep_count=rep_count,
        failures=failures,
        mean_b=mean_b,
        scaled_cov=scaled_cov,
        estimates=estimates,
        failure_codes={SingularNormalMatrix.code: failures} if failures else {},
    )


def run_study(
    config: SimulationConfig,
    rep_count: int,
    n_grid: tuple[int, ...] | None = None,
    xtx_tol: float = DEFAULT_XTX_TOL,
) -> MonteCarloReport:
    """Run the replication study and summarize each grid point.

    Grid points are processed in increasing sample size.  A replication
    fails when the normal matrix of one of its components is singular
    (``xtx_tol``, as ``fit_all`` gates it); failed replications are dropped
    and counted, and a grid point where more than half fail aborts the
    study, since its summary would say nothing.  A config whose analytic
    covariance overflows the float range, or whose concentrations are not
    identifiable, or whose grid repeats a sample size, is refused before any
    replication is drawn.

    The empirical covariance is of the scaled estimate sqrt(N) * b_hat, with
    the 1/(R-1) normalization, so it is directly comparable to the analytic
    limit covariance.
    """
    if rep_count < 2:
        raise ConfigError("rep_count", "must be at least 2")
    grid = tuple(sorted(n_grid)) if n_grid else (config.n_obs,)
    if len(set(grid)) < len(grid):
        raise ConfigError("n_grid", "entries must be distinct")

    analytic = _analytic_limit(config)
    workers = _pool.worker_count(rep_count)
    bounds = [rep_count * k // workers for k in range(workers + 1)]
    # one task per worker range of every grid point
    plans, bases, ranges = [], [], []
    for n_obs in grid:
        plan = plan_draws(with_n_obs(config, n_obs))
        plans += [plan] * workers
        bases += [fit_basis(plan.p)] * workers
        ranges += [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    tasks = plans, bases, repeat(xtx_tol), repeat(config.seed), ranges
    with _pool.ordered_map(workers, _replicate, *tasks) as results:
        points = [
            _summarize(n_obs, *map(np.concatenate, zip(*islice(results, workers))))
            for n_obs in grid
        ]
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
    report: MonteCarloReport, rel_tol: float, mean_abs_tol: float = StudyOptions.mean_tol
) -> ComparisonReport:
    """Check the largest grid point against the analytic limit.

    Covariance entries must match the analytic values to ``rel_tol``
    relative error; an analytic entry smaller than 5% of the largest entry of
    its matrix is judged against that 5% scale instead, so structural zeros
    do not demand infinite precision.  An all-zero analytic matrix leaves no
    scale: an entry it matches exactly has relative error 0, any other entry
    infinity.  Only the upper triangle of each symmetric matrix is compared.
    Coefficient means must match the truth to ``mean_abs_tol`` absolutely.
    A NaN error is the worst error: it fails its entry and carries into
    ``worst_cov_rel`` or ``worst_mean_abs``.
    """
    point = report.largest
    v, vhat = report.analytic_v, point.scaled_cov
    err = np.abs(vhat - v)
    denom = np.maximum(np.abs(v), 0.05 * np.abs(v).max(axis=(1, 2), keepdims=True))
    rel = np.divide(err, denom, out=np.where(err == 0, 0.0, np.inf), where=denom != 0)
    upper = np.triu(np.ones(v.shape[1:], dtype=bool))
    # 1-based labels, matching the report table headings
    cov_failures = [
        f"component {m + 1} cov[{i + 1},{k + 1}]: empirical {vhat[m, i, k]:.4f} vs "
        f"analytic {v[m, i, k]:.4f} (rel err {rel[m, i, k]:.3f} > {rel_tol})"
        for m, i, k in zip(*np.nonzero(~(rel <= rel_tol) & upper))
    ]
    mean_err = np.abs(point.mean_b - report.true_b)
    mean_failures = [
        f"component {m + 1} mean b[{i + 1}]: {point.mean_b[m, i]:.4f} vs true "
        f"{report.true_b[m, i]:.4f} (abs err {mean_err[m, i]:.4f} > {mean_abs_tol})"
        for m, i in zip(*np.nonzero(~(mean_err <= mean_abs_tol)))
    ]
    return ComparisonReport(
        n_obs=point.n_obs,
        rel_tol=rel_tol,
        mean_abs_tol=mean_abs_tol,
        worst_cov_rel=float(rel[:, upper].max()),
        worst_mean_abs=float(mean_err.max()),
        cov_failures=tuple(cov_failures),
        mean_failures=tuple(mean_failures),
    )

