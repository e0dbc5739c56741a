"""Replication studies of the mixture estimator.

Runs many seeded replications of generate-then-fit over a grid of sample
sizes, summarizes the empirical distribution of the estimates, and puts the
closed-form asymptotic covariance next to it.  Every replication derives its
own seed from (base seed, sample size, replication index), so the report is
reproducible replication by replication, and ``generate`` with that seed
redraws any one replication's dataset.

The concentrations are a deterministic function of the sample size, so each
grid point builds them, their Gramian and the weights once, then draws and
fits every replication against them through the same ``fit_all`` that
``mvcreg fit`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concentrations import DEFAULT_GAMMA_TOL, build_gramian, compute_weights
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


def _replicate_grid_point(
    config: SimulationConfig, n_obs: int, rep_count: int, gamma_tol: float, xtx_tol: float
) -> list[np.ndarray]:
    """Coefficient estimates of the replications at ``n_obs`` that fitted.

    A replication whose fit fails is left out.  A Gramian refused by the
    ``gamma_tol`` gate fails every replication of the grid point at once.
    """
    plan = plan_draws(with_n_obs(config, n_obs))
    try:
        gramian = build_gramian(plan.p)
        weights = compute_weights(plan.p, gramian, gamma_tol=gamma_tol)
    except SingularGramian:
        return []
    kept = []
    for rep in range(rep_count):
        sim = draw(plan, derive_seed(config.seed, n_obs, rep))
        fit = fit_all(sim.data, plan.p, xtx_tol=xtx_tol, gramian=gramian, weights=weights)
        if not fit.errors:
            kept.append(fit.coefficients)
    return kept


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
    fail to fit (singular Gramian or normal matrix, degenerate weights) are
    dropped and counted; a grid point where more than half fail aborts the
    study, since its summary would say nothing.

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

    points = []
    for n_obs in grid:
        kept = _replicate_grid_point(config, n_obs, rep_count, gamma_tol, xtx_tol)
        failures = rep_count - len(kept)
        if failures * 2 > rep_count:
            raise ExcessiveFailures(n_obs, failures, rep_count)
        estimates = np.stack(kept)
        mean_b = estimates.mean(axis=0)
        centered = estimates - mean_b
        scaled_cov = n_obs * np.einsum("rmi,rmk->mik", centered, centered) / (
            len(kept) - 1
        )
        points.append(
            GridPointSummary(
                n_obs=n_obs,
                rep_count=rep_count,
                failures=failures,
                mean_b=mean_b,
                scaled_cov=scaled_cov,
                estimates=estimates if keep_estimates else None,
            )
        )
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
    to ``mean_abs_tol`` absolutely.
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
                worst_rel = max(worst_rel, rel)
                if not rel <= rel_tol:
                    # 1-based labels, matching the report table headings
                    cov_failures.append(
                        f"component {m + 1} cov[{i + 1},{k + 1}]: empirical "
                        f"{vhat[i, k]:.4f} vs analytic {v[i, k]:.4f} "
                        f"(rel err {rel:.3f} > {rel_tol})"
                    )
        for i in range(d):
            err = abs(point.mean_b[m, i] - report.true_b[m, i])
            worst_abs = max(worst_abs, err)
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
