import numpy as np
import pytest

from mvcreg import (
    ComponentSpec,
    ConfigError,
    ConstantRegressor,
    ExcessiveFailures,
    ExplicitConcentrations,
    GaussianRegressor,
    MonteCarloReport,
    SimulationConfig,
    compare_report,
    run_study,
    study_from_options,
)
from mvcreg.montecarlo import GridPointSummary, resolve_threads
from mvcreg.simgen import StudyOptions


def small_config(seed=17):
    return SimulationConfig(
        n_obs=200,
        components=(
            ComponentSpec(
                regressors=(ConstantRegressor(), GaussianRegressor(mean=1.0, sd=1.0)),
                error_sd=0.01,
                coefficients=(3.0, 0.5),
            ),
            ComponentSpec(
                regressors=(ConstantRegressor(), GaussianRegressor(mean=2.0, sd=1.5)),
                error_sd=0.05,
                coefficients=(-2.0, 1.0),
            ),
        ),
        seed=seed,
    )


class TestRunStudy:
    def test_report_shape(self):
        report = run_study(small_config(), rep_count=25, n_grid=(100, 200))
        assert [pt.n_obs for pt in report.points] == [100, 200]
        assert report.true_b.shape == (2, 2)
        assert report.analytic_v.shape == (2, 2, 2)
        for pt in report.points:
            assert pt.mean_b.shape == (2, 2)
            assert pt.scaled_cov.shape == (2, 2, 2)
            assert pt.failures == 0
            assert pt.estimates is None

    def test_grid_sorted_ascending(self):
        report = run_study(small_config(), rep_count=10, n_grid=(500, 100))
        assert [pt.n_obs for pt in report.points] == [100, 500]
        assert report.largest.n_obs == 500

    def test_reproducible(self):
        a = run_study(small_config(), rep_count=25, n_grid=(150,))
        b = run_study(small_config(), rep_count=25, n_grid=(150,))
        assert a.points[0].mean_b.tobytes() == b.points[0].mean_b.tobytes()
        assert a.points[0].scaled_cov.tobytes() == b.points[0].scaled_cov.tobytes()

    def test_thread_count_does_not_change_results(self):
        a = run_study(small_config(), rep_count=24, n_grid=(150,), threads=1)
        b = run_study(small_config(), rep_count=24, n_grid=(150,), threads=4)
        assert a.points[0].mean_b.tobytes() == b.points[0].mean_b.tobytes()
        assert a.points[0].scaled_cov.tobytes() == b.points[0].scaled_cov.tobytes()

    def test_keep_estimates(self):
        report = run_study(small_config(), rep_count=12, n_grid=(100,), keep_estimates=True)
        assert report.points[0].estimates.shape == (12, 2, 2)

    def test_near_zero_noise_collapses_covariance(self):
        config = SimulationConfig(
            n_obs=100,
            components=(
                ComponentSpec(
                    regressors=(ConstantRegressor(), GaussianRegressor(mean=0.0, sd=1.0)),
                    error_sd=1e-12,
                    coefficients=(1.0, 2.0),
                ),
            ),
            concentrations=ExplicitConcentrations(np.ones((100, 1))),
            seed=5,
        )
        report = run_study(config, rep_count=30)
        assert np.all(np.abs(report.points[0].scaled_cov) < 1e-12)

    def test_excessive_failures_abort(self):
        # the ramp's Gramian has cond about 3, so a ceiling of 1.5 makes
        # every replication fail
        with pytest.raises(ExcessiveFailures):
            run_study(small_config(), rep_count=10, n_grid=(100,), gamma_tol=1.5)

    def test_rep_count_floor(self):
        with pytest.raises(ConfigError):
            run_study(small_config(), rep_count=1)


class TestCompareReport:
    def _synthetic(self, scaled_cov, analytic_v, mean_b=None, true_b=None):
        true_b = np.zeros((1, 2)) if true_b is None else true_b
        mean_b = true_b if mean_b is None else mean_b
        point = GridPointSummary(
            n_obs=100, rep_count=10, failures=0, mean_b=mean_b, scaled_cov=scaled_cov
        )
        return MonteCarloReport(
            seed=0, true_b=true_b, analytic_v=analytic_v, points=(point,)
        )

    def test_exact_match_passes(self):
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        report = self._synthetic(v, v)
        assert compare_report(report, rel_tol=0.01).ok

    def test_zeroed_analytic_fails_every_cell(self):
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        cmp = compare_report(self._synthetic(v, np.zeros_like(v)), rel_tol=0.5)
        assert not cmp.ok
        assert len(cmp.cov_failures) == 3

    def test_mean_deviation_detected(self):
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        report = self._synthetic(v, v, mean_b=np.array([[0.2, 0.0]]))
        cmp = compare_report(report, rel_tol=0.5, mean_abs_tol=0.05)
        assert not cmp.ok
        assert cmp.mean_failures and not cmp.cov_failures
        assert cmp.worst_mean_abs == pytest.approx(0.2)

    def test_reference_grid_matches_limit(self, ref_report):
        cmp = compare_report(ref_report, rel_tol=0.15, mean_abs_tol=0.02)
        assert cmp.ok, cmp.cov_failures + cmp.mean_failures


class TestStudyFromOptions:
    def test_rep_count_required(self):
        with pytest.raises(ConfigError):
            study_from_options(small_config(), StudyOptions())

    def test_override_wins(self):
        report = study_from_options(
            small_config(), StudyOptions(rep_count=50, n_grid=(80,)), rep_count=8
        )
        assert report.points[0].rep_count == 8


class TestResolveThreads:
    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("MVCREG_THREADS", raising=False)
        assert resolve_threads() == 1

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("MVCREG_THREADS", "3")
        assert resolve_threads() == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("MVCREG_THREADS", "lots")
        with pytest.raises(ConfigError):
            resolve_threads()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("MVCREG_THREADS", "3")
        assert resolve_threads(2) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_threads(0)


def test_mean_error_shrinks_with_more_replications():
    # median over independent study repeats of the mean-coefficient error.
    # single component: the per-replication fit is exactly unbiased, so the
    # error of mean_b is pure Monte Carlo noise and must shrink with R
    def config(seed):
        return SimulationConfig(
            n_obs=100,
            components=(
                ComponentSpec(
                    regressors=(ConstantRegressor(), GaussianRegressor(mean=0.0, sd=1.0)),
                    error_sd=1.0,
                    coefficients=(1.0, -2.0),
                ),
            ),
            concentrations=ExplicitConcentrations(np.ones((100, 1))),
            seed=seed,
        )

    true_b = config(0).true_coefficients
    med = []
    for rep_count in (100, 400, 1600):
        errs = []
        for k in range(5):
            report = run_study(config(11000 + k), rep_count=rep_count, n_grid=(100,))
            errs.append(np.mean(np.abs(report.points[0].mean_b - true_b)))
        med.append(np.median(errs))
    assert med[0] >= med[1] >= med[2]
