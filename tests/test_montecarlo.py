from pathlib import Path

import numpy as np
import pytest

import mvcreg.montecarlo
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
    derive_seed,
    fit_all,
    generate,
    run_study,
    study_from_options,
)
from mvcreg.montecarlo import GridPointSummary
from mvcreg.simgen import StudyOptions, with_n_obs, with_seed


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

    def test_thread_count_does_not_change_results(self, fresh_python):
        # fresh interpreters, so each reads its BLAS thread count at start-up
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_montecarlo import small_config\n"
            "from mvcreg import run_study\n"
            "pt = run_study(small_config(), rep_count=24, n_grid=(150,)).points[0]\n"
            "print(pt.mean_b.tobytes().hex(), pt.scaled_cov.tobytes().hex())\n"
        )
        here = run_study(small_config(), rep_count=24, n_grid=(150,)).points[0]
        expected = f"{here.mean_b.tobytes().hex()} {here.scaled_cov.tobytes().hex()}\n"
        for blas_threads in (1, 2):
            assert fresh_python(["-c", code], blas_threads).decode() == expected

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
        # every replication fail; the refusal is made once for the grid point
        with pytest.raises(ExcessiveFailures) as info:
            run_study(small_config(), rep_count=10, n_grid=(100,), gamma_tol=1.5)
        assert info.value.n_obs == 100
        assert info.value.failures == info.value.rep_count == 10

    def test_replications_match_generate_then_fit(self):
        # every kept estimate is the fit of the dataset `generate` draws with
        # the replication's derived seed, so `mvcreg simulate` reproduces it
        config = small_config()
        report = run_study(config, rep_count=6, n_grid=(60, 120), keep_estimates=True)
        for pt in report.points:
            assert pt.failures == 0
            for rep, estimate in enumerate(pt.estimates):
                cfg = with_seed(with_n_obs(config, pt.n_obs), derive_seed(config.seed, pt.n_obs, rep))
                sim = generate(cfg)
                expected = fit_all(sim.data, sim.p).coefficients
                assert estimate.tobytes() == expected.tobytes()

    def test_failures_match_per_replication_fits(self):
        # a cond(X'AX) ceiling between the replications' conditions fails
        # some of them; the study must drop exactly those
        config, n_obs, rep_count = small_config(), 40, 30
        sims = [
            generate(with_seed(with_n_obs(config, n_obs), derive_seed(config.seed, n_obs, rep)))
            for rep in range(rep_count)
        ]
        worst = [np.max(fit_all(s.data, s.p).xtx_condition) for s in sims]
        xtx_tol = float(np.quantile(worst, 0.7))
        fits = [fit_all(s.data, s.p, xtx_tol=xtx_tol) for s in sims]
        expected = [f.coefficients for f in fits if not f.errors]
        assert 0 < rep_count - len(expected) <= rep_count // 2

        report = run_study(
            config, rep_count=rep_count, n_grid=(n_obs,), xtx_tol=xtx_tol, keep_estimates=True
        )
        pt = report.points[0]
        assert pt.failures == rep_count - len(expected)
        assert pt.estimates.tobytes() == np.stack(expected).tobytes()

    def test_gramian_and_weights_built_once_per_grid_point(self, monkeypatch):
        calls = {"build_gramian": 0, "compute_weights": 0}
        for name in calls:
            original = getattr(mvcreg.montecarlo, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(mvcreg.montecarlo, name, counted)
        run_study(small_config(), rep_count=7, n_grid=(50, 80, 110))
        assert calls == {"build_gramian": 3, "compute_weights": 3}

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
