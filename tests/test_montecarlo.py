import dataclasses
import os
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mvcreg._pool
import mvcreg.cli
import mvcreg.estimator
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
    fit_all,
    generate,
    run_study,
)
import mvcreg.moments
from mvcreg.estimator import fit_basis, normal_equations
from mvcreg.montecarlo import GridPointSummary, _summarize
from mvcreg.simgen import StudyOptions, derive_seeds, draw, plan_draws, with_n_obs, with_seed
from conftest import children_left


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
        # every study keeps the estimates of the replications that fitted
        report = run_study(small_config(), rep_count=12, n_grid=(100,))
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

    def test_replications_match_generate_then_fit(self):
        # every kept estimate is the fit of the dataset `generate` draws with
        # the replication's derived seed, so `mvcreg simulate` reproduces it
        config = small_config()
        report = run_study(config, rep_count=6, n_grid=(60, 120))
        for pt in report.points:
            assert pt.failures == 0
            seeds = derive_seeds(config.seed, pt.n_obs, range(len(pt.estimates))).tolist()
            for seed, estimate in zip(seeds, pt.estimates, strict=True):
                cfg = with_seed(with_n_obs(config, pt.n_obs), seed)
                sim = generate(cfg)
                expected = fit_all(sim.data, sim.p).coefficients
                assert estimate.tobytes() == expected.tobytes()

    def test_failures_match_per_replication_fits(self):
        # a cond(X'AX) ceiling between the replications' conditions fails
        # some of them; the study must drop exactly those
        config, n_obs, rep_count = small_config(), 40, 30
        sims = [
            generate(with_seed(with_n_obs(config, n_obs), seed))
            for seed in derive_seeds(config.seed, n_obs, range(rep_count)).tolist()
        ]
        worst = [np.max(fit_all(s.data, s.p).xtx_condition) for s in sims]
        xtx_tol = float(np.quantile(worst, 0.7))
        fits = [fit_all(s.data, s.p, xtx_tol=xtx_tol) for s in sims]
        expected = [f.coefficients for f in fits if not f.errors]
        assert 0 < rep_count - len(expected) <= rep_count // 2

        report = run_study(config, rep_count=rep_count, n_grid=(n_obs,), xtx_tol=xtx_tol)
        pt = report.points[0]
        assert pt.failures == rep_count - len(expected)
        assert pt.estimates.tobytes() == np.stack(expected).tobytes()

    def test_gramian_and_weights_built_once_per_grid_point(self, monkeypatch):
        # the parent builds them, and the fit basis, once per grid point and
        # ships the basis to the workers, which build none of them
        parent = os.getpid()
        calls = Counter()
        for module, name in (
            (mvcreg.estimator, "build_gramian"),
            (mvcreg.montecarlo, "fit_basis"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError(f"a worker called {_name}")
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for workers in (1, 2):
            monkeypatch.setattr(mvcreg._pool, "worker_count", lambda _, w=workers: w)
            calls.clear()
            run_study(small_config(), rep_count=7, n_grid=(50, 80, 110))
            assert calls == {"build_gramian": 3, "fit_basis": 3}, workers

    @pytest.mark.parametrize("n_obs", [500, 1000])
    def test_ranges_starting_mid_stack_give_the_same_outcomes(self, n_obs):
        # a worker's range may start anywhere in what one range from 0 would
        # stack together; a replication's outcome depends on neither
        config, rep_count = small_config(), 40
        plan = plan_draws(with_n_obs(config, n_obs))
        basis = fit_basis(plan.p)
        seeds = derive_seeds(config.seed, n_obs, range(rep_count)).tolist()
        sims = [draw(plan, seed) for seed in seeds]
        xtx_tol = float(np.median([np.max(fit_all(s.data, s.p).xtx_condition) for s in sims]))

        def outcomes(reps):
            return mvcreg.montecarlo._replicate(plan, basis, xtx_tol, config.seed, reps)

        coefficients, failed = outcomes(range(rep_count))
        fits = [fit_all(s.data, s.p, xtx_tol=xtx_tol) for s in sims]
        assert coefficients.tobytes() == np.stack([f.coefficients for f in fits]).tobytes()
        assert failed.tolist() == [bool(f.errors) for f in fits]
        assert 0 < failed.sum() < rep_count
        stack = mvcreg.moments._CHUNK_ROWS // n_obs
        for lo in (1, stack // 2 + 1, stack + 3):
            split = [outcomes(range(lo)), outcomes(range(lo, rep_count))]
            for part, whole in zip(zip(*split), (coefficients, failed)):
                assert np.concatenate(part).tobytes() == whole.tobytes(), lo

    def test_solve_groups_do_not_change_outcomes(self, monkeypatch):
        # stacks of 3 replications, solved 21 at a time: a range of 40 is
        # two groups, and every replication keeps the outcome `fit_all`
        # gives its dataset
        config, n_obs, rep_count = small_config(), 30, 40
        monkeypatch.setattr(mvcreg.montecarlo, "_CHUNK_ROWS", 3 * n_obs)
        plan = plan_draws(with_n_obs(config, n_obs))
        sims = [draw(plan, seed) for seed in derive_seeds(config.seed, n_obs, range(rep_count)).tolist()]
        xtx_tol = float(np.median([np.max(fit_all(s.data, s.p).xtx_condition) for s in sims]))
        solved = []
        original = mvcreg.montecarlo.solve_normal_equations

        def counted(normal, rhs, tol):
            solved.append(len(normal))
            return original(normal, rhs, tol)

        monkeypatch.setattr(mvcreg.montecarlo, "solve_normal_equations", counted)
        coefficients, failed = mvcreg.montecarlo._replicate(
            plan, fit_basis(plan.p), xtx_tol, config.seed, range(rep_count)
        )
        assert solved == [21, 19]
        fits = [fit_all(s.data, s.p, xtx_tol=xtx_tol) for s in sims]
        assert coefficients.tobytes() == np.stack([f.coefficients for f in fits]).tobytes()
        assert failed.tolist() == [bool(f.errors) for f in fits]
        assert 0 < failed.sum() < rep_count

    def test_replications_beyond_one_row_block_match_generate_then_fit(self):
        # N above the row block: one replication per stack, summed over
        # several blocks, still the bytes of `fit_all` on its `generate`
        config, n_obs = small_config(), 2 * mvcreg.moments._CHUNK_ROWS + 3
        report = run_study(config, rep_count=3, n_grid=(n_obs,))
        seeds = derive_seeds(config.seed, n_obs, range(3)).tolist()
        for seed, estimate in zip(seeds, report.points[0].estimates, strict=True):
            cfg = with_seed(with_n_obs(config, n_obs), seed)
            sim = generate(cfg)
            assert estimate.tobytes() == fit_all(sim.data, sim.p).coefficients.tobytes()

    def test_one_kept_replication_is_excessive(self):
        # its empirical covariance would divide by zero
        coefficients = np.stack([np.ones((2, 2)), np.full((2, 2), np.nan)])
        with pytest.raises(ExcessiveFailures) as info:
            _summarize(100, coefficients, np.array([False, True]))
        assert (info.value.n_obs, info.value.failures, info.value.rep_count) == (100, 1, 2)
        assert str(info.value) == (
            "1 of 2 replications failed at n_obs=100; "
            "a summary needs at least half of them, and at least two, to fit"
        )

    def test_rep_count_floor(self):
        with pytest.raises(ConfigError):
            run_study(small_config(), rep_count=1)

    def test_failure_codes_match_per_replication_fits(self, monkeypatch, capsys):
        # the setup of test_failures_match_per_replication_fits; each failed
        # replication is counted under the code of its first failed component
        config, n_obs, rep_count = small_config(), 40, 30
        sims = [
            generate(with_seed(with_n_obs(config, n_obs), seed))
            for seed in derive_seeds(config.seed, n_obs, range(rep_count)).tolist()
        ]
        worst = [np.max(fit_all(s.data, s.p).xtx_condition) for s in sims]
        xtx_tol = float(np.quantile(worst, 0.7))
        fits = [fit_all(s.data, s.p, xtx_tol=xtx_tol) for s in sims]
        expected = Counter(next(iter(f.errors.values())).code for f in fits if f.errors)
        failed = sum(expected.values())
        assert expected == {"singular-normal-matrix": failed}

        report = run_study(config, rep_count=rep_count, n_grid=(400, n_obs), xtx_tol=xtx_tol)
        small, large = report.points
        assert (small.n_obs, small.failures, small.failure_codes) == (40, failed, expected)
        assert (large.failures, large.failure_codes) == (0, {})

        # the CLI notes each grid point that lost replications on stderr
        options = StudyOptions(rep_count=rep_count)
        monkeypatch.setattr(mvcreg.cli, "load_configuration", lambda args: (config, options))
        monkeypatch.setattr(mvcreg.montecarlo, "run_study", lambda *args: report)
        assert mvcreg.cli.main(["study"]) == 0
        assert capsys.readouterr().err == (
            f"mvcreg: note: n=40: {failed} of 30 replications failed "
            f"(singular-normal-matrix: {failed})\n"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_does_not_change_results(self, monkeypatch, workers):
        # 3 workers split 30 replications unevenly; failed replications in
        # every range must drop out of the same places
        def study():
            return run_study(small_config(), rep_count=30, n_grid=(40, 90), xtx_tol=40.0)

        expected = study()
        monkeypatch.setattr(mvcreg._pool, "worker_count", lambda rep_count: workers)
        got = study()
        assert [pt.failure_codes for pt in got.points] == [
            pt.failure_codes for pt in expected.points
        ]
        assert expected.points[0].failures > 0
        for a, b in zip(got.points, expected.points):
            for name in ("mean_b", "scaled_cov", "estimates"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_excessive_failures_mid_study_leave_no_worker(self, monkeypatch):
        # every replication at n=80 fails its normal-matrix gate, after the
        # pool has fitted the n=50 grid point
        def singular_at_80(data, basis):
            normal, rhs = normal_equations(data, basis)
            return (0.0 * normal if basis.n_obs == 80 else normal), rhs

        monkeypatch.setattr(mvcreg.montecarlo, "normal_equations", singular_at_80)
        monkeypatch.setattr(mvcreg._pool, "worker_count", lambda rep_count: 2)
        with pytest.raises(ExcessiveFailures) as info:
            run_study(small_config(), rep_count=8, n_grid=(50, 80, 110))
        assert info.value.n_obs == 80
        assert children_left() is None

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # a typed error raised in a worker crosses the pool with its fields;
        # the draw is patched before the pool forks, so only workers raise
        parent = os.getpid()

        def overflowing_draw(plan, keys, rng):
            if os.getpid() == parent:
                raise AssertionError("the study drew in the parent")
            raise ConfigError("components", "the draw overflows the float range")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", overflowing_draw)
        monkeypatch.setattr(mvcreg._pool, "worker_count", lambda rep_count: 2)
        with pytest.raises(ConfigError) as info:
            run_study(small_config(), rep_count=6, n_grid=(100,))
        assert info.value.field == "components"
        assert children_left() is None

    @pytest.mark.parametrize(
        "field, value",
        [("coefficients", (1e200, 1e200)), ("coefficients", (1e308, 1e308)), ("error_sd", 1e160)],
    )
    def test_overflowing_analytic_limit_refused_before_any_draw(self, monkeypatch, field, value):
        # finite config numbers whose analytic covariance overflows: refused
        # in the parent with a typed error, no numpy warning and no draw
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", no_draw)
        config = small_config()
        huge = dataclasses.replace(config.components[0], **{field: value})
        config = dataclasses.replace(config, components=(huge, config.components[1]))
        with warnings.catch_warnings(), pytest.raises(ConfigError) as info:
            warnings.simplefilter("error")
            run_study(config, rep_count=4, n_grid=(100,))
        assert info.value.field == "components"

    def test_duplicate_grid_entries_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(mvcreg.montecarlo, "draw_stack", no_draw)
        with pytest.raises(ConfigError) as info:
            run_study(small_config(), rep_count=4, n_grid=(100, 50, 100))
        assert str(info.value) == "n_grid: entries must be distinct"

    def test_cpu_count_does_not_change_results(self, fresh_python, capsys):
        # fresh interpreters, one pinned to a single CPU, so it runs serially,
        # and one left on every CPU, each under one and two BLAS threads
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_montecarlo import small_config\n"
            "from mvcreg import run_study\n"
            "from mvcreg.cli import main\n"
            "from mvcreg._pool import worker_count\n"
            "print(worker_count(24))\n"
            "pt = run_study(small_config(), rep_count=24, n_grid=(150,)).points[0]\n"
            "print(pt.mean_b.tobytes().hex(), pt.scaled_cov.tobytes().hex())\n"
            "assert main(['study', '--seed', '7', '--reps', '20']) == 5\n"
        )
        here = run_study(small_config(), rep_count=24, n_grid=(150,)).points[0]
        assert mvcreg.cli.main(["study", "--seed", "7", "--reps", "20"]) == 5
        report = (
            f"{here.mean_b.tobytes().hex()} {here.scaled_cov.tobytes().hex()}\n"
            + capsys.readouterr().out
        )
        all_cpus = min(len(os.sched_getaffinity(0)), 24)
        for pin, workers in (("pin", 1), ("all", all_cpus)):
            for blas_threads in (1, 2):
                got = fresh_python(["-c", code, pin], blas_threads).decode()
                assert got == f"{workers}\n{report}", (pin, blas_threads)


class TestCompareReport:
    def _synthetic(self, scaled_cov, analytic_v, mean_b=None, true_b=None):
        true_b = np.zeros((1, 2)) if true_b is None else true_b
        mean_b = true_b if mean_b is None else mean_b
        point = GridPointSummary(
            n_obs=100,
            rep_count=10,
            failures=0,
            mean_b=mean_b,
            scaled_cov=scaled_cov,
            estimates=np.stack([mean_b] * 10),
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

    def test_nan_tolerances_fail(self):
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        cmp = compare_report(self._synthetic(1.1 * v, v), rel_tol=float("nan"))
        assert not cmp.ok and len(cmp.cov_failures) == 3
        report = self._synthetic(v, v, mean_b=np.array([[0.2, 0.0]]))
        cmp = compare_report(report, rel_tol=0.5, mean_abs_tol=float("nan"))
        assert not cmp.ok and len(cmp.mean_failures) == 2

    @pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
    def test_nan_error_is_the_worst_error(self, monkeypatch, capsys, cell):
        # a NaN empirical entry, first or last of the cells compared, must
        # reach worst_cov_rel and the study's table and JSON
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        vhat = v.copy()
        vhat[(0, *cell)] = np.nan
        report = self._synthetic(vhat, v, mean_b=np.array([[np.nan, 0.0]]))
        cmp = compare_report(report, rel_tol=0.15)
        assert np.isnan(cmp.worst_cov_rel) and np.isnan(cmp.worst_mean_abs)
        assert len(cmp.cov_failures) == 1 and len(cmp.mean_failures) == 1

        options = StudyOptions(rep_count=10)
        monkeypatch.setattr(mvcreg.cli, "load_configuration", lambda args: (None, options))
        monkeypatch.setattr(mvcreg.montecarlo, "run_study", lambda *args: report)
        assert mvcreg.cli.main(["study", "--format", "table", "--rel-tol", "0.15"]) == 5
        assert "FAILED (worst cov rel err nan, tol 0.15)" in capsys.readouterr().out
        assert mvcreg.cli.main(["study", "--rel-tol", "0.15"]) == 5
        assert '"worst_cov_rel": NaN' in capsys.readouterr().out

    def test_zero_analytic_matched_exactly_passes(self):
        zero = np.zeros((1, 2, 2))
        cmp = compare_report(self._synthetic(zero, zero), rel_tol=0.15)
        assert cmp.ok and cmp.worst_cov_rel == 0.0

    def test_zero_analytic_missed_is_infinite(self):
        vhat = np.zeros((1, 2, 2))
        vhat[0, 1, 1] = 0.5
        cmp = compare_report(self._synthetic(vhat, np.zeros_like(vhat)), rel_tol=0.15)
        assert cmp.worst_cov_rel == np.inf
        assert cmp.cov_failures == (
            "component 1 cov[2,2]: empirical 0.5000 vs analytic 0.0000 (rel err inf > 0.15)",
        )

    def test_entry_below_the_floor_is_judged_against_the_floor(self):
        # the floor is 5% of the largest entry, 5.0: the off-diagonal error
        # 2.5 is 0.5 of the floor, not 2.5 times the entry itself
        v = np.array([[[100.0, 1.0], [1.0, 50.0]]])
        vhat = v.copy()
        vhat[0, 0, 1] = vhat[0, 1, 0] = 3.5
        cmp = compare_report(self._synthetic(vhat, v), rel_tol=0.6)
        assert cmp.ok and cmp.worst_cov_rel == 0.5
        assert not compare_report(self._synthetic(vhat, v), rel_tol=0.4).ok

    def test_only_the_upper_triangle_is_compared(self):
        v = np.array([[[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 2.0]]])
        vhat = v + np.tril(np.full((3, 3), 7.0), k=-1)  # lower triangle far off
        report = self._synthetic(vhat, v, true_b=np.zeros((1, 3)))
        cmp = compare_report(report, rel_tol=1e-12)
        assert cmp.ok and cmp.worst_cov_rel == 0.0

    def test_failure_messages_and_order_across_components(self):
        v = np.array([[[4.0, 1.0], [1.0, 2.0]], [[9.0, -3.0], [-3.0, 5.0]]])
        vhat = v * np.array([[[1.0, 2.0], [2.0, 1.5]], [[0.5, 1.0], [1.0, 1.0]]])
        true_b = np.array([[1.0, 2.0], [-1.0, 0.5]])
        mean_b = true_b + np.array([[0.0, 0.25], [-0.125, 0.0]])
        cmp = compare_report(self._synthetic(vhat, v, mean_b, true_b), rel_tol=0.15)
        assert cmp.cov_failures == (
            "component 1 cov[1,2]: empirical 2.0000 vs analytic 1.0000 (rel err 1.000 > 0.15)",
            "component 1 cov[2,2]: empirical 3.0000 vs analytic 2.0000 (rel err 0.500 > 0.15)",
            "component 2 cov[1,1]: empirical 4.5000 vs analytic 9.0000 (rel err 0.500 > 0.15)",
        )
        assert cmp.mean_failures == (
            "component 1 mean b[2]: 2.2500 vs true 2.0000 (abs err 0.2500 > 0.05)",
            "component 2 mean b[1]: -1.1250 vs true -1.0000 (abs err 0.1250 > 0.05)",
        )
        assert (cmp.worst_cov_rel, cmp.worst_mean_abs) == (1.0, 0.25)

    def test_infinite_tolerance(self):
        # every finite and every infinite error passes; a NaN error still fails
        v = np.array([[[4.0, 1.0], [1.0, 2.0]]])
        vhat = 1e6 * v
        assert compare_report(self._synthetic(vhat, v), rel_tol=np.inf).ok
        zero = np.zeros_like(v)
        cmp = compare_report(self._synthetic(v, zero), rel_tol=np.inf)
        assert cmp.ok and cmp.worst_cov_rel == np.inf
        vhat[0, 1, 1] = np.nan
        cmp = compare_report(self._synthetic(vhat, v), rel_tol=np.inf)
        assert [line.split(":")[0] for line in cmp.cov_failures] == ["component 1 cov[2,2]"]

    def test_reference_grid_matches_limit(self, ref_report):
        cmp = compare_report(ref_report, rel_tol=0.15, mean_abs_tol=0.02)
        assert cmp.ok, cmp.cov_failures + cmp.mean_failures


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
