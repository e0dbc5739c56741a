"""End-to-end acceptance gate for the package.

Each test prints one ``ACCEPTANCE criterion N (...): PASS``/``FAIL`` line
outside pytest's capture so the gate can be read directly off the run log.
The checks pin the numeric targets, exact algebraic properties, statistical
tolerances, determinism guarantees and failure diagnostics that the library
must satisfy end to end.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from mvcreg import (
    ConcentrationMatrix,
    Dataset,
    analytic_sigma,
    build_gramian,
    compute_weights,
    fit_all,
    plug_in_covariance,
    reference_study_config,
    run_study,
)
from mvcreg.cli import main
from mvcreg.simgen import limit_co_moments, true_component_moments

TRUE_B = np.array([[3.0, 0.5], [-2.0, 1.0]])

# limiting covariance targets for the bundled two-component design:
# (variance of intercept, variance of slope, covariance), per component
V_TARGET_1 = np.array([[39.13, -32.53], [-32.53, 33.96]])
V_TARGET_2 = np.array([[62.20, -20.47], [-20.47, 7.34]])


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE criterion {number} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE criterion {number} ({label}): PASS", flush=True)


def test_analytic_covariance_targets(capsys):
    # closed-form Gaussian moments + quadrature co-moments must hit the
    # limiting covariance of the bundled design to 0.5% in under a second
    with criterion(capsys, 1, "closed-form asymptotic covariance targets"):
        start = time.perf_counter()
        config, _ = reference_study_config()
        moments = true_component_moments(config)
        v = analytic_sigma(moments, limit_co_moments(config)).v
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(v[0], V_TARGET_1, rtol=5e-3)
        np.testing.assert_allclose(v[1], V_TARGET_2, rtol=5e-3)
        assert elapsed < 1.0, f"analytic covariance took {elapsed:.2f}s"


def test_monte_carlo_grid_reproduction(capsys, ref_report, ref_report_elapsed):
    # 2000 replications over N in {500,1000,2000,5000}: at the largest N the
    # mean estimate is within 0.02 of the truth per coefficient and every
    # N-scaled covariance entry is within 15% of the analytic limit
    with criterion(capsys, 2, "Monte Carlo grid reproduction"):
        assert [pt.n_obs for pt in ref_report.points] == [500, 1000, 2000, 5000]
        assert all(pt.rep_count == 2000 for pt in ref_report.points)
        largest = ref_report.largest
        assert largest.n_obs == 5000
        assert np.max(np.abs(largest.mean_b - TRUE_B)) <= 0.02
        rel = np.abs(largest.scaled_cov - ref_report.analytic_v) / np.abs(
            ref_report.analytic_v
        )
        assert rel.max() <= 0.15, f"worst covariance deviation {rel.max():.3f}"
        assert ref_report_elapsed < 300.0, f"study took {ref_report_elapsed:.0f}s"


def test_weight_biorthogonality(capsys, stochastic_rows):
    # exact algebraic property: averaging weights against concentrations
    # yields the identity, for 1000 random admissible designs
    with criterion(capsys, 3, "weight biorthogonality"):
        rng = np.random.default_rng(20260822)
        accepted = 0
        draws = 0
        worst = 0.0
        while accepted < 1000:
            draws += 1
            assert draws < 100_000, "rejection sampler failed to terminate"
            n = int(rng.integers(10, 501))
            m = int(rng.integers(1, 5))
            p = ConcentrationMatrix(stochastic_rows(rng, n, m))
            gramian = build_gramian(p)
            if gramian.det_gamma <= 0.01:
                continue
            accepted += 1
            weights = compute_weights(p, gramian)
            cross = weights.T @ p.values / n
            worst = max(worst, float(np.max(np.abs(cross - np.eye(m)))))
        assert worst <= 1e-10, f"worst biorthogonality deviation {worst:.3g}"


def test_single_component_ols_reduction(capsys):
    # with one component the fit must coincide with ordinary least squares
    # and the plug-in covariance with the classical formula, to 1e-10
    with criterion(capsys, 4, "single-component OLS reduction"):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            b = rng.uniform(-3.0, 3.0, size=d)
            sigma = float(rng.uniform(0.1, 2.0))
            y = x @ b + sigma * rng.standard_normal(n)
            data = Dataset(y, x)
            p = ConcentrationMatrix(np.ones((n, 1)))

            fit = fit_all(data, p)
            assert fit.errors == {}
            ols, *_ = np.linalg.lstsq(x, y, rcond=None)
            np.testing.assert_allclose(
                fit.coefficients[0], ols, rtol=0.0, atol=1e-10
            )

            cov = plug_in_covariance(data, p, fit)
            resid = y - x @ fit.coefficients[0]
            sigma2_hat = float(np.mean(resid**2))
            classical = sigma2_hat * np.linalg.inv(x.T @ x / n)
            np.testing.assert_allclose(cov.v[0], classical, rtol=0.0, atol=1e-10)


def test_scaled_estimate_distribution(capsys, ref_report):
    # distributional check at N=5000, R=2000: the N-scaled sample covariance
    # matches the analytic limit entrywise, and each standardized coordinate
    # passes a skewness-based normality screen.
    #
    # Known to fail on the slope coordinate of the first component: its true
    # sampling skewness at N=5000 is ~0.21 (stable across independent
    # 10000-replication runs with different base seeds, insensitive to 5-sigma
    # clipping, and decaying as ~14/sqrt(N), so the 0.15 screen is first met
    # only near N~9000). The bound is kept as the distributional target for
    # this design rather than being widened to match current behavior.
    with criterion(capsys, 5, "scaled estimate distribution"):
        largest = ref_report.largest
        assert largest.n_obs == 5000
        rel = np.abs(largest.scaled_cov - ref_report.analytic_v) / np.abs(
            ref_report.analytic_v
        )
        assert rel.max() <= 0.15, f"worst covariance deviation {rel.max():.3f}"

        sd = np.sqrt(np.diagonal(ref_report.analytic_v, axis1=1, axis2=2))
        z = np.sqrt(5000.0) * (largest.estimates - TRUE_B) / sd
        skew = stats.skew(z, axis=0)
        assert np.max(np.abs(skew)) < 0.15, (
            f"componentwise skewness {np.round(skew, 4).tolist()} "
            "exceeds the 0.15 normality screen"
        )


def test_error_decay_with_sample_size(capsys, ref_config):
    # median coefficient error over 50 replications must strictly decrease
    # across N in {500, 2000, 8000} for both components
    with criterion(capsys, 6, "error decay with sample size"):
        report = run_study(ref_config, rep_count=50, n_grid=(500, 2000, 8000))
        for m in range(2):
            medians = [
                float(
                    np.median(
                        np.linalg.norm(pt.estimates[:, m, :] - TRUE_B[m], axis=1)
                    )
                )
                for pt in report.points
            ]
            assert medians[0] > medians[1] > medians[2], (
                f"component {m} medians not strictly decreasing: {medians}"
            )


def test_deterministic_study_reports(capsys, tmp_path, fresh_python):
    # identical config and seed give byte-identical JSON, and the BLAS
    # thread count of a fresh process cannot change the bytes
    with criterion(capsys, 7, "deterministic study reports"):
        config = {
            "n_obs": 300,
            "components": [
                {
                    "regressors": [
                        {"kind": "constant"},
                        {"kind": "gaussian", "mean": 1.0, "sd": 1.0},
                    ],
                    "error_sd": 0.01,
                    "coefficients": [3.0, 0.5],
                },
                {
                    "regressors": [
                        {"kind": "constant"},
                        {"kind": "gaussian", "mean": 2.0, "sd": 1.5},
                    ],
                    "error_sd": 0.05,
                    "coefficients": [-2.0, 1.0],
                },
            ],
            "seed": 7,
            "rep_count": 40,
            "n_grid": [150, 300],
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))

        def run():
            assert main(["study", "-i", str(path)]) == 0
            return capsys.readouterr().out.encode()

        first = run()
        second = run()
        assert first == second

        for blas_threads in (1, 2):
            fresh = fresh_python(["-m", "mvcreg.cli", "study", "-i", str(path)], blas_threads)
            assert fresh == first


def test_failure_diagnostics(capsys, tmp_path):
    # rank-deficient concentrations and collinear regressors must fail with
    # their distinct exit codes and messages naming the violated condition
    with criterion(capsys, 8, "failure diagnostics"):
        rng = np.random.default_rng(5)

        dup = tmp_path / "dup.csv"
        lines = ["y,x1,p1,p2"]
        for _ in range(30):
            lines.append(f"{rng.normal()!r},{rng.normal()!r},0.5,0.5")
        dup.write_text("\n".join(lines) + "\n")
        assert main(["fit", "-i", str(dup)]) == 3
        err = capsys.readouterr().err
        assert "singular-gramian" in err
        assert "identifiability" in err

        collinear = tmp_path / "collinear.csv"
        n = 40
        lines = ["y,x1,x2,p1,p2"]
        for j in range(1, n + 1):
            x1 = float(rng.normal())
            t = j / n
            lines.append(f"{rng.normal()!r},{x1!r},{2.0 * x1!r},{t!r},{1.0 - t!r}")
        collinear.write_text("\n".join(lines) + "\n")
        assert main(["fit", "-i", str(collinear)]) == 4
        err = capsys.readouterr().err
        assert "singular-normal-matrix" in err
        assert "nonsingular" in err
