import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcreg.estimator
import mvcreg.moments
from mvcreg import (
    ConcentrationMatrix,
    DataFormatError,
    Dataset,
    SingularGramian,
    SingularNormalMatrix,
    build_gramian,
    component_regression_moments,
    compute_weights,
    fit_all,
    generate,
    reference_study_config,
)
from mvcreg.simgen import with_n_obs, with_seed
from conftest import dirichlet_design


def single_component(n, d, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    b = rng.normal(size=d)
    y = x @ b + noise * rng.normal(size=n)
    return Dataset(y=y, x=x), ConcentrationMatrix(np.ones((n, 1))), b


HAND_DATA = Dataset(y=np.array([1.0, 4.0]), x=np.array([[1.0], [2.0]]))
HAND_P = ConcentrationMatrix(np.eye(2))


class TestFitComponent:
    """One component's solve and its gates, as ``fit_all`` reports them."""

    def test_noiseless_interpolation(self):
        data, p, b = single_component(40, 3, seed=0)
        fit = fit_all(data, p)
        np.testing.assert_allclose(fit.coefficients[0], b, atol=1e-10)

    def test_two_point_hand_solve(self):
        fit = fit_all(HAND_DATA, HAND_P)
        assert fit.coefficients[0] == pytest.approx([1.0])
        assert fit.coefficients[1] == pytest.approx([2.0])

    def test_reference_design_single_run(self):
        config, _ = reference_study_config()
        sim = generate(with_seed(config, 77))
        fit = fit_all(sim.data, sim.p)
        np.testing.assert_allclose(fit.coefficients[0], [3.0, 0.5], atol=0.5)
        np.testing.assert_allclose(fit.coefficients[1], [-2.0, 1.0], atol=0.5)

    def test_indefinite_normal_matrix_is_solved(self):
        # signed weights make x'Ax negative definite here; the solve must
        # still go through and the sign diagnostic must record it
        p = ConcentrationMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        data = Dataset(y=np.array([1.0, 20.0, 1.0]), x=np.array([[1.0], [10.0], [1.0]]))
        fit = fit_all(data, p)
        assert 0 not in fit.errors
        assert fit.negative_eigenvalues[0] == 1
        xtx, xty = component_regression_moments(data, np.array([2.5, -0.5, 1.0]))
        assert fit.coefficients[0, 0] == pytest.approx(xty[0] / xtx[0, 0])

    def test_collinear_regressors_raise(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=30)
        data = Dataset(y=rng.normal(size=30), x=np.column_stack([x1, 2.0 * x1]))
        p = ConcentrationMatrix(np.ones((30, 1)))
        err = fit_all(data, p).errors[0]
        assert isinstance(err, SingularNormalMatrix)
        assert "nonsingular" in str(err)

    def test_nan_tolerance_refuses_every_component(self):
        # NaN compares false with every condition number; the gate must refuse
        data, p, _ = single_component(20, 2, seed=3)
        fit = fit_all(data, p, xtx_tol=float("nan"))
        assert isinstance(fit.errors[0], SingularNormalMatrix)


class TestFitAll:
    def test_single_component_equals_ols(self):
        data, p, _ = single_component(60, 3, seed=3, noise=0.5)
        fit = fit_all(data, p)
        ols = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients[0], ols, atol=1e-10)

    def test_two_point_hand_matrix(self):
        fit = fit_all(HAND_DATA, HAND_P)
        np.testing.assert_allclose(fit.coefficients, [[1.0], [2.0]], atol=1e-12)

    def test_reference_design_no_errors(self):
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, 5000), 13))
        fit = fit_all(sim.data, sim.p)
        assert fit.ok
        assert fit.errors == {}
        assert np.all(np.isfinite(fit.coefficients))
        assert fit.gramian.det_gamma > 0

    def test_result_keeps_the_gramian_of_its_basis(self, monkeypatch):
        built = []

        def recording_build_gramian(*args, **kwargs):
            built.append(build_gramian(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(mvcreg.estimator, "build_gramian", recording_build_gramian)
        fit = fit_all(HAND_DATA, HAND_P)
        assert len(built) == 1 and fit.gramian is built[0]
        fields = {f.name for f in dataclasses.fields(fit)}
        assert not fields & {"det_gamma", "gamma_inverse"}

    def test_result_holds_no_n_sized_array(self):
        # the fit keeps the M x M Gramian, never the N x M basis it was built from
        def array_bytes(obj):
            values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            return sum(
                v.nbytes if isinstance(v, np.ndarray) else array_bytes(v)
                for v in values
                if isinstance(v, np.ndarray) or dataclasses.is_dataclass(v)
            )

        config, _ = reference_study_config()
        held = [
            array_bytes(fit_all(sim.data, sim.p))
            for sim in (generate(with_n_obs(config, n)) for n in (500, 5000))
        ]
        assert held[0] == held[1] > 0

    @pytest.mark.parametrize("n_comp, d", [(2, 2), (3, 3), (4, 6)])
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16389])
    def test_block_basis_has_the_bytes_of_whole_columns(self, n, n_comp, d):
        # the basis is formed a block at a time as it is summed; its sums have
        # the bytes of sums against whole columns, a last block of one row too
        data, p = dirichlet_design(n + d, n_comp, d, n=n)
        basis = mvcreg.estimator.fit_basis(p)
        assert basis.columns.shape == (n_comp, min(n, mvcreg.moments._CHUNK_ROWS))
        r = p.values @ np.ones(n_comp)
        columns = [p.values[:, q] - basis.centre[q] * r for q in range(n_comp - 1)] + [r]
        terms = [
            (weight[:, None, None] * xtx, weight[:, None] * xty)
            for (xtx, xty), weight in zip(
                (component_regression_moments(data, column) for column in columns),
                basis.combination,
            )
        ]
        normal, rhs = terms[0]  # and the others added in basis order
        for xtx, xty in terms[1:]:
            normal, rhs = normal + xtx, rhs + xty
        got_normal, got_rhs = mvcreg.estimator.normal_equations(data, basis)
        assert got_normal[0].tobytes() == normal.tobytes()
        assert got_rhs[0].tobytes() == rhs.tobytes()

    def test_duplicate_concentrations_fatal(self):
        data, _, _ = single_component(10, 1, seed=4)
        p = ConcentrationMatrix(np.full((10, 2), 0.5))
        with pytest.raises(SingularGramian):
            fit_all(data, p)

    def test_overflowing_sums_are_refused(self):
        # finite regressors near 1e200 square past the float range: the fit
        # is refused whole, not with every component singular
        data, p, _ = single_component(50, 2, 6)
        huge = Dataset(y=data.y, x=1e200 * data.x)
        with pytest.raises(DataFormatError, match="overflow the float range"):
            fit_all(huge, p)

    def test_per_component_failure_is_recorded(self):
        # collinear regressors break every component's normal matrix but the
        # result still reports shape and reasons instead of raising
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=50)
        data = Dataset(y=rng.normal(size=50), x=np.column_stack([x1, -x1]))
        t = np.arange(1, 51) / 50
        p = ConcentrationMatrix(np.column_stack([t, 1 - t]))
        fit = fit_all(data, p)
        assert not fit.ok
        assert set(fit.errors) == {0, 1}
        assert np.all(np.isnan(fit.coefficients))
        for err in fit.errors.values():
            assert isinstance(err, SingularNormalMatrix)

    def test_normal_equation_residual(self):
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, 2000), 21))
        fit = fit_all(sim.data, sim.p)
        a = compute_weights(sim.p, build_gramian(sim.p))
        for m in range(2):
            xtx, xty = component_regression_moments(sim.data, a[:, m])
            resid = xtx @ fit.coefficients[m] - xty
            assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(xty), 1.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_column_scaling_equivariance(self, seed, c):
        data, p, _ = single_component(40, 2, seed=seed, noise=0.3)
        base = fit_all(data, p).coefficients[0]
        scaled = Dataset(y=data.y, x=data.x * np.array([c, 1.0]))
        out = fit_all(scaled, p).coefficients[0]
        np.testing.assert_allclose(out, [base[0] / c, base[1]], atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
    def test_response_shift_equivariance(self, seed, v):
        data, p, _ = single_component(40, 2, seed=seed, noise=0.3)
        base = fit_all(data, p).coefficients[0]
        shifted = Dataset(y=data.y + v * data.x[:, 0], x=data.x)
        out = fit_all(shifted, p).coefficients[0]
        np.testing.assert_allclose(out, [base[0] + v, base[1]], atol=1e-9)


def refined_solve(a, b, steps=3):
    """Solve ``a x = b`` in long double: a float64 solve, refined with long-double residuals."""
    a64 = a.astype(float)
    x = np.linalg.solve(a64, b.astype(float)).astype(np.longdouble)
    for _ in range(steps):
        x += np.linalg.solve(a64, (b - a @ x).astype(float))
    return x


def long_double_fit(data, p):
    """Coefficients from row-by-row weights a = p Gamma^-1, all in long double."""
    y, x, p = (np.asarray(v, dtype=np.longdouble) for v in (data.y, data.x, p.values))
    n, m = p.shape
    a = p @ refined_solve(p.T @ p / n, np.eye(m, dtype=np.longdouble))
    xa = [x.T * a[:, k] for k in range(m)]
    return np.array([refined_solve(w @ x / n, w @ y / n) for w in xa])


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here"
)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_comp,d", [(1, 3), (2, 2), (3, 4), (4, 6), (5, 8), (6, 10)])
def test_coefficients_match_extended_precision(n_comp, d, seed):
    data, p = dirichlet_design(seed, n_comp, d)
    fit = fit_all(data, p)
    assert fit.ok
    ref = long_double_fit(data, p)
    err = np.abs(fit.coefficients - ref).max(axis=1) / np.abs(ref).max(axis=1)
    # first order: component m's normal matrix combines the concentration
    # sums with weights G[:, m], so it is rounded at about eps * sum|G[:, m]|
    # of its size, and the solve magnifies that by its condition number; the
    # worst ratio seen over 40 seeds per shape was 7.9
    g_size = np.abs(fit.gramian.inverse).sum(axis=0)
    bound = 16 * np.finfo(float).eps * fit.xtx_condition * g_size
    assert np.all(err <= bound), (err, bound)


def test_consistency_trend_over_sample_sizes():
    config, _ = reference_study_config()
    medians = []
    for n in (500, 2000, 8000):
        errs = []
        for rep in range(50):
            sim = generate(with_seed(with_n_obs(config, n), 3000 + rep))
            fit = fit_all(sim.data, sim.p)
            errs.append(
                np.linalg.norm(fit.coefficients - config.true_coefficients, axis=1)
            )
        medians.append(np.median(np.array(errs), axis=0))
    med = np.array(medians)
    assert np.all(med[0] > med[1]) and np.all(med[1] > med[2])
