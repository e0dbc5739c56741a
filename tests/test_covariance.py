import time
from collections import Counter
from itertools import product

import numpy as np
import pytest

from mvcreg import (
    ComponentMoments,
    ComponentSpec,
    ConcentrationMatrix,
    ConstantRegressor,
    Dataset,
    ExplicitConcentrations,
    GaussianRegressor,
    SimulationConfig,
    SingularD,
    analytic_sigma,
    component_regression_moments,
    compute_weights,
    fit_all,
    generate,
    limit_co_moments,
    plug_in_covariance,
    plug_in_covariances,
    reference_study_config,
    true_component_moments,
    weight_co_moments,
    weighted_fourth_moment,
)
from mvcreg.simgen import with_n_obs, with_seed
from conftest import dirichlet_design

# limiting covariance of the bundled two-component benchmark design,
# derived independently from closed-form Gaussian moments and quadrature
V_COMPONENT_1 = np.array([[39.13, -32.53], [-32.53, 33.96]])
V_COMPONENT_2 = np.array([[62.20, -20.47], [-20.47, 7.34]])


def random_moments(rng, d, n_comp):
    out = []
    for _ in range(n_comp):
        root = rng.normal(size=(d, d))
        mean = rng.normal(size=d)
        d2 = root @ root.T + d * np.eye(d) + np.outer(mean, mean)
        out.append(
            ComponentMoments(
                d2=d2, mean=mean, sigma2=float(rng.uniform(0.1, 2.0)), b=rng.normal(size=d)
            )
        )
    return out


def random_co(rng, n_comp):
    root = rng.normal(size=(n_comp, n_comp))
    return root @ root.T / n_comp + np.eye(n_comp)


class TestAnalyticSigma:
    def test_single_component_classical_form(self):
        rng = np.random.default_rng(0)
        moments = random_moments(rng, 3, 1)
        cov = analytic_sigma(moments, np.array([[1.0]]), 0)
        np.testing.assert_allclose(cov.sigma, moments[0].d2 * moments[0].sigma2, atol=1e-12)
        np.testing.assert_allclose(
            cov.v, moments[0].sigma2 * np.linalg.inv(moments[0].d2), atol=1e-10
        )

    def test_equal_coefficients_collapse(self):
        # with identical b vectors both difference terms vanish exactly
        rng = np.random.default_rng(1)
        moments = random_moments(rng, 2, 3)
        b = moments[0].b
        moments = [
            ComponentMoments(d2=mo.d2, mean=mo.mean, sigma2=mo.sigma2, b=b) for mo in moments
        ]
        co = random_co(rng, 3)
        cov = analytic_sigma(moments, co, 1)
        w = co.sum(axis=1)
        expected = sum(w[s] * moments[s].d2 * moments[s].sigma2 for s in range(3))
        np.testing.assert_allclose(cov.sigma, expected, atol=1e-10)

    def test_reference_design_limit_values(self):
        config, _ = reference_study_config()
        moments = true_component_moments(config)
        v1 = analytic_sigma(moments, limit_co_moments(config, 0), 0).v
        v2 = analytic_sigma(moments, limit_co_moments(config, 1), 1).v
        np.testing.assert_allclose(v1, V_COMPONENT_1, rtol=0.005)
        np.testing.assert_allclose(v2, V_COMPONENT_2, rtol=0.005)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            moments = random_moments(rng, 3, 2)
            cov = analytic_sigma(moments, random_co(rng, 2), 0)
            np.testing.assert_allclose(cov.sigma, cov.sigma.T, atol=1e-10)
            np.testing.assert_allclose(cov.v, cov.v.T, atol=1e-10)

    def test_singular_d_raises(self):
        d2 = np.array([[1.0, 1.0], [1.0, 1.0]])
        moments = [
            ComponentMoments(d2=d2, mean=np.ones(2), sigma2=1.0, b=np.zeros(2))
        ]
        with pytest.raises(SingularD):
            analytic_sigma(moments, np.array([[1.0]]), 0)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_closed_form_matches_raw_moment_tensor(self, d):
        rng = np.random.default_rng(40 + d)
        for trial in range(10):
            config = random_gaussian_design(rng, d)
            moments = true_component_moments(config)
            l4 = [raw_moment_tensor(comp) for comp in config.components]
            co = random_co(rng, config.n_components)
            for m in range(config.n_components):
                cov = analytic_sigma(moments, co, m)
                expected = tensor_sigma_v(
                    [mo.d2 for mo in moments],
                    l4,
                    [mo.sigma2 for mo in moments],
                    [mo.b for mo in moments],
                    co,
                    m,
                )
                for got, want in zip((cov.sigma, cov.v), expected):
                    err = np.max(np.abs(got - want))
                    assert err <= 1e-13 * np.max(np.abs(want)), (trial, m, err)

    def test_wide_design_under_a_second(self):
        # O(d^2) per component; a d^4 tensor built entry by entry takes seconds here
        d = 30

        def spec(shift):
            return ComponentSpec(
                regressors=(ConstantRegressor(),)
                + tuple(GaussianRegressor(mean=shift + 0.1 * i, sd=1.0) for i in range(d - 1)),
                error_sd=0.5,
                coefficients=tuple(shift + 0.05 * i for i in range(d)),
            )

        config = SimulationConfig(n_obs=100, components=(spec(0.0), spec(1.0)))
        co = [limit_co_moments(config, m) for m in range(2)]
        start = time.perf_counter()
        moments = true_component_moments(config)
        for m in range(2):
            analytic_sigma(moments, co[m], m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"analytic covariance at d={d} took {elapsed:.2f}s"


def raw_moment(reg, order):
    """E[x^order] of one simulator regressor; a constant is identically one."""
    if isinstance(reg, ConstantRegressor):
        return 1.0
    mu, s2 = reg.mean, reg.sd**2
    table = (1.0, mu, mu**2 + s2, mu**3 + 3.0 * mu * s2, mu**4 + 6.0 * mu**2 * s2 + 3.0 * s2**2)
    return table[order]


def raw_moment_tensor(component):
    """Fourth-moment tensor of independent regressors, entry by entry.

    Each product moment factorizes into per-regressor raw moments.
    """
    regs = component.regressors
    d = len(regs)
    l4 = np.zeros((d, d, d, d))
    for idx in product(range(d), repeat=4):
        value = 1.0
        for r, count in Counter(idx).items():
            value *= raw_moment(regs[r], count)
        l4[idx] = value
    return l4


def random_gaussian_design(rng, d):
    """One to three components of d regressors, each component with at most one constant."""
    n_comp = int(rng.integers(1, 4))
    components = []
    for _ in range(n_comp):
        constant_at = int(rng.integers(-1, d))  # -1: no constant regressor
        regs = tuple(
            ConstantRegressor()
            if i == constant_at
            else GaussianRegressor(mean=float(rng.normal()), sd=float(rng.uniform(0.3, 2.0)))
            for i in range(d)
        )
        components.append(
            ComponentSpec(
                regressors=regs,
                error_sd=float(rng.uniform(0.1, 1.0)),
                coefficients=tuple(rng.normal(size=d).tolist()),
            )
        )
    values = rng.dirichlet(np.ones(n_comp), size=10)
    return SimulationConfig(
        n_obs=10, components=tuple(components), concentrations=ExplicitConcentrations(values)
    )


def tensor_sigma_v(d2, l4, sigma2, b, co, m):
    """Sigma and V of target m from full fourth-moment tensors, term by term."""
    n_comp = len(d2)
    w = co.sum(axis=1)
    delta = [b[s] - b[m] for s in range(n_comp)]
    u = [d2[s] @ delta[s] for s in range(n_comp)]
    sigma = sum(
        w[s] * (d2[s] * sigma2[s] + np.einsum("iklq,l,q->ik", l4[s], delta[s], delta[s]))
        for s in range(n_comp)
    )
    for s in range(n_comp):
        for t in range(n_comp):
            sigma = sigma - co[s, t] * np.outer(u[s], u[t])
    d_inv = np.linalg.inv(d2[m])
    return sigma, d_inv @ sigma @ d_inv


class TestPlugInCovariance:
    def test_single_component_matches_ols_estimate(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 2))
        y = x @ np.array([1.0, -2.0]) + 0.3 * rng.normal(size=80)
        data = Dataset(y=y, x=x)
        p = ConcentrationMatrix(np.ones((80, 1)))
        fit = fit_all(data, p)
        cov = plug_in_covariance(data, p, fit, 0)
        resid = y - x @ fit.coefficients[0]
        sigma2 = float(np.mean(resid**2))
        expected = sigma2 * np.linalg.inv(x.T @ x / 80)
        np.testing.assert_allclose(cov.v, expected, atol=1e-10)
        np.testing.assert_allclose(
            cov.std_errors, np.sqrt(np.diag(expected) / 80), atol=1e-12
        )

    def test_noiseless_data_gives_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        data = Dataset(y=x @ np.array([2.0, 1.0]), x=x)
        p = ConcentrationMatrix(np.ones((50, 1)))
        fit = fit_all(data, p)
        cov = plug_in_covariance(data, p, fit, 0)
        np.testing.assert_allclose(cov.v, np.zeros((2, 2)), atol=1e-10)

    def test_rejects_failed_fit(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=40)
        data = Dataset(y=rng.normal(size=40), x=np.column_stack([x1, x1]))
        t = np.arange(1, 41) / 40
        p = ConcentrationMatrix(np.column_stack([t, 1 - t]))
        fit = fit_all(data, p)
        assert fit.errors
        with pytest.raises(ValueError):
            plug_in_covariance(data, p, fit, 0)

    def test_negative_variance_clamped_with_warning(self):
        # the tiny error scale of component 1 makes its weighted residual
        # variance estimate go negative for many seeds
        config, _ = reference_study_config()
        sim = generate(with_seed(config, 12345))
        fit = fit_all(sim.data, sim.p)
        cov = plug_in_covariance(sim.data, sim.p, fit, 0)
        assert any("clamped" in w for w in cov.warnings)

    def test_cross_validates_analytic_sigma(self):
        # one large draw: empirical plug-in Sigma within 5% of the limit
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, 50000), 2024))
        fit = fit_all(sim.data, sim.p)
        moments = true_component_moments(config)
        for m in range(2):
            plug = plug_in_covariance(sim.data, sim.p, fit, m)
            exact = analytic_sigma(moments, limit_co_moments(config, m), m)
            np.testing.assert_allclose(plug.sigma, exact.sigma, rtol=0.05)

    def test_mean_plug_in_tracks_limit(self):
        config, _ = reference_study_config()
        acc = np.zeros((2, 2, 2))
        reps = 200
        for rep in range(reps):
            sim = generate(with_seed(config, 5000 + rep))
            fit = fit_all(sim.data, sim.p)
            for m in range(2):
                acc[m] += plug_in_covariance(sim.data, sim.p, fit, m).v
        acc /= reps
        np.testing.assert_allclose(acc[0], V_COMPONENT_1, rtol=0.15)
        np.testing.assert_allclose(acc[1], V_COMPONENT_2, rtol=0.15)


def tensor_route(data, p, fit, m):
    """Plug-in Sigma and V of component m through the full d^4 tensor."""
    weights = compute_weights(p)
    d2, l4, sigma2 = [], [], []
    for s in range(p.n_components):
        a_s = weights.values[:, s]
        d2.append(component_regression_moments(data, a_s)[0])
        l4.append(weighted_fourth_moment(data, a_s))
        resid = data.y - data.x @ fit.coefficients[s]
        sigma2.append(max(float(np.einsum("j,j->", a_s, resid**2) / data.n_obs), 0.0))
    co = weight_co_moments(weights.values[:, m], p)
    return tensor_sigma_v(d2, l4, sigma2, fit.coefficients, co, m)


def assert_matches_tensor_route(data, p, fit):
    covs = plug_in_covariances(data, p, fit)
    assert [c.component for c in covs] == list(range(p.n_components))
    for m, cov in enumerate(covs):
        oracle = tensor_route(data, p, fit, m)
        for name, expected in zip(("sigma", "v"), oracle):
            err = np.max(np.abs(getattr(cov, name) - expected))
            assert err <= 1e-10 * np.max(np.abs(expected)), (m, name, err)
    return covs


def assert_same_bytes(a, b):
    for name in ("sigma", "v", "d_matrix", "std_errors"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.component, a.mode, a.warnings) == (b.component, b.mode, b.warnings)


def clamped_design():
    """Bundled design at a seed whose plug-in error variance goes negative."""
    config, _ = reference_study_config()
    sim = generate(with_seed(config, 12345))
    return sim.data, sim.p


class TestContractedPlugIn:
    """The O(N d^2) contraction against the d^4 tensor it replaces."""

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("n_comp", range(1, 5))
    def test_matches_tensor_route(self, n_comp, d):
        data, p = dirichlet_design(100 * n_comp + d, n_comp, d)
        fit = fit_all(data, p)
        assert fit.ok
        assert_matches_tensor_route(data, p, fit)

    def test_matches_tensor_route_with_shifted_response(self):
        # a response mean far above its spread: sigma^2 and the quartic keep
        # their residual forms, which do not cancel as sums of y^2 would
        data, p = dirichlet_design(7, 3, 4)
        shifted = Dataset(y=data.y + 1e4, x=data.x)
        assert_matches_tensor_route(shifted, p, fit_all(shifted, p))

    def test_matches_tensor_route_with_clamped_variance(self):
        data, p = clamped_design()
        covs = assert_matches_tensor_route(data, p, fit_all(data, p))
        assert all(any("clamped to 0" in w for w in c.warnings) for c in covs)

    @pytest.mark.parametrize(
        "design",
        [
            lambda: dirichlet_design(9, 1, 2),
            lambda: dirichlet_design(25, 3, 4),
            lambda: dirichlet_design(34, 4, 6),
            clamped_design,
        ],
        ids=["M1-d2", "M3-d4", "M4-d6", "clamped"],
    )
    def test_single_target_is_entry_of_all_targets(self, design):
        data, p = design()
        fit = fit_all(data, p)
        covs = plug_in_covariances(data, p, fit)
        for m in range(p.n_components):
            assert_same_bytes(plug_in_covariance(data, p, fit, m), covs[m])

    def test_rejects_target_out_of_range(self):
        data, p = dirichlet_design(3, 2, 2)
        fit = fit_all(data, p)
        for m in (-1, 2):
            with pytest.raises(ValueError):
                plug_in_covariance(data, p, fit, m)
