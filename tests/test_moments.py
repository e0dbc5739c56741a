import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcreg import (
    ComponentMoments,
    ConcentrationMatrix,
    Dataset,
    NonFiniteMoment,
    component_regression_moments,
    compute_weights,
    fit_all,
    generate,
    objective,
    reference_study_config,
    weighted_fourth_moment,
    weighted_moment,
)
import mvcreg.moments
from mvcreg.simgen import with_n_obs, with_seed


def _design(n, seed=0):
    config, _ = reference_study_config()
    return generate(with_seed(with_n_obs(config, n), seed))


class TestDataset:
    def test_valid(self):
        d = Dataset(y=np.arange(3.0), x=np.ones((3, 1)))
        assert d.n_obs == 3 and d.n_regressors == 1
        assert not d.y.flags.writeable and not d.x.flags.writeable

    def test_needs_more_rows_than_regressors(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(2), x=np.ones((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(y=np.array([1.0, np.nan, 0.0]), x=np.ones((3, 1)))


class TestComponentMoments:
    def test_rejects_asymmetric_d2(self):
        with pytest.raises(ValueError):
            ComponentMoments(
                d2=np.array([[1.0, 0.5], [0.1, 1.0]]),
                l4=np.zeros((2, 2, 2, 2)),
                sigma2=1.0,
                b=np.zeros(2),
            )

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            ComponentMoments(
                d2=np.eye(1), l4=np.ones((1, 1, 1, 1)), sigma2=-0.1, b=np.zeros(1)
            )


class TestWeightedMoment:
    def test_constant_function_is_one(self):
        sim = _design(200)
        a = compute_weights(sim.p)
        for m in range(2):
            v = weighted_moment(sim.data, a.values[:, m], lambda y, x: 1.0)
            assert v == pytest.approx(1.0, abs=1e-10)

    def test_single_component_reduces_to_mean(self):
        rng = np.random.default_rng(1)
        data = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 2)))
        v = weighted_moment(data, np.ones(20), lambda y, x: y)
        assert v == pytest.approx(data.y.mean(), abs=1e-12)

    def test_component_mean_of_regressor(self):
        # weighted first moment of the non-constant regressor targets E[X] = 1
        sim = _design(10**5, seed=11)
        a = compute_weights(sim.p)
        v = weighted_moment(sim.data, a.values[:, 0], lambda y, x: x[1])
        assert v == pytest.approx(1.0, abs=0.05)

    def test_non_finite_row_reported(self):
        data = Dataset(y=np.arange(5.0), x=np.ones((5, 1)))
        with pytest.raises(NonFiniteMoment) as exc_info:
            weighted_moment(data, np.ones(5), lambda y, x: np.inf if y == 3.0 else 1.0)
        assert exc_info.value.row == 3

    @given(st.integers(0, 2**32 - 1))
    def test_linear_in_g(self, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(y=rng.normal(size=15), x=rng.normal(size=(15, 2)))
        a = rng.normal(size=15)
        g1 = lambda y, x: y * x[0]
        g2 = lambda y, x: x[1] ** 2
        lhs = weighted_moment(data, a, lambda y, x: 2.0 * g1(y, x) - 3.0 * g2(y, x))
        rhs = 2.0 * weighted_moment(data, a, g1) - 3.0 * weighted_moment(data, a, g2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRegressionMoments:
    def test_unit_weights_are_plain_moments(self):
        rng = np.random.default_rng(2)
        data = Dataset(y=rng.normal(size=30), x=rng.normal(size=(30, 3)))
        xtx, xty = component_regression_moments(data, np.ones(30))
        np.testing.assert_allclose(xtx, data.x.T @ data.x / 30, atol=1e-12)
        np.testing.assert_allclose(xty, data.x.T @ data.y / 30, atol=1e-12)

    def test_hand_example(self):
        data = Dataset(y=np.array([1.0, 4.0]), x=np.array([[1.0], [2.0]]))
        xtx, xty = component_regression_moments(data, np.array([2.0, 0.0]))
        np.testing.assert_allclose(xtx, [[1.0]])
        np.testing.assert_allclose(xty, [1.0])

    def test_component_second_moments(self):
        # weights isolate component 1: moments of the pair (1, N(1,1))
        sim = _design(10**5, seed=5)
        a = compute_weights(sim.p)
        xtx, _ = component_regression_moments(sim.data, a.values[:, 0])
        np.testing.assert_allclose(xtx, [[1.0, 1.0], [1.0, 2.0]], atol=0.06)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 8197])
    def test_row_blocks_sum_to_the_whole(self, extra):
        # N on and around the row-block boundaries, against an exactly
        # rounded sum per entry
        n = mvcreg.moments._CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        data = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, 3)))
        a = rng.normal(size=n)
        xtx, xty = component_regression_moments(data, a)
        ax = a[:, None] * data.x
        ref_xtx = np.array(
            [[math.fsum(ax[:, i] * data.x[:, k]) / n for k in range(3)] for i in range(3)]
        )
        ref_xty = np.array([math.fsum(ax[:, i] * data.y) / n for i in range(3)])
        scale = np.abs(ref_xtx).max()
        assert np.abs(xtx - ref_xtx).max() <= 1e-12 * scale
        assert np.abs(xty - ref_xty).max() <= 1e-12 * np.abs(ref_xty).max()
        assert xtx.tobytes() == xtx.T.tobytes()


class TestFourthMoment:
    def test_hand_example(self):
        data = Dataset(y=np.array([1.0, 4.0]), x=np.array([[1.0], [2.0]]))
        l4 = weighted_fourth_moment(data, np.array([2.0, 0.0]))
        assert l4[0, 0, 0, 0] == pytest.approx(1.0)

    def test_fully_symmetric(self):
        rng = np.random.default_rng(4)
        data = Dataset(y=rng.normal(size=40), x=rng.normal(size=(40, 3)))
        l4 = weighted_fourth_moment(data, rng.normal(size=40))
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)]:
            np.testing.assert_allclose(l4, np.transpose(l4, perm), atol=1e-12)


class TestObjective:
    def test_zero_residuals(self):
        x = np.arange(1.0, 5.0)[:, None]
        data = Dataset(y=2.0 * x[:, 0], x=x)
        assert objective(data, np.ones(4), np.array([2.0])) == 0.0

    def test_unit_weights_zero_coefficient(self):
        rng = np.random.default_rng(6)
        data = Dataset(y=rng.normal(size=25), x=rng.normal(size=(25, 1)))
        v = objective(data, np.ones(25), np.zeros(1))
        assert v == pytest.approx(np.mean(data.y**2), abs=1e-12)

    def test_minimized_at_least_squares_solution(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 2))
        y = x @ np.array([1.5, -0.5]) + 0.1 * rng.normal(size=60)
        data = Dataset(y=y, x=x)
        p = ConcentrationMatrix(np.ones((60, 1)))
        b = fit_all(data, p).coefficients[0]
        a = np.ones(60)
        base = objective(data, a, b)
        for i in range(2):
            for eps in (-0.01, 0.01):
                shifted = b.copy()
                shifted[i] += eps
                assert objective(data, a, shifted) > base


def test_moment_error_decays_with_sample_size():
    # median max-norm error of weighted regressor means shrinks through the grid
    config, _ = reference_study_config()
    true_means = np.array([[1.0, 1.0], [1.0, 2.0]])
    medians = []
    for n in (500, 5000, 50000):
        errs = []
        for rep in range(50):
            sim = generate(with_seed(with_n_obs(config, n), 900 + rep))
            a = compute_weights(sim.p)
            est = np.einsum("jm,ji->mi", a.values, sim.data.x) / n
            errs.append(np.max(np.abs(est - true_means)))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]
