import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcreg import (
    ComponentMoments,
    ConcentrationMatrix,
    Dataset,
    analytic_sigma,
    build_gramian,
    component_regression_moments,
    compute_weights,
    fit_all,
    generate,
    reference_study_config,
    weighted_fourth_moment,
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

    @pytest.mark.parametrize(
        "y, x, message",
        [
            (np.zeros((3, 1)), np.ones((3, 1)), "y must be one-dimensional"),
            (np.zeros(3), np.ones(3), "x must be two-dimensional"),
            (np.zeros(4), np.ones((3, 1)), "y has 4 rows but x has 3"),
            (np.zeros(3), np.ones((3, 0)), "need at least one regressor"),
            (np.zeros(2), np.ones((2, 2)), "need more observations than regressors (N=2, d=2)"),
            (
                np.zeros(3),
                np.array([[1.0], [np.inf], [0.0]]),
                "dataset contains non-finite entries",
            ),
        ],
        ids=["y 2-d", "x 1-d", "row counts differ", "no regressor", "too few rows", "inf in x"],
    )
    def test_refusal_messages(self, y, x, message):
        with pytest.raises(ValueError) as exc_info:
            Dataset(y=y, x=x)
        assert str(exc_info.value) == message

    def test_writable_arrays_are_copied(self):
        y, x = np.arange(3.0), np.ones((3, 1))
        d = Dataset(y=y, x=x)
        assert not np.shares_memory(d.y, y) and not np.shares_memory(d.x, x)
        y[0] = 99.0
        assert d.y[0] == 0.0
        assert y.flags.writeable and x.flags.writeable

    def test_read_only_owned_arrays_are_handed_over(self):
        y, x = np.arange(3.0), np.ones((3, 1))
        y.flags.writeable = False
        x.flags.writeable = False
        d = Dataset(y=y, x=x)
        assert d.y is y and d.x is x

    def test_views_and_other_dtypes_are_copied(self):
        table = np.ones((4, 3))
        table.flags.writeable = False  # its column views are read-only too
        d = Dataset(y=table[:, 0], x=table[:, 1:])
        assert not np.shares_memory(d.y, table) and not np.shares_memory(d.x, table)
        assert d.y.flags.owndata and d.x.flags.owndata
        ints = np.arange(4)
        ints.flags.writeable = False
        d = Dataset(y=ints, x=table[:, 1:])
        assert d.y.dtype == np.float64 and not np.shares_memory(d.y, ints)
        assert not d.y.flags.writeable


def _moments(n_comp=1, **changes):
    args = dict(
        d2=[np.eye(2)] * n_comp,
        mean=np.zeros((n_comp, 2)),
        sigma2=[1.0] * n_comp,
        b=np.zeros((n_comp, 2)),
    )
    return ComponentMoments(**{**args, **changes})


#: a 2 x 2 slab whose off-diagonal entries differ by half its largest entry
_LOPSIDED = np.array([[1.0, 0.5], [0.0, 1.0]])


class TestComponentMoments:
    def test_rejects_asymmetric_d2(self):
        # the second component's slab is the asymmetric one
        with pytest.raises(ValueError, match="d2 must be symmetric"):
            _moments(2, d2=[np.eye(2), [[1.0, 0.5], [0.1, 1.0]]])

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
            _moments(sigma2=[-0.1])

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-12, 13, 3)])
    def test_symmetry_verdict_is_scale_free(self, scale):
        # each slab is judged against its own largest magnitude, so an
        # asymmetry of half that magnitude is refused at every scale and an
        # exactly symmetric slab, or one off by a rounding error, accepted
        with pytest.raises(ValueError, match="d2 must be symmetric"):
            _moments(d2=[scale * _LOPSIDED])
        _moments(d2=[scale * np.array([[1.0, 0.5], [0.5, 1.0]])])
        _moments(d2=[scale * np.array([[1.0, 0.5], [0.5 * (1 + 1e-15), 1.0]])])
        co = np.stack([scale * np.eye(2), scale * _LOPSIDED])
        moments = _moments(2)
        with pytest.raises(ValueError, match="co_moments must be symmetric"):
            analytic_sigma(moments, co)
        analytic_sigma(moments, np.stack([scale * np.eye(2), scale * (_LOPSIDED + _LOPSIDED.T)]))

    def test_nan_is_not_symmetric(self):
        with pytest.raises(ValueError, match="d2 must be symmetric"):
            _moments(d2=[[[1.0, np.nan], [np.nan, 1.0]]])


def weighted_rss(data, a_col, b):
    """(1/N) sum_j a_j (y_j - x_j'b)^2, the weighted residual sum of squares.

    With signed weights it can be unbounded below, so the estimator is not
    its argmin; its gradient in b is 2 (X'AX b - X'Ay) / N, which vanishes at
    the fitted coefficients.
    """
    resid = data.y - data.x @ b
    return float(np.einsum("j,j->", a_col, resid**2) / data.n_obs)


class TestWeightedMoment:
    """Weighted moments read off the normal-equation blocks."""

    def test_constant_function_is_one(self):
        # the design's first regressor is constant, so X'AX[0, 0] = mean(a)
        sim = _design(200)
        a = compute_weights(sim.p, build_gramian(sim.p))
        for m in range(2):
            xtx, _ = component_regression_moments(sim.data, a[:, m])
            assert xtx[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_single_component_reduces_to_mean(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        data = Dataset(y=rng.normal(size=20), x=x)
        _, xty = component_regression_moments(data, np.ones(20))
        assert xty[0] == pytest.approx(data.y.mean(), abs=1e-12)

    def test_component_mean_of_regressor(self):
        # weighted first moment of the non-constant regressor targets E[X] = 1
        sim = _design(10**5, seed=11)
        a = compute_weights(sim.p, build_gramian(sim.p))
        xtx, _ = component_regression_moments(sim.data, a[:, 0])
        assert xtx[0, 1] == pytest.approx(1.0, abs=0.05)

    def test_non_finite_row_reported(self):
        # a non-finite row never reaches a moment: the dataset refuses it
        x = np.ones((5, 1))
        x[3, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(y=np.arange(5.0), x=x)

    @given(st.integers(0, 2**32 - 1))
    def test_linear_in_g(self, seed):
        # linear in the weights, and X'Ay linear in the response
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(15, 2))
        y1, y2 = rng.normal(size=15), rng.normal(size=15)
        a1, a2 = rng.normal(size=15), rng.normal(size=15)
        data = Dataset(y=y1, x=x)
        lhs = component_regression_moments(data, 2.0 * a1 - 3.0 * a2)
        first = component_regression_moments(data, a1)
        second = component_regression_moments(data, a2)
        for got, u, v in zip(lhs, first, second):
            np.testing.assert_allclose(got, 2.0 * u - 3.0 * v, rtol=0, atol=1e-12)
        _, xty = component_regression_moments(Dataset(y=2.0 * y1 - 3.0 * y2, x=x), a1)
        _, xty2 = component_regression_moments(Dataset(y=y2, x=x), a1)
        np.testing.assert_allclose(xty, 2.0 * first[1] - 3.0 * xty2, rtol=0, atol=1e-12)


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
        a = compute_weights(sim.p, build_gramian(sim.p))
        xtx, _ = component_regression_moments(sim.data, a[:, 0])
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


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("extra", [-1, 0, 1, 8193])
def test_row_blocks_of_a_product_have_its_bytes(extra, k):
    # the blocks of matrix @ vector have the bytes of the whole product: a
    # last block of one row too, which numpy alone would take as a dot
    # product, whose sum differs in the last bit for some of these seeds
    chunk = mvcreg.moments._CHUNK_ROWS
    n = chunk + extra
    for seed in range(12):
        rng = np.random.default_rng(seed)
        matrix, vector = rng.normal(size=(n, k)), rng.normal(size=k)
        blocks = [
            mvcreg.moments._rows_times(matrix, vector, slice(start, start + chunk))
            for start in range(0, n, chunk)
        ]
        assert np.concatenate(blocks).tobytes() == (matrix @ vector).tobytes(), seed


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
    """The fitted coefficients are stationary points of the weighted RSS."""

    def test_zero_residuals(self):
        x = np.arange(1.0, 5.0)[:, None]
        data = Dataset(y=2.0 * x[:, 0], x=x)
        b = fit_all(data, ConcentrationMatrix(np.ones((4, 1)))).coefficients[0]
        assert b == pytest.approx([2.0], abs=1e-12)
        assert weighted_rss(data, np.ones(4), b) == pytest.approx(0.0, abs=1e-24)

    def test_unit_weights_zero_coefficient(self):
        # the RSS expands into the normal-equation blocks:
        # mean(a y^2) - 2 b'X'Ay/N + b'X'AX b/N, which is mean(y^2) at b = 0
        rng = np.random.default_rng(6)
        data = Dataset(y=rng.normal(size=25), x=rng.normal(size=(25, 2)))
        a = np.ones(25)
        xtx, xty = component_regression_moments(data, a)
        assert weighted_rss(data, a, np.zeros(2)) == pytest.approx(
            np.mean(data.y**2), abs=1e-12
        )
        b = rng.normal(size=2)
        expanded = np.mean(data.y**2) - 2.0 * b @ xty + b @ xtx @ b
        assert weighted_rss(data, a, b) == pytest.approx(expanded, abs=1e-12)

    def test_minimized_at_least_squares_solution(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 2))
        y = x @ np.array([1.5, -0.5]) + 0.1 * rng.normal(size=60)
        data = Dataset(y=y, x=x)
        p = ConcentrationMatrix(np.ones((60, 1)))
        b = fit_all(data, p).coefficients[0]
        a = np.ones(60)
        base = weighted_rss(data, a, b)
        for i in range(2):
            for eps in (-0.01, 0.01):
                shifted = b.copy()
                shifted[i] += eps
                assert weighted_rss(data, a, shifted) > base


def test_moment_error_decays_with_sample_size():
    # median max-norm error of weighted regressor means shrinks through the grid
    config, _ = reference_study_config()
    true_means = np.array([[1.0, 1.0], [1.0, 2.0]])
    medians = []
    for n in (500, 5000, 50000):
        errs = []
        for rep in range(50):
            sim = generate(with_seed(with_n_obs(config, n), 900 + rep))
            a = compute_weights(sim.p, build_gramian(sim.p))
            est = np.einsum("jm,ji->mi", a, sim.data.x) / n
            errs.append(np.max(np.abs(est - true_means)))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]
