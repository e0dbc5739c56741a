import inspect
import re

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import mvcreg.concentrations
from mvcreg import (
    ConcentrationMatrix,
    SingularGramian,
    build_gramian,
    compute_weights,
    weight_co_moments,
)
from conftest import random_stochastic_rows


def ramp(n):
    t = np.arange(1, n + 1) / n
    return ConcentrationMatrix(np.column_stack([t, 1.0 - t]))


def ungated_gramian(p):
    """The Gramian of ``p`` under no ceiling; an exactly singular one is rejected."""
    try:
        return build_gramian(p, gamma_tol=np.inf)
    except SingularGramian:
        reject()


class TestConcentrationMatrix:
    def test_valid(self):
        p = ConcentrationMatrix(np.array([[0.3, 0.7], [0.9, 0.1]]))
        assert p.values.shape == (2, 2)
        assert not p.values.flags.writeable

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row 1"):
            ConcentrationMatrix(np.array([[0.5, 0.5], [0.6, 0.6]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            ConcentrationMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_fewer_rows_than_components(self):
        with pytest.raises(ValueError):
            ConcentrationMatrix(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.full(3, 1.0), "concentration matrix must be two-dimensional"),
            (np.ones((3, 0)), "need at least one component"),
            (
                np.array([[0.5, 0.5]]),
                "need at least as many observations as components (N=1 < M=2)",
            ),
            (
                np.array([[np.nan, 0.5], [0.5, 0.5]]),
                "concentration matrix contains non-finite entries",
            ),
            (np.array([[1.2, -0.2], [0.5, 0.5]]), "concentration entries must lie in [0, 1]"),
        ],
        ids=["1-d", "no component", "too few rows", "nan entry", "entry outside [0, 1]"],
    )
    def test_refusal_messages(self, values, message):
        with pytest.raises(ValueError) as exc_info:
            ConcentrationMatrix(values)
        assert str(exc_info.value) == message

    def test_refusal_names_the_first_worst_row_of_any_block(self):
        # rows are checked a block at a time; the message names the row
        # whose sum is furthest from 1, the first of them on a tie, and an
        # infinity or an entry outside [0, 1] in a later block is found too
        chunk = mvcreg.concentrations._CHUNK_ROWS
        values = np.full((3 * chunk + 5, 2), 0.5)
        values[chunk + 3] = [0.5, 0.501]
        values[2 * chunk + 1] = [0.5, 0.503]
        values[3 * chunk + 2] = [0.5, 0.503]
        with pytest.raises(ValueError) as exc_info:
            ConcentrationMatrix(values)
        assert str(exc_info.value).startswith(f"row {2 * chunk + 1} sums to 1.003, ")
        for bad, message in ((np.inf, "contains non-finite"), (1.5, "must lie in [0, 1]")):
            values[3 * chunk + 4, 0] = bad
            with pytest.raises(ValueError, match=re.escape(message)):
                ConcentrationMatrix(values)

    def test_row_sum_tol_relaxation(self):
        rows = np.array([[0.5, 0.5 + 5e-8], [0.5, 0.5]])
        with pytest.raises(ValueError):
            ConcentrationMatrix(rows)
        ConcentrationMatrix(rows, row_sum_tol=1e-6)


class TestBuildGramian:
    def test_single_component_identity(self):
        p = ConcentrationMatrix(np.ones((7, 1)))
        g = build_gramian(p)
        np.testing.assert_allclose(g.gamma, [[1.0]])
        assert g.det_gamma == 1.0
        assert g.condition == 1.0

    def test_ramp_large_n_limits(self):
        # column averages approach integrals of t*t, t*(1-t), (1-t)^2
        g = build_gramian(ramp(10**6))
        np.testing.assert_allclose(g.gamma, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=2e-6)
        assert g.det_gamma == pytest.approx(1 / 12, abs=1e-6)

    def test_two_row_identity(self):
        g = build_gramian(ConcentrationMatrix(np.eye(2)))
        np.testing.assert_allclose(g.gamma, [[0.5, 0.0], [0.0, 0.5]])
        assert g.det_gamma == pytest.approx(0.25)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 4))
    def test_row_permutation_invariant(self, seed, n, m):
        rng = np.random.default_rng(seed)
        assume(n >= m)
        rows = random_stochastic_rows(rng, n, m)
        perm = rng.permutation(n)
        g = ungated_gramian(ConcentrationMatrix(rows))
        g2 = ungated_gramian(ConcentrationMatrix(rows[perm]))
        np.testing.assert_allclose(g.gamma, g2.gamma, atol=1e-12)


class TestComputeWeights:
    def test_single_component_all_ones(self):
        p = ConcentrationMatrix(np.ones((5, 1)))
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_array_equal(a, np.ones((5, 1)))

    def test_two_row_identity_hand_values(self):
        p = ConcentrationMatrix(np.eye(2))
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_allclose(a, [[2.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_ramp_limit_form(self):
        n = 10**5
        t = np.arange(1, n + 1) / n
        p = ramp(n)
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_allclose(a[:, 0], 6 * t - 2, atol=1e-3)
        np.testing.assert_allclose(a[:, 1], 4 - 6 * t, atol=1e-3)

    def test_duplicate_columns_raise(self):
        rows = np.full((10, 2), 0.5)
        with pytest.raises(SingularGramian) as exc_info:
            build_gramian(ConcentrationMatrix(rows))
        assert exc_info.value.det == pytest.approx(0.0, abs=1e-15)
        assert "identifiability" in str(exc_info.value)

    def test_condition_gate(self):
        # Gamma = diag(3/4, 1/4): cond exactly 3, accepted at the ceiling,
        # rejected just below it
        p = ConcentrationMatrix(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]]))
        assert build_gramian(p, 3.0).condition == 3.0
        with pytest.raises(SingularGramian) as exc_info:
            build_gramian(p, 2.9)
        assert exc_info.value.condition == 3.0
        assert exc_info.value.tol == 2.9
        assert exc_info.value.det == pytest.approx(3 / 16)
        # Gamma = I/10: det 1e-10, yet perfectly conditioned and accepted
        p = ConcentrationMatrix(np.eye(10))
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_allclose(a, 10 * np.eye(10), rtol=1e-14)
        # even an infinite ceiling does not let an exactly singular Gramian through
        with pytest.raises(SingularGramian):
            build_gramian(ConcentrationMatrix(np.full((10, 2), 0.5)), np.inf)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 10))
    def test_biorthogonality(self, seed, n, m):
        rng = np.random.default_rng(seed)
        assume(n >= m)
        p = ConcentrationMatrix(random_stochastic_rows(rng, n, m))
        g = ungated_gramian(p)
        assume(g.condition < 1e6)
        a = compute_weights(p, g)
        cross = a.T @ p.values / n
        np.testing.assert_allclose(cross, np.eye(m), atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 10))
    def test_well_conditioned_designs_never_refused(self, seed, n, m):
        # condition judged independently of build_gramian, by SVD
        rng = np.random.default_rng(seed)
        assume(n >= m)
        rows = random_stochastic_rows(rng, n, m)
        assume(np.linalg.cond(rows.T @ rows / n) < 1e6)
        build_gramian(ConcentrationMatrix(rows))

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    def test_row_permutation_permutes_weights(self, seed, n):
        rng = np.random.default_rng(seed)
        rows = random_stochastic_rows(rng, n, 2)
        p = ConcentrationMatrix(rows)
        g = ungated_gramian(p)
        assume(g.det_gamma > 0.01)
        perm = rng.permutation(n)
        p2 = ConcentrationMatrix(rows[perm])
        a = compute_weights(p, g)
        a2 = compute_weights(p2, build_gramian(p2))
        np.testing.assert_allclose(a2, a[perm], atol=1e-12)


    def test_weights_come_from_the_given_gramian_alone(self, monkeypatch):
        p = ramp(50)
        g = build_gramian(p)

        def refusing_build_gramian(*args, **kwargs):
            raise AssertionError("compute_weights built a Gramian")

        monkeypatch.setattr(mvcreg.concentrations, "build_gramian", refusing_build_gramian)
        a = compute_weights(p, g)
        np.testing.assert_array_equal(a, p.values @ g.inverse)
        g_param = inspect.signature(compute_weights).parameters["g"]
        assert g_param.default is inspect.Parameter.empty


class TestWeightCoMoments:
    def test_single_component(self):
        p = ConcentrationMatrix(np.ones((4, 1)))
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_allclose(weight_co_moments(a[:, 0], p), [[1.0]])

    def test_ramp_limit_values(self):
        # integrals of (6t-2)^2 against t^2, t(1-t), (1-t)^2
        p = ramp(10**6)
        a = compute_weights(p, build_gramian(p))
        co = weight_co_moments(a[:, 0], p)
        expected = np.array([[38 / 15, 7 / 15], [7 / 15, 8 / 15]])
        np.testing.assert_allclose(co, expected, atol=1e-4)

    def test_two_row_identity_hand_values(self):
        p = ConcentrationMatrix(np.eye(2))
        a = compute_weights(p, build_gramian(p))
        np.testing.assert_allclose(
            weight_co_moments(a[:, 0], p), [[2.0, 0.0], [0.0, 0.0]], atol=1e-12
        )

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        p = ConcentrationMatrix(random_stochastic_rows(rng, 50, 3))
        a = compute_weights(p, build_gramian(p))
        for m in range(3):
            co = weight_co_moments(a[:, m], p)
            np.testing.assert_array_equal(co, co.T)


class TestHandOver:
    def test_writable_values_are_copied(self):
        values = np.array([[0.3, 0.7], [0.9, 0.1]])
        held = ConcentrationMatrix(values).values
        assert not np.shares_memory(held, values) and not held.flags.writeable
        assert values.flags.writeable

    def test_read_only_owned_values_are_handed_over(self):
        values = np.array([[0.3, 0.7], [0.9, 0.1]])
        values.flags.writeable = False
        assert ConcentrationMatrix(values).values is values

    def test_weights_own_their_memory(self):
        p = ramp(50)
        a = compute_weights(p, build_gramian(p))
        assert a.flags.owndata and a.flags.c_contiguous and not a.flags.writeable
        assert not np.shares_memory(a, p.values)
